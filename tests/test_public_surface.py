"""Every name `semitop/__init__.py` exports has a caller in the program.

A caller is a reference in `src/semitop`, `scripts/` or `perfbench/` that is
not an import, not inside the name's own definition and not in
`__init__.py` itself; a string naming it counts, since the benchmark tracer
patches functions by name.  The only exceptions are the paper notions that
no subcommand needs yet, each named in README with the result it serves.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER_NOTIONS = {"congruence_join", "congruence_meet", "scattered_height", "semil_iso",
                 "universal"}


def exported_names():
    tree = ast.parse((ROOT / "src" / "semitop" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


class _References(ast.NodeVisitor):
    """Names a module reads, skipping imports and self-references."""

    def __init__(self):
        self.found = set()
        self._defining = []

    def visit_FunctionDef(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def _note(self, name):
        if name not in self._defining:
            self.found.add(name)

    def visit_Name(self, node):
        self._note(node.id)

    def visit_Attribute(self, node):
        self._note(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):  # "Class.method" names the class
            self._note(node.value.split(".")[0])


def program_references():
    files = [p for p in (ROOT / "src" / "semitop").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    refs = _References()
    for path in files:
        refs.visit(ast.parse(path.read_text()))
    return refs.found


def test_every_export_has_a_caller_or_is_a_named_paper_notion():
    names = exported_names()
    assert len(names) > 50
    uncalled = sorted(set(names) - program_references() - PAPER_NOTIONS)
    assert not uncalled, f"exported but called only from tests: {uncalled}"


def test_paper_notions_are_exported_and_named_in_readme():
    readme = (ROOT / "README.md").read_text()
    assert PAPER_NOTIONS <= set(exported_names())
    assert all(f"`{name}`" in readme for name in PAPER_NOTIONS)


def test_the_scan_skips_imports_and_self_references():
    refs = _References()
    refs.visit(ast.parse("from m import a\n"
                         "def b():\n    return b()\n"
                         "def c():\n    return m.d, 'e.f'\n"))
    assert refs.found == {"m", "d", "e"}
