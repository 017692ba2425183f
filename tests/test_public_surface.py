"""Every definition in `src/semitop` has a caller in the program.

A definition is a module-level function or class, or a method, named
``Class.method``; dunder methods are left out, since Python calls them.  A
caller is a reference in `src/semitop`, `scripts/` or `perfbench/` that is
not an import, not inside the name's own definition and not in
`__init__.py` itself.  A module-level name is called by its name or as a
module attribute; a method only as an attribute, so a local variable that
shares its name is no call.  A string naming a definition counts, since the
benchmark tracer patches functions by name ("Class.method" names both).
The only exceptions are the paper notions that no subcommand needs yet, each
named in README with the result it serves, and the `semitop` names that the
acceptance gate imports.

Every module in `src/`, `scripts/`, `perfbench/` and `tests/` also reads
every name it imports, except the re-exports of `__init__.py`, `from
__future__` imports and the acceptance gate, which is kept as it was
written.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semitop"

PAPER_NOTIONS = {"congruence_join", "congruence_meet", "is_topology", "scattered_height",
                 "semil_iso", "universal", "uparrow", "TopSpec.closure_of",
                 "TopSpec.isolated_points"}


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def acceptance_imports():
    """The names tests/test_acceptance.py imports from the package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "semitop" for alias in node.names}


def definitions():
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update(f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"))
    return out


class _References(ast.NodeVisitor):
    """Names and attributes a module reads, skipping imports and
    self-references."""

    def __init__(self):
        self.names = set()
        self.attrs = set()
        self._defining = []

    def visit_FunctionDef(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def _note(self, found, name):
        if name not in self._defining:
            found.add(name)

    def visit_Name(self, node):
        self._note(self.names, node.id)

    def visit_Attribute(self, node):
        self._note(self.attrs, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        parts = node.value.split(".") if isinstance(node.value, str) else ()
        if parts and all(map(str.isidentifier, parts)):  # "Class.method" or "name"
            self._note(self.names, parts[0])
            for attr in parts[1:]:
                self._note(self.attrs, attr)


def is_called(name, refs):
    cls, _, method = name.rpartition(".")
    return method in refs.attrs if cls else name in refs.names or name in refs.attrs


def program_references():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    refs = _References()
    for path in files:
        refs.visit(ast.parse(path.read_text()))
    return refs


def test_every_definition_has_a_caller_or_is_exempt():
    names = definitions()
    assert len(names) > 150
    refs = program_references()
    gate = acceptance_imports()
    assert {"commutative_inverse_monoid_catalog", "bundled_top_semilattices"} <= gate
    exempt = PAPER_NOTIONS | gate
    uncalled = sorted(name for name in names - exempt if not is_called(name, refs))
    assert not uncalled, f"defined but called only from tests: {uncalled}"


def test_every_export_has_a_caller_or_is_a_named_paper_notion():
    names = exported_names()
    assert len(names) > 50
    refs = program_references()
    uncalled = sorted(set(names) - refs.names - refs.attrs - PAPER_NOTIONS)
    assert not uncalled, f"exported but called only from tests: {uncalled}"


def test_paper_notions_are_uncalled_exported_definitions_named_in_readme():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Paper notions reached only from tests")[1].split("\n## ")[0]
    named = {name for item in re.findall(r"^\* (.+?) \(", section, re.MULTILINE)
             for name in re.findall(r"`([\w.]+)`", item)}
    assert named == PAPER_NOTIONS
    assert PAPER_NOTIONS <= definitions()
    assert {name.split(".")[0] for name in PAPER_NOTIONS} <= set(exported_names())
    refs = program_references()
    assert not [name for name in PAPER_NOTIONS if is_called(name, refs)]


def test_the_scan_skips_imports_and_self_references():
    refs = _References()
    refs.visit(ast.parse("from m import a\n"
                         "def b():\n    return b()\n"
                         "def c():\n    return m.d, 'e.f', 'not a name.g'\n"
                         "class K:\n    def h(self):\n        return self.h()\n"
                         "def k():\n    h = 1\n    return h\n"))
    assert refs.names == {"m", "e", "self", "h"}
    assert refs.attrs == {"d", "f"}
    # K.h is read only inside its own body, and a local h is no method call
    assert not is_called("K.h", refs)
    assert is_called("h", refs) and is_called("d", refs) and not is_called("b", refs)


def unused_imports(source):
    """The names a module's imports bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    files = [path for folder in ("src", "scripts", "perfbench", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py" and path.name != "test_acceptance.py"]
    assert len(files) > 30
    unused = {str(path.relative_to(ROOT)): sorted(names) for path in files
              if (names := unused_imports(path.read_text()))}
    assert not unused, f"imported but never read: {unused}"


def test_the_import_scan_reads_names_and_attribute_bases():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path, json as j\n"
                          "from itertools import product as iproduct, chain\n"
                          "def f():\n    import re\n    return os.sep, chain\n") == {
                              "j", "iproduct", "re"}
