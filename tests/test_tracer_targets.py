"""The benchmark tracer (perfbench/tracer.py) patches semitop by name, so a
renamed or deleted function would silently break traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    # install() also wraps these two directly, outside TARGETS
    names = [(mod, attr) for mod, entries in targets.items() for attr, _ in entries]
    names += [("semitop.transforms", "compose"), ("semitop.transforms", "agree_on_window")]
    missing = []
    for modname, attr in names:
        module = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(namespace.get(name)):
            missing.append(f"{modname}:{attr}")
    assert len(names) > 50 and not missing
