"""The benchmark's certificate checker replays chains against its own copy
of the catalog (perfbench/families.py).  Both copies must define the same
instances, or the benchmark's correctness gate checks something else."""

import importlib.util
import sys
from pathlib import Path

import pytest

from semitop.obstruct import get_instance

FAMILIES = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"


def _families():
    spec = importlib.util.spec_from_file_location("perfbench_families", FAMILIES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations there
    spec.loader.exec_module(module)
    return module


BENCH = _families()
IDS = [fid + suffix for fid in BENCH.OBSTRUCTED for suffix in ("", "-discrete")]
# every window of the acceptance range, and the cap window for the carriers
# built as FinProduct tables
CASES = ([(i, w) for i in IDS for w in range(4, 13)]
         + [(i, 40) for i in IDS if i.startswith(("exB", "right_simple_zero:"))])


@pytest.mark.parametrize("instance_id,window", CASES)
def test_benchmark_copy_matches_the_catalog(instance_id, window):
    inst = get_instance(instance_id, window)
    pres = inst.presentation
    bench = BENCH.spec(instance_id, window)
    assert bench.table == pres.base.table
    assert bench.limit == inst.limit
    assert bench.family == inst.admissible()
    assert bench.guard == pres.guard
    assert bench.targets == tuple((t.mode, t.open_set, t.point) for t in inst.targets)
    if instance_id.endswith("-discrete"):
        assert pres.core == (1 << pres.base.n) - 1 and not pres.strict
