"""The benchmark's calls into the library still work: every op of the
``presets`` and ``squint-fan`` workloads runs once and passes its check."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import irsbeam as ib  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["presets", "squint-fan"])
def test_every_op_runs_and_passes_its_check(tmp_path, name):
    wl = workloads.build(ib, name, 1, ROOT, tmp_path)
    assert wl.ops
    for op in wl.ops:
        op.check(op.call())
