"""The benchmark's calls into the library still work: every op of the
``presets`` and ``squint-fan`` workloads runs once and passes its check, and
the ``presets`` ops reach every public function the bench tracer times. The
``presets`` ops run and are checked once, under the tracer."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import irsbeam as ib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["squint-fan"])
def test_every_op_runs_and_passes_its_check(tmp_path, name):
    wl = workloads.build(ib, name, 1, ROOT, tmp_path)
    assert wl.ops
    for op in wl.ops:
        op.check(op.call())


def test_presets_record_a_span_for_every_traced_role(tmp_path):
    # the tracer times a role by wrapping its functions' module-level names, so
    # a caller that reaches the same code another way leaves the role empty
    wl = workloads.build(ib, "presets", 1, ROOT, tmp_path)
    tracer = tracing.Tracer()
    tracer.install(ib)
    try:
        for op in wl.ops:
            tracer.op_id += 1
            op.check(op.call())
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert set(tracing.ROLES) - {span.role for span in tracer.spans} == set()
