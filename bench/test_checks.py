"""Self-test of the benchmark: each correctness check passes on a genuine
result and fires on a corrupted one; the generators are deterministic and
emit only loadable scenarios; the tracer records spans and absent names.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import irsbeam as ib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAR = {"f_c": 200e9, "B": 30e9, "M": 32, "R": 64, "nu0": 0.5}
NEAR = {"f_c": 200e9, "B": 6e9, "M": 32, "R": 64,
        "bs": [0.0, 0.0], "user": [3.0, 0.0], "irs_origin": [1.0, 1.0]}


def fires(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def scaled(values, factor=1.001):
    out = np.array(values, dtype=np.float64)
    out.flat[out.size // 3] *= factor
    return out


def scenario(doc):
    return ib.scenario_from_dict(doc)


def far_sweep(doc, delays_zeroed=False):
    s = scenario(doc)
    array, cfg = s.make_array(), s.config
    if s.design == "dam":
        design = ib.far_dam_design(array, cfg, s.direction())
        phases = design.phases
        delays = ib.DelayProfile(np.zeros(s.n_elements)) if delays_zeroed else design.delays
    else:
        phases, delays = ib.far_optimal_phases(array, s.direction()), None
    return ib.angle_sweep(array, cfg, phases, delays,
                          subcarriers=list(range(1, s.config.n_subcarriers + 1)),
                          nu_grid=(-1.0, 1.0, 1e-3))


def test_gain_range():
    checks.check_gains([0.0, 0.5, 1.0])
    fires(checks.check_gains, [0.5, 1.0 + 1e-6])
    fires(checks.check_gains, [0.5, np.nan])
    fires(checks.check_gains, [-1e-3, 0.5])


def test_far_phase_only_sweep_matches_oracle():
    values = ib.subcarrier_sweep_far(scenario(FAR).make_array(), scenario(FAR).config, 0.5).values
    checks.check_subcarrier_sweep(values, FAR)
    fires(checks.check_subcarrier_sweep, scaled(values), FAR)


def test_near_phase_only_sweep_matches_oracle():
    s = scenario(NEAR)
    values = ib.subcarrier_sweep_near(s.make_geometry(), s.config).values
    checks.check_subcarrier_sweep(values, NEAR)
    fires(checks.check_subcarrier_sweep, scaled(values), NEAR)


def test_dam_sweeps_hold_full_gain():
    far, near = FAR | {"design": "dam"}, NEAR | {"design": "dam"}
    s = scenario(near)
    values = ib.subcarrier_sweep_near(s.make_geometry(), s.config, use_dam=True).values
    checks.check_subcarrier_sweep(values, near)
    fires(checks.check_subcarrier_sweep, scaled(values, 0.999), near)
    # DAM delays zeroed: the phase-only squint comes back
    design = ib.near_dam_design(s.make_geometry(), s.config)
    zeroed = np.array([
        ib.near_gain_row(s.make_geometry(), s.config, f, np.array([s.user_xy]), design.phases,
                         ib.DelayProfile(np.zeros(s.n_elements)))[0]
        for f in ib.subcarrier_frequencies(s.config)]) / s.n_elements
    fires(checks.check_subcarrier_sweep, zeroed, near)

    gm = far_sweep(far)
    checks.check_angle_sweep(gm.axes[0].points, gm.axes[1].points, gm.values, far)
    gm = far_sweep(far, delays_zeroed=True)
    fires(checks.check_angle_sweep, gm.axes[0].points, gm.axes[1].points, gm.values, far)


def test_angle_sweep_row_gain_at_nu0():
    gm = far_sweep(FAR)
    rows, nu = gm.axes[0].points, gm.axes[1].points
    checks.check_angle_sweep(rows, nu, gm.values, FAR)
    bad = np.array(gm.values)
    bad[:, 1500] *= 1.001  # nu = 0.5
    fires(checks.check_angle_sweep, rows, nu, bad, FAR)
    fires(checks.check_angle_sweep, rows, nu, gm.values, FAR | {"nu0": 0.50005})


def test_heatmap_user_cell_and_dam_argmax():
    for doc in (NEAR, NEAR | {"design": "dam"}):
        s = scenario(doc)
        gm = ib.location_heatmap(s.make_geometry(), s.config, subcarrier=1,
                                 use_dam=s.design == "dam", half_span_m=0.1, step_m=0.005)
        xs, ys = gm.axes[0].points, gm.axes[1].points
        checks.check_heatmap(xs, ys, gm.values, doc, 1)
        bad = np.array(gm.values)
        bad[xs.size // 2, ys.size // 2] *= 0.999  # the user cell
        fires(checks.check_heatmap, xs, ys, bad, doc, 1)
    fires(checks.check_heatmap, xs, ys, np.roll(gm.values, 3, axis=0), doc, 1)


def test_metrics_agree_with_values():
    gm = far_sweep(FAR)
    metrics = ib.squint_metrics(gm, 0.5)
    checks.check_reductions(gm.values, metrics, gm.argmax_cell(), 0.5)
    checks.check_metrics(metrics, gm.values, 0.5)
    for key in ("fraction_above", "min_gain", "mean_gain"):
        bad = metrics | {key: metrics[key] * 1.001 + 1e-6}
        fires(checks.check_reductions, gm.values, bad, gm.argmax_cell(), 0.5)
        fires(checks.check_metrics, bad, gm.values, 0.5)
    fires(checks.check_reductions, gm.values, metrics, (0, 0), 0.5)


def test_metrics_artifact(tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR))
    out = tmp_path / "metrics.json"
    assert ib.cli.main(["metrics", "--scenario", str(path), "--out", str(out), "--format", "json"]) == 0
    checks.check_metrics_artifact(out, "json", FAR, 0.5)
    doc = json.loads(out.read_text())
    out.write_text(json.dumps(doc | {"mean_gain": doc["mean_gain"] * 1.001}))
    fires(checks.check_metrics_artifact, out, "json", FAR, 0.5)


def test_csv_roundtrip_is_bit_exact(tmp_path):
    gm = far_sweep(FAR)
    csv_path, json_path = tmp_path / "g.csv", tmp_path / "g.json"
    ib.cli.write_gain_map(csv_path, gm, "csv", {})
    ib.cli.write_gain_map(json_path, gm, "json", {})
    checks.check_gain_map_artifact("far-angle-sweep", *checks.parse_gain_map_csv(csv_path), FAR)
    checks.check_roundtrip(*ib.cli.read_gain_map_csv(csv_path), json_path)
    # drop the last digit of one value
    lines = csv_path.read_text().splitlines()
    lines[7] = lines[7][:-1]
    csv_path.write_text("\n".join(lines) + "\n")
    fires(checks.check_roundtrip, *ib.cli.read_gain_map_csv(csv_path), json_path)


def test_generators_are_deterministic_and_valid(tmp_path):
    for generate in (workloads.generate_param_study, workloads.generate_squint_fan):
        a, b, c = (tmp_path / generate.__name__ / n for n in "abc")
        for d in (a, b, c):
            d.mkdir(parents=True)
        first = generate(7, a)
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in generate(7, b)]
        assert [p.read_bytes() for p in first] != [p.read_bytes() for p in generate(8, c)]
        for path in first:
            doc = json.loads(path.read_text())
            assert doc["B"] < 2 * doc["f_c"] and "d" not in doc
            ib.load_scenario(path)  # rejects coincident elements and bad fields


def test_tracer_spans_and_absent_names():
    pkg = types.ModuleType("fakebeam")
    scan = types.ModuleType("fakebeam.scan")

    def squint_metrics(gain_map, threshold=0.5):
        return {}

    def angle_sweep(*args, **kwargs):
        pkg.scan.squint_metrics(None)
        return types.SimpleNamespace(values=np.zeros((2, 3)))

    scan.angle_sweep, scan.squint_metrics, pkg.scan = angle_sweep, squint_metrics, scan
    sys.modules.update({"fakebeam": pkg, "fakebeam.scan": scan})
    tracer = tracing.Tracer()
    try:
        tracer.install(pkg)
        pkg.scan.angle_sweep()
    finally:
        tracer.uninstall()
        del sys.modules["fakebeam"], sys.modules["fakebeam.scan"]
    assert scan.angle_sweep is angle_sweep
    assert "farfield.far_beam_gain_profile" in tracer.absent
    assert "scan.angle_sweep" not in tracer.absent
    sweep, metrics = tracer.spans
    assert metrics.parent == 0 and sweep.parent is None
    layers = tracing.layer_metrics(tracer.spans, passes=1)
    assert layers["scan.grid_points"] == 6
    assert layers["scan.sweep_self_s"] == pytest.approx(
        (sweep.end - sweep.start) - (metrics.end - metrics.start))
