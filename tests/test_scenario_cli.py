import argparse
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import irsbeam
from irsbeam import (
    SPEED_OF_LIGHT,
    Axis,
    GainMap,
    NearFieldGeometry,
    ScenarioError,
    fraunhofer_distance,
    load_scenario,
    scenario_from_dict,
    squint_metrics,
    subcarrier_sweep_far,
)
from irsbeam.cli import _SUBCOMMANDS, build_parser, main, read_gain_map_csv, write_gain_map
from irsbeam.scan import DEFAULT_THRESHOLD
from irsbeam.scenario import (
    _DESIGNS,
    _FORMATS,
    _SWEEP_KEYS,
    _TOP_KEYS,
    DEFAULT_N_SUBCARRIERS,
    MAX_COUNT,
    MAX_ELEMENT_EVALS,
    MAX_GRID_POINTS,
    SweepSpec,
)

ROOT = Path(__file__).parents[1]
PRESET_NAMES = ["fig2a", "fig2c", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]


def preset_path(name: str) -> Path:
    return Path(resources.files("irsbeam.presets") / f"{name}.json")


def write_scenario(tmp_path: Path, body: dict, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def assert_rejected(tmp_path, capsys, body, match):
    """``body`` fails to load with ``match``, and ``metrics`` on it exits 2 with it."""
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(body)
    out = tmp_path / "out.json"
    path = write_scenario(tmp_path, body)
    assert main(["metrics", "--scenario", str(path), "--out", str(out)]) == 2
    assert re.search(match, capsys.readouterr().err)
    assert not out.exists()


SWEEP_FIELDS = [*_SWEEP_KEYS["far"], *_SWEEP_KEYS["near"]]
MINIMAL_FAR = {"f_c": 200e9, "B": 6e9, "R": 64, "nu0": 0.5}
MINIMAL_NEAR = {
    "f_c": 200e9, "B": 6e9, "R": 64,
    "bs": [0.0, 0.0], "user": [3.0, 0.0], "irs_origin": [1.0, 1.0],
}


class TestScenarioLoading:
    def test_minimal_far_applies_defaults(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, MINIMAL_FAR))
        assert s.regime == "far"
        assert s.config.n_subcarriers == 128
        assert s.array.spacing_m == s.config.wavelength_m / 2
        assert s.design == "phases_only"
        assert s.threshold == 0.5
        assert s.sweep.subcarriers == (1, 0, 128)

    def test_minimal_near(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, MINIMAL_NEAR))
        assert s.regime == "near"
        geom = s.make_geometry()
        assert geom.bs_distances[0] == np.sqrt(2.0)

    def test_near_geometry_built_once_at_load(self, monkeypatch):
        built = []

        class Counted(NearFieldGeometry):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(irsbeam.scenario, "NearFieldGeometry", Counted)
        s = scenario_from_dict(MINIMAL_NEAR)
        assert s.regime == "near" and len(built) == 1
        assert s.make_geometry() is built[0] is s.make_geometry()
        assert s.make_array() is s.array is built[0].array

    def test_user_on_element_rejected(self, tmp_path, capsys):
        for key in ("user", "bs"):
            with pytest.raises(ScenarioError, match=f"field '{key}': .* coincides"):
                scenario_from_dict({**MINIMAL_NEAR, key: [1.0, 1.0]})
        # the loader accepts a heatmap whose cell (1.0, 1.0) is the first
        # element, so the kernel's check is what stops the run
        body = {**MINIMAL_NEAR, "user": [1.0, 1.5], "sweep": {"half_span_m": 0.5, "step_m": 0.25}}
        scenario = write_scenario(tmp_path, body)
        load_scenario(scenario)
        out = tmp_path / "heat.csv"
        assert main(["near-heatmap", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "point (1.0, 1.0) coincides with an IRS element" in capsys.readouterr().err
        assert not out.exists()

    def test_both_geometries_rejected(self):
        with pytest.raises(ScenarioError, match="both: 'nu0' and 'bs', 'user', 'irs_origin'"):
            scenario_from_dict({**MINIMAL_NEAR, "nu0": 0.5})

    def test_missing_geometry_rejected(self):
        with pytest.raises(ScenarioError, match="no geometry"):
            scenario_from_dict({"f_c": 200e9, "B": 6e9, "R": 64})

    def test_regime_mismatch_rejected(self):
        with pytest.raises(ScenarioError, match="regime"):
            scenario_from_dict({**MINIMAL_FAR, "regime": "near"})

    def test_unknown_field_named(self):
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict({**MINIMAL_FAR, "bogus": 1})

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "f_c": 200e9,\n  oops\n}')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(path)

    def test_angles_derive_direction(self):
        s = scenario_from_dict(
            {"f_c": 200e9, "B": 6e9, "R": 64, "chi": np.pi / 6, "psi": 0.0}
        )
        np.testing.assert_allclose(s.direction(), 0.5, rtol=1e-15)

    def test_angles_give_direction_bit_for_bit(self):
        # 'chi'/'psi' become nu once, at load, as sin(chi) - sin(psi) in float64
        rng = np.random.default_rng(16)
        for chi, psi in rng.uniform(-np.pi, np.pi, size=(200, 2)).tolist():
            s = scenario_from_dict({"f_c": 200e9, "B": 6e9, "R": 64, "chi": chi, "psi": psi})
            assert s.direction().hex() == float(np.sin(chi) - np.sin(psi)).hex()
            doc = s.to_dict()
            assert doc["nu0"] == s.direction() and "chi" not in doc and "psi" not in doc
            assert scenario_from_dict(json.loads(json.dumps(doc))) == s

    def test_angle_direction_consistency_enforced(self):
        with pytest.raises(ScenarioError, match="inconsistent"):
            scenario_from_dict(
                {"f_c": 200e9, "B": 6e9, "R": 64, "chi": np.pi / 6, "psi": 0.0, "nu0": 0.7}
            )

    @pytest.mark.parametrize(
        "patch,match",
        [
            ({"nu0": 2.5}, "nu0"),
            ({"design": "other"}, "design"),
            ({"format": "xml"}, "format"),
            ({"threshold": 1.0}, "threshold"),
            ({"M": 0}, "'M'"),
            ({"R": -2}, "'R'"),
            ({"B": 500e9}, "'B'"),
            ({"chi": 0.1}, "together"),
            ({"sweep": {"nu_step": -1.0}}, "nu_step"),
            ({"sweep": {"subcarrier": 200}}, "subcarrier"),
            ({"sweep": {"weird": 1}}, "weird"),
            ({"R": 10**12}, "'R'"),
            ({"M": 10**12}, "'M'"),
            ({"R": 10**400}, "'R'"),
            ({"M": 10**400}, "'M'"),
            ({"M": 2**20 + 1}, "'M'"),
            ({"sweep": {"subcarriers": []}}, "'subcarriers' must be a non-empty list"),
            ({"threshold": 0}, "field 'threshold'"),
            ({"threshold": 2}, "field 'threshold'"),
            ({"sweep": {"subcarriers": [1, 999]}}, "sweep field 'subcarriers': index 999 outside"),
            ({"sweep": {"half_span_m": 0.1}}, "far-field scenario does not take 'half_span_m'"),
            ({"description": 7}, "field 'description' must be a string"),
            ({"f_c": 1e-310, "B": 1e-311}, "'f_c'"),
        ],
    )
    def test_invalid_fields_rejected(self, tmp_path, capsys, patch, match):
        assert_rejected(tmp_path, capsys, {**MINIMAL_FAR, **patch}, match)

    @pytest.mark.parametrize(
        "patch,match",
        [
            ({"sweep": {"subcarrier": 200}}, "sweep field 'subcarrier': index 200 outside 0..128"),
            ({"sweep": {"subcarrier": -2}}, "sweep field 'subcarrier': index -2 outside"),
            ({"sweep": {"nu_step": 0.3}}, "near-field scenario does not take 'nu_step'"),
            ({"sweep": {"step_m": 0.01, "subcarriers": [1]}}, "does not take 'subcarriers'$"),
            # elements placed too far from the BS: the placing fields are named
            ({"d": 1e300}, r"field 'bs': .* overflows \(IRS elements from fields 'irs_origin', "),
            ({"irs_origin": [1e200, 0.0]}, r"\(IRS elements from fields 'irs_origin', 'R' and 'd'\)"),
        ],
    )
    def test_invalid_near_fields_rejected(self, tmp_path, capsys, patch, match):
        assert_rejected(tmp_path, capsys, {**MINIMAL_NEAR, **patch}, match)

    @pytest.mark.parametrize(
        "body,field",
        [
            pytest.param({**MINIMAL_FAR, "nu0": math.nan}, "nu0", id="nu0"),
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_start": math.nan}}, "nu_start",
                         id="nu_start"),
            pytest.param({**MINIMAL_FAR, "d": math.inf}, "d", id="d"),
            pytest.param({**MINIMAL_FAR, "f_c": math.inf}, "f_c", id="f_c"),
            pytest.param({**MINIMAL_FAR, "threshold": math.nan}, "threshold", id="threshold"),
            pytest.param({**MINIMAL_NEAR, "bs": [math.nan, 0.0]}, "bs", id="bs"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"step_m": math.inf}}, "step_m",
                         id="step_m"),
            pytest.param({**MINIMAL_FAR, "nu0": 10**400}, "nu0", id="nu0-huge-int"),
        ],
    )
    def test_non_finite_number_rejected_at_load(self, tmp_path, capsys, body, field):
        # json writes and reads NaN and Infinity, so such files reach the loader
        path = write_scenario(tmp_path, body)
        with pytest.raises(ScenarioError, match=f"field '{field}' must be a finite"):
            load_scenario(path)
        out = tmp_path / "out.json"
        assert main(["metrics", "--scenario", str(path), "--out", str(out)]) == 2
        assert f"field '{field}' must be a finite" in capsys.readouterr().err
        assert not out.exists()

    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            s = load_scenario(preset_path(name))
            assert s.config.carrier_hz == 200e9
            assert s.config.n_subcarriers == 128

    def test_fig3_matches_documented_settings(self):
        s = load_scenario(preset_path("fig3"))
        assert s.regime == "far"
        assert s.config.bandwidth_hz == 30e9
        assert s.n_elements == 64
        assert s.direction() == 1.5
        assert s.threshold == 0.2

    def test_round_trip_presets(self):
        for name in PRESET_NAMES:
            s = load_scenario(preset_path(name))
            assert scenario_from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_round_trip_constructed(self):
        s = scenario_from_dict(
            {
                **MINIMAL_NEAR,
                "M": 63,
                "d": 0.00080,
                "design": "dam",
                "threshold": 0.25,
                "format": "json",
                "sweep": {"subcarrier": 7, "half_span_m": 0.2, "step_m": 0.01},
            }
        )
        assert scenario_from_dict(json.loads(json.dumps(s.to_dict()))) == s

    @settings(max_examples=300)
    @given(
        regime=st.sampled_from(["far", "near"]),
        key=st.sampled_from(sorted(_TOP_KEYS) + SWEEP_FIELDS),
        value=st.one_of(
            st.none(), st.text(max_size=4), st.booleans(), st.integers(max_value=0),
            st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
            st.integers(min_value=2**53), st.lists(st.one_of(st.integers(-2, 200), st.floats()),
                                                   max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        ),
    )
    # a field that sets the sweep span or places the elements, at a value that
    # fails the check of the step or of the BS point
    @example(regime="far", key="subcarriers", value=[999])
    @example(regime="far", key="nu_start", value=2.0)
    @example(regime="near", key="half_span_m", value=1e4)
    @example(regime="near", key="d", value=1e300)
    @example(regime="near", key="irs_origin", value=[1e200, 0.0])
    def test_loader_names_the_field_it_rejects(self, regime, key, value):
        # one top-level or sweep field of a minimal scenario takes any JSON value
        base = MINIMAL_FAR if regime == "far" else MINIMAL_NEAR
        body = {**base, "sweep": {key: value}} if key in SWEEP_FIELDS else {**base, key: value}
        try:
            s = scenario_from_dict(body)
        except ScenarioError as exc:
            assert f"'{key}'" in str(exc)
        else:
            assert scenario_from_dict(json.loads(json.dumps(s.to_dict()))) == s

    @pytest.mark.parametrize("field", ["R", "nu0"])
    def test_huge_integer_literal_names_file_and_field(self, tmp_path, capsys, field):
        # json.dumps cannot write an int past Python's 4,300-digit conversion
        # limit, so the file text is written directly
        fields = {"f_c": "200e9", "B": "6e9", "R": "64", "nu0": "0.5", field: "9" * 5001}
        path = tmp_path / "huge.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        with pytest.raises(ScenarioError, match=f"field '{field}' must be"):
            load_scenario(path)
        out = tmp_path / "out.csv"
        assert main(["design", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"field '{field}' must be" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body,message",
        [
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_step": 1e-10}},
                         "field 'nu_step' gives a sweep grid of 60000000003 cells", id="far-huge"),
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_step": 0.3}},
                         "field 'nu_step': step 0.3 does not divide", id="far-divide"),
            # 128 rows x 32769 directions is 128 cells over the cap; one row loads
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_step": 2.0**-14,
                                                   "subcarriers": list(range(1, 129))}},
                         "field 'nu_step' gives a sweep grid of 4194432 cells", id="far-rows"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"step_m": 1e-7}},
                         "field 'step_m' gives a sweep grid", id="near-huge"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"step_m": 0.003}},
                         "field 'step_m': step 0.003 does not divide", id="near-divide"),
            # a step far longer than the span would leave one point
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_step": 1e10}},
                         "field 'nu_step': step 10000000000.0 does not divide",
                         id="far-step-over-span"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"step_m": 1e9}},
                         "field 'step_m': step 1000000000.0 does not divide",
                         id="near-step-over-span"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"step_m": 0.001, "half_span_m": 1.024}},
                         "field 'step_m' gives a sweep grid of 4198401 cells", id="near-edge"),
            # element evaluations over MAX_ELEMENT_EVALS: 3 rows x 20001 directions x 2^15,
            # 2001^2 cells x 512, and M x R = 2^20 x 2^11
            pytest.param({**MINIMAL_FAR, "R": 2**15, "sweep": {"nu_step": 1e-4}},
                         "fields 'R' and 'nu_step' give 1966178304 element evaluations",
                         id="far-evals"),
            pytest.param({**MINIMAL_NEAR, "R": 512, "sweep": {"half_span_m": 0.1,
                                                              "step_m": 1e-4}},
                         "fields 'R' and 'step_m' give 2050048512 element evaluations",
                         id="near-evals"),
            pytest.param({**MINIMAL_FAR, "R": 2**11, "M": 2**20},
                         "fields 'R' and 'M' give 2147483648 element evaluations",
                         id="subcarrier-evals"),
            # the span fields are named beside the step
            pytest.param({**MINIMAL_FAR, "sweep": {"nu_start": 2.0}},
                         "1.0] of fields 'nu_start' and 'nu_stop'", id="far-span"),
            pytest.param({**MINIMAL_NEAR, "sweep": {"half_span_m": 1e4}},
                         "field 'step_m' gives a sweep grid of 16000008000001 cells with "
                         "field 'half_span_m', over", id="near-span"),
        ],
    )
    def test_sweep_grid_checked_at_load(self, tmp_path, capsys, body, message):
        path = write_scenario(tmp_path, body)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        out = tmp_path / "out.csv"
        assert main(["design", "--scenario", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_schema_matches_loader(self):
        # docs/scenario.schema.json restates the loader's rules; keep the two in step
        schema = json.loads((ROOT / "docs/scenario.schema.json").read_text())
        top = schema["properties"]
        sweep = top["sweep"]["properties"]
        assert set(top) == _TOP_KEYS
        assert set(sweep) == set(SWEEP_FIELDS)
        assert tuple(top["design"]["enum"]) == _DESIGNS
        assert tuple(top["format"]["enum"]) == _FORMATS
        assert top["R"]["maximum"] == top["M"]["maximum"] == MAX_COUNT
        assert schema["required"] == ["f_c", "B", "R"]
        defaults = {key: spec["default"] for key, spec in sweep.items()}
        assert defaults == asdict(SweepSpec()) | {"subcarriers": list(SweepSpec().subcarriers)}
        assert top["threshold"]["default"] == DEFAULT_THRESHOLD
        assert top["M"]["default"] == DEFAULT_N_SUBCARRIERS

    def test_sweep_grid_at_the_cap_loads(self):
        assert MAX_GRID_POINTS == 2048**2 == 2**22
        near = {**MINIMAL_NEAR, "sweep": {"step_m": 0.001, "half_span_m": 1.0235}}
        assert scenario_from_dict(near).sweep.step_m == 0.001
        far = {**MINIMAL_FAR, "sweep": {"nu_step": 2.0**-14, "subcarriers": [1]}}
        assert scenario_from_dict(far).sweep.nu_step == 2.0**-14
        assert MAX_ELEMENT_EVALS == 2**30
        assert scenario_from_dict({**MINIMAL_FAR, "R": 2**10, "M": 2**20}).n_elements == 2**10


class TestCli:
    def test_design_far_dam_json(self, tmp_path):
        scenario = write_scenario(tmp_path, {**MINIMAL_FAR, "design": "dam"})
        out = tmp_path / "design.json"
        assert main(["design", "--scenario", str(scenario), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"phases", "delays", "meta"}
        assert len(payload["phases"]) == 64 and len(payload["delays"]) == 64
        assert min(payload["delays"]) == 0.0
        assert all(0 <= p < 2 * np.pi for p in payload["phases"])

    @pytest.mark.parametrize("design", ["phases_only", "dam"])
    @pytest.mark.parametrize(
        "body,summary",
        [
            pytest.param(MINIMAL_FAR, {"design_direction": 0.5}, id="far"),
            # one element at (1, 1): sqrt 2 m from the BS, sqrt 5 m from the user
            pytest.param({**MINIMAL_NEAR, "R": 1}, {"focus_xy": [3.0, 0.0]}, id="near"),
        ],
    )
    def test_design_json_meta(self, tmp_path, body, summary, design):
        scenario = write_scenario(tmp_path, {**body, "design": design})
        out = tmp_path / "design.json"
        assert main(["design", "--scenario", str(scenario), "--out", str(out),
                     "--format", "json"]) == 0
        meta = json.loads(out.read_text())["meta"]
        regime = "far" if "nu0" in body else "near"
        expected = {"regime": regime, "design": design} | summary
        if regime == "near" and design == "dam":
            expected["common_delay_s"] = pytest.approx(
                (np.sqrt(2) + np.sqrt(5)) / SPEED_OF_LIGHT, rel=1e-15
            )
        assert meta == expected

    def test_far_subcarrier_sweep_dam_csv_all_ones(self, tmp_path):
        scenario = write_scenario(tmp_path, {**MINIMAL_FAR, "design": "dam"})
        out = tmp_path / "sweep.csv"
        assert main(["far-subcarrier-sweep", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        header, table = read_gain_map_csv(out)
        assert header == ["subcarrier", "value"]
        assert table.shape == (128, 2)
        np.testing.assert_allclose(table[:, 1], 1.0, rtol=1e-9)

    def test_metrics_threshold_flag(self, tmp_path, capsys):
        # fig3's own threshold is 0.2
        out = tmp_path / "metrics.json"
        code = main(["metrics", "--scenario", str(preset_path("fig3")),
                     "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.60 <= 1.0 - payload["fraction_above"] <= 0.80
        assert payload["meta"]["threshold"] == 0.2

    def test_fraunhofer_identities(self, cfg200):
        lam = cfg200.wavelength_m
        np.testing.assert_allclose(fraunhofer_distance(lam, cfg200), 2 * lam, rtol=1e-15)
        np.testing.assert_allclose(
            fraunhofer_distance(2 * lam, cfg200), 4 * fraunhofer_distance(lam, cfg200),
            rtol=1e-15,
        )
        with pytest.raises(ValueError):
            fraunhofer_distance(0.0, cfg200)

    def test_fraunhofer_reference_value(self, tmp_path):
        out = tmp_path / "fr.json"
        scenario = write_scenario(tmp_path, MINIMAL_FAR)
        assert main(["fraunhofer", "--scenario", str(scenario), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["fraunhofer_distance_m"], 2.974690664505,
                                   rtol=1e-12)
        # the reference near-field user at 2-3 m sits inside this boundary
        assert payload["fraunhofer_distance_m"] > 2.24

    def test_infinite_fraunhofer_distance_rejected_at_load(self, tmp_path, capsys):
        # 63 x 1e300 m is finite, but 2 D^2 / lambda_c overflows
        scenario = write_scenario(tmp_path, {**MINIMAL_FAR, "d": 1e300})
        out = tmp_path / "fr.csv"
        assert main(["fraunhofer", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "field 'd': the aperture (R - 1) d = 6.3" in capsys.readouterr().err
        assert not out.exists()

    def test_heatmap_json_meta_reports_argmax(self, tmp_path):
        body = {**MINIMAL_NEAR, "sweep": {"subcarrier": 1, "half_span_m": 0.1,
                                          "step_m": 0.005}}
        scenario = write_scenario(tmp_path, body)
        out = tmp_path / "heat.json"
        assert main(["near-heatmap", "--scenario", str(scenario), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["normalized"] is True
        assert payload["meta"]["argmax_cell"] != [20, 20]
        assert len(payload["axes"]) == 2
        assert len(payload["values"]) == 41

    # the last two give a grid over MAX_GRID_POINTS and a step that does not divide the span
    @pytest.mark.parametrize("step", [0, -0.01, math.nan, 1e-9, 0.3],
                             ids=["0", "-0.01", "nan", "1e-9", "0.3"])
    @pytest.mark.parametrize(
        "subcommand,body,field",
        [pytest.param("far-angle-sweep", MINIMAL_FAR, "nu_step", id="far"),
         pytest.param("near-heatmap", MINIMAL_NEAR, "step_m", id="near")],
    )
    def test_non_positive_grid_step_exits_2(self, tmp_path, capsys, subcommand, body, field,
                                            step):
        scenario = write_scenario(tmp_path, {**body, "sweep": {field: step}})
        with pytest.raises(ScenarioError, match=f"field '{field}'"):
            load_scenario(scenario)
        out = tmp_path / "sweep.csv"
        assert main([subcommand, "--scenario", str(scenario), "--out", str(out)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--threshold", "--grid-step"])
    @pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
    def test_flag_outside_its_subcommand_exits_2(self, tmp_path, capsys, subcommand, flag):
        # the scenario file is the only source of the threshold and the sweep steps
        scenario = write_scenario(tmp_path, MINIMAL_FAR)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--scenario", str(scenario), "--out", str(out), flag, "0.3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_readme_synopsis_matches_parser(self):
        # the README's CLI synopsis restates build_parser(); keep the two in step
        readme = (ROOT / "README.md").read_text()
        synopsis = readme.split("## Quick start (CLI)")[1].split("```")[1]
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            flags = {flag for action in parser._actions for flag in action.option_strings}
            assert flags - {"-h", "--help"} == {"--scenario", "--out", "--format"}, name
            assert f"`{name}`" in readme
        assert set(re.findall(r"--[a-z-]+", synopsis)) == {"--scenario", "--out", "--format"}

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        # one parser serves every main() call of a process, and a call that exits on
        # a bad flag or a bad scenario leaves nothing behind for the next one
        scenarios = {
            "far": write_scenario(tmp_path, {**MINIMAL_FAR, "R": 4, "M": 8}, "far.json"),
            "near": write_scenario(tmp_path, CSV_SCENARIOS["near-R4"], "near.json"),
        }

        def run_all(round_dir):
            round_dir.mkdir()
            results = {}
            for (regime, scenario), subcommand, fmt in itertools.product(
                    scenarios.items(), _SUBCOMMANDS, ("csv", "json")):
                out = round_dir / f"{regime}-{subcommand}.{fmt}"
                code = main([subcommand, "--scenario", str(scenario), "--out", str(out),
                             "--format", fmt])
                results[out.name] = (code, out.read_bytes() if out.exists() else None)
            return results

        first = run_all(tmp_path / "first")
        # five subcommands per regime in two formats; the other regime's two exit 2
        assert sum(code == 0 for code, _ in first.values()) == 2 * 5 * 2
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--scenario", str(scenarios["far"]), "--out",
                  str(tmp_path / "x.json"), "--grid-step", "0.1"])
        assert exc.value.code == 2
        assert "--grid-step" in capsys.readouterr().err
        bad = write_scenario(tmp_path, {**MINIMAL_FAR, "R": 0}, "bad.json")
        assert main(["design", "--scenario", str(bad), "--out", str(tmp_path / "x.json")]) == 2
        assert run_all(tmp_path / "second") == first
        assert build_parser() is build_parser()

    def test_csv_bytes_are_pinned(self, tmp_path):
        # CSV artifacts are a header, CRLF row ends and 17 significant digits,
        # with integer-valued cells (element and subcarrier indices) written as "1"
        far = write_scenario(tmp_path, {**MINIMAL_FAR, "R": 4, "M": 4, "design": "dam"}, "f.json")
        near = write_scenario(
            tmp_path,
            {**MINIMAL_NEAR, "R": 4, "M": 4, "design": "dam",
             "sweep": {"subcarrier": 1, "half_span_m": 0.01, "step_m": 0.005}},
            "n.json",
        )
        expected = {
            ("design", far): b"element,phase_rad,delay_s\r\n1,0,3.75e-12\r\n"
            b"2,1.5707963267948966,2.4999999999999998e-12\r\n"
            b"3,3.1415926535897931,1.2499999999999999e-12\r\n4,4.7123889803846897,0\r\n",
            ("near-heatmap", near): b"x,y,value\r\n2.9900000000000002,-0.01,0.99982117552",
            ("far-angle-sweep", far): b"subcarrier,direction,value\r\n1,-1,0.02646684753440",
        }
        for (subcommand, scenario), head in expected.items():
            out = tmp_path / f"{subcommand}.csv"
            assert main([subcommand, "--scenario", str(scenario), "--out", str(out)]) == 0
            data = out.read_bytes()
            assert data.startswith(head), data[: len(head) + 20]
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")

    def test_incompatible_subcommand_exits_2(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL_NEAR)
        code = main(["far-angle-sweep", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "far-field" in capsys.readouterr().err

    def test_missing_scenario_exits_3(self, tmp_path, capsys):
        code = main(["metrics", "--scenario", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"f_c": 200e9})
        code = main(["metrics", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "'B'" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL_FAR)
        code = main(["design", "--scenario", str(scenario),
                     "--out", str(tmp_path / "no_dir" / "x.json")])
        assert code == 3

    def test_csv_reparse_reproduces_metrics_exactly(self, tmp_path):
        # 17 significant digits round-trip float64 exactly, so metrics computed
        # from the re-parsed artifact must match the in-memory ones bit for bit
        out = tmp_path / "fig4.csv"
        assert main(["far-subcarrier-sweep", "--scenario", str(preset_path("fig4")),
                     "--out", str(out)]) == 0
        _, table = read_gain_map_csv(out)
        s = load_scenario(preset_path("fig4"))
        gm = subcarrier_sweep_far(s.make_array(), s.config, s.direction(), False)
        np.testing.assert_array_equal(table[:, 1], gm.values)
        rebuilt = GainMap(
            axes=(Axis("subcarrier", "index", table[:, 0]),),
            values=table[:, 1],
        )
        assert squint_metrics(rebuilt, 0.5) == squint_metrics(gm, 0.5)

    def test_module_invocation_subprocess(self, tmp_path):
        out = tmp_path / "design.json"
        # the child imports the same irsbeam as this test, installed or not
        package_root = str(Path(irsbeam.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "irsbeam", "design",
             "--scenario", str(preset_path("fig8")), "--out", str(out),
             "--format", "json"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert len(payload["delays"]) == 64
        assert min(payload["delays"]) == 0.0

    def test_artifact_digests_without_the_package_exits_2(self, tmp_path):
        # -I -S: no PYTHONPATH and no site-packages, so irsbeam cannot be imported
        proc = subprocess.run(
            [sys.executable, "-I", "-S", str(ROOT / "tools" / "artifact_digests.py")],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "PYTHONPATH=<checkout>/src" in proc.stderr

    def test_artifact_digests_compare_without_a_directory_exits_2(self, tmp_path):
        (tmp_path / "old").mkdir()
        for old, new in (("old", "absent"), ("absent", "old")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--compare",
                 str(tmp_path / old), str(tmp_path / new)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.count("\n") == 1 and "absent is not a directory" in proc.stderr

    def test_artifact_digests_compare_reports_added_and_missing(self, tmp_path):
        old, new = tmp_path / "old", tmp_path / "new"
        for directory, names in ((old, ["fig3__design.csv", "fig3__metrics.csv"]),
                                 (new, ["fig3__design.csv", "fig4__design.csv"])):
            directory.mkdir()
            for name in names:
                (directory / name).write_text("phase_rad\n0.5\n")
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--compare",
             str(old), str(new)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "fig3/design.csv same", "fig3/metrics.csv missing", "fig4/design.csv added",
        ]

    def test_code_lines_leaves_out_blanks_comments_and_bare_strings(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            '"""A module docstring\n'
            'of two lines."""\n'
            "\n"
            "# a comment\n"
            "LIMIT = 3  # code with a comment\n"
            '"""An attribute docstring."""\n'
            'TEXT = """a string in\n'
            'an expression is code"""\n'
            "\n"
            "def f(x):\n"
            '    """A function docstring."""\n'
            "    return x\n"
        )
        # twice, to show that the counts of several files are summed
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(fixture), str(fixture)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "lines 24\ncode 10\n"


PRESET_SUBCOMMANDS = {
    "fig2a": "far-angle-sweep",
    "fig2c": "far-angle-sweep",
    "fig3": "far-subcarrier-sweep",
    "fig4": "far-subcarrier-sweep",
    "fig5": "far-angle-sweep",
    "fig6": "near-heatmap",
    "fig7": "near-subcarrier-sweep",
    "fig8": "near-heatmap",
}


class TestPresetRuns:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_runs_end_to_end_under_60s(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        started = time.perf_counter()
        code = main([PRESET_SUBCOMMANDS[name], "--scenario", str(preset_path(name)),
                     "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert out.exists() and out.stat().st_size > 0
        assert elapsed < 60.0, f"{name} took {elapsed:.1f} s"

    def test_presets_doc_snippet_prints_a_preset_path(self):
        snippet = re.search(r"python -c '([^']*)'", (ROOT / "docs/presets.md").read_text())[1]
        package_root = str(Path(irsbeam.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr
        assert Path(proc.stdout.strip()) == preset_path("fig3")


def _savetxt_reference(subcommand: str, payload: dict) -> bytes:
    """The CSV that ``np.savetxt`` writes for a subcommand's JSON artifact ``payload``."""
    fmt = "%.17g"
    if subcommand == "design":
        header = ["element", "phase_rad", "delay_s"]
        columns = [np.arange(1, len(payload["phases"]) + 1), payload["phases"], payload["delays"]]
    elif subcommand in ("metrics", "fraunhofer"):
        named = {k: v for k, v in payload.items() if k != "meta"}
        header = ["metric", "value"]
        columns = [np.array(list(named), dtype=object),
                   np.array(list(named.values()), dtype=object)]
        fmt = ("%s", "%.17g")
    else:
        axes = payload["axes"]
        header = [ax["name"] for ax in axes] + ["value"]
        grid = np.meshgrid(*(ax["points"] for ax in axes), indexing="ij")
        columns = [*grid, payload["values"]]
    buf = io.StringIO(newline="")
    np.savetxt(buf, np.column_stack([np.ravel(c) for c in columns]), fmt=fmt, delimiter=",",
               header=",".join(header), comments="", newline="\r\n")
    return buf.getvalue().encode()


CSV_SCENARIOS = {name: json.loads(preset_path(name).read_text()) for name in PRESET_NAMES} | {
    "far-R1": {**MINIMAL_FAR, "R": 1, "M": 8},
    "near-R4": {**MINIMAL_NEAR, "R": 4, "M": 8,
                "sweep": {"subcarrier": 1, "half_span_m": 0.02, "step_m": 0.005}},
}


class TestCsvArtifacts:
    @pytest.mark.parametrize("name", list(CSV_SCENARIOS))
    def test_csv_matches_savetxt_of_json_artifact(self, tmp_path, name):
        # every CSV artifact holds the bytes np.savetxt writes for the same run's data
        path = write_scenario(tmp_path, CSV_SCENARIOS[name])
        s = load_scenario(path)
        compared = []
        for subcommand in _SUBCOMMANDS:
            regime = subcommand.partition("-")[0]
            if regime in ("far", "near") and regime != s.regime:
                continue
            if subcommand == "fraunhofer" and s.n_elements == 1:
                continue  # exits 2: a single element has no aperture
            csv_out, json_out = tmp_path / f"{subcommand}.csv", tmp_path / f"{subcommand}.json"
            for out, fmt in ((csv_out, "csv"), (json_out, "json")):
                assert main([subcommand, "--scenario", str(path), "--out", str(out),
                             "--format", fmt]) == 0
            reference = _savetxt_reference(subcommand, json.loads(json_out.read_text()))
            assert csv_out.read_bytes() == reference, subcommand
            compared.append(subcommand)
        assert len(compared) == (4 if s.n_elements == 1 else 5)

    @given(st.data())
    def test_gain_map_csv_round_trip_is_bit_exact(self, tmp_path_factory, data):
        extremes = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300])
        points = st.one_of(
            st.lists(st.integers(-2**53, 2**53), min_size=1, max_size=50),
            st.lists(st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=50),
        )
        axes = tuple(
            Axis(name, "unit", np.array(data.draw(points, label=f"{name} points")))
            for name in ("x", "y")[: data.draw(st.integers(1, 2), label="axes")]
        )
        shape = tuple(ax.points.size for ax in axes)
        values = data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))), label="values")
        out = tmp_path_factory.getbasetemp() / "round-trip.csv"
        write_gain_map(out, GainMap(axes, values), "csv", {})
        header, table = read_gain_map_csv(out)
        assert header == [ax.name for ax in axes] + ["value"]
        grid = np.meshgrid(*(ax.points for ax in axes), indexing="ij")
        expected = np.column_stack([np.ravel(c).astype(np.float64) for c in [*grid, values]])
        # bit for bit: -0.0, subnormals and the extremes must come back unchanged
        assert table.tobytes() == expected.tobytes()


class TestJsonArtifacts:
    @pytest.mark.parametrize("name", list(CSV_SCENARIOS))
    def test_json_matches_stdlib_encoder(self, tmp_path, name):
        # every JSON artifact holds the bytes json.dumps(indent=2) writes for its own data
        path = write_scenario(tmp_path, CSV_SCENARIOS[name])
        s = load_scenario(path)
        compared = []
        for subcommand in _SUBCOMMANDS:
            regime = subcommand.partition("-")[0]
            if regime in ("far", "near") and regime != s.regime:
                continue
            if subcommand == "fraunhofer" and s.n_elements == 1:
                continue  # exits 2: a single element has no aperture
            out = tmp_path / f"{subcommand}.json"
            assert main([subcommand, "--scenario", str(path), "--out", str(out),
                         "--format", "json"]) == 0
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", subcommand
            compared.append(subcommand)
        assert len(compared) == (4 if s.n_elements == 1 else 5)

    @given(st.data())
    def test_gain_map_json_matches_stdlib_encoder(self, tmp_path_factory, data):
        extremes = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, math.nan])
        points = st.one_of(
            st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=20),
            st.lists(st.one_of(extremes, st.floats()), min_size=1, max_size=20),
        )
        axes = tuple(
            Axis(name, "unit", np.array(data.draw(points, label=f"{name} points")))
            for name in ("x", "y")[: data.draw(st.integers(1, 2), label="axes")]
        )
        shape = tuple(ax.points.size for ax in axes)
        values = data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))), label="values")
        leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
        keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
        nested = st.recursive(leaves, lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(keys, inner, max_size=3)), max_leaves=8)
        meta = {"fixed": (1, [2, [3.5, []]], {}, [], (), True, False, None, "λ = c / f ☃"),
                **data.draw(st.dictionaries(st.text(), nested, max_size=3), label="meta")}
        gm = GainMap(axes, values)
        out = tmp_path_factory.getbasetemp() / "stdlib.json"
        write_gain_map(out, gm, "json", meta)
        payload = {
            "axes": [{"name": ax.name, "unit": ax.unit, "points": ax.points} for ax in axes],
            "values": gm.values,
            "meta": meta | {"normalized": True},
        }
        expected = json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
        assert out.read_bytes() == expected.encode()
