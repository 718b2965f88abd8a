import argparse
import errno
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
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
from irsbeam.cli import (
    _BLOCK,
    _SUBCOMMANDS,
    build_parser,
    main,
    read_gain_map_csv,
    run,
    write_gain_map,
)
from irsbeam.scan import DEFAULT_THRESHOLD, grid_size
from irsbeam.scenario import (
    _DESIGNS,
    _FAR_KEYS,
    _FORMATS,
    _NEAR_KEYS,
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
            # element x-coordinates that overflow: the named error, no numpy warning first
            ({"d": 1.7e308}, r"field 'bs': .* overflows \(IRS elements from fields 'irs_origin', "),
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

    @pytest.mark.parametrize(
        "subcommand,body,match",
        [
            # c / f_c overflows though 'd' is given: the artifact said wavelength_m,inf
            ("fraunhofer", {"f_c": 1e-310, "B": 1e-310, "R": 3, "d": 1e9, "nu0": 0.5},
             r"field 'f_c': the carrier wavelength c / f_c is inf m"),
            ("design", {"f_c": 1e-310, "B": 1e-310, "R": 3, "d": 1e9, "nu0": 0.5,
                        "design": "dam"}, r"field 'f_c': the carrier wavelength"),
            # 2 pi f overflows in the DAM weights: numpy warned, then the gain was NaN
            ("metrics", {"f_c": 1.7e308, "B": 1e-310, "R": 3, "M": 2, "nu0": 0.5,
                         "design": "dam"},
             r"fields 'f_c' and 'B': 2 pi times the highest subcarrier frequency, 1.7e\+308 Hz"),
            # 2 D^2 / lambda_c of the default spacing underflowed: fraunhofer wrote 0
            ("fraunhofer", {"f_c": 1e300, "B": 1e9, "R": 3, "nu0": 0.5},
             r"field 'd': the aperture \(R - 1\) d = 2.99\d*e-292 m with field 'f_c' has no "
             r"finite, positive Fraunhofer distance"),
        ],
    )
    def test_band_quantities_checked_at_load(self, tmp_path, capsys, subcommand, body, match):
        with pytest.raises(ScenarioError, match=match):
            scenario_from_dict(body)
        path, out = write_scenario(tmp_path, body), tmp_path / "out.csv"
        assert main([subcommand, "--scenario", str(path), "--out", str(out)]) == 2
        assert re.search(match, capsys.readouterr().err)
        assert not out.exists()

    def test_largest_dam_delay_finite_at_the_least_carrier(self):
        # The loader's c / f_c check bounds every DAM delay: far, the delays
        # spread over (R - 1) |nu0| / 2 < 2^20 turns, over an f_c of at least
        # c / DBL_MAX, so under 6.3e305 s; near, over distances below 1.4e154 m, / c.
        f_c = SPEED_OF_LIGHT / np.finfo(np.float64).max
        while not math.isfinite(SPEED_OF_LIGHT / f_c):
            f_c = float(np.nextafter(f_c, math.inf))
        with pytest.raises(ScenarioError, match="'f_c'"):
            scenario_from_dict({**MINIMAL_FAR, "f_c": float(np.nextafter(f_c, 0.0)), "B": f_c})
        s = scenario_from_dict({"f_c": f_c, "B": f_c, "M": 1, "R": MAX_COUNT, "d": 1.0,
                                "nu0": -2.0, "design": "dam", "sweep": {"nu_step": 1.0}})
        delays = irsbeam.far_dam_design(s.array, s.config, s.link).delays.delays
        assert math.isfinite(delays.max()) and delays.max() > 6e305

    @pytest.mark.parametrize("body", [
        {"f_c": 200e9, "B": 6e9, "M": MAX_COUNT}, {"f_c": 1e307, "B": 3e306, "M": 3},
        {"f_c": 1e-290, "B": 1.9e-290, "M": 2**20 - 1}, {"f_c": 3e12, "B": 1e8, "M": 1},
    ])
    def test_highest_subcarrier_checked_from_the_grid_formula(self, body):
        # the load check reads f_M from the formula of subcarrier_frequencies, bit
        # for bit, and allocates nothing of size M
        from irsbeam.model import _subcarrier_frequency, subcarrier_frequencies

        doc = {**body, "R": 1, "d": 1.0, "nu0": 0.5, "sweep": {"nu_step": 1.0}}
        tracemalloc.start()
        try:
            s = scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * body["M"] or peak < 2**16, peak
        top = _subcarrier_frequency(s.config, body["M"])
        assert top.hex() == subcarrier_frequencies(s.config)[-1].hex()

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

    @pytest.mark.parametrize("patch,field", [
        ({"f_c": 10**5000}, "field 'f_c' must be"),
        ({"R": 10**5000}, "field 'R' must be"),
        ({"sweep": {"subcarriers": [1, 10**5000]}}, "sweep field 'subcarriers': index"),
    ], ids=["f_c", "R", "subcarriers"])
    def test_integer_past_the_str_digit_limit_named_in_the_message(self, patch, field):
        # a dict value, unlike a JSON literal, can hold such an int; its digits
        # cannot be printed, so the message gives its bit length
        with pytest.raises(ScenarioError, match=f"^{field}.* an integer of 16610 bits"):
            scenario_from_dict({**MINIMAL_FAR, **patch})

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


ABSENT = object()  # a field left out of the document
# values at the edges of every field, each one that json.loads can yield
EDGES = [0, -0.0, 5e-324, 1e-310, 1e300, -1e300, 1.7e308, -1.7e308, math.inf, math.nan,
         10**400, -(10**400), 2**64, True, False, "", "1", None, [], [1.0], [1.0, 2.0, 3.0],
         {}, ABSENT]
POINTS = [[3.0, 0.0], [0.5, -1.0], [2.0, 0.5], [1.0, 1.0], [0.0, 1.0]]
# per field, the values of a valid document (by regime where they differ; a
# field a regime does not list is left out), and the field's own edge values
VALID = {
    "f_c": [200e9, 1e9, 3e12], "B": [6e9, 30e9, 1e8], "M": [ABSENT, 1, 2, 16],
    "d": [ABSENT, 7.5e-4, 1e-3, 0.01], "design": [ABSENT, "phases_only", "dam"],
    "format": [ABSENT, "csv", "json"], "threshold": [ABSENT, 0.5, 0.2],
    "description": [ABSENT, "a note"],
    "far": {"regime": [ABSENT, "far"], "nu0": [0.5, -2.0, 1.5, 0.0],
            "nu_start": [ABSENT, -1.0, -2.0], "nu_stop": [ABSENT, 1.0, 2.0],
            "nu_step": [0.5, 0.25, 0.01], "subcarriers": [ABSENT, [1, 0, -1], [1], [16, -1]]},
    "near": {"regime": [ABSENT, "near"], "bs": [[0.0, 0.0], [0.5, -1.0]],
             "user": [[3.0, 0.0], [2.0, 0.5]], "irs_origin": [[1.0, 1.0], [0.0, 1.0]],
             "half_span_m": [0.05, 0.1], "step_m": [ABSENT, 0.05, 0.025],
             "subcarrier": [ABSENT, 0, 1, -1]},
}
OWN_EDGES = {
    "f_c": [4e11, 1e-3], "B": [4e11, 1e12], "M": [MAX_COUNT + 1, -1, 1.5],
    "R": [MAX_COUNT + 1, -1, 3.0], "d": [1e9, 1e-300], "nu0": [2.5, -2.0000001, 0.5],
    "chi": [0.5, math.pi / 6], "psi": [0.0, -1.0], "bs": POINTS, "user": POINTS,
    "irs_origin": POINTS, "design": ["other", "DAM"], "format": ["xml"],
    "threshold": [1.0, 0.999, 1e-310], "regime": ["far", "near", "mid"], "description": [7],
    "bogus": [1], "nu_start": [2.0, -1.0], "nu_stop": [-2.0, 1.0],
    "nu_step": [0.3, 1e10, 1e-10, 0.5], "subcarriers": [[999], [True], [1.0], [-2], [0, 0, 0, 0]],
    "half_span_m": [1e4, 0.05], "step_m": [0.003, 1e-7, 0.05], "subcarrier": [200, -2, 1.0, 1],
}
WORK_CAP = 2**16
SWEEP_KEYS = [*_SWEEP_KEYS["far"], *_SWEEP_KEYS["near"]]
FAULTABLE = sorted(_TOP_KEYS - {"R", "sweep"}) + ["bogus"]
POOLS = {  # (drawn as a fault, regime, field) -> a strategy of its pool, or its one value
    (fault, regime, key): pool[0] if len(pool) == 1 else st.sampled_from(pool)
    for fault in (False, True) for regime in ("far", "near")
    for key in [*FAULTABLE, "R", "sweep", *SWEEP_KEYS]
    for pool in [EDGES + OWN_EDGES.get(key, []) if fault
                 else VALID.get(key) or VALID[regime].get(key, [ABSENT])]
}


@st.composite
def scenario_documents(draw):
    """A scenario document of either regime, with up to three fields at edge values.

    A field takes a value of its valid pool, or, if it is drawn as a fault, one
    of EDGES or of its own edge values; 'bogus' stands for an unknown field.
    The generator caps the work of a document, R x points <= 2^16, where points
    is the most targets one subcommand evaluates, M or the sweep grid. R is
    drawn last: as an edge value if it is a fault, which none of them loads,
    else from 1 to 2^16 // points of the document at R = 1. No pool holds a
    valid M or sweep grid of more than 2^16 points. The test checks the rest.
    """
    regime = draw(st.sampled_from(["far", "near"]))
    faults = draw(st.sets(st.sampled_from([*FAULTABLE, "R", "sweep", *SWEEP_KEYS]), max_size=3))

    def value(key):
        pool = POOLS[key in faults, regime, key]
        return draw(pool) if isinstance(pool, st.SearchStrategy) else pool

    doc = {key: value(key) for key in FAULTABLE}
    doc["sweep"] = {key: v for key in SWEEP_KEYS if (v := value(key)) is not ABSENT} or ABSENT
    if "sweep" in faults:
        doc["sweep"] = value("sweep")
    doc = {key: v for key, v in doc.items() if v is not ABSENT}
    try:
        s = scenario_from_dict({**doc, "R": 1})
    except ScenarioError:  # rejected at every R: a larger R only adds elements
        points = 1
    else:
        w = s.sweep
        grid = (len(w.subcarriers) * grid_size(w.nu_start, w.nu_stop, w.nu_step)
                if s.regime == "far" else grid_size(-w.half_span_m, w.half_span_m, w.step_m) ** 2)
        points = max(s.config.n_subcarriers, grid)
    r = value("R") if "R" in faults else draw(st.integers(1, max(1, WORK_CAP // points)))
    return doc if r is ABSENT else doc | {"R": r}


def _names_a_field(message: str, doc: dict) -> bool:
    """Whether ``message`` quotes a field of the schema or a key of ``doc``."""
    sweep = doc["sweep"] if isinstance(doc.get("sweep"), dict) else {}
    return any(f"'{key}'" in message for key in {*_TOP_KEYS, *SWEEP_FIELDS, *doc, *sweep})


def _artifact_numbers(path: Path, out_format: str) -> tuple[list[float], dict]:
    """Every number of a CSV or JSON artifact, and its named top-level values."""
    text = path.read_text()
    if out_format == "json":
        named = json.loads(text)  # the writer spells a non-finite value NaN or Infinity
        nodes, numbers = [named], []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (dict, list)):
                nodes.extend(node.values() if isinstance(node, dict) else node)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                numbers.append(node)
        return numbers, named
    header, *lines = text.splitlines()
    records = [line.split(",") for line in lines]
    if header == "metric,value":  # the metrics and fraunhofer records: a name, a number
        named = {name: float(value) for name, value in records}
        return list(named.values()), named
    return np.array(records, dtype=np.float64).ravel().tolist(), {}


class TestScenarioEdges:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(doc=scenario_documents())
    # the Fraunhofer distance underflowed to 0, and fraunhofer wrote it
    @example(doc={"f_c": 1e300, "B": 1e9, "R": 3, "nu0": 0.5})
    # 2 pi f overflowed in the DAM weights; c / f_c overflowed though 'd' was
    # given; the element positions overflowed with a numpy warning
    @example(doc={"f_c": 1.7e308, "B": 1e-310, "R": 3, "M": 2, "nu0": 0.5, "design": "dam"})
    @example(doc={"f_c": 1e-310, "B": 1e-310, "R": 3, "d": 1e9, "nu0": 0.5})
    @example(doc={**MINIMAL_NEAR, "d": 1.7e308})
    # fraunhofer rejected one element, and near-heatmap a cell on an element,
    # without naming a field
    @example(doc={**MINIMAL_FAR, "R": 1})
    @example(doc={**MINIMAL_NEAR, "user": [1.0, 1.5], "sweep": {"half_span_m": 0.5,
                                                                "step_m": 0.25}})
    def test_document_rejected_naming_a_field_or_every_run_finite(self, tmp_path_factory, doc):
        # under the pytest config's warnings-as-errors, so a numpy warning fails it too
        try:
            scenario = scenario_from_dict(doc)
        except ScenarioError as exc:
            assert _names_a_field(str(exc), doc), exc
            return
        out = tmp_path_factory.getbasetemp() / "edge-artifact"
        other = {"far": "near-", "near": "far-"}[scenario.regime]
        for subcommand in (name for name in _SUBCOMMANDS if not name.startswith(other)):
            out.unlink(missing_ok=True)
            try:
                run(subcommand, scenario, out)
            except ScenarioError as exc:
                assert _names_a_field(str(exc), doc), (subcommand, exc)
                continue
            numbers, named = _artifact_numbers(out, scenario.out_format)
            assert numbers and all(map(math.isfinite, numbers)), (subcommand, numbers[:9])
            if subcommand == "fraunhofer":
                assert named["fraunhofer_distance_m"] > 0, named


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
        # no aperture, and one whose 2 D^2 / lambda_c underflows to 0
        for aperture in (0.0, 1e-170):
            with pytest.raises(ValueError):
                fraunhofer_distance(aperture, cfg200)

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
        # CSV artifacts are a header, CRLF row ends and 17 significant digits, with
        # integer-valued cells (element and subcarrier indices) written as "1"; a
        # gain map's axis points are their shortest round-trip reprs ("2.99", "-1.0")
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
            ("near-heatmap", near): b"x,y,value\r\n2.99,-0.01,0.99982117552687344\r\n"
            b"2.99,-0.005,0.99992066042413574\r\n",
            ("far-angle-sweep", far): b"subcarrier,direction,value\r\n1,-1.0,0.02646684753440",
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

    def test_unwritable_output_names_the_path_asked_for(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL_FAR)
        out = tmp_path / "no_dir" / "x.csv"
        assert main(["design", "--scenario", str(scenario), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    @pytest.mark.parametrize("out_format,writer", [("csv", "_grid_lines"),
                                                   ("json", "_json_chunks")])
    def test_failed_write_leaves_the_earlier_artifact(self, tmp_path, monkeypatch,
                                                      out_format, writer):
        # the CSV records, or the JSON text, fail after their first block, as on
        # a full disk; the run exits 3, the earlier run's complete artifact stays
        # byte for byte, and no temporary file is left beside it. M = 1000 makes
        # the first CSV block 256 of 1000 records.
        scenario = write_scenario(tmp_path, {**MINIMAL_FAR, "M": 1000})
        out = tmp_path / "out" / f"sweep.{out_format}"
        out.parent.mkdir()
        argv = ["far-subcarrier-sweep", "--scenario", str(scenario), "--out", str(out),
                "--format", out_format]
        assert main(argv) == 0
        before = out.read_bytes()
        real = getattr(irsbeam.cli, writer)

        def first_block_then_fail(*args):
            blocks = real(*args)
            yield next(blocks)
            raise OSError(errno.EFBIG, "File too large")

        monkeypatch.setattr(irsbeam.cli, writer, first_block_then_fail)
        assert main(argv) == 3
        assert out.read_bytes() == before
        assert [p.name for p in out.parent.iterdir()] == [out.name]

    def test_output_that_is_not_a_regular_file_is_written_directly(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL_FAR)
        argv = ["far-subcarrier-sweep", "--scenario", str(scenario), "--out"]
        assert main(argv + [os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        # a symlink keeps pointing at its target, which takes the new artifact
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink() and target.read_text().startswith("subcarrier,value\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [scenario.name, target.name, link.name])

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

    def test_ab_reports_an_a_a_run_of_one_op(self):
        # the plumbing only: this tree against itself, one op, two passes, and
        # no assertion on a time or a ratio
        key = "sf-near-R16-phases_only-1"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
             "--workload", "squint-fan", "--seed", "1", "--seconds", "0", "--passes", "2",
             "--op", key],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and lines[1].startswith(key) and lines[2].startswith("whole pass")
        report = json.loads(lines[-1])
        spread = {"old_s", "new_s", "median", "q1", "q3", "won", "pairs"}
        assert (report["workload"], report["seed"], report["passes"]) == ("squint-fan", 1, 2)
        (op,) = report["ops"]
        assert set(op) == spread | {"key", "same"} and op["key"] == key and op["same"]
        assert set(report["total"]) == spread
        for s in (op, report["total"]):
            assert s["pairs"] == 2 and 0 <= s["won"] <= 2 and s["q1"] <= s["median"] <= s["q3"]

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


def _presets_doc_row(name: str) -> str:
    """The summary cell of ``name``'s row in the tables of docs/presets.md."""
    return re.search(rf"^\| {name} \|.*\| ([^|]*) \|$", (ROOT / "docs/presets.md").read_text(),
                     re.MULTILINE)[1]


class TestPresetsDoc:
    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig7"])
    def test_metrics_match_the_printed_numbers(self, tmp_path, name):
        # each metric as the row prints it, "name = value" or "name ≈ value",
        # within half a unit of the value's last printed digit
        printed = dict(re.findall(r"\b(fraction_above|min_gain|mean_gain) [=≈] ([0-9.]+)",
                                  _presets_doc_row(name)))
        assert sorted(printed) == ["fraction_above", "mean_gain", "min_gain"], printed
        metrics = run("metrics", load_scenario(preset_path(name)), tmp_path / "metrics.csv")
        for key, text in printed.items():
            half_unit = 0.5 * 10.0 ** -len(text.partition(".")[2])
            assert abs(metrics[key] - float(text)) <= half_unit, (key, metrics[key], text)

    def test_fig8_argmax_is_the_user_cell_with_value_one(self, tmp_path):
        x, y, value = re.search(r"argmax cell exactly on the user at \(([-0-9.]+), ([-0-9.]+)\) "
                                r"with value ([0-9.]+)", _presets_doc_row("fig8")).groups()
        out = tmp_path / "fig8.json"
        info = run("near-heatmap", load_scenario(preset_path("fig8")), out, "json")
        assert info["argmax_xy"] == info["user_xy"] == [float(x), float(y)]
        i, j = info["argmax_cell"]
        assert json.loads(out.read_text())["values"][i][j] == pytest.approx(float(value), abs=1e-12)


def _axis_text_columns(text: str) -> tuple[list[str], list[np.ndarray]]:
    """A JSON gain-map artifact's axis names, and a column per axis of each grid
    point's coordinate in that artifact's own text, row-major."""
    axes = json.loads(text, parse_float=str, parse_int=str)["axes"]
    grid = np.meshgrid(*(np.array(ax["points"], dtype=object) for ax in axes), indexing="ij")
    return [ax["name"] for ax in axes], [g.ravel() for g in grid]


def _savetxt_reference(subcommand: str, text: str) -> bytes:
    """The CSV that ``np.savetxt`` writes for a subcommand's JSON artifact ``text``:
    a gain map's axis points cell by cell in their JSON text, every other number
    at 17 significant digits."""
    payload, fmt = json.loads(text), "%.17g"
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
        names, grid = _axis_text_columns(text)
        header, columns = names + ["value"], [*grid, payload["values"]]
        fmt = ["%s"] * len(grid) + ["%.17g"]
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
            reference = _savetxt_reference(subcommand, json_out.read_text())
            assert csv_out.read_bytes() == reference, subcommand
            compared.append(subcommand)
        assert len(compared) == (4 if s.n_elements == 1 else 5)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_gain_map_axis_cells_are_the_json_axis_text(self, tmp_path, name):
        # a gain map's CSV writes each axis point as its JSON artifact does: the
        # shortest decimal that reads back to the same number ("2.99", not
        # "2.9900000000000002")
        path = preset_path(name)
        regime = load_scenario(path).regime
        for subcommand in [s for s in _SUBCOMMANDS if s.startswith(f"{regime}-")]:
            csv_out, json_out = tmp_path / f"{subcommand}.csv", tmp_path / f"{subcommand}.json"
            for out, fmt in ((csv_out, "csv"), (json_out, "json")):
                assert main([subcommand, "--scenario", str(path), "--out", str(out),
                             "--format", fmt]) == 0
            grid = _axis_text_columns(json_out.read_text())[1]
            cells = [line.split(",")[:-1] for line in csv_out.read_text().splitlines()[1:]]
            assert cells == np.column_stack(grid).tolist(), subcommand

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


def _block_edge_map(n: int, head: int, integer: bool) -> GainMap:
    """A 1-D (``head`` 0) or 2-D (``head`` up to 3) map whose last axis has ``n`` points, with the
    extreme points and values at the writer's block edges (cells 0, 255, 256, n - 1)."""
    rng = np.random.default_rng(n + head)
    edges = sorted({i for i in (0, 255, 256, n - 1) if i < n})
    if integer:
        points = rng.integers(-(2**53), 2**53, n, endpoint=True)
        points[edges] = [2**53, -(2**53), 0, 2**53 - 1][: len(edges)]
    else:
        points = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        points[edges] = [-0.0, 5e-324, 1e300, -1e300][: len(edges)]
    axes = (Axis("x", "m", np.array([-0.0, 5e-324, 1e300][:head])),) if head else ()
    values = rng.random((head, n) if head else (n,))
    values[..., edges] = [0.0, -0.0, 5e-324, 1.0][: len(edges)]
    return GainMap((*axes, Axis("y", "m", points)), values)


BLOCK_EDGE_MAPS = [(n, head, integer) for n in (1, 255, 256, 257, 1000)
                   for head in (0, 3) for integer in (False, True)]


class TestCsvWriter:
    @pytest.mark.parametrize("n,head,integer", BLOCK_EDGE_MAPS)
    def test_bytes_match_per_cell_reference(self, tmp_path, n, head, integer):
        # maps whose rows end inside, at and just past a block of cells
        gm = _block_edge_map(n, head, integer)
        csv_out, json_out = tmp_path / "map.csv", tmp_path / "map.json"
        write_gain_map(csv_out, gm, "csv", {})
        write_gain_map(json_out, gm, "json", {})
        assert csv_out.read_bytes() == _savetxt_reference("far-angle-sweep", json_out.read_text())

    def test_map_without_axes_is_its_one_value(self, tmp_path):
        out = tmp_path / "map.csv"
        write_gain_map(out, GainMap((), np.float64(0.5)), "csv", {})
        assert out.read_bytes() == b"value\r\n0.5\r\n"

    @pytest.mark.parametrize("shape", [(201, 201), (3, 2001)])
    def test_memory_is_axis_strings_plus_one_block(self, tmp_path, shape):
        # The bound, from CPython's object sizes (64-bit):
        # - per axis point: its float from tolist() (24 B and an 8 B list slot),
        #   its cell string (49 B and up to 24 + 8 chars: its repr, at most 24
        #   for a float or an int64, then for the last axis ",%.17g\r\n") and
        #   its list slot, with 8 B for list growth;
        # - per cell of the block in flight (at most _BLOCK cells): the template's
        #   chars (a prefix of 25 per head axis, a tail of 32) three times (the
        #   joined tails, the prefixed template and the previous block's), the
        #   record's chars (25 per axis, then 26 for the value and CRLF) twice
        #   (the text and its encoding), the value as a float in a list and a
        #   tuple (24 + 8 + 8 B) and its tail's slot in the block's slice (8 B);
        # - 16 KiB for the file, its 8 KiB buffer and the writer's own objects.
        # A row or the whole map formatted by one `%` holds far more: it fails.
        axes = tuple(Axis(name, "m", np.linspace(-1.0, 1.0, size))
                     for name, size in zip("xy", shape))
        gm = GainMap(axes, np.random.default_rng(0).random(shape))
        k = len(shape) - 1  # head axes
        per_point = 24 + 8 + 49 + 32 + 8 + 8
        per_cell = 3 * (25 * k + 32) + 2 * (25 * (k + 1) + 26) + (24 + 8 + 8) + 8
        bound = per_point * sum(shape) + per_cell * _BLOCK + 16 * 1024
        out = tmp_path / "map.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_gain_map(out, gm, "csv", {})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


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
