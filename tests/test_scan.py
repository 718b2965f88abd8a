import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsbeam import (
    Axis,
    DelayProfile,
    GainMap,
    IrsArray,
    WidebandConfig,
    angle_sweep,
    far_beam_gain_profile,
    far_dam_design,
    far_optimal_phases,
    far_squint_direction,
    grid_points,
    location_heatmap,
    near_gain_row,
    scenario_from_dict,
    squint_metrics,
    subcarrier_frequencies,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from irsbeam.farfield import _far_grid_gain
from irsbeam.model import NORMALIZED_GAIN_SLACK, resolve_subcarrier
from irsbeam.nearfield import _near_gain
from irsbeam.scan import _subcarrier_rows, grid_size, make_design
from conftest import make_geometry


class TestGridPoints:
    def test_inclusive_endpoints(self):
        g = grid_points(-1.0, 1.0, 0.5)
        np.testing.assert_allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_fine_step_count(self):
        assert grid_points(-1.0, 1.0, 1e-4).size == 20001

    def test_step_must_divide_span(self):
        with pytest.raises(ValueError, match="divide"):
            grid_points(0.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="positive"):
            grid_points(0.0, 1.0, -0.1)

    def test_size_counts_points_without_building_them(self):
        for grid in ((-1.0, 1.0, 0.5), (-1.0, 1.0, 1e-4), (-0.25, 0.25, 0.005), (0.0, 0.0, 1.0)):
            assert grid_size(*grid) == grid_points(*grid).size
        assert grid_size(-1.0, 1.0, 1e-10) == 20_000_000_001
        for bad in ((0.0, 1.0, 0.3), (1.0, -1.0, 0.5), (-1.0, 1.0, 5e-324), (-1.0, 1.0, 1e10)):
            with pytest.raises(ValueError, match="divide"):
                grid_size(*bad)


class TestAngleSweep:
    def test_carrier_row_peaks_at_design_direction(self, array64, cfg200):
        gm = angle_sweep(
            array64, cfg200, far_optimal_phases(array64, 0.5),
            subcarriers=(0,), nu_grid=(0.0, 1.0, 1e-3),
        )
        row = gm.values[0]
        j = int(np.argmax(row))
        assert gm.axes[1].points[j] == 0.5
        np.testing.assert_allclose(row[j], 1.0, rtol=1e-9)

    def test_edge_rows_peak_at_squinted_directions(self, array64, cfg200):
        gm = angle_sweep(
            array64, cfg200, far_optimal_phases(array64, 0.5),
            subcarriers=(1, -1), nu_grid=(0.0, 1.0, 1e-3),
        )
        freqs = subcarrier_frequencies(cfg200)
        for i, f in enumerate((freqs[0], freqs[-1])):
            law = far_squint_direction(0.5, f, cfg200.carrier_hz)
            found = gm.axes[1].points[int(np.argmax(gm.values[i]))]
            assert abs(found - law) <= 1e-3
            assert abs(found - 0.5) > 2e-3  # visibly away from the design direction

    def test_dam_rows_all_peak_on_design_direction(self, array64, cfg200):
        design = far_dam_design(array64, cfg200, 0.5)
        gm = angle_sweep(
            array64, cfg200, design.phases, design.delays,
            subcarriers=(1, 0, -1), nu_grid=(0.0, 1.0, 1e-3),
        )
        j = np.flatnonzero(gm.axes[1].points == 0.5)[0]
        for i in range(3):
            assert int(np.argmax(gm.values[i])) == j
            assert gm.values[i, j] >= 0.98  # comfortably, since it is 1 analytically
            np.testing.assert_allclose(gm.values[i, j], 1.0, rtol=1e-9)

    @given(st.data())
    def test_chirp_z_sweep_matches_kernel(self, data):
        # angle_sweep evaluates its uniform grid by chirp-z transform; on any
        # valid far setup it must give the matmul kernel's gains at grid_points
        f_c = data.draw(st.floats(10e9, 1e12), label="f_c")
        cfg = WidebandConfig(
            f_c,
            f_c * data.draw(st.floats(1e-3, 1.9), label="B / f_c"),
            data.draw(st.integers(1, 256), label="M"),
        )
        n_elements = data.draw(st.integers(1, 1024), label="R")
        array = IrsArray.half_wavelength(cfg, n_elements)
        nu0 = data.draw(st.floats(-2.0, 2.0), label="nu0")
        if data.draw(st.booleans(), label="dam"):
            design = far_dam_design(array, cfg, nu0)
            phases, delays = design.phases, design.delays
        else:
            phases, delays = far_optimal_phases(array, nu0), None
        step = data.draw(st.floats(1e-4, 1.0), label="step")
        n = data.draw(st.integers(1, min(501, int(4.0 / step) + 1)), label="points")
        start = data.draw(st.floats(-2.0, 2.0 - step * (n - 1)), label="nu_start")
        nu_grid = (start, start + step * (n - 1), step)
        rows = data.draw(
            st.lists(st.integers(-1, cfg.n_subcarriers), min_size=1, max_size=3), label="rows"
        )
        gm = angle_sweep(array, cfg, phases, delays, rows, nu_grid)
        grid_hz = subcarrier_frequencies(cfg)
        resolved = [resolve_subcarrier(cfg, r) for r in rows]
        freqs = [grid_hz[r - 1] if r else cfg.carrier_hz for r in resolved]
        kernel = far_beam_gain_profile(array, cfg, freqs, grid_points(*nu_grid), phases, delays)
        np.testing.assert_allclose(gm.values, kernel / n_elements, rtol=0, atol=1e-9 / n_elements)
        assert (gm.values <= 1.0 + NORMALIZED_GAIN_SLACK).all()

    @pytest.mark.parametrize("bad", [-2, 129])
    def test_bad_row_raises_the_selector_error(self, array64, cfg200, bad):
        with pytest.raises(ValueError) as want:
            resolve_subcarrier(cfg200, bad)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            angle_sweep(array64, cfg200, far_optimal_phases(array64, 0.5), subcarriers=(1, bad))

    def test_empty_subcarrier_list_rejected(self, array64, cfg200):
        with pytest.raises(ValueError, match="at least one"):
            angle_sweep(array64, cfg200, far_optimal_phases(array64, 0.5), subcarriers=())


class TestSubcarrierSweepFar:
    def test_dam_design_holds_one_everywhere(self, array64, cfg200):
        gm = subcarrier_sweep_far(array64, cfg200, 0.5, use_dam=True)
        np.testing.assert_allclose(gm.values, 1.0, rtol=1e-9)

    def test_wideband_gain_collapse_fraction(self):
        # at B = 30 GHz roughly 70 % of subcarriers keep at most 20 % of the
        # peak gain (design direction 1.5)
        cfg = WidebandConfig(200e9, 30e9, 128)
        gm = subcarrier_sweep_far(IrsArray.half_wavelength(cfg, 64), cfg, 1.5)
        fraction_low = float(np.mean(gm.values <= 0.2))
        assert 0.60 <= fraction_low <= 0.80
        metrics = squint_metrics(gm, threshold=0.2)
        np.testing.assert_allclose(metrics["fraction_above"], 1.0 - fraction_low, rtol=1e-12)
        assert abs(metrics["fraction_above"] - 0.30) <= 0.10

    def test_wideband_high_gain_fraction(self):
        # the companion claim: at B = 30 GHz only ~17-25 % of subcarriers keep
        # at least half of the peak gain; at B = 6 GHz the band sits almost
        # entirely inside the main lobe and the fraction is far higher
        cfg30 = WidebandConfig(200e9, 30e9, 128)
        gm30 = subcarrier_sweep_far(IrsArray.half_wavelength(cfg30, 64), cfg30, 1.5)
        assert 0.13 <= squint_metrics(gm30, 0.5)["fraction_above"] <= 0.33
        cfg6 = WidebandConfig(200e9, 6e9, 128)
        gm6 = subcarrier_sweep_far(IrsArray.half_wavelength(cfg6, 64), cfg6, 1.5)
        assert squint_metrics(gm6, 0.5)["fraction_above"] > 0.6

    def test_small_array_band_is_flat(self, cfg200):
        gm = subcarrier_sweep_far(IrsArray.half_wavelength(cfg200, 10), cfg200, 1.5)
        assert gm.values.min() >= 0.9
        assert gm.values.max() - gm.values.min() < 0.05


class TestSubcarrierSweepNear:
    def test_dam_design_holds_one_everywhere(self, geometry64, cfg200):
        gm = subcarrier_sweep_near(geometry64, cfg200, use_dam=True)
        np.testing.assert_allclose(gm.values, 1.0, rtol=1e-9)

    def test_center_subcarrier_full_gain_with_odd_grid(self):
        # with an odd M the center subcarrier is exactly the carrier, where
        # the focusing phases cancel regardless of the design kind
        cfg = WidebandConfig(200e9, 6e9, 129)
        geom = make_geometry(cfg, 64)
        for use_dam in (False, True):
            gm = subcarrier_sweep_near(geom, cfg, use_dam=use_dam)
            np.testing.assert_allclose(gm.values[64], 1.0, rtol=1e-9)

    def test_larger_array_loses_more_at_band_edge(self, cfg200):
        small = subcarrier_sweep_near(make_geometry(cfg200, 64), cfg200).values.min()
        large = subcarrier_sweep_near(make_geometry(cfg200, 256), cfg200).values.min()
        assert large < small


def _traced_peak(call):
    """The tracemalloc peak of ``call()`` above the memory traced before it, and
    its result; a first, untraced call warms every cache it fills."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def _sweep_and_kernel(kind: str, use_dam: bool):
    """A sweep of ``kind`` and its kernel call with the same arguments."""
    if kind == "angle":  # 16 rows x 20,001 directions: 2.6 MB of values
        cfg = WidebandConfig(200e9, 6e9, 16)
        array = IrsArray.half_wavelength(cfg, 64)
        design = make_design(array, cfg, 0.3, use_dam)
        rows, grid = range(1, 17), (-2.0, 2.0, 2e-4)
        freqs, n = _subcarrier_rows(cfg, rows)[1], grid_size(*grid)
        return (lambda: angle_sweep(array, cfg, design.phases, design.delays, rows, grid),
                lambda: _far_grid_gain(array, cfg, freqs, (grid[0], grid[2], n),
                                       design.phases, design.delays))
    if kind == "heatmap":  # 401 x 401 cells: 1.3 MB of values
        cfg = WidebandConfig(200e9, 6e9, 16)
        geom = make_geometry(cfg, 4)
        design = make_design(geom.array, cfg, geom, use_dam)
        (freq,) = _subcarrier_rows(cfg, [1])[1]
        xs, ys = 3.0 + grid_points(-0.5, 0.5, 0.0025), grid_points(-0.5, 0.5, 0.0025)
        return (lambda: location_heatmap(geom, cfg, 1, use_dam, 0.5, 0.0025),
                lambda: _near_gain(geom, cfg, freq, xs, ys, ys.size, design.phases,
                                   design.delays))
    cfg = WidebandConfig(200e9, 6e9, 2**16)  # 0.52 MB of values
    geom = make_geometry(cfg, 4)
    if kind == "far_subcarrier":
        design = make_design(geom.array, cfg, 0.5, use_dam)
        return (lambda: subcarrier_sweep_far(geom.array, cfg, 0.5, use_dam),
                lambda: far_beam_gain_profile(geom.array, cfg, subcarrier_frequencies(cfg), [0.5],
                                              design.phases, design.delays))
    design = make_design(geom.array, cfg, geom, use_dam)
    return (lambda: subcarrier_sweep_near(geom, cfg, use_dam),
            lambda: near_gain_row(geom, cfg, subcarrier_frequencies(cfg), np.array([geom.user_xy]),
                                  design.phases, design.delays))


@pytest.mark.parametrize("use_dam", [False, True], ids=["phases_only", "dam"])
@pytest.mark.parametrize("kind", ["angle", "far_subcarrier", "near_subcarrier", "heatmap"])
def test_sweep_memory_beyond_its_kernel_is_its_axes_and_mask(kind, use_dam):
    """Every sweep divides its kernel's fresh output by R in place and hands it
    to the map read-only, so the map keeps it uncopied: the sweep's tracemalloc
    peak exceeds that of its kernel call with the same arguments by at most its
    axes and one bool per value, the mask of GainMap's range checks. A copy of
    the values adds 8 B per value, which fails the angle sweep and heatmap
    cases; in a subcarrier sweep it stays under the kernel's own peak, which
    holds the frequencies, the output and the chunk buffer."""
    sweep, kernel = _sweep_and_kernel(kind, use_dam)
    sweep_peak, gm = _traced_peak(sweep)
    kernel_peak, values = _traced_peak(kernel)
    assert gm.values.size == values.size and not gm.values.flags.writeable
    axes = sum(ax.points.nbytes for ax in gm.axes)
    assert sweep_peak - kernel_peak <= axes + gm.values.size, (sweep_peak, kernel_peak, axes)


@pytest.mark.parametrize("use_dam", [False, True], ids=["phases_only", "dam"])
@pytest.mark.parametrize("kind", ["far_subcarrier", "near_subcarrier"])
def test_subcarrier_sweep_values_are_a_view_of_the_kernel_output(kind, use_dam):
    """A subcarrier sweep's map keeps the (M, 1) kernel output's column as it
    is, a view: a copy, which the memory test above cannot see in these two
    sweeps, owns its values and has no base."""
    gm = _sweep_and_kernel(kind, use_dam)[0]()
    assert gm.values.base is not None and gm.values.base.shape == (gm.values.size, 1)


class TestLocationHeatmap:
    def test_highest_subcarrier_shorthand_agrees_with_angle_sweep(
        self, geometry64, array64, cfg200
    ):
        grid = dict(half_span_m=0.02, step_m=0.005)
        np.testing.assert_array_equal(
            location_heatmap(geometry64, cfg200, subcarrier=-1, **grid).values,
            location_heatmap(geometry64, cfg200, subcarrier=128, **grid).values,
        )
        gm = angle_sweep(
            array64, cfg200, far_optimal_phases(array64, 0.5),
            subcarriers=(-1, 128), nu_grid=(0.0, 1.0, 1e-2),
        )
        assert gm.axes[0].points.tolist() == [128, 128]
        np.testing.assert_array_equal(gm.values[0], gm.values[1])

    def test_carrier_argmax_on_user(self, geometry64, cfg200):
        gm = location_heatmap(geometry64, cfg200, subcarrier=0, half_span_m=0.1, step_m=0.005)
        cell = gm.argmax_cell()
        assert cell == (20, 20)
        assert gm.axes[0].points[cell[0]] == 3.0
        assert gm.axes[1].points[cell[1]] == 0.0
        np.testing.assert_allclose(gm.values[cell], 1.0, rtol=1e-9)

    def test_edge_subcarriers_drift_off_user(self, geometry64, cfg200):
        for index in (1, 128):
            gm = location_heatmap(
                geometry64, cfg200, subcarrier=index, half_span_m=0.1, step_m=0.005
            )
            assert gm.argmax_cell() != (20, 20)

    def test_dam_design_pins_argmax_on_user(self, geometry64, cfg200):
        for index in (1, 0, 128):
            gm = location_heatmap(
                geometry64, cfg200, subcarrier=index, use_dam=True,
                half_span_m=0.1, step_m=0.005,
            )
            assert gm.argmax_cell() == (20, 20)
            np.testing.assert_allclose(gm.values[20, 20], 1.0, rtol=1e-9)

    # R = 16 gives 1,024-cell chunks of about ten x rows, R = 128 on 101 x 101
    # gives 128-cell chunks that split x rows, and 5 x 5 at R = 16 is one chunk
    # of 400 evaluations, whose phasors come from the same sine series
    @pytest.mark.parametrize("use_dam", [False, True], ids=["phase_only", "dam"])
    @pytest.mark.parametrize(
        "n_elements,half_span_m,step_m", [(16, 0.5, 0.01), (128, 0.5, 0.01), (16, 0.01, 0.005)]
    )
    def test_values_equal_near_gain_row_on_the_cells(
        self, cfg200, n_elements, half_span_m, step_m, use_dam
    ):
        geom = make_geometry(cfg200, n_elements)
        gm = location_heatmap(geom, cfg200, 1, use_dam, half_span_m, step_m)
        xs, ys = (axis.points for axis in gm.axes)
        cells = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        design = make_design(geom.array, cfg200, geom, use_dam)
        f = subcarrier_frequencies(cfg200)[0]
        row = near_gain_row(geom, cfg200, f, cells, design.phases, design.delays)
        np.testing.assert_array_equal(gm.values, row.reshape(gm.values.shape) / n_elements)

    def test_grid_centers_on_user(self, geometry64, cfg200):
        gm = location_heatmap(geometry64, cfg200, half_span_m=0.05, step_m=0.005)
        assert gm.axes[0].points[0] == 3.0 - 0.05
        assert gm.axes[0].points[-1] == 3.0 + 0.05
        assert gm.axes[1].points[10] == 0.0


class TestSquintMetrics:
    def _map(self, values):
        return GainMap(
            axes=(Axis("subcarrier", "index", np.arange(len(values))),),
            values=np.asarray(values, dtype=float),
        )

    def test_all_ones(self):
        m = squint_metrics(self._map([1.0, 1.0, 1.0]), 0.7)
        assert m == {"fraction_above": 1.0, "min_gain": 1.0, "mean_gain": 1.0}

    def test_fraction_non_increasing_in_threshold(self):
        gm = self._map(np.linspace(0.0, 1.0, 101))
        fractions = [squint_metrics(gm, t)["fraction_above"] for t in (0.2, 0.5, 0.8)]
        assert fractions == sorted(fractions, reverse=True)

    def test_threshold_bounds(self):
        gm = self._map([0.5])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="threshold"):
                squint_metrics(gm, bad)


class TestDamDominance:
    def test_far_dam_never_below_phase_only_at_design_direction(self, array64, cfg200):
        plain = subcarrier_sweep_far(array64, cfg200, 0.5, use_dam=False)
        dam = subcarrier_sweep_far(array64, cfg200, 0.5, use_dam=True)
        assert np.all(dam.values >= plain.values - 1e-12)

    def test_near_dam_never_below_phase_only_at_user(self, geometry64, cfg200):
        plain = subcarrier_sweep_near(geometry64, cfg200, use_dam=False)
        dam = subcarrier_sweep_near(geometry64, cfg200, use_dam=True)
        assert np.all(dam.values >= plain.values - 1e-12)


class TestMakeDesignProperties:
    @given(st.data())
    def test_sweep_gains_dam_identity_and_common_delay(self, data):
        """Over random valid scenarios of both regimes and both designs, the design
        of make_design is the one the subcarrier sweep evaluates; no sweep gain
        exceeds 1, a DAM design gives 1 on every subcarrier, and a common delay
        changes no gain at the design point. The layouts stay inside the ranges the
        DAM tests already cover. Far: those of test_chirp_z_sweep_matches_kernel,
        f_c in [10 GHz, 1 THz], B / f_c in [1e-3, 1.9], M <= 256, R <= 1024 and
        nu0 in [-2, 2]. Near: the 200 GHz, 6 GHz, M = 128 band and the random
        layouts of the near DAM oracle tests (test_nearfield._random_layouts), BS
        in [-3, 3]^2, user in [-3, 3] x [-5, 1], IRS origin in [-1, 1] x [1, 3],
        with R <= 256 and the BS and user below y = 1/2, clear of every element.
        A common delay, up to test 10's 2e-8 s, moves every aligned term at the
        design point by the same phase, so the gains move only by rounding."""

        def point(x_range, y_range, label):
            return [data.draw(st.floats(*x_range), label=f"{label} x"),
                    data.draw(st.floats(*y_range), label=f"{label} y")]

        if data.draw(st.booleans(), label="near"):
            raw = {"f_c": 200e9, "B": 6e9, "M": 128,
                   "R": data.draw(st.integers(1, 256), label="R"),
                   "bs": point((-3.0, 3.0), (-3.0, 0.5), "bs"),
                   "user": point((-3.0, 3.0), (-5.0, 0.5), "user"),
                   "irs_origin": point((-1.0, 1.0), (1.0, 3.0), "irs_origin")}
        else:
            f_c = data.draw(st.floats(10e9, 1e12), label="f_c")
            raw = {"f_c": f_c, "B": f_c * data.draw(st.floats(1e-3, 1.9), label="B / f_c"),
                   "M": data.draw(st.integers(1, 256), label="M"),
                   "R": data.draw(st.integers(1, 1024), label="R"),
                   "nu0": data.draw(st.floats(-2.0, 2.0), label="nu0")}
        raw["design"] = data.draw(st.sampled_from(["phases_only", "dam"]), label="design")
        s = scenario_from_dict(raw)
        use_dam = s.design == "dam"
        design = make_design(s.array, s.config, s.link, use_dam)
        freqs = subcarrier_frequencies(s.config)
        if s.regime == "far":
            sweep = subcarrier_sweep_far(s.array, s.config, s.link, use_dam)

            def at_design_point(delays):
                gains = far_beam_gain_profile(s.array, s.config, freqs, [s.link], design.phases,
                                              delays)
                return gains[:, 0] / s.n_elements
        else:
            sweep = subcarrier_sweep_near(s.link, s.config, use_dam)

            def at_design_point(delays):
                gains = near_gain_row(s.link, s.config, freqs, [s.user_xy], design.phases, delays)
                return gains[:, 0] / s.n_elements

        np.testing.assert_array_equal(sweep.values, at_design_point(design.delays))
        assert (sweep.values <= 1.0 + NORMALIZED_GAIN_SLACK).all()
        if use_dam:
            assert np.abs(sweep.values - 1.0).max() <= 1e-9
            delta = data.draw(st.floats(0.0, 2e-8), label="common delay")
            shifted = at_design_point(DelayProfile(design.delays.delays + delta))
            assert np.abs(shifted - sweep.values).max() <= 1e-12
