import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsbeam import (
    Axis,
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
    squint_metrics,
    subcarrier_frequencies,
    subcarrier_frequency,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from irsbeam.model import NORMALIZED_GAIN_SLACK, resolve_subcarrier
from irsbeam.scan import grid_size
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
        for bad in ((0.0, 1.0, 0.3), (1.0, -1.0, 0.5), (-1.0, 1.0, 5e-324)):
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
        freqs = [subcarrier_frequency(cfg, resolve_subcarrier(cfg, r)) for r in rows]
        kernel = far_beam_gain_profile(array, cfg, freqs, grid_points(*nu_grid), phases, delays)
        np.testing.assert_allclose(gm.values, kernel / n_elements, rtol=0, atol=1e-9 / n_elements)
        assert (gm.values <= 1.0 + NORMALIZED_GAIN_SLACK).all()

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
