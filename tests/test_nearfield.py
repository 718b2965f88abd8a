import numpy as np
import pytest

from irsbeam import (
    SPEED_OF_LIGHT,
    DelayProfile,
    IrsArray,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
    subcarrier_frequencies,
)
from conftest import make_geometry
from oracles import near_gain_brute_force, near_gain_longdouble


class TestElementDistances:
    def test_reference_values(self, geometry64):
        assert geometry64.element_distances((0.0, 0.0))[0] == np.sqrt(2.0)
        assert geometry64.element_distances((3.0, 0.0))[0] == np.sqrt(5.0)
        rows = geometry64.element_distances([(0.0, 0.0), (3.0, 0.0)])
        assert rows.shape == (2, 64)
        np.testing.assert_array_equal(rows[1], geometry64.element_distances((3.0, 0.0)))

    def test_coincident_point_rejected(self, geometry64):
        with pytest.raises(ValueError, match=r"point \(1.0, 1.0\) coincides"):
            geometry64.element_distances((1.0, 1.0))
        with pytest.raises(ValueError, match=r"point \(1.0, 1.0\) coincides"):
            geometry64.element_distances([(3.0, 0.0), (1.0, 1.0)])

    def test_overflowing_target_rejected(self, geometry64):
        # 1e200 is finite, but its square is not
        with pytest.raises(ValueError, match=r"point \(1e\+200, 0.0\) is so far away"):
            geometry64.element_distances([(3.0, 0.0), (1e200, 0.0)])
        with pytest.raises(ValueError, match=r"point \(3.0, -1e\+160\) is so far away"):
            geometry64.element_distances((3.0, -1e160))

    def test_overflowing_endpoint_rejected(self, cfg200):
        for endpoints in ({"bs_xy": (0.0, 1e200)}, {"user_xy": (-1e200, 0.0)}):
            label = "BS" if "bs_xy" in endpoints else "user"
            with pytest.raises(ValueError, match=rf"{label} point \(.*e\+200.*\) is so far away"):
                NearFieldGeometry(
                    **{"bs_xy": (0.0, 0.0), "user_xy": (3.0, 0.0), **endpoints},
                    irs_origin_xy=(1.0, 1.0), array=IrsArray.half_wavelength(cfg200, 8),
                )

    def test_monotone_for_point_left_of_array_on_its_line(self, geometry64):
        d = geometry64.element_distances((0.0, 1.0))
        assert np.all(np.diff(d) > 0)


class TestBeamGain:
    def test_focus_gain_equals_element_count(self, cfg200):
        for n in (1, 10, 64):
            geom = make_geometry(cfg200, n)
            phases = near_optimal_phases(geom, cfg200)
            g = near_gain_row(geom, cfg200, cfg200.carrier_hz, [geom.user_xy], phases)[0]
            np.testing.assert_allclose(g, n, rtol=1e-9)

    def test_single_element_gain_is_one_anywhere(self, cfg200):
        geom = make_geometry(cfg200, 1)
        rng = np.random.default_rng(13)
        for _ in range(10):
            target = (rng.uniform(2, 4), rng.uniform(-1, 1))
            f = rng.uniform(0.9, 1.1) * cfg200.carrier_hz
            g = near_gain_row(geom, cfg200, f, [target], PhaseProfile(rng.uniform(0, 6, 1)))[0]
            np.testing.assert_allclose(g, 1.0, rtol=1e-12)

    def test_edge_subcarrier_strictly_below_peak(self, geometry64, cfg200):
        phases = near_optimal_phases(geometry64, cfg200)
        f1 = subcarrier_frequencies(cfg200)[0]
        g = near_gain_row(geometry64, cfg200, f1, [geometry64.user_xy], phases)[0]
        assert g < 64.0 * (1 - 1e-4)
        # frozen from an element-by-element evaluation of the residual sum
        np.testing.assert_allclose(g / 64.0, 0.988352352667293, rtol=1e-6)

    def test_matches_longhand_sum(self, geometry64, cfg200):
        rng = np.random.default_rng(37)
        phases = PhaseProfile(rng.uniform(0, 2 * np.pi, 64))
        delays = DelayProfile(rng.uniform(0, 1e-9, 64))
        f = 198.2e9
        target = (2.8, 0.3)
        g = near_gain_row(geometry64, cfg200, f, [target], phases, delays)[0]
        expected = near_gain_brute_force(cfg200, geometry64, f, target, phases, delays)
        np.testing.assert_allclose(g, expected, rtol=1e-10)

    def test_row_evaluation_matches_scalar(self, geometry64, cfg200):
        phases = near_optimal_phases(geometry64, cfg200)
        targets = np.array([[2.9, -0.1], [3.0, 0.1], [3.2, 0.0]])
        row = near_gain_row(geometry64, cfg200, 199e9, targets, phases)
        for point, value in zip(targets, row):
            np.testing.assert_allclose(
                value, near_gain_row(geometry64, cfg200, 199e9, [point], phases)[0], rtol=1e-12
            )

    def test_multi_chunk_row_matches_longhand_sum(self, cfg200):
        # R = 256 leaves 64 targets per kernel chunk: 300 points span 5 chunks,
        # and all 128 subcarriers at one point span 2 frequency chunks
        geom = make_geometry(cfg200, 256)
        rng = np.random.default_rng(43)
        phases = PhaseProfile(rng.uniform(0, 2 * np.pi, 256))
        delays = DelayProfile(rng.uniform(0, 1e-9, 256))
        targets = np.column_stack((rng.uniform(2.5, 3.5, 300), rng.uniform(-0.5, 0.5, 300)))
        row = near_gain_row(geom, cfg200, 199e9, targets, phases, delays)
        assert row.shape == (300,)
        for i in range(0, 300, 23):
            expected = near_gain_brute_force(cfg200, geom, 199e9, targets[i], phases, delays)
            np.testing.assert_allclose(row[i], expected, rtol=1e-9)
        freqs = subcarrier_frequencies(cfg200)
        column = near_gain_row(geom, cfg200, freqs, targets[:1], phases, delays)
        assert column.shape == (128, 1)
        for j in range(0, 128, 9):
            expected = near_gain_brute_force(cfg200, geom, freqs[j], targets[0], phases, delays)
            np.testing.assert_allclose(column[j, 0], expected, rtol=1e-9)

    @pytest.mark.parametrize("point", [(np.nan, 0.0), (3.0, -np.inf)])
    def test_non_finite_point_rejected(self, geometry64, cfg200, point):
        phases = near_optimal_phases(geometry64, cfg200)
        with pytest.raises(ValueError, match=rf"point \({point[0]}, {point[1]}\) is not finite"):
            near_gain_row(geometry64, cfg200, 200e9, [(2.9, 0.0), point], phases)

    def test_profile_length_mismatch_rejected(self, geometry64, cfg200):
        with pytest.raises(ValueError, match="length"):
            near_gain_row(geometry64, cfg200, 200e9, [(3.0, 0.0)], PhaseProfile(np.zeros(8)))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("n_elements", [16, 64, 256])
def test_row_within_a_few_ulp_of_longdouble_oracle(cfg200, n_elements):
    """Each element's phase passes through about a dozen float64 roundings
    (element position, offsets, squares, sqrt, scale, products, sums), each of
    at most half an ulp of a quantity no larger than s L_max, the largest phase
    magnitude: s = (2 pi / lambda_c)(1 + f/f_c) and L_max the longest
    BS-to-element-to-target path (every coordinate here is shorter). So eight
    ulp of s L_max bound each term's phase error, and R of them a gain's."""
    geom = make_geometry(cfg200, n_elements)
    rng = np.random.default_rng(n_elements)
    points = np.array(geom.user_xy) + rng.uniform(-0.5, 0.5, (3000, 2))
    freqs = subcarrier_frequencies(cfg200)[[0, -1]]
    longest = (geom.bs_distances + geom.element_distances(points)).max()
    scale = (2 * np.pi / cfg200.wavelength_m) * (1.0 + freqs.max() / cfg200.carrier_hz)
    bound = n_elements * 8 * np.spacing(scale * longest)
    # the fig6 design at both band edges in one call, the fig8 design at the lowest
    phases = near_optimal_phases(geom, cfg200)
    rows = near_gain_row(geom, cfg200, freqs, points, phases)
    for f, got in zip(freqs, rows):
        assert np.abs(got - near_gain_longdouble(cfg200, geom, f, points, phases)).max() <= bound
    dam = near_dam_design(geom, cfg200)
    got = near_gain_row(geom, cfg200, freqs[0], points, dam.phases, dam.delays)
    want = near_gain_longdouble(cfg200, geom, freqs[0], points, dam.phases, dam.delays)
    assert np.abs(got - want).max() <= bound


class TestOptimalPhases:
    def test_single_element_value(self, cfg200):
        # (4 pi / lambda_c)(sqrt 2 + sqrt 5) mod 2 pi, evaluated independently
        geom = make_geometry(cfg200, 1)
        p = near_optimal_phases(geom, cfg200)
        np.testing.assert_allclose(p.phases[0], 2.5851302942340766, atol=1e-9)

    def test_single_phase_perturbation_never_improves_focus(self, cfg200):
        geom = make_geometry(cfg200, 16)
        base = near_optimal_phases(geom, cfg200)
        peak = near_gain_row(geom, cfg200, cfg200.carrier_hz, [geom.user_xy], base)[0]
        for r in range(16):
            for eps in (+0.1, -0.1):
                perturbed = base.phases.copy()
                perturbed[r] += eps
                g = near_gain_row(
                    geom, cfg200, cfg200.carrier_hz, [geom.user_xy], PhaseProfile(perturbed)
                )[0]
                assert g <= peak + 1e-9


class TestDamDesign:
    def test_single_element(self, cfg200):
        geom = make_geometry(cfg200, 1)
        design = near_dam_design(geom, cfg200)
        assert design.delays.delays.tolist() == [0.0]
        expected = (np.sqrt(2) + np.sqrt(5)) / SPEED_OF_LIGHT
        np.testing.assert_allclose(design.summary["common_delay_s"], expected, rtol=1e-15)

    def test_delays_follow_path_length_profile(self, geometry64, cfg200):
        design = near_dam_design(geometry64, cfg200)
        d_bs = geometry64.element_distances(geometry64.bs_xy)
        d_user = geometry64.element_distances(geometry64.user_xy)
        sums = d_bs + d_user
        np.testing.assert_allclose(
            design.delays.delays, (sums.max() - sums) / SPEED_OF_LIGHT, rtol=1e-9, atol=1e-24
        )
        assert design.delays.delays.min() == 0.0
        # for this layout the path sums shrink along the array, so the delay
        # profile rises monotonically from zero at the first element
        assert np.all(np.diff(sums) < 0)
        assert design.delays.delays[0] == 0.0
        assert np.all(np.diff(design.delays.delays) > 0)

    def test_refocuses_every_subcarrier(self, geometry64, cfg200):
        design = near_dam_design(geometry64, cfg200)
        for f in subcarrier_frequencies(cfg200):
            g = near_gain_row(
                geometry64, cfg200, f, [geometry64.user_xy], design.phases, design.delays
            )[0]
            np.testing.assert_allclose(g, 64.0, rtol=1e-9)

    def test_common_delay_shift_leaves_gain_unchanged(self, geometry64, cfg200):
        design = near_dam_design(geometry64, cfg200)
        freqs = subcarrier_frequencies(cfg200)
        base = np.array(
            [
                near_gain_row(
                    geometry64, cfg200, f, [geometry64.user_xy], design.phases, design.delays
                )[0]
                for f in freqs
            ]
        )
        rng = np.random.default_rng(41)
        for delta in rng.uniform(0, 2e-8, size=5):
            shifted = DelayProfile(design.delays.delays + delta)
            gains = np.array(
                [
                    near_gain_row(
                        geometry64, cfg200, f, [geometry64.user_xy], design.phases, shifted
                    )[0]
                    for f in freqs
                ]
            )
            np.testing.assert_allclose(gains, base, rtol=1e-12)


class TestSquintPhenomena:
    def test_focal_drift_off_carrier(self, geometry64, cfg200):
        from irsbeam import location_heatmap

        freqs = subcarrier_frequencies(cfg200)
        user_cell = (20, 20)  # center of a 41x41 grid
        for index, expect_on_user in ((1, False), (0, True), (128, False)):
            gm = location_heatmap(
                geometry64, cfg200, subcarrier=index, half_span_m=0.1, step_m=0.005
            )
            assert (gm.argmax_cell() == user_cell) is expect_on_user, (
                f"subcarrier {index}: argmax {gm.argmax_cell()}"
            )

    def test_edge_loss_grows_with_element_count(self, cfg200):
        f1 = subcarrier_frequencies(cfg200)[0]
        gains = []
        for n in (32, 64, 128, 256):
            geom = make_geometry(cfg200, n)
            phases = near_optimal_phases(geom, cfg200)
            gains.append(near_gain_row(geom, cfg200, f1, [geom.user_xy], phases)[0] / n)
        assert all(a > b for a, b in zip(gains, gains[1:]))
