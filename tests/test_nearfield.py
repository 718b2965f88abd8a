import tracemalloc

import numpy as np
import pytest

from irsbeam import (
    SPEED_OF_LIGHT,
    Axis,
    DelayProfile,
    GainMap,
    IrsArray,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    location_heatmap,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
    subcarrier_frequencies,
)
from irsbeam.cli import write_gain_map
from irsbeam.model import KERNEL_CHUNK, TWO_PI
from irsbeam.nearfield import _phasors
from conftest import longdouble_only, make_geometry
from oracles import (
    hypot_distances,
    near_dam_delays_longdouble,
    near_focus_phases_longdouble,
    near_gain_brute_force,
    near_gain_longdouble,
)


class TestElementDistances:
    """The element distances of the geometry's BS and user legs and of the
    kernel's targets, which one routine computes."""

    def test_reference_values(self, geometry64):
        assert geometry64.bs_distances[0] == np.sqrt(2.0)
        assert geometry64.user_distances[0] == np.sqrt(5.0)

    def test_coincident_point_rejected(self, geometry64, cfg200):
        phases = PhaseProfile(np.zeros(64))
        with pytest.raises(ValueError, match=r"point \(1.0, 1.0\) coincides"):
            near_gain_row(geometry64, cfg200, 200e9, [(1.0, 1.0)], phases)
        with pytest.raises(ValueError, match=r"point \(1.0, 1.0\) coincides"):
            near_gain_row(geometry64, cfg200, 200e9, [(3.0, 0.0), (1.0, 1.0)], phases)

    def test_overflowing_target_rejected(self, geometry64, cfg200):
        # 1e200 is finite, but its square is not
        phases = PhaseProfile(np.zeros(64))
        with pytest.raises(ValueError, match=r"point \(1e\+200, 0.0\) is so far away"):
            near_gain_row(geometry64, cfg200, 200e9, [(3.0, 0.0), (1e200, 0.0)], phases)
        with pytest.raises(ValueError, match=r"point \(3.0, -1e\+160\) is so far away"):
            near_gain_row(geometry64, cfg200, 200e9, [(3.0, -1e160)], phases)

    def test_overflowing_endpoint_rejected(self, cfg200):
        for endpoints in ({"bs_xy": (0.0, 1e200)}, {"user_xy": (-1e200, 0.0)}):
            label = "BS" if "bs_xy" in endpoints else "user"
            with pytest.raises(ValueError, match=rf"{label} point \(.*e\+200.*\) is so far away"):
                NearFieldGeometry(
                    **{"bs_xy": (0.0, 0.0), "user_xy": (3.0, 0.0), **endpoints},
                    irs_origin_xy=(1.0, 1.0), array=IrsArray.half_wavelength(cfg200, 8),
                )

    def test_monotone_for_point_left_of_array_on_its_line(self, geometry64):
        geom = NearFieldGeometry((0.0, 1.0), geometry64.user_xy, geometry64.irs_origin_xy,
                                 geometry64.array)
        assert np.all(np.diff(geom.bs_distances) > 0)


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


@longdouble_only
@pytest.mark.parametrize("n_elements", [16, 64, 256])
def test_row_within_a_few_ulp_of_longdouble_oracle(cfg200, n_elements):
    """Each element's phase passes through about a dozen float64 roundings
    (element position, offsets, squares, sqrt, scale, products, sums), each of
    at most half an ulp of a quantity no larger than s L_max, the largest phase
    magnitude: s = (2 pi / lambda_c)(1 + f/f_c) and L_max the longest
    BS-to-element-to-target path (every coordinate here is shorter). So eight
    ulp of s L_max bound each term's phase error, and R of them a gain's. The
    sine-series phasor of the reduced phase adds a few ulp of 1 per term, on
    large grids and small ones alike."""
    geom = make_geometry(cfg200, n_elements)
    rng = np.random.default_rng(n_elements)
    points = np.array(geom.user_xy) + rng.uniform(-0.5, 0.5, (3000, 2))
    freqs = subcarrier_frequencies(cfg200)[[0, -1]]
    longest = (geom.bs_distances + hypot_distances(geom, points)).max()
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
    # the fig6 design on one chunk of under 1,024 evaluations
    few = points[: 1023 // n_elements]
    got = near_gain_row(geom, cfg200, freqs[0], few, phases)
    assert np.abs(got - near_gain_longdouble(cfg200, geom, freqs[0], few, phases)).max() <= bound


def test_phasors_within_squared_start_error_of_exp():
    """The series start cos + j sin of theta = -2 pi t / 2^5 lies within 4 u of
    exp(j theta) (u = 2^-53: a few roundings of a sine dominated by its first
    term, of 1 - sin^2 and of the sqrt). Each complex squaring at most doubles
    the error and adds 3 u of its own rounding, so after 2^5 the error is at
    most 2^5 (4 u) + 31 (3 u) < 2^5 (8 u); np.exp's own error is within the slack."""
    u = np.finfo(np.float64).eps / 2
    special = [0.5, -0.5, 0.0, 1e-300, -1e-300]
    turns = np.concatenate((special, np.random.default_rng(5).uniform(-0.5, 0.5, 10**5)))
    want = np.exp(-TWO_PI * 1j * turns)
    got = np.empty(turns.size, np.complex128)
    _phasors(turns.copy(), got)
    assert np.abs(got - want).max() <= 2**5 * 8 * u
    assert got[2] == 1.0


@pytest.mark.parametrize("n_elements,call", [
    (16, "heatmap"), (128, "heatmap"), (128, "point list"),
])
def test_near_call_holds_two_chunk_buffers_beyond_its_output(cfg200, n_elements, call):
    """Beyond its output, a near call allocates two buffers of at most
    KERNEL_CHUNK evaluations each: the kernel's complex chunk buffer (16 B per
    evaluation) and the float one of the distances and turns (8 B). Per chunk
    it makes at most three 8-byte values for each of its KERNEL_CHUNK // R
    targets at a time: a grid's cell y, (y - y_0)^2 and row index while the
    distances are formed, then the matmul product (16 B) and its modulus. 32 KiB
    covers the design, the weights, the axes and the interpreter's objects. So
    a single 64 KiB iterator buffer of a broadcast ufunc breaks the bound; a
    101 x 101 grid at R = 128 takes 80 chunks, at R = 16 ten."""
    geom = make_geometry(cfg200, n_elements)
    offsets = np.linspace(-0.5, 0.5, 101)
    if call == "heatmap":
        def run():
            return location_heatmap(geom, cfg200, 1, half_span_m=0.5, step_m=0.01).values
    else:
        cells = np.stack(np.meshgrid(3.0 + offsets, offsets, indexing="ij"), axis=-1)
        cells = cells.reshape(-1, 2)
        phases = near_optimal_phases(geom, cfg200)
        f = subcarrier_frequencies(cfg200)[0]

        def run():
            return near_gain_row(geom, cfg200, f, cells, phases)

    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.size == offsets.size**2
    assert peak - out.nbytes <= 24 * KERNEL_CHUNK + 24 * (KERNEL_CHUNK // n_elements) + 32 * 1024


def test_heatmap_memory_beyond_its_output_does_not_grow_with_the_grid(cfg200):
    """location_heatmap evaluates its grid from its two axes, so beyond its
    output it allocates one kernel chunk's arrays, whatever the grid's size: the
    tracemalloc peak less ``values.nbytes`` at 201 x 201 may exceed that at
    101 x 101 only by one chunk's per-cell arrays, allowed here as eight 8-byte
    values for each of its KERNEL_CHUNK // R cells. A list of the cells'
    coordinates would add 16 B per cell, 0.48 MB between these grids."""
    geom = make_geometry(cfg200, 64)

    def beyond_output(step_m):
        location_heatmap(geom, cfg200, 1, half_span_m=0.5, step_m=step_m)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gm = location_heatmap(geom, cfg200, 1, half_span_m=0.5, step_m=step_m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gm.values.shape == (round(1 / step_m) + 1,) * 2
        return peak - gm.values.nbytes

    slack = 8 * 8 * (KERNEL_CHUNK // 64)
    assert beyond_output(0.005) <= beyond_output(0.01) + slack


def test_json_gain_map_write_holds_a_few_rows_not_the_map(tmp_path):
    """Writing a 201 x 201 heatmap as JSON streams it a row at a time. One row
    holds at most 201 x 200 B: a float object and its list slot (32 B), its
    repr string (at most 49 + 24 B) and its line of the joined row text, twice
    while the row is bracketed (2 x 32 B) - about 40 KB. Four rows' worth
    covers that and the file's buffers; converting the whole map to Python
    floats at once needs at least 40,401 x 32 B = 1.29 MB."""
    side = np.linspace(-0.5, 0.5, 201)
    values = np.random.default_rng(7).uniform(0.0, 1.0, (side.size, side.size))
    gain_map = GainMap((Axis("x", "m", 3.0 + side), Axis("y", "m", side)), values)
    out = tmp_path / "heatmap.json"
    write_gain_map(out, gain_map, "json", {"subcommand": "near-heatmap"})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_gain_map(out, gain_map, "json", {"subcommand": "near-heatmap"})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * side.size * 200


def _random_layouts(cfg, n_elements):
    """The reference layout and five random ones, seeded by the element count."""
    rng = np.random.default_rng(n_elements)
    layouts = [((0.0, 0.0), (3.0, 0.0), (1.0, 1.0))] + [
        (tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-3, 3, 2) - [0, 2]),
         tuple(rng.uniform(-1, 1, 2) + [0, 2]))
        for _ in range(5)
    ]
    array = IrsArray.half_wavelength(cfg, n_elements)
    return [NearFieldGeometry(bs, user, origin, array) for bs, user, origin in layouts]


@longdouble_only
@pytest.mark.parametrize("n_elements", [16, 64, 256])
def test_design_phases_within_a_few_ulp_of_longdouble_oracle(cfg200, n_elements):
    """A design phase 2 pi k (d^BR + d^RU) / lambda_c carries the float64
    roundings of its two distances (element position, offsets, squares, sum,
    sqrt), each of at most half an ulp of a quantity no larger than L_max, so
    of s L_max once scaled by s = 2 pi k / lambda_c. The scale, the sum and the
    reduction to one turn run in np.longdouble, wider than float64 wherever
    this test runs, and the final 2 pi t and wrap round at below an ulp of
    2 pi. So eight ulp of s L_max bound each phase's error, the row test's bound."""
    pi = 4 * np.arctan(np.longdouble(1))
    for geom in _random_layouts(cfg200, n_elements):
        longest = (geom.bs_distances + geom.user_distances).max()
        for k, phases in ((2, near_optimal_phases(geom, cfg200)),
                          (1, near_dam_design(geom, cfg200).phases)):
            err = phases.phases.astype(np.longdouble) - near_focus_phases_longdouble(
                cfg200, geom, k
            )
            err -= 2 * pi * np.rint(err / (2 * pi))
            bound = 8 * np.spacing(2 * np.pi * k / cfg200.wavelength_m * longest)
            assert np.abs(err).max() <= bound


@longdouble_only
@pytest.mark.parametrize("n_elements", [16, 64, 256])
def test_dam_delays_within_a_few_ulp_of_longdouble_oracle(cfg200, n_elements):
    """A path L_r = d_r^BR + d_r^RU carries the float64 roundings of its two
    distances, within eight ulp of L_max by the design phase test's argument,
    and a delay (max L - L_r) / c those of two paths. Its scale to turns, the
    difference and the division by f_c run in np.longdouble; the final float64
    rounds by at most half an ulp of L_max / c. So 16 ulp of L_max, over c,
    plus half an ulp of L_max / c bound each delay's error."""
    for geom in _random_layouts(cfg200, n_elements):
        longest = (geom.bs_distances + geom.user_distances).max()
        delays = near_dam_design(geom, cfg200).delays.delays
        err = delays.astype(np.longdouble) - near_dam_delays_longdouble(geom)
        bound = 16 * np.spacing(longest) / SPEED_OF_LIGHT + np.spacing(longest / SPEED_OF_LIGHT) / 2
        assert np.abs(err).max() <= bound


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
        d_bs = hypot_distances(geometry64, geometry64.bs_xy)
        d_user = hypot_distances(geometry64, geometry64.user_xy)
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
