import tracemalloc

import numpy as np
import pytest

from irsbeam import (
    DelayProfile,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    angle_sweep,
    far_beam_gain_profile,
    far_dam_design,
    far_optimal_phases,
    far_squint_direction,
    subcarrier_frequencies,
)
from irsbeam.farfield import _chirp, _far_grid_gain, _fft_length
from irsbeam.model import KERNEL_CHUNK
from conftest import longdouble_only
from oracles import dirichlet_gain, far_design_phases_exact


class TestOptimalPhases:
    def test_zero_direction_gives_zero_profile(self, array64):
        np.testing.assert_array_equal(far_optimal_phases(array64, 0.0).phases, 0.0)

    def test_two_element_quarter_direction(self, cfg200):
        p = far_optimal_phases(IrsArray.half_wavelength(cfg200, 2), 0.25)
        np.testing.assert_allclose(p.phases, [0.0, np.pi / 2], atol=1e-12)

    def test_single_phase_perturbation_never_improves_peak(self, cfg200):
        # numeric maximality check at the carrier and design direction
        array = IrsArray.half_wavelength(cfg200, 16)
        rng = np.random.default_rng(5)
        for nu0 in rng.uniform(-2, 2, size=4):
            base = far_optimal_phases(array, nu0)
            peak = far_beam_gain_profile(array, cfg200, [cfg200.carrier_hz], [nu0], base)[0, 0]
            for r in range(16):
                for eps in (+0.1, -0.1):
                    perturbed = base.phases.copy()
                    perturbed[r] += eps
                    g = far_beam_gain_profile(
                        array, cfg200, [cfg200.carrier_hz], [nu0], PhaseProfile(perturbed)
                    )[0, 0]
                    assert g <= peak + 1e-9


    @pytest.mark.parametrize("nu0", [2.5, -2.5, np.nan, np.inf, -np.inf])
    def test_designs_reject_direction_outside_range(self, array64, cfg200, nu0):
        with pytest.raises(ValueError, match=r"direction must lie in \[-2, 2\]"):
            far_optimal_phases(array64, nu0)
        with pytest.raises(ValueError, match=r"direction must lie in \[-2, 2\]"):
            far_dam_design(array64, cfg200, nu0)

    @pytest.mark.parametrize("nu0", [2.0, -2.0])
    def test_designs_accept_range_ends(self, array64, cfg200, nu0):
        dam = far_dam_design(array64, cfg200, nu0)
        for phases, delays in ((far_optimal_phases(array64, nu0), None), (dam.phases, dam.delays)):
            gain = far_beam_gain_profile(
                array64, cfg200, [cfg200.carrier_hz], [nu0], phases, delays
            )
            np.testing.assert_allclose(gain, 64.0, rtol=1e-12)


class TestBeamGain:
    def test_peak_equals_element_count(self, cfg200):
        for n in (1, 10, 64):
            array = IrsArray.half_wavelength(cfg200, n)
            g = far_beam_gain_profile(
                array, cfg200, [cfg200.carrier_hz], [0.5], far_optimal_phases(array, 0.5)
            )[0, 0]
            np.testing.assert_allclose(g, n, rtol=1e-9)

    def test_zero_profile_broadside_any_frequency(self, array64, cfg200):
        phases = PhaseProfile(np.zeros(64))
        for f in (150e9, 200e9, 260e9):
            np.testing.assert_allclose(
                far_beam_gain_profile(array64, cfg200, [f], [0.0], phases), 64.0, rtol=1e-12
            )

    def test_four_element_offset_frequency_reference(self, cfg200):
        # independent Dirichlet evaluation at delta = 2*nu0 - (1 + f/f_c)*nu
        # with nu = nu0 = 0.5 and f/f_c = 1.03 gives 3.994450453268542
        array = IrsArray.half_wavelength(cfg200, 4)
        g = far_beam_gain_profile(
            array, cfg200, [1.03 * cfg200.carrier_hz], [0.5], far_optimal_phases(array, 0.5)
        )[0, 0]
        np.testing.assert_allclose(g, 3.994450453268542, rtol=1e-12)
        np.testing.assert_allclose(g, dirichlet_gain(4, -0.015), rtol=1e-12)

    def test_matches_dirichlet_oracle_randomized(self, cfg200):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(1, 129))
            nu0 = rng.uniform(-2, 2)
            nu = rng.uniform(-2, 2)
            f = rng.uniform(0.85, 1.15) * cfg200.carrier_hz
            array = IrsArray.half_wavelength(cfg200, n)
            phases = far_optimal_phases(array, nu0)
            g = far_beam_gain_profile(array, cfg200, [f], [nu], phases)[0, 0]
            delta = 2 * nu0 - (1 + f / cfg200.carrier_hz) * nu
            np.testing.assert_allclose(g, dirichlet_gain(n, delta), rtol=1e-9, atol=1e-9)

    def test_gain_bounded_by_element_count(self, array64, cfg200):
        rng = np.random.default_rng(29)
        for _ in range(50):
            phases = PhaseProfile(rng.uniform(0, 2 * np.pi, size=64))
            g = far_beam_gain_profile(
                array64, cfg200, [rng.uniform(0.9, 1.1) * 200e9], [rng.uniform(-2, 2)], phases
            )[0, 0]
            assert 0.0 <= g <= 64.0 + 1e-9

    def test_profile_grid_matches_scalar(self, array64, cfg200):
        phases = far_optimal_phases(array64, 0.7)
        freqs = np.array([197e9, 200e9, 203e9])
        nus = np.array([-0.3, 0.1, 0.7])
        grid = far_beam_gain_profile(array64, cfg200, freqs, nus, phases)
        for i, f in enumerate(freqs):
            for j, nu in enumerate(nus):
                one = far_beam_gain_profile(array64, cfg200, [f], [nu], phases)
                np.testing.assert_allclose(grid[i, j], one[0, 0], rtol=1e-12)

    def test_multi_chunk_grid_matches_dirichlet_oracle(self, cfg200):
        # the far kernel builds z^(r-1) by repeated products, whose rounding
        # grows with r: check every direction in [-2, 2] at the band edges and
        # the carrier up to R = 1024, over 32 (R = 128) and 251 (R = 1024)
        # kernel chunks per frequency row
        def check(n, freqs, nu, phase_only, joint):
            for f, row, dam_row in zip(freqs, phase_only, joint):
                scale = 1 + f / cfg200.carrier_hz
                np.testing.assert_allclose(
                    row, dirichlet_gain(n, 0.6 - scale * nu), rtol=1e-9, atol=1e-9
                )
                # the DAM residual exponent is pi (r-1) (1 + f/f_c) (nu0 - nu)
                np.testing.assert_allclose(
                    dam_row, dirichlet_gain(n, scale * (0.3 - nu)), rtol=1e-9, atol=1e-9
                )

        freqs = np.array([*subcarrier_frequencies(cfg200)[[0, 127]], cfg200.carrier_hz])
        nu = np.linspace(-2.0, 2.0, 4001)
        for n in (128, 1024):
            array = IrsArray.half_wavelength(cfg200, n)
            assert nu.size * n > 10 * KERNEL_CHUNK
            phases = far_optimal_phases(array, 0.3)
            dam = far_dam_design(array, cfg200, 0.3)
            check(
                n, freqs, nu,
                far_beam_gain_profile(array, cfg200, freqs, nu, phases),
                far_beam_gain_profile(array, cfg200, freqs, nu, dam.phases, dam.delays),
            )
        # angle_sweep's chirp-z path on rows (1, 0, -1): two FFT blocks per
        # row at step 2e-4, three at 1e-4, one point, and (R = 1024) fewer
        # points than elements
        assert 20001 > KERNEL_CHUNK and 40001 > 2 * KERNEL_CHUNK
        for n in (1, 64, 1024):
            array = IrsArray.half_wavelength(cfg200, n)
            dam = far_dam_design(array, cfg200, 0.3)
            designs = ((far_optimal_phases(array, 0.3), None), (dam.phases, dam.delays))
            for grid in ((-2.0, 2.0, 2e-4), (-2.0, 2.0, 1e-4), (0.3, 0.3, 1e-3), (-0.5, 0.5, 0.01)):
                sweeps = [angle_sweep(array, cfg200, *d, (1, 0, -1), grid) for d in designs]
                nu = sweeps[0].axes[1].points
                check(n, freqs[[0, 2, 1]], nu, *(n * gm.values for gm in sweeps))

    def test_profile_rejects_bad_frequencies(self, array64, cfg200):
        phases = far_optimal_phases(array64, 0.5)
        for freqs in ([np.nan, -1.0], [200e9, np.inf], [0.0]):
            with pytest.raises(ValueError, match="freq_hz"):
                far_beam_gain_profile(array64, cfg200, freqs, [0.5], phases)

    def test_length_mismatch_rejected(self, array64, cfg200):
        with pytest.raises(ValueError, match="length"):
            far_beam_gain_profile(array64, cfg200, [200e9], [0.5], PhaseProfile(np.zeros(32)))
        with pytest.raises(ValueError, match="length"):
            far_beam_gain_profile(
                array64, cfg200, [200e9], [0.5], PhaseProfile(np.zeros(64)),
                DelayProfile(np.zeros(32)),
            )

    @pytest.mark.parametrize("use_dam", [False, True], ids=["phases_only", "dam"])
    def test_subcarrier_profile_holds_one_block_of_frequencies(self, use_dam):
        """A one-direction profile over the 2**16 subcarriers of a 6 GHz band at R = 4
        runs its chunks on blocks of KERNEL_CHUNK / 4 = 4096 frequencies. Beyond its
        (F, 1) output the call holds the chunk buffer (16 B per evaluation), with
        delays one block's (4096, 4) weights of the same size, and per frequency of
        the block a few float64: its scale, and the path factor's exponent and
        exp, two complex, at most 6 of them with slack; 4 KiB cover the
        interpreter's objects. Scales formed for the whole band add 8 B per
        subcarrier and their temporaries as much again; a block's weights formed
        while the last block's are held add one more block of weights."""
        cfg = WidebandConfig(200e9, 6e9, 2**16)
        array = IrsArray.half_wavelength(cfg, 4)
        dam = far_dam_design(array, cfg, 0.5)
        phases, delays = (dam.phases, dam.delays) if use_dam else (
            far_optimal_phases(array, 0.5), None)
        args = (array, cfg, subcarrier_frequencies(cfg), [0.5], phases, delays)
        far_beam_gain_profile(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = far_beam_gain_profile(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = KERNEL_CHUNK // array.n_elements
        buffers = (2 if use_dam else 1) * 16 * KERNEL_CHUNK
        assert peak - out.nbytes <= buffers + 6 * 8 * block + 4096, peak


class TestSquintDirection:
    def test_carrier_is_fixed_point(self):
        assert far_squint_direction(0.5, 200e9, 200e9) == 0.5

    def test_edge_subcarrier_ratio(self, cfg200):
        f1 = subcarrier_frequencies(cfg200)[0]
        expected = 2 * 0.5 / (1 + f1 / cfg200.carrier_hz)
        np.testing.assert_allclose(far_squint_direction(0.5, f1, 200e9), expected, rtol=1e-15)

    def test_grid_argmax_consistency(self, array64, cfg200):
        # the sampled argmax within the design lobe window tracks the law;
        # the pattern is periodic in nu with period 2/(1 + f/f_c), so the
        # window spans a single period around nu0
        phases = far_optimal_phases(array64, 0.5)
        freqs = subcarrier_frequencies(cfg200)
        step = 1e-3
        nu = np.arange(0.0, 1.0 + step / 2, step)
        for f in (freqs[0], freqs[-1]):
            gains = far_beam_gain_profile(array64, cfg200, np.array([f]), nu, phases)[0]
            found = nu[np.argmax(gains)]
            law = far_squint_direction(0.5, f, cfg200.carrier_hz)
            assert abs(found - law) <= step


class TestDamDesign:
    def test_zero_direction_all_zero(self, array64, cfg200):
        design = far_dam_design(array64, cfg200, 0.0)
        np.testing.assert_array_equal(design.phases.phases, 0.0)
        np.testing.assert_array_equal(design.delays.delays, 0.0)

    def test_reference_delay_value(self, array64, cfg200):
        # (R - r) * nu0 / (2 f_c) at r=2: 62 * 0.5 / (4e11) = 77.5 ps
        design = far_dam_design(array64, cfg200, 0.5)
        assert design.delays.delays[1] == 7.75e-11

    def test_branches_nonnegative_with_zero_entry(self, array64, cfg200):
        rng = np.random.default_rng(31)
        for nu0 in np.concatenate(([0.0, -2.0, 2.0], rng.uniform(-2, 2, size=20))):
            design = far_dam_design(array64, cfg200, nu0)
            delays = design.delays.delays
            assert np.all(delays >= 0.0)
            assert delays.min() == 0.0
            # affine in the element index: vanishing second difference
            if len(delays) > 2:
                np.testing.assert_allclose(np.diff(delays, 2), 0.0, atol=1e-22)

    def test_phase_values_follow_halved_progression(self, array64, cfg200):
        design = far_dam_design(array64, cfg200, 0.5)
        expected = np.mod(np.pi * np.arange(64) * 0.5, 2 * np.pi)
        # compared as angles: a phase of 0 and 2 pi - 7e-15 are the same angle
        diff = design.phases.phases - expected
        diff -= 2 * np.pi * np.round(diff / (2 * np.pi))
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)

    def test_restores_full_gain_across_band(self, array64, cfg200):
        design = far_dam_design(array64, cfg200, 0.5)
        for f in subcarrier_frequencies(cfg200):
            g = far_beam_gain_profile(array64, cfg200, [f], [0.5], design.phases, design.delays)
            np.testing.assert_allclose(g, 64.0, rtol=1e-9)

    def test_min_band_gain_shrinks_with_bandwidth_and_elements(self):
        def min_gain(n, bandwidth):
            cfg = WidebandConfig(200e9, bandwidth, 128)
            array = IrsArray.half_wavelength(cfg, n)
            phases = far_optimal_phases(array, 0.5)
            gains = far_beam_gain_profile(
                array, cfg, subcarrier_frequencies(cfg), np.array([0.5]), phases
            )[:, 0]
            return gains.min() / n

        over_b = [min_gain(64, b) for b in (6e9, 12e9, 18e9, 24e9, 30e9)]
        assert all(a >= b for a, b in zip(over_b, over_b[1:]))
        over_r = [min_gain(n, 6e9) for n in (10, 32, 64, 128)]
        assert all(a >= b for a, b in zip(over_r, over_r[1:]))


class TestChirpZ:
    def test_fft_length_is_least_five_smooth_bound(self):
        top = 40_000  # above 20,000's least 5-smooth bound, 20,250
        smooth = np.zeros(top + 1, bool)
        for m in range(1, top + 1):
            k = m
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            smooth[m] = k == 1
        least = np.flatnonzero(smooth)
        want = least[np.searchsorted(least, np.arange(1, 20_001))]
        assert [_fft_length(n) for n in range(1, 20_001)] == want.tolist()

    def test_mirrored_chirp_is_bit_identical_to_full_evaluation(self):
        def full(rate, k2):
            hi = np.float64(np.float32(rate))
            p = hi * k2
            return np.exp(1j * np.pi * (p - 2.0 * np.round(p / 2.0) + (rate - hi) * k2))

        rng = np.random.default_rng(3)
        rates = [0.0, 1.9999, -1.9999, *rng.uniform(-2, 2, 6)]
        for length in (1, 2, 3, 64, 65, 2064, 15309):
            k2 = np.arange(1.0 - length, length, 2.0) ** 2  # the (2k)^2 of the sweeps
            q = np.arange(length) - (length - 1) / 2
            for squares in (k2, 4 * q * q):
                for rate in rates:
                    assert _chirp(rate, squares).tobytes() == full(rate, squares).tobytes()
                column = np.array(rates)[:, None]
                assert _chirp(column, squares).tobytes() == full(column, squares).tobytes()

    def test_dam_sweep_matches_dirichlet_oracle_over_blocks(self):
        # every subcarrier of a DAM design; the residual exponent is
        # pi (r-1) (1 + f/f_c) (nu0 - nu), as in the multi-chunk test above.
        # R = 64 over 2001 points: one grid block of FFT length 2160 (not 4096),
        # 3 frequencies per block, so 16 rows make 6 blocks, the last of one row;
        # over 20,001 points: two grid blocks of length 10,125 (not 16,384).
        # The sweep leaves the caller's numpy ufunc buffer size as it found it.
        assert _fft_length(2001 + 63) == 2160 and KERNEL_CHUNK // 2 // 2160 == 3
        assert 20001 > KERNEL_CHUNK - 63 and _fft_length(10001 + 63) == 10125
        for n_subcarriers, grid in ((16, (-1.0, 1.0, 1e-3)), (3, (-2.0, 2.0, 2e-4))):
            cfg = WidebandConfig(200e9, 30e9, n_subcarriers)
            array = IrsArray.half_wavelength(cfg, 64)
            dam = far_dam_design(array, cfg, 0.3)
            rows = range(1, n_subcarriers + 1)
            with np.errstate():
                np.setbufsize(4096)
                gm = angle_sweep(array, cfg, dam.phases, dam.delays, rows, grid)
                assert np.getbufsize() == 4096
            nu = gm.axes[1].points
            for f, row in zip(subcarrier_frequencies(cfg), 64 * gm.values):
                scale = 1 + f / cfg.carrier_hz
                np.testing.assert_allclose(
                    row, dirichlet_gain(64, scale * (0.3 - nu)), rtol=1e-9, atol=1e-9
                )

    def test_in_cache_sweep_holds_one_frequency_block_of_ffts(self):
        """The bench's in-cache shape, 16 DAM subcarriers over 2001 directions at
        R = 64, runs its FFTs on blocks of 3 frequencies at length 2160, 6480 complex
        values per FFT array, within the cap of KERNEL_CHUNK / 2 = 8192. Above its
        start and its output the call holds at most two such arrays at once: a
        block's chirp spectra and its spectra, whose inverse FFT runs in place.
        The rest of the cap, 2 x 1712 x 16 B = 55 KB, covers the 2064 squares
        (16.5 KB) and the block's (3, 64) weights; one more FFT array, or all 16
        frequencies in one block, exceeds it."""
        cfg = WidebandConfig(200e9, 30e9, 16)
        array = IrsArray.half_wavelength(cfg, 64)
        dam = far_dam_design(array, cfg, 0.3)
        args = (array, cfg, subcarrier_frequencies(cfg), (-1.0, 1e-3, 2001), dam.phases, dam.delays)
        _far_grid_gain(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = _far_grid_gain(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * (KERNEL_CHUNK // 2) * np.dtype(np.complex128).itemsize


@longdouble_only
@pytest.mark.parametrize("n_elements", [16, 64, 256, 1024])
def test_design_phases_within_two_ulp_of_exact_oracle(cfg200, n_elements):
    """The turns k (r-1) nu0 / 2 are exact in np.longdouble, whose 64-bit
    significand holds an 11-bit k (r-1) times a 53-bit nu0, and so is their
    reduction to one turn t, |t| <= 1/2. With u = 2**-53 and an ulp of 2 pi
    8u, what rounds is: t to float64, 2 pi u / 2 (0.2 ulp); the float64 2 pi,
    an error of half an ulp times |t| (0.25 ulp); the product, at most pi
    (0.25 ulp); and the wrap of a negative phase into [0, 2 pi), the float64
    2 pi's error plus one rounding (1 ulp). So 2 ulp of 2 pi bound each phase's
    error, compared as angles."""
    rng = np.random.default_rng(n_elements)
    array = IrsArray.half_wavelength(cfg200, n_elements)
    pi = 4 * np.arctan(np.longdouble(1))
    bound = 2 * np.spacing(2 * np.pi)
    for nu0 in [0.5, -0.5, 2.0, -2.0, 1 / 3, *rng.uniform(-2, 2, 10)]:
        for k, phases in ((2, far_optimal_phases(array, nu0)),
                          (1, far_dam_design(array, cfg200, nu0).phases)):
            err = phases.phases.astype(np.longdouble) - far_design_phases_exact(n_elements, nu0, k)
            err -= 2 * pi * np.rint(err / (2 * pi))
            assert np.abs(err).max() <= bound, (nu0, k)
