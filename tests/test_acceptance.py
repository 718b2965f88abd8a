"""End-to-end validation suite.

Each test enforces one published behavioral target at its stated tolerance,
prints one PASS/FAIL line (pytest -s shows them inline), and checks its
runtime budget. The targets cover: exact peak gain, the closed-form array
factor, the squint-direction law, the wideband gain-collapse percentages, the
full-gain restoration of the joint phase/delay designs, the near-field focal
drift and refocusing, monotone degradation trends, and delay physicality.

Known-infeasible target: test 05's first clause asks for a 13-33 % high-gain
fraction at B = 6 GHz with R = 64 and threshold 0.5. Under optimal phases the
gain is exactly the closed-form kernel of test 02, whose half-gain half-width
in the detuning variable is ~0.0189 while the band only spans |delta| <=
|nu0| * B/(2 f_c) <= 0.0298 for every |nu0| <= 2; the fraction above half gain
is therefore >= 0.625 for any direction parameter, far outside the band. The
check is kept faithful rather than loosened, so it fails by design; the same
fraction target is met at B = 30 GHz (see test_scan.py).
"""

import time

import numpy as np
import pytest

from irsbeam import (
    DelayProfile,
    IrsArray,
    WidebandConfig,
    far_beam_gain_profile,
    far_dam_design,
    far_optimal_phases,
    far_squint_direction,
    location_heatmap,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
    subcarrier_frequencies,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from conftest import make_geometry
from oracles import dirichlet_gain

CFG = WidebandConfig(carrier_hz=200e9, bandwidth_hz=6e9, n_subcarriers=128)


def _report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] {number:02d} {name} ({elapsed:.2f} s){suffix}")


def test_01_exact_peak_gain():
    started = time.perf_counter()
    worst = 0.0
    for n in (1, 10, 64, 256):
        array = IrsArray.half_wavelength(CFG, n)
        far = far_beam_gain_profile(
            array, CFG, [CFG.carrier_hz], [0.5], far_optimal_phases(array, 0.5)
        )[0, 0]
        geom = make_geometry(CFG, n)
        near = near_gain_row(
            geom, CFG, CFG.carrier_hz, [geom.user_xy], near_optimal_phases(geom, CFG)
        )[0]
        worst = max(worst, abs(far - n) / n, abs(near - n) / n)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "exact peak gain at the carrier (far and near)", ok, elapsed,
            f"worst rel err {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_02_closed_form_array_factor():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 129))
        nu0 = rng.uniform(-2, 2)
        nu = rng.uniform(-2, 2)
        f = rng.uniform(0.85, 1.15) * CFG.carrier_hz
        array = IrsArray.half_wavelength(CFG, n)
        g = far_beam_gain_profile(array, CFG, [f], [nu], far_optimal_phases(array, nu0))[0, 0]
        delta = 2 * nu0 - (1 + f / CFG.carrier_hz) * nu
        expected = dirichlet_gain(n, delta)
        # the absolute term guards the removable-singularity neighborhoods,
        # where both sides are ~1e-12 and a pure ratio is meaningless
        margin = abs(g - expected) / (1e-9 + 1e-9 * expected)
        worst = max(worst, margin)
        assert margin <= 1.0, f"mismatch at R={n}, delta={delta}: {g} vs {expected}"
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed < 5.0
    _report(2, "gain matches the closed-form array factor (10^4 samples)", ok, elapsed,
            f"worst error at {worst:.3f} of the 1e-9 tolerance")
    assert elapsed < 5.0


def test_03_squint_direction_law():
    started = time.perf_counter()
    array = IrsArray.half_wavelength(CFG, 64)
    phases = far_optimal_phases(array, 0.5)
    step = 1e-4
    # the pattern repeats in nu with period 2/(1 + f/f_c); the search window
    # spans the single period containing the design lobe
    nu = np.arange(0.0, 1.0 + step / 2, step)
    freqs = subcarrier_frequencies(CFG)
    offsets = []
    for f in (freqs[0], freqs[-1]):
        gains = far_beam_gain_profile(array, CFG, np.array([f]), nu, phases)[0]
        found = float(nu[np.argmax(gains)])
        law = far_squint_direction(0.5, f, CFG.carrier_hz)
        offsets.append(abs(found - law))
    elapsed = time.perf_counter() - started
    ok = max(offsets) <= step and elapsed < 10.0
    _report(3, "grid argmax follows the squint-direction law", ok, elapsed,
            f"offsets {offsets[0]:.2e}, {offsets[1]:.2e} (step {step})")
    assert max(offsets) <= step
    assert elapsed < 10.0


def test_04_wideband_gain_collapse():
    started = time.perf_counter()
    cfg = WidebandConfig(200e9, 30e9, 128)
    gm = subcarrier_sweep_far(IrsArray.half_wavelength(cfg, 64), cfg, 1.5)
    fraction_low = float(np.mean(gm.values <= 0.2))
    elapsed = time.perf_counter() - started
    ok = 0.60 <= fraction_low <= 0.80 and elapsed < 1.0
    _report(4, "B = 30 GHz: most subcarriers keep at most 20 % gain", ok, elapsed,
            f"fraction {fraction_low:.4f} in [0.60, 0.80]")
    assert 0.60 <= fraction_low <= 0.80
    assert elapsed < 1.0


def test_05_high_gain_fraction_and_small_array_flatness():
    started = time.perf_counter()
    # small-array clause: R = 10 at B = 6 GHz stays essentially flat
    gm10 = subcarrier_sweep_far(IrsArray.half_wavelength(CFG, 10), CFG, 1.5)
    r10_min = float(gm10.values.min())
    # R = 64 clause: no direction parameter reaches the target band (see the
    # module docstring); the best case over a dense nu0 scan is reported
    array = IrsArray.half_wavelength(CFG, 64)
    fractions = []
    for nu0 in np.linspace(-2.0, 2.0, 81):
        gm = subcarrier_sweep_far(array, CFG, float(nu0), use_dam=False)
        fractions.append(float(np.mean(gm.values >= 0.5)))
    lowest_fraction = min(fractions)
    in_band = any(0.13 <= f <= 0.33 for f in fractions)
    elapsed = time.perf_counter() - started
    ok = in_band and r10_min >= 0.9 and elapsed < 1.0
    _report(5, "B = 6 GHz: high-gain fraction band and R = 10 flatness", ok, elapsed,
            f"R=10 min {r10_min:.4f} (>= 0.9); best fraction {lowest_fraction:.4f} "
            "vs target [0.13, 0.33] - analytically unreachable at this bandwidth")
    assert r10_min >= 0.9
    assert elapsed < 1.0
    assert in_band, (
        "no direction parameter in [-2, 2] brings the >= 0.5 fraction into "
        f"[0.13, 0.33] at B = 6 GHz (closest attainable: {lowest_fraction:.4f}); "
        "the kernel half-gain width bounds it below by ~0.625 - the target is "
        "only reachable near B = 30 GHz"
    )


def test_06_far_dam_restores_full_gain():
    started = time.perf_counter()
    array = IrsArray.half_wavelength(CFG, 64)
    design = far_dam_design(array, CFG, 0.5)
    gains = far_beam_gain_profile(
        array, CFG, subcarrier_frequencies(CFG), np.array([0.5]),
        design.phases, design.delays,
    )[:, 0] / 64.0
    elapsed = time.perf_counter() - started
    ok = gains.min() >= 1.0 - 1e-9 and elapsed < 1.0
    _report(6, "far DAM design holds full gain at all 128 subcarriers", ok, elapsed,
            f"min normalized gain {gains.min():.12f}")
    assert gains.min() >= 0.98  # the published headline figure
    assert gains.min() >= 1.0 - 1e-9  # the analytic identity
    assert elapsed < 1.0


def test_07_near_field_focal_drift():
    started = time.perf_counter()
    geom = make_geometry(CFG, 64)
    user_cell = (100, 100)  # center of the 201 x 201 grid
    cells = {}
    for index in (1, 0, 128):
        gm = location_heatmap(
            geom, CFG, subcarrier=index, use_dam=False, half_span_m=0.5, step_m=0.005
        )
        cells[index] = gm.argmax_cell()
    elapsed = time.perf_counter() - started
    ok = (
        cells[1] != user_cell
        and cells[128] != user_cell
        and cells[0] == user_cell
        and elapsed < 60.0
    )
    _report(7, "phase-only focus drifts off the user at the band edges", ok, elapsed,
            f"argmax cells f_1={cells[1]}, f_c={cells[0]}, f_M={cells[128]}, "
            f"user={user_cell}")
    assert cells[1] != user_cell
    assert cells[128] != user_cell
    assert cells[0] == user_cell
    assert elapsed < 60.0


def test_08_near_dam_refocuses_band_wide():
    started = time.perf_counter()
    geom = make_geometry(CFG, 64)
    design = near_dam_design(geom, CFG)
    gains = np.array(
        [
            near_gain_row(geom, CFG, f, [geom.user_xy], design.phases, design.delays)[0]
            for f in subcarrier_frequencies(CFG)
        ]
    ) / 64.0
    user_cell = (100, 100)
    cells = {}
    for index in (1, 0, 128):
        gm = location_heatmap(
            geom, CFG, subcarrier=index, use_dam=True, half_span_m=0.5, step_m=0.005
        )
        cells[index] = gm.argmax_cell()
    elapsed = time.perf_counter() - started
    refocused = all(cell == user_cell for cell in cells.values())
    ok = abs(gains - 1.0).max() <= 1e-9 and refocused and elapsed < 60.0
    _report(8, "near DAM design refocuses every subcarrier on the user", ok, elapsed,
            f"max |gain - 1| {abs(gains - 1.0).max():.2e}; argmax cells {cells}")
    assert abs(gains - 1.0).max() <= 1e-9
    assert refocused
    assert elapsed < 60.0


def test_09_monotone_degradation():
    started = time.perf_counter()

    def far_min(n, bandwidth):
        cfg = WidebandConfig(200e9, bandwidth, 128)
        array = IrsArray.half_wavelength(cfg, n)
        gm = subcarrier_sweep_far(array, cfg, 0.5, use_dam=False)
        return float(gm.values.min())

    over_b = [far_min(64, b) for b in (6e9, 12e9, 18e9, 24e9, 30e9)]
    over_r = [far_min(n, 6e9) for n in (10, 32, 64, 128)]

    def near_edge(n):
        geom = make_geometry(CFG, n)
        gm = subcarrier_sweep_near(geom, CFG, use_dam=False)
        return float(gm.values[0])

    near_over_r = [near_edge(n) for n in (32, 64, 128, 256)]
    elapsed = time.perf_counter() - started
    b_mono = all(a >= b for a, b in zip(over_b, over_b[1:]))
    r_mono = all(a >= b for a, b in zip(over_r, over_r[1:]))
    near_mono = all(a >= b for a, b in zip(near_over_r, near_over_r[1:]))
    ok = b_mono and r_mono and near_mono and elapsed < 5.0
    _report(9, "gain loss grows with bandwidth and element count", ok, elapsed,
            f"min over B {[round(v, 4) for v in over_b]}; over R "
            f"{[round(v, 4) for v in over_r]}; near edge {[round(v, 4) for v in near_over_r]}")
    assert b_mono
    assert r_mono
    assert near_mono
    assert elapsed < 5.0


def test_10_delay_physicality_and_common_delay_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    array = IrsArray.half_wavelength(CFG, 64)
    geom = make_geometry(CFG, 64)

    for nu0 in np.concatenate(([0.0, -2.0, 2.0], rng.uniform(-2, 2, size=17))):
        delays = far_dam_design(array, CFG, float(nu0)).delays.delays
        assert np.all(delays >= 0.0) and delays.min() == 0.0
    near = near_dam_design(geom, CFG)
    assert np.all(near.delays.delays >= 0.0) and near.delays.delays.min() == 0.0

    far = far_dam_design(array, CFG, 0.5)
    freqs = subcarrier_frequencies(CFG)
    base_far = far_beam_gain_profile(
        array, CFG, freqs, np.array([0.5]), far.phases, far.delays
    )[:, 0] / 64.0
    base_near = near_gain_row(
        geom, CFG, freqs, [geom.user_xy], near.phases, near.delays
    )[:, 0] / 64.0

    worst = 0.0
    for delta in rng.uniform(0.0, 2e-8, size=100):
        shifted_far = DelayProfile(far.delays.delays + delta)
        got_far = far_beam_gain_profile(
            array, CFG, freqs, np.array([0.5]), far.phases, shifted_far
        )[:, 0] / 64.0
        shifted_near = DelayProfile(near.delays.delays + delta)
        got_near = near_gain_row(
            geom, CFG, freqs, [geom.user_xy], near.phases, shifted_near
        )[:, 0] / 64.0
        worst = max(
            worst,
            float(abs(got_far - base_far).max()),
            float(abs(got_near - base_near).max()),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(10, "delays are causal with a zero entry; common delay is invisible",
            ok, elapsed, f"worst |gain shift| {worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 1.0


if __name__ == "__main__":
    import sys

    failures = 0
    for test in (
        test_01_exact_peak_gain,
        test_02_closed_form_array_factor,
        test_03_squint_direction_law,
        test_04_wideband_gain_collapse,
        test_05_high_gain_fraction_and_small_array_flatness,
        test_06_far_dam_restores_full_gain,
        test_07_near_field_focal_drift,
        test_08_near_dam_refocuses_band_wide,
        test_09_monotone_degradation,
        test_10_delay_physicality_and_common_delay_invariance,
    ):
        try:
            test()
        except AssertionError:
            failures += 1
    print(f"\n{10 - failures}/10 criteria passed")
    sys.exit(1 if failures else 0)
