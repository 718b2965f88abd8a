"""Far-field beam gain, optimal phases, the squint-direction law, and the
delay-adjustable-metasurface (DAM) co-design that restores full gain band-wide.

Directions are the normalized quantity nu = sin(chi) - sin(psi). The gain uses
the package's one phase convention (see :mod:`irsbeam.model`) with the path
phase P_r = pi (r-1) nu, i.e. the half-wavelength progression: the array
enters only through its element count, and its spacing ``d`` is ignored until
ROADMAP item 1 settles the convention. Angle sweeps evaluate their uniform
grid by chirp-z transform (:func:`_far_grid_gain`; accuracy in :mod:`irsbeam.model`).
"""

from __future__ import annotations

import numpy as np

from .model import (
    KERNEL_CHUNK,
    TWO_PI,
    DelayProfile,
    Design,
    FarFieldTarget,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
    _element_weights,
    _gain_scales,
    checked_frequencies,
)


def far_beam_gain_profile(
    array: IrsArray,
    cfg: WidebandConfig,
    freqs_hz: np.ndarray,
    directions: np.ndarray,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
) -> np.ndarray:
    """Beam gain |sum_r exp(j [phi_r - pi (r-1) (1 + f/f_c) nu - 2 pi f tau_r])|
    over a (frequency x direction) grid; shape (F, N), values in [0, R].

    With ``delays`` omitted, tau_r = 0 (phase-shift-only IRS). Any finite nu is
    accepted; the grid is evaluated in bounded-memory chunks.
    """
    directions = np.asarray(directions, dtype=np.float64).reshape(-1)
    if not np.isfinite(directions).all():
        raise ValueError(f"direction {directions[~np.isfinite(directions)][0]} is not finite")

    def powers(lo, hi, scale, out):
        # z^0 .. z^(R-1) of z = exp(-j s nu): one exp per (frequency, direction)
        out[..., 0] = 1.0
        out[..., 1:] = np.exp(-1j * (scale[:, None] * directions[lo:hi]))[..., None]
        np.cumprod(out, axis=-1, out=out)

    return _array_gain(
        cfg, array.n_elements, freqs_hz, directions.size, powers, np.pi, phases, delays
    )


def _chirp(rate: float, k2: np.ndarray) -> np.ndarray:
    """exp(j pi rate k2) for |rate| < 2 and integers k2 < 2**29: the float32 part of
    rate times k2 is exact and reduced mod 2 exactly, so rounding does not grow with k2."""
    hi = float(np.float32(rate))
    p = hi * k2
    return np.exp(1j * np.pi * (p - 2.0 * np.round(p / 2.0) + (rate - hi) * k2))


def _far_grid_gain(array, cfg, freqs_hz, grid, phases, delays=None) -> np.ndarray:
    """:func:`far_beam_gain_profile` at the directions start + step * arange(n) of
    ``grid = (start, step, n)``, by one chirp-z transform per frequency.

    With q and m counted from the array centre and from the centre nu_c of a block
    of B outputs, gain = |sum_q w_q exp(-j s nu_c q) exp(-j theta m q)|, theta = s step.
    Bluestein's m q = (m^2 + q^2 - (m - q)^2) / 2 makes it an FFT convolution with
    exp(j theta k^2 / 2), k = m - q; the factor in m alone drops out of |.|. Equal
    blocks keep B + R - 1 within max(KERNEL_CHUNK, 2 R), which bounds the FFT length
    (a power of 2) and |k| < (B + R) / 2.
    """
    start, step, n = grid
    n_elements = array.n_elements
    freqs, scale = _gain_scales(cfg, n_elements, freqs_hz, np.pi, phases, delays)
    blocks = -(-n // (max(KERNEL_CHUNK, 2 * n_elements) - n_elements + 1))
    size = -(-n // blocks)
    fft_len = 1 << (size + n_elements - 2).bit_length()
    q = np.arange(n_elements) - (n_elements - 1) / 2
    k2 = np.arange(2.0 - size - n_elements, size + n_elements - 1, 2.0) ** 2  # (2k)^2
    out = np.empty((freqs.size, n))
    for i, s in enumerate(scale):
        # theta k^2 / 2 = pi rate (2k)^2; rate mod 2 moves theta by multiples
        # of 16 pi, which leave every exp(-j theta m q) (m q in Z/4) unchanged
        rate = np.fmod(s * step / (4 * TWO_PI), 2.0)
        chirp = np.fft.fft(_chirp(rate, k2), fft_len)
        weights = _element_weights(freqs[i : i + 1], phases, delays)[0] * _chirp(-rate, 4 * q * q)
        for lo in range(0, n, size):
            centre = start + step * (lo + (size - 1) / 2)
            spectrum = np.fft.fft(weights * np.exp(-1j * s * centre * q), fft_len)
            conv = np.fft.ifft(spectrum * chirp)[n_elements - 1 :]
            out[i, lo : lo + size] = np.abs(conv[: min(size, n - lo)])
    return out


def far_optimal_phases(array: IrsArray, direction: float) -> PhaseProfile:
    """Phase profile 2 pi (r-1) nu0 that maximizes the gain at (f_c, nu0)."""
    FarFieldTarget(direction)  # rejects nu outside [-2, 2]
    r = np.arange(array.n_elements, dtype=np.float64)
    return PhaseProfile(TWO_PI * r * direction)


def far_squint_direction(design_direction: float, freq_hz: float, carrier_hz: float) -> float:
    """Direction where the beam designed for nu0 actually peaks at frequency f.

    Returns 2 nu0 / (1 + f/f_c); equals nu0 exactly at the carrier, and drifts
    away from it as f departs from f_c (the far-field beam squint law).
    """
    checked_frequencies([freq_hz, carrier_hz])
    return 2.0 * design_direction / (1.0 + freq_hz / carrier_hz)


def far_dam_design(array: IrsArray, cfg: WidebandConfig, direction: float) -> Design:
    """Joint phase/delay design with exact gain restoration at every frequency.

    delays[r] = -(r-1) nu0 / (2 f_c) for nu0 <= 0, mirrored from the far end
    for nu0 > 0 so every delay is >= 0 with at least one exact zero;
    phases[r] = pi (r-1) nu0. At nu = nu0 the residual exponent vanishes for
    every subcarrier, so the gain equals R across the whole band.
    """
    FarFieldTarget(direction)  # rejects nu outside [-2, 2]
    r = np.arange(array.n_elements, dtype=np.float64)
    if direction <= 0:
        delays = -r * direction / (2.0 * cfg.carrier_hz)
    else:
        delays = (array.n_elements - 1 - r) * direction / (2.0 * cfg.carrier_hz)
    phases = PhaseProfile(np.pi * r * direction)
    return Design(phases, DelayProfile(delays), {"design_direction": float(direction)})


def far_design(
    array: IrsArray, cfg: WidebandConfig, direction: float, use_dam: bool = False
) -> Design:
    """The design that steers the beam toward ``direction``.

    ``use_dam`` selects the joint phase/delay design of :func:`far_dam_design`
    over the phase-only optimum of :func:`far_optimal_phases`, whose delays
    are None. Either summary holds ``design_direction``.
    """
    if use_dam:
        return far_dam_design(array, cfg, direction)
    return Design(far_optimal_phases(array, direction), None, {"design_direction": direction})
