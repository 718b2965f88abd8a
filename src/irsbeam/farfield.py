"""Far-field beam gain, optimal phases, the squint-direction law, and the
delay-adjustable-metasurface (DAM) co-design that restores full gain band-wide.

Directions are the normalized quantity nu = sin(chi) - sin(psi), as floats. The gain uses
the package's one phase convention (see :mod:`irsbeam.model`) with the path
phase P_r = pi (r-1) nu, i.e. the half-wavelength progression: the array
enters only through its element count, and its spacing ``d`` is ignored until
the ROADMAP item on honouring ``d`` lands. Angle sweeps evaluate their uniform
grid by chirp-z transform (:func:`_far_grid_gain`; accuracy in :mod:`irsbeam.model`),
under the one gain driver that also runs the kernel of every other gain.
Both designs apply the design rules of :mod:`irsbeam.model` to the turns (r-1) nu0 / 2
and reject a design direction nu0 that is NaN or outside [-2, 2].
"""

from __future__ import annotations

import numpy as np

from .model import (
    KERNEL_CHUNK,
    TWO_PI,
    DelayProfile,
    Design,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
    _dam_design,
    _gain_blocks,
    _phase_only_phases,
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


def _chirp(rate, k2: np.ndarray) -> np.ndarray:
    """exp(j pi rate k2) for |rate| < 2 and integers k2 < 2**29: the float32 part of
    rate times k2 is exact and reduced mod 2 exactly, so rounding does not grow with k2.
    ``k2`` is symmetric (k2[i] == k2[-1 - i]), so only its first half is evaluated;
    ``rate`` is a scalar or an (F, 1) column, giving one chirp per row."""
    hi = np.float64(np.float32(rate))
    half = k2[: (k2.size + 1) // 2]
    p = hi * half
    head = np.exp(1j * np.pi * (p - 2.0 * np.round(p / 2.0) + (rate - hi) * half))
    return np.concatenate((head, head[..., : k2.size // 2][..., ::-1]), axis=-1)


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n >= 1."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _far_grid_gain(array, cfg, freqs_hz, grid, phases, delays=None) -> np.ndarray:
    """:func:`far_beam_gain_profile` at the directions start + step * arange(n) of
    ``grid = (start, step, n)``, by chirp-z transforms batched over frequencies:
    the second evaluator of the gain driver ``model._gain_blocks``, which checks
    the inputs and hands it each block's scales, weights and rows of the result.

    With q and m counted from the array centre and from the centre nu_c of a block
    of B outputs, gain = |sum_q w_q exp(-j s nu_c q) exp(-j theta m q)|, theta = s step.
    Bluestein's m q = (m^2 + q^2 - (m - q)^2) / 2 makes it an FFT convolution with
    exp(j theta k^2 / 2), k = m - q; the factor in m alone drops out of |.|. Equal
    blocks keep B + R - 1 within max(KERNEL_CHUNK, 2 R), which bounds |k| < (B + R) / 2
    and the FFT length, the least 2^a 3^b 5^c >= B + R - 1: any length from there up
    gives the same linear convolution on the output slice. Each FFT is one 2-D call
    over a block of frequencies that holds at most KERNEL_CHUNK / 2 complex values
    per array, or one frequency.
    """
    start, step, n = grid
    n_elements = array.n_elements
    blocks = -(-n // (max(KERNEL_CHUNK, 2 * n_elements) - n_elements + 1))
    size = -(-n // blocks)
    fft_len = _fft_length(size + n_elements - 1)
    q = np.arange(n_elements) - (n_elements - 1) / 2
    k2 = np.arange(2.0 - size - n_elements, size + n_elements - 1, 2.0) ** 2  # (2k)^2

    def transforms(scale, weights, rows):
        scale = scale[:, None]
        # theta k^2 / 2 = pi rate (2k)^2; rate mod 2 moves theta by multiples
        # of 16 pi, which leave every exp(-j theta m q) (m q in Z/4) unchanged
        rates = np.fmod(scale * step / (4 * TWO_PI), 2.0)
        chirp = np.fft.fft(_chirp(rates, k2), fft_len)
        weights = weights * _chirp(-rates, 4 * q * q)
        for lo in range(0, n, size):
            centre = start + step * (lo + (size - 1) / 2)
            spectrum = np.fft.fft(weights * np.exp(-1j * scale * centre * q), fft_len)
            spectrum *= chirp
            conv = np.fft.ifft(spectrum, out=spectrum)[:, n_elements - 1 :]  # numpy >= 2.0
            hi = min(lo + size, n)
            np.abs(conv[:, : hi - lo], out=rows[:, lo:hi])
            del spectrum, conv  # free before the next block's FFTs are formed

    return _gain_blocks(cfg, n_elements, freqs_hz, n, max(1, KERNEL_CHUNK // 2 // fft_len),
                        np.pi, phases, delays, transforms)


def _design_turns(array: IrsArray, direction: float) -> np.ndarray:
    """Path turns (r-1) nu0 / 2 at nu0, in np.longdouble; raises on nu0 outside [-2, 2]."""
    if not abs(direction) <= 2.0:  # also true on NaN
        raise ValueError(f"direction must lie in [-2, 2], got {direction}")
    return np.arange(array.n_elements, dtype=np.longdouble) * direction / 2


def far_optimal_phases(array: IrsArray, direction: float) -> PhaseProfile:
    """Phase profile 2 pi (r-1) nu0, wrapped, that maximizes the gain at (f_c, nu0)."""
    return _phase_only_phases(_design_turns(array, direction))


def far_squint_direction(design_direction: float, freq_hz: float, carrier_hz: float) -> float:
    """Direction where the beam designed for nu0 actually peaks at frequency f.

    Returns 2 nu0 / (1 + f/f_c); equals nu0 exactly at the carrier, and drifts
    away from it as f departs from f_c (the far-field beam squint law).
    """
    checked_frequencies([freq_hz, carrier_hz])
    return 2.0 * design_direction / (1.0 + freq_hz / carrier_hz)


def far_dam_design(array: IrsArray, cfg: WidebandConfig, direction: float) -> Design:
    """Joint phase/delay design that restores the gain R at nu0 on every subcarrier:
    phases pi (r-1) nu0, wrapped, and delays -(r-1) nu0 / (2 f_c) plus the common
    delay that makes the smallest one 0 (the DAM rule of :mod:`irsbeam.model`)."""
    turns = _design_turns(array, direction)
    return _dam_design(turns, cfg.carrier_hz, {"design_direction": float(direction)})
