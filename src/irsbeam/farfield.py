"""Far-field beam gain, optimal phases, the squint-direction law, and the
delay-adjustable-metasurface (DAM) co-design that restores full gain band-wide.

Directions are the normalized quantity nu = sin(chi) - sin(psi). The gain uses
the package's one phase convention (see :mod:`irsbeam.model`) with the path
phase P_r = pi (r-1) nu, i.e. the half-wavelength progression: the array
enters only through its element count, and its spacing ``d`` is ignored until
ROADMAP item 1 settles the convention.
"""

from __future__ import annotations

import numpy as np

from .model import (
    TWO_PI,
    DelayProfile,
    Design,
    FarFieldTarget,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
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
