"""Near-field (spherical wavefront) beam gain, focusing phases, and the DAM
co-design with exact band-wide refocusing.

The gain uses the package's one phase convention (see :mod:`irsbeam.model`)
with the path phase P_r = (2 pi / lambda_c)(d_r^BR + d_r^target). Distances
are computed in double precision straight from coordinates; no Fresnel or
Taylor approximation is ever substituted.
"""

from __future__ import annotations

import numpy as np

from .model import (
    SPEED_OF_LIGHT,
    TWO_PI,
    DelayProfile,
    Design,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
)


def near_gain_row(
    geom: NearFieldGeometry,
    cfg: WidebandConfig,
    freq_hz,
    targets_xy: np.ndarray,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
) -> np.ndarray:
    """Beam gain |sum_r exp(j [phi_r - (2 pi / lambda_c)(1 + f/f_c)(d_r^BR + d_r^RU')
    - 2 pi f tau_r])| at an (N, 2) array of target points; values in [0, R].

    With ``delays`` omitted, tau_r = 0. ``freq_hz`` is one frequency or an
    array of them; the result has shape ``np.shape(freq_hz) + (N,)`` and is
    evaluated in bounded-memory chunks. Every point must be finite.
    """
    targets_xy = np.asarray(targets_xy, dtype=np.float64)
    if targets_xy.ndim != 2 or targets_xy.shape[1] != 2:
        raise ValueError(f"targets_xy must have shape (N, 2), got {targets_xy.shape}")
    if not np.isfinite(targets_xy).all():
        bad = targets_xy[~np.isfinite(targets_xy).all(axis=-1)][0]
        raise ValueError(f"point {tuple(bad.tolist())} is not finite")

    def exps(lo, hi, scale, out):
        paths = geom.bs_distances + geom.element_distances(targets_xy[lo:hi])
        np.exp(np.multiply(-1j * scale[:, None, None], paths, out=out), out=out)

    gains = _array_gain(
        cfg, geom.array.n_elements, freq_hz, len(targets_xy), exps,
        TWO_PI / cfg.wavelength_m, phases, delays,
    )
    return gains.reshape(np.shape(freq_hz) + (len(targets_xy),))


def near_optimal_phases(geom: NearFieldGeometry, cfg: WidebandConfig) -> PhaseProfile:
    """Focusing phases (4 pi / lambda_c)(d_r^BR + d_r^RU), wrapped.

    Cancels the carrier-frequency propagation phase exactly, so the gain at
    (f_c, user) is R.
    """
    return PhaseProfile(
        (2.0 * TWO_PI / cfg.wavelength_m) * (geom.bs_distances + geom.user_distances)
    )


def near_dam_design(geom: NearFieldGeometry, cfg: WidebandConfig) -> Design:
    """Joint phase/delay design refocusing every subcarrier on the user.

    The frequency-dependent part of the propagation phase is absorbed by the
    per-element delay (d_r^BR + d_r^RU) / c, made causal by the minimal common
    delay T = max_r (d_r^BR + d_r^RU) / c; the frequency-flat remainder goes
    into the phase profile. All delays are >= 0 and at least one is exactly
    zero. The residual exponent at the user then vanishes at every frequency,
    so the gain equals R across the whole band. The summary holds T as
    ``common_delay_s`` and the user as ``focus_xy``.
    """
    path_m = geom.bs_distances + geom.user_distances
    propagation_s = path_m / SPEED_OF_LIGHT
    common = float(propagation_s.max())
    phases = PhaseProfile((TWO_PI / cfg.wavelength_m) * path_m)
    summary = {"common_delay_s": common, "focus_xy": geom.user_xy}
    return Design(phases, DelayProfile(common - propagation_s), summary)


def near_design(geom: NearFieldGeometry, cfg: WidebandConfig, use_dam: bool = False) -> Design:
    """The design that focuses the beam on the user.

    ``use_dam`` selects the joint phase/delay design of :func:`near_dam_design`
    over the phase-only focusing phases of :func:`near_optimal_phases`, whose
    delays are None. Either summary holds ``focus_xy``.
    """
    if use_dam:
        return near_dam_design(geom, cfg)
    return Design(near_optimal_phases(geom, cfg), None, {"focus_xy": geom.user_xy})
