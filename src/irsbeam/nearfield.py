"""Near-field (spherical wavefront) beam gain, focusing phases, the per-element
focal-shift diagnostic, and the DAM co-design with exact band-wide refocusing.

The gain uses the package's one phase convention (see :mod:`irsbeam.model`)
with the path phase P_r = (2 pi / lambda_c)(d_r^BR + d_r^target). Distances
are computed in double precision straight from coordinates; no Fresnel or
Taylor approximation is ever substituted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    SPEED_OF_LIGHT,
    TWO_PI,
    DelayProfile,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
    checked_frequencies,
)


@dataclass(frozen=True)
class NearDamDesign:
    """Joint phase/delay profile focusing every subcarrier on one point.

    delays[r] = T - (d_r^BR + d_r^RU) / c with the common delay T chosen
    minimally (the largest per-element propagation sum), so all delays are
    >= 0 and at least one is exactly zero. phases[r] is the one-way wavenumber
    times the propagation sum, wrapped into [0, 2*pi).
    """

    phases: PhaseProfile
    delays: DelayProfile
    common_delay_s: float
    focus_xy: tuple[float, float]


def near_beam_gain(
    geom: NearFieldGeometry,
    cfg: WidebandConfig,
    freq_hz: float,
    target_xy,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
) -> float:
    """Beam gain at a 2-D target point for one frequency; lies in [0, R].

    |sum_r exp(j [phi_r - (2 pi / lambda_c)(1 + f/f_c)(d_r^BR + d_r^RU')
    - 2 pi f tau_r])| with tau_r = 0 when ``delays`` is omitted.
    """
    row = near_gain_row(geom, cfg, freq_hz, np.array([target_xy]), phases, delays)
    return float(row[0])


def near_gain_row(
    geom: NearFieldGeometry,
    cfg: WidebandConfig,
    freq_hz,
    targets_xy: np.ndarray,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
) -> np.ndarray:
    """Vectorized gain over an (N, 2) array of target points.

    ``freq_hz`` is one frequency or an array of them; the result has shape
    ``np.shape(freq_hz) + (N,)`` and is evaluated in bounded-memory chunks.
    """
    targets_xy = np.asarray(targets_xy, dtype=np.float64)
    gains = _array_gain(
        cfg, geom.array.n_elements, freq_hz, len(targets_xy),
        lambda lo, hi: geom.bs_distances + geom.element_distances(targets_xy[lo:hi]),
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


def near_squint_distance(
    geom: NearFieldGeometry, cfg: WidebandConfig, freq_hz: float, element: int
) -> float:
    """Element-to-target distance where subcarrier f's phase term is stationary.

    Returns 2 (d_r^BR + d_r^RU) / (1 + f/f_c) - d_r^BR for the 1-based element
    index r. This is a per-element diagnostic: the R conditions are generally
    not simultaneously satisfiable by a single point, so the empirical focus
    of a whole array is defined as a gain-map argmax instead. For f
    sufficiently above the carrier the value can go negative (no physical
    point); that case is reported as a warning, not clamped.
    """
    if not 1 <= element <= geom.array.n_elements:
        raise ValueError(f"element must lie in 1..{geom.array.n_elements}, got {element}")
    checked_frequencies(freq_hz)
    d_bs = float(geom.bs_distances[element - 1])
    d_user = float(geom.user_distances[element - 1])
    value = 2.0 * (d_bs + d_user) / (1.0 + freq_hz / cfg.carrier_hz) - d_bs
    if value < 0.0:
        warnings.warn(
            f"stationary distance for element {element} at {freq_hz} Hz is negative "
            f"({value} m): no physical focus point exists at this frequency",
            stacklevel=2,
        )
    return value


def near_dam_design(geom: NearFieldGeometry, cfg: WidebandConfig) -> NearDamDesign:
    """Joint phase/delay design refocusing every subcarrier on the user.

    The frequency-dependent part of the propagation phase is absorbed by the
    per-element delay (d_r^BR + d_r^RU) / c, made causal by the minimal common
    delay T = max_r (d_r^BR + d_r^RU) / c; the frequency-flat remainder goes
    into the phase profile. The residual exponent at the user then vanishes at
    every frequency, so the gain equals R across the whole band.
    """
    path_m = geom.bs_distances + geom.user_distances
    propagation_s = path_m / SPEED_OF_LIGHT
    common = float(propagation_s.max())
    delays = DelayProfile(common - propagation_s)
    phases = PhaseProfile((TWO_PI / cfg.wavelength_m) * path_m)
    return NearDamDesign(
        phases=phases, delays=delays, common_delay_s=common, focus_xy=geom.user_xy
    )


def near_design(
    geom: NearFieldGeometry, cfg: WidebandConfig, use_dam: bool = False
) -> tuple[PhaseProfile, DelayProfile | None, dict]:
    """Profiles of the design focused on the user and a summary for artifacts.

    ``use_dam`` selects the joint phase/delay design over the phase-only
    focusing phases, whose delay profile is None.
    """
    if use_dam:
        design = near_dam_design(geom, cfg)
        return design.phases, design.delays, {
            "common_delay_s": design.common_delay_s,
            "focus_xy": list(design.focus_xy),
        }
    return near_optimal_phases(geom, cfg), None, {"focus_xy": list(geom.user_xy)}
