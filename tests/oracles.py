"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: the Dirichlet kernel is
the closed-form array factor for a uniform phase progression, and the
near-field oracles sum the spherical-wavefront terms element by element from
raw coordinates: in float64, or in ``np.longdouble`` for error bounds near
the float64 rounding of the phases. The far design phases come from exact
rational arithmetic. Tests compare library output against these, never the
other way round.
"""

import math
from fractions import Fraction

import numpy as np


def dirichlet_gain(n_elements, delta):
    """|sin(R pi delta / 2) / sin(pi delta / 2)| with the removable singularity
    at even-integer delta evaluated as its limit R.

    The kernel is exactly periodic in delta with period 2, so delta is reduced
    into [-1, 1] first; that also keeps the trig arguments small.
    """
    delta = np.asarray(delta, dtype=np.float64)
    reduced = delta - 2.0 * np.round(delta / 2.0)
    den = np.sin(np.pi * reduced / 2.0)
    num = np.sin(n_elements * np.pi * reduced / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(reduced == 0.0, float(n_elements), np.abs(num / den))
    return out if out.ndim else float(out)


def hypot_distances(geom, points_xy):
    """Distance from every element to each point, np.hypot of its raw offsets from
    the element at (x_origin + (r-1) * spacing, y_origin): shape (R,) for one
    [x, y] point, (N, R) for an (N, 2) array of them. From the same rounded
    offsets, np.hypot and the library's sqrt of the summed squares each lie
    within 1.5 u (u = 2**-53) of the exact distance, so within 4 u of each other."""
    points = np.asarray(points_xy, dtype=np.float64)
    ex = geom.irs_origin_xy[0] + np.arange(geom.array.n_elements) * geom.array.spacing_m
    return np.hypot(ex - points[..., :1], geom.irs_origin_xy[1] - points[..., 1:])


def near_gain_brute_force(cfg, geom, freq_hz, target_xy, phases, delays=None):
    """Element-by-element near-field gain sum, written out longhand."""
    total = 0.0 + 0.0j
    wavelength = 299_792_458.0 / cfg.carrier_hz
    for r in range(geom.array.n_elements):
        ex = geom.irs_origin_xy[0] + r * geom.array.spacing_m
        ey = geom.irs_origin_xy[1]
        d_bs = np.hypot(ex - geom.bs_xy[0], ey - geom.bs_xy[1])
        d_t = np.hypot(ex - target_xy[0], ey - target_xy[1])
        phi = phases.phases[r]
        expo = phi - (2 * np.pi / wavelength) * (1 + freq_hz / cfg.carrier_hz) * (d_bs + d_t)
        if delays is not None:
            expo -= 2 * np.pi * freq_hz * delays.delays[r]
        total += np.exp(1j * expo)
    return abs(total)


def near_gain_longdouble(cfg, geom, freq_hz, targets_xy, phases, delays=None):
    """:func:`near_gain_brute_force` at each of an (N, 2) array of points; shape (N,).

    Every step runs in ``np.longdouble`` from the float64 inputs up to the
    phases, which are reduced into [-pi, pi] there. Only then are they rounded
    to float64 for the exp, which adds at most 2**-53 pi per term.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    f, fc = ld(freq_hz), ld(cfg.carrier_hz)
    wavenumber = (2 * pi / (ld(299_792_458.0) / fc)) * (1 + f / fc)
    ex = ld(geom.irs_origin_xy[0]) + np.arange(geom.array.n_elements).astype(ld) * ld(
        geom.array.spacing_m
    )
    ey = ld(geom.irs_origin_xy[1])
    d_bs = np.hypot(ex - ld(geom.bs_xy[0]), ey - ld(geom.bs_xy[1]))
    targets = np.asarray(targets_xy, dtype=np.float64).astype(ld)
    d_t = np.hypot(ex - targets[:, :1], ey - targets[:, 1:])
    expo = phases.phases.astype(ld) - wavenumber * (d_bs + d_t)
    if delays is not None:
        expo -= 2 * pi * f * delays.delays.astype(ld)
    expo -= 2 * pi * np.rint(expo / (2 * pi))
    return np.abs(np.exp(1j * expo.astype(np.float64)).sum(axis=1))


def _near_paths_longdouble(geom):
    """d_r^BR + d_r^RU in ``np.longdouble`` from the float64 coordinates."""
    ld = np.longdouble
    ex = ld(geom.irs_origin_xy[0]) + np.arange(geom.array.n_elements).astype(ld) * ld(
        geom.array.spacing_m
    )
    ey = ld(geom.irs_origin_xy[1])
    return sum(np.hypot(ex - ld(px), ey - ld(py)) for px, py in (geom.bs_xy, geom.user_xy))


def near_focus_phases_longdouble(cfg, geom, turns_per_wavelength):
    """(2 pi k / lambda_c)(d_r^BR + d_r^RU) for k = ``turns_per_wavelength``,
    wrapped into [0, 2 pi), in ``np.longdouble`` from the float64 coordinates:
    the focusing phases for k = 2 and the DAM design's phases for k = 1."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    wavelength = ld(299_792_458.0) / ld(cfg.carrier_hz)
    phases = (2 * pi * turns_per_wavelength / wavelength) * _near_paths_longdouble(geom)
    return phases - 2 * pi * np.floor(phases / (2 * pi))


def near_dam_delays_longdouble(geom):
    """The near DAM delays (max_r L_r - L_r) / c of the paths L_r = d_r^BR + d_r^RU,
    in ``np.longdouble`` from the float64 coordinates."""
    path = _near_paths_longdouble(geom)
    return (path.max() - path) / np.longdouble(299_792_458.0)


def far_design_phases_exact(n_elements, direction, turns_per_element):
    """2 pi frac(k (r-1) nu0 / 2) for r = 1..R and k = ``turns_per_element``: the
    far phase-only phases for k = 2 and the DAM design's phases for k = 1, in
    [0, 2 pi) as ``np.longdouble``. The fractional turn is exact in rationals
    (``Fraction`` of the float64 nu0); only its conversion to ``np.longdouble``
    and the scale by 2 pi round."""
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    fracs = []
    for r in range(n_elements):
        turns = Fraction(turns_per_element * r, 2) * Fraction(direction)
        frac = turns - math.floor(turns)
        hi = float(frac)
        fracs.append(ld(hi) + ld(float(frac - Fraction(hi))))
    return two_pi * np.array(fracs, dtype=ld)
