"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: the Dirichlet kernel is
the closed-form array factor for a uniform phase progression, and the
near-field oracles sum the spherical-wavefront terms element by element from
raw coordinates: in float64, or in ``np.longdouble`` for error bounds near
the float64 rounding of the phases. Tests compare library output against
these, never the other way round.
"""

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
