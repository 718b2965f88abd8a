"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: the Dirichlet kernel is
the closed-form array factor for a uniform phase progression, and the
near-field oracle sums the spherical-wavefront terms element by element from
raw coordinates. Tests compare library output against these, never the other
way round.
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
