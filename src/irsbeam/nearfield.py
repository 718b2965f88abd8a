"""Near-field (spherical wavefront) beam gain, focusing phases, and the DAM
co-design with exact band-wide refocusing.

The gain uses the package's one phase convention (see :mod:`irsbeam.model`)
with the path phase P_r = (2 pi / lambda_c)(d_r^BR + d_r^target). Distances
are computed in double precision straight from coordinates; no Fresnel or
Taylor approximation is ever substituted. A heatmap is evaluated from its two
axes (:func:`_near_grid_gain`), with no list of its cells: each kernel chunk
squares the x offsets of only its few x rows, and its range checks run on
those rows and on its cells, not on the distances. The path factor, shared
by point lists and grids, reduces the path phase to one turn and builds its
phasor from a sine series, a square-root cosine and five complex squarings
(accuracy in :mod:`irsbeam.model`).

Beside the kernel's complex chunk buffer, a call allocates one float chunk
buffer, 8 B per evaluation: a chunk's distances are written into it, and its
turns overwrite them there. Every ufunc runs on operands of one shape, since
numpy allocates an iterator buffer of up to 64 KiB for each broadcast operand:
a broadcast factor is first spread with ``np.copyto``, which allocates none,
into the float halves of the complex buffer, free until the phasors are
written. Per chunk only arrays of a few values per target are made: the
targets' (y - y_0)^2 and, for a grid, its cells' y and the x row of each cell.
Both designs apply the design rules of :mod:`irsbeam.model` to the path turns
(d_r^BR + d_r^RU) f_c / c.
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
    _dam_design,
    _phase_only_phases,
)

# sin(k t) / t = k - k^3 t^2 / 3! + ... + k^9 t^8 / 9! with k = -2 pi / 2^5,
# highest power first; the next term is below 2e-18 of the sum for |t| <= 1/2
_SQUARINGS = 5
_K = -TWO_PI / 2**_SQUARINGS
_SINE_SERIES = (_K**9 / 362880, -(_K**7) / 5040, _K**5 / 120, -(_K**3) / 6, _K)


def _phasors(turns: np.ndarray, out: np.ndarray) -> None:
    """Write exp(-j 2 pi t) of turns t in [-1/2, 1/2] into the contiguous complex
    array ``out`` of their size, overwriting ``turns``.

    numpy's complex exp and its sin and cos have no SIMD loop for float64;
    these steps use only ufuncs that do. The sine of theta = -2 pi t / 2^5
    (|theta| <= pi/32) comes from its Taylor series to theta^9, the cosine
    from sqrt(1 - sin^2), and five complex squarings of cos + j sin give
    exp(j 2^5 theta). t^2 and the series run in the two float64 halves of
    ``out``, so no temporary is allocated.
    """
    square, series = out.reshape(-1).view(np.float64).reshape(2, *turns.shape)
    np.square(turns, out=square)
    np.multiply(square, _SINE_SERIES[0], out=series)
    for c in _SINE_SERIES[1:-1]:
        series += c
        series *= square
    series += _SINE_SERIES[-1]
    turns *= series
    out.imag = turns
    np.square(out.imag, out=out.real)
    np.subtract(1.0, out.real, out=out.real)
    np.sqrt(out.real, out=out.real)
    for _ in range(_SQUARINGS):
        np.square(out, out=out)


def _near_gain(geom, cfg, freq_hz, n_targets, distances, phases, delays) -> np.ndarray:
    """The near-field beam gain at ``n_targets`` targets, shape ``np.shape(freq_hz) +
    (n_targets,)``, where ``distances(lo, hi, d, scratch)`` writes the (hi - lo, R)
    element distances of targets lo..hi-1 into ``d``, one kernel chunk at a time,
    given a flat float ``scratch`` of at least twice d's size."""
    turns_buffer = None

    def exps(lo, hi, scale, out):
        # turns s d less their nearest integer, so that the phasor's argument
        # lies within half a turn; the BS leg's turns are reduced on their own,
        # so d^BR + d^target is never rounded. Each broadcast factor is spread
        # into a float half of out first (module docstring).
        nonlocal turns_buffer
        if turns_buffer is None:  # the first chunk is the largest
            turns_buffer = np.empty(out.size)
        turns = turns_buffer[: out.size].reshape(out.shape)
        scratch = out.reshape(-1).view(np.float64)
        lower, upper = scratch.reshape(2, *out.shape)
        distances(lo, hi, turns[0], scratch)
        if scale.size == 1:  # in place by the scalar: cheaper than spreading s and d
            np.multiply(turns, scale[0], out=turns)
        else:
            np.copyto(lower, scale[:, None, None])
            np.copyto(upper, turns[0])
            np.multiply(lower, upper, out=turns)
        # the BS leg's turns once per frequency, (F, 1, R), then spread over the targets
        bs, whole = scratch[: 2 * scale.size * geom.array.n_elements].reshape(2, scale.size, 1, -1)
        np.copyto(bs, geom.bs_distances)
        np.copyto(whole, scale[:, None, None])
        np.multiply(whole, bs, out=bs)
        bs -= np.rint(bs, out=whole)
        np.copyto(upper, bs)
        turns += upper
        turns -= np.rint(turns, out=lower)
        _phasors(turns, out)

    gains = _array_gain(
        cfg, geom.array.n_elements, freq_hz, n_targets, exps,
        cfg.carrier_hz / SPEED_OF_LIGHT, phases, delays,
    )
    return gains.reshape(np.shape(freq_hz) + (n_targets,))


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
    evaluated in bounded-memory chunks. Every point must be finite: the
    frequencies and profiles are checked first, then each chunk's points as
    their distances are formed (as by ``geom.element_distances``), so a bad
    point is reported after the chunks before it have been evaluated.
    """
    targets_xy = np.asarray(targets_xy, dtype=np.float64)
    if targets_xy.ndim != 2 or targets_xy.shape[1] != 2:
        raise ValueError(f"targets_xy must have shape (N, 2), got {targets_xy.shape}")

    def distances(lo, hi, d, scratch):
        geom._cell_distances(targets_xy[lo:hi, 0], None, targets_xy[lo:hi, 1], d, scratch)

    return _near_gain(geom, cfg, freq_hz, len(targets_xy), distances, phases, delays)


def _near_grid_gain(geom, cfg, freq_hz, xs, ys, phases, delays=None) -> np.ndarray:
    """:func:`near_gain_row` at the cells (x_i, y_j) of the grid ``xs`` x ``ys``,
    taken row-major, with no list of the cells; shape ``np.shape(freq_hz) +
    (len(xs), len(ys))``. A chunk's distances square the x offsets of only its
    few x rows (the first and the last may be partial), and its range checks run
    on those rows and its cells; a bad cell is reported after the chunks before
    it have been evaluated.
    """
    ny = len(ys)

    def distances(lo, hi, d, scratch):
        i0, i1 = lo // ny, -(-hi // ny)
        rows = [ys[max(lo - i * ny, 0) : min(hi - i * ny, ny)] for i in range(i0, i1)]
        geom._cell_distances(
            xs[i0:i1], [len(r) for r in rows], np.concatenate(rows), d, scratch
        )

    gains = _near_gain(geom, cfg, freq_hz, len(xs) * ny, distances, phases, delays)
    return gains.reshape(gains.shape[:-1] + (len(xs), ny))


def _design_turns(geom: NearFieldGeometry, cfg: WidebandConfig) -> np.ndarray:
    """Path turns (d_r^BR + d_r^RU) f_c / c at the user, some 10^3 to 10^4, in np.longdouble:
    where it is wider than float64 (x86-64 Linux) they round only in the distances."""
    ld = np.longdouble
    path_m = geom.bs_distances.astype(ld) + geom.user_distances
    return (ld(cfg.carrier_hz) / ld(SPEED_OF_LIGHT)) * path_m


def near_optimal_phases(geom: NearFieldGeometry, cfg: WidebandConfig) -> PhaseProfile:
    """Focusing phases (4 pi / lambda_c)(d_r^BR + d_r^RU), wrapped: they cancel the
    carrier-frequency propagation phase, so the gain at (f_c, user) is R."""
    return _phase_only_phases(_design_turns(geom, cfg))


def near_dam_design(geom: NearFieldGeometry, cfg: WidebandConfig) -> Design:
    """Joint phase/delay design that restores the gain R at the user on every
    subcarrier: phases (2 pi / lambda_c)(d_r^BR + d_r^RU), wrapped, and delays
    T - (d_r^BR + d_r^RU) / c (the DAM rule of :mod:`irsbeam.model`). The summary
    holds T = max_r (d_r^BR + d_r^RU) / c as ``common_delay_s`` and the user as ``focus_xy``."""
    common = float((geom.bs_distances + geom.user_distances).max()) / SPEED_OF_LIGHT
    summary = {"common_delay_s": common, "focus_xy": geom.user_xy}
    return _dam_design(_design_turns(geom, cfg), cfg.carrier_hz, summary)
