"""Near-field (spherical wavefront) geometry, beam gain, focusing phases, and
the DAM co-design with exact band-wide refocusing.

The gain uses the package's one phase convention (see :mod:`irsbeam.model`)
with the path phase P_r = (2 pi / lambda_c)(d_r^BR + d_r^target). One routine,
:meth:`NearFieldGeometry._cell_distances`, computes every distance
sqrt((x - x_r)^2 + (y - y_0)^2) in double precision straight from coordinates,
for the geometry's BS and user legs and for each kernel chunk; no Fresnel or
Taylor approximation is ever substituted. Every target set reaches the kernel
:func:`_near_gain` in one form: rows at x = ``xs`` of ``per_row`` cells each,
cell c at y = ``ys[c % len(ys)]``. A point list is ``(x, y, 1)``, and a heatmap
is ``(xs, ys, len(ys))``, evaluated from its two axes with no list of its
cells. Each chunk squares the x offsets of only its rows, and its range checks
run on those rows and on its cells, not on the distances.

The path factor forms the turns t = s d_r of each leg, with
s = (1 + f/f_c) f_c / c in turns per meter, and subtracts their nearest
integers (exact steps), so that the phase 2 pi t lies within [-pi, pi] instead
of at some 10^4 rad. The BS leg d_r^BR, the same for every target, is reduced
on its own and added to the target leg's turns, so the summed distance
d_r^BR + d_r^target is never rounded. The phasor exp(-j 2 pi t) comes from a
sine series, a square-root cosine and five complex squarings (:func:`_phasors`),
within 2^8 u (u = 2^-53) of the complex exp's. Against a long-double oracle
from raw coordinates, a near gain errs by at most R times 8 ulp of
2 pi s L_max, L_max the longest BS-element-target path.

Beside the kernel's complex chunk buffer, a call allocates one float chunk
buffer, 8 B per evaluation, for the turns. A chunk's distances and the squared
x offsets of its rows are formed in the two float halves of the complex
buffer, free until the phasors are written, and the turns are broadcast from
them. The gain driver caps numpy's iterator buffer of each broadcast operand at
``UFUNC_BUFFER`` items (:func:`irsbeam.model._gain_blocks`). Per chunk only
arrays of a few values per target are made: each cell's row index and y, and
its (y - y_0)^2.
Both designs apply the design rules of :mod:`irsbeam.model` to the path turns
(d_r^BR + d_r^RU) f_c / c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    SPEED_OF_LIGHT,
    TWO_PI,
    DelayProfile,
    Design,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    _array_gain,
    _dam_design,
    _phase_only_phases,
    _readonly,
)


@dataclass(frozen=True)
class NearFieldGeometry:
    """BS, user and IRS element coordinates for the near-field (spherical) model.

    Element r (1-based) sits at ``(x_origin + (r-1) * spacing, y_origin)``.
    Construction rejects a BS or user that is not finite, coincides with an
    element or lies so far away that its squared distance overflows, and
    keeps the element x-coordinates and the element-to-BS and element-to-user
    distances (each of length R).
    """

    bs_xy: tuple[float, float]
    user_xy: tuple[float, float]
    irs_origin_xy: tuple[float, float]
    array: IrsArray
    element_x: np.ndarray = field(init=False, repr=False, compare=False)
    bs_distances: np.ndarray = field(init=False, repr=False, compare=False)
    user_distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("bs_xy", "user_xy", "irs_origin_xy"):
            px, py = getattr(self, name)
            object.__setattr__(self, name, (float(px), float(py)))
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the point
            x = self.irs_origin_xy[0] + np.arange(self.array.n_elements) * self.array.spacing_m
        object.__setattr__(self, "element_x", _readonly(x))
        for label, (px, py) in (("BS", self.bs_xy), ("user", self.user_xy)):
            d = np.empty((1, self.array.n_elements))
            try:
                self._cell_distances(np.array([px]), [0], np.array([py]), d, np.empty(d.size))
            except ValueError as exc:
                raise ValueError(f"{label} {exc}") from None
            object.__setattr__(self, f"{label.lower()}_distances", _readonly(d[0]))

    def _cell_distances(self, row_x, row, cell_y, d, scratch) -> None:
        """Write the distances sqrt((x - x_r)^2 + (y - y_0)^2) from every element to
        each cell into ``d``, shape (cells, R). Cell c lies at
        (``row_x[row[c]]``, ``cell_y[c]``): ``row`` holds each cell's index into
        the rows, by which the rows' squared x offsets are spread over their cells.
        ``scratch`` is a flat float array of at least ``len(row_x)`` times R values,
        which holds those squared offsets.

        The squared x offsets are formed once per row, and the range checks run
        on them and on the cells' (y - y_0)^2, not on the distances. The largest
        of each, summed, bounds every squared distance; only when that bound is
        inf or NaN, or a cell lies on the array's line, are the cells checked one
        by one. (x - x_r)^2 is largest at an end of the array, so a cell's squared
        distance overflows exactly when that value plus its (y - y_0)^2 is inf; it
        coincides with an element exactly when its least (x - x_r)^2 and its
        (y - y_0)^2 are both 0. The distance is the sqrt of the summed squares, so
        below about 1e-154 m it loses precision to underflow in them, and below
        about 1e-162 m it reads 0: such a cell counts as coincident. The ValueError
        names the first bad cell and the first of those faults, after non-finite
        coordinates, that it has.
        """
        dx2 = scratch[: row_x.size * self.element_x.size].reshape(row_x.size, -1)
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the point
            np.subtract(row_x[:, None], self.element_x, out=dx2)
            np.square(dx2, out=dx2)
            dy2 = np.square(cell_y - self.irs_origin_xy[1])
            np.take(dx2, row, axis=0, out=d, mode="clip")  # each row's squares over its cells
            bound = dx2.max(initial=0.0) + dy2.max(initial=0.0)
            if not (bound < np.inf and dy2.min(initial=1.0) > 0.0):  # also true on NaN
                x = row_x[row]
                far = np.maximum(d[:, 0], d[:, -1]) + dy2
                faults = (
                    (~(np.isfinite(x) & np.isfinite(cell_y)), "is not finite"),
                    ((d.min(axis=1) == 0.0) & (dy2 == 0.0), "coincides with an IRS element"),
                    (~(far < np.inf), "is so far away that its squared distance overflows"),
                )
                bad = np.logical_or.reduce([cells for cells, _ in faults])
                if bad.any():
                    c = int(np.argmax(bad))
                    reason = next(reason for cells, reason in faults if cells[c])
                    raise ValueError(f"point {(float(x[c]), float(cell_y[c]))} {reason}")
        d += dy2[:, None]
        np.sqrt(d, out=d)


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


def _near_gain(geom, cfg, freq_hz, xs, ys, per_row, phases, delays) -> np.ndarray:
    """The near-field beam gain at the targets of rows at x = ``xs``, ``per_row``
    cells each, cell c at y = ``ys[c % len(ys)]``, taken in order; shape
    ``np.shape(freq_hz) + (len(xs) * per_row,)``. A point list is
    ``(x, y, 1)``, a grid ``(xs, ys, len(ys))``. A chunk's distances square the x
    offsets of only its rows (the first and the last may be partial), and its
    range checks run on those rows and its cells; a bad target is reported after
    the chunks before it have been evaluated."""
    n_targets = len(xs) * per_row
    turns_buffer = None

    def exps(lo, hi, scale, out):
        # turns s d less their nearest integer, so that the phasor's argument
        # lies within half a turn; the BS leg's turns are reduced on their own,
        # so d^BR + d^target is never rounded. The distances and their squared
        # x offsets are formed in the two float halves of out.
        nonlocal turns_buffer
        if turns_buffer is None:  # the first chunk is the largest
            turns_buffer = np.empty(out.size)
        turns = turns_buffer[: out.size].reshape(out.shape)
        scratch = out.reshape(-1).view(np.float64)
        lower, upper = scratch.reshape(2, *out.shape)
        row = np.arange(lo, hi)
        cell_y = ys[row % len(ys)]
        row //= per_row
        row_x = xs[row[0] : row[-1] + 1]
        row -= row[0]
        geom._cell_distances(row_x, row, cell_y, upper[0], scratch[: out.size])
        np.multiply(scale[:, None, None], upper[0], out=turns)
        # the BS leg's turns once per frequency, (F, 1, R), added over the targets;
        # formed after the turns, since for one target they overlap upper[0]
        bs, whole = scratch[: 2 * scale.size * geom.array.n_elements].reshape(2, scale.size, 1, -1)
        np.multiply(scale[:, None, None], geom.bs_distances, out=bs)
        bs -= np.rint(bs, out=whole)
        turns += bs
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
    their distances are formed (as at the geometry's construction), so a bad
    point is reported after the chunks before it have been evaluated.
    """
    targets_xy = np.asarray(targets_xy, dtype=np.float64)
    if targets_xy.ndim != 2 or targets_xy.shape[1] != 2:
        raise ValueError(f"targets_xy must have shape (N, 2), got {targets_xy.shape}")

    return _near_gain(geom, cfg, freq_hz, targets_xy[:, 0], targets_xy[:, 1], 1, phases, delays)


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
