"""Sweep and metric engine: the one (regime x design) switch :func:`make_design`,
gain-vs-angle and gain-vs-subcarrier curves, 2-D near-field heatmaps, and scalar
squint metrics.

All sweeps emit normalized gain (divided by the element count R, so the
analytic peak is 1) packed into a :class:`~irsbeam.model.GainMap`. Each sweep
is one call into the chunked gain kernel, whose fresh output it normalizes in
place and hands to the map read-only, so that the map keeps it uncopied, as
it does each fresh axis array. So
memory beyond the output stays bounded: a heatmap passes the kernel its two
axes, never a list of its cells. Subcarrier selectors are 1-based; index 0
means the exact carrier frequency and -1 the highest subcarrier.
"""

from __future__ import annotations

import numpy as np

from .farfield import _far_grid_gain, far_beam_gain_profile, far_dam_design, far_optimal_phases
from .model import (
    Axis,
    DelayProfile,
    Design,
    GainMap,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    _readonly,
    _subcarrier_frequency,
    resolve_subcarrier,
    subcarrier_frequencies,
)
from .nearfield import (
    NearFieldGeometry,
    _near_gain,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
)

DEFAULT_NU_GRID = (-1.0, 1.0, 1e-3)
DEFAULT_HEATMAP_HALF_SPAN_M = 0.5
DEFAULT_HEATMAP_STEP_M = 0.005
DEFAULT_THRESHOLD = 0.5


def check_threshold(threshold: float) -> None:
    """Reject a metrics threshold outside the open interval (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def grid_size(start: float, stop: float, step: float) -> int:
    """Point count of :func:`grid_points`; the step must be positive and divide the span.

    The last point may miss ``stop`` by at most 1e-9 of the larger endpoint's
    magnitude, whatever the step, so a step longer than the span fails.
    """
    if not np.isfinite(step) or step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    n = np.rint((stop - start) / step)
    if not n >= 0 or abs(start + n * step - stop) > 1e-9 * max(abs(stop), abs(start)):
        raise ValueError(f"step {step} does not divide the span [{start}, {stop}]")
    return int(n) + 1


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform grid; the step must be positive and divide the span."""
    return start + step * np.arange(grid_size(start, stop, step))


def _subcarrier_rows(cfg: WidebandConfig, selectors) -> tuple[list[int], np.ndarray]:
    """The subcarrier ``selectors`` resolved by :func:`resolve_subcarrier`, and
    their frequencies: f_c for 0, else f_m."""
    rows = [resolve_subcarrier(cfg, s) for s in selectors]
    return rows, np.array([_subcarrier_frequency(cfg, s) if s else cfg.carrier_hz for s in rows])


def _normalized_map(values: np.ndarray, n_elements: int, *axes: Axis) -> GainMap:
    """The kernel's fresh ``values`` divided by R in place and handed to the map
    over ``axes`` read-only, so that the map keeps them uncopied."""
    values /= n_elements
    return GainMap(axes, _readonly(values))


def _per_subcarrier(gains: np.ndarray, n_elements: int) -> GainMap:
    """The (M, 1) kernel ``gains`` at one target as a normalized map over subcarriers 1..M."""
    return _normalized_map(gains[:, 0], n_elements,
                           Axis("subcarrier", "index", _readonly(np.arange(1, len(gains) + 1))))


def make_design(
    array: IrsArray, cfg: WidebandConfig, link: float | NearFieldGeometry, use_dam: bool = False
) -> Design:
    """The DAM design for ``link``, a far direction nu0 or a near geometry as in
    ``Scenario.link``, with ``use_dam``, else the phase-only optimum with delays
    None. A far summary holds ``design_direction``, a near one ``focus_xy``."""
    near = isinstance(link, NearFieldGeometry)
    if use_dam:
        return near_dam_design(link, cfg) if near else far_dam_design(array, cfg, link)
    if near:
        return Design(near_optimal_phases(link, cfg), None, {"focus_xy": link.user_xy})
    return Design(far_optimal_phases(array, link), None, {"design_direction": link})


def angle_sweep(
    array: IrsArray,
    cfg: WidebandConfig,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
    subcarriers=(1, 0, -1),
    nu_grid=DEFAULT_NU_GRID,
) -> GainMap:
    """Normalized far-field gain over a (subcarrier x direction) grid.

    ``subcarriers`` lists 1-based indices (0 = carrier); -1 is shorthand for
    the highest subcarrier. ``nu_grid`` is (start, stop, step).
    """
    subcarriers, freqs = _subcarrier_rows(cfg, subcarriers)
    if not subcarriers:
        raise ValueError("at least one subcarrier row is required")
    nu = grid_points(*nu_grid)
    values = _far_grid_gain(array, cfg, freqs, (nu_grid[0], nu_grid[2], nu.size), phases, delays)
    return _normalized_map(values, array.n_elements,
                           Axis("subcarrier", "index (0 = carrier)", _readonly(subcarriers)),
                           Axis("direction", "sin(chi) - sin(psi)", _readonly(nu)))


def subcarrier_sweep_far(
    array: IrsArray, cfg: WidebandConfig, design_direction: float, use_dam: bool = False
) -> GainMap:
    """Normalized gain at the design direction across all M subcarriers.

    ``use_dam`` switches from the phase-only profile to the joint phase/delay
    design, which holds the value at 1 for every subcarrier.
    """
    design = make_design(array, cfg, design_direction, use_dam)
    gains = far_beam_gain_profile(
        array, cfg, subcarrier_frequencies(cfg), [design_direction], design.phases, design.delays
    )
    return _per_subcarrier(gains, array.n_elements)


def subcarrier_sweep_near(
    geom: NearFieldGeometry, cfg: WidebandConfig, use_dam: bool = False
) -> GainMap:
    """Normalized gain at the user across all M subcarriers (near-field)."""
    design = make_design(geom.array, cfg, geom, use_dam)
    gains = near_gain_row(
        geom, cfg, subcarrier_frequencies(cfg), np.array([geom.user_xy]),
        design.phases, design.delays,
    )
    return _per_subcarrier(gains, geom.array.n_elements)


def location_heatmap(
    geom: NearFieldGeometry,
    cfg: WidebandConfig,
    subcarrier: int = 0,
    use_dam: bool = False,
    half_span_m: float = DEFAULT_HEATMAP_HALF_SPAN_M,
    step_m: float = DEFAULT_HEATMAP_STEP_M,
) -> GainMap:
    """Normalized near-field gain over a 2-D grid centered on the user.

    The grid spans user +/- half_span in x and y with uniform spacing, so the
    user sits exactly on the center cell. The argmax cell is available via
    :meth:`GainMap.argmax_cell` (ties break row-major to the lowest index).
    ``subcarrier`` is 1-based (0 = carrier, -1 = highest subcarrier).
    """
    design = make_design(geom.array, cfg, geom, use_dam)
    (freq,) = _subcarrier_rows(cfg, [subcarrier])[1]
    # one offset grid for both axes: the rows of user_xy + offsets
    xs, ys = np.add.outer(geom.user_xy, grid_points(-half_span_m, half_span_m, step_m))
    values = _near_gain(geom, cfg, freq, xs, ys, ys.size, design.phases, design.delays)
    # a view: the kernel's output is contiguous
    return _normalized_map(values.reshape(xs.size, ys.size), geom.array.n_elements,
                           Axis("x", "m", _readonly(xs)), Axis("y", "m", _readonly(ys)))


def squint_metrics(gain_map: GainMap, threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Scalar squint summary of a normalized gain map.

    Returns the fraction of grid points with value >= threshold, and the
    minimum and mean values. The fraction is non-increasing in the threshold.
    """
    check_threshold(threshold)
    values = gain_map.values
    return {
        "fraction_above": float(np.mean(values >= threshold)),
        "min_gain": float(values.min()),
        "mean_gain": float(values.mean()),
    }
