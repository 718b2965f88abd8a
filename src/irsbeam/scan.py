"""Sweep and metric engine: gain-vs-angle curves, gain-vs-subcarrier curves,
2-D near-field heatmaps, and scalar squint metrics.

All sweeps emit normalized gain (divided by the element count R, so the
analytic peak is 1) packed into a :class:`~irsbeam.model.GainMap`. Each sweep
is one call into the chunked gain kernel, so memory beyond the output stays
bounded. Subcarrier selectors are 1-based; index 0 means the exact carrier
frequency and -1 the highest subcarrier.
"""

from __future__ import annotations

import numpy as np

from .farfield import _far_grid_gain, far_beam_gain_profile, far_design
from .model import (
    Axis,
    DelayProfile,
    GainMap,
    IrsArray,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    resolve_subcarrier,
    subcarrier_frequencies,
    subcarrier_frequency,
)
from .nearfield import near_design, near_gain_row

DEFAULT_NU_GRID = (-1.0, 1.0, 1e-3)
DEFAULT_HEATMAP_HALF_SPAN_M = 0.5
DEFAULT_HEATMAP_STEP_M = 0.005
DEFAULT_THRESHOLD = 0.5


def check_threshold(threshold: float) -> None:
    """Reject a metrics threshold outside the open interval (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def grid_size(start: float, stop: float, step: float) -> int:
    """Point count of :func:`grid_points`; the step must be positive and divide the span."""
    if not np.isfinite(step) or step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    n = np.rint((stop - start) / step)
    if not n >= 0 or abs(start + n * step - stop) > 1e-9 * max(abs(stop), abs(start), step):
        raise ValueError(f"step {step} does not divide the span [{start}, {stop}]")
    return int(n) + 1


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform grid; the step must be positive and divide the span."""
    return start + step * np.arange(grid_size(start, stop, step))


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
    subcarriers = [resolve_subcarrier(cfg, s) for s in subcarriers]
    if not subcarriers:
        raise ValueError("at least one subcarrier row is required")
    freqs = np.array([subcarrier_frequency(cfg, s) for s in subcarriers])
    nu = grid_points(*nu_grid)
    grid = (nu_grid[0], nu_grid[2], nu.size)
    values = _far_grid_gain(array, cfg, freqs, grid, phases, delays) / array.n_elements
    return GainMap(
        axes=(
            Axis("subcarrier", "index (0 = carrier)", np.array(subcarriers)),
            Axis("direction", "sin(chi) - sin(psi)", nu),
        ),
        values=values,
    )


def subcarrier_sweep_far(
    array: IrsArray, cfg: WidebandConfig, design_direction: float, use_dam: bool = False
) -> GainMap:
    """Normalized gain at the design direction across all M subcarriers.

    ``use_dam`` switches from the phase-only profile to the joint phase/delay
    design, which holds the value at 1 for every subcarrier.
    """
    design = far_design(array, cfg, design_direction, use_dam)
    gains = far_beam_gain_profile(
        array, cfg, subcarrier_frequencies(cfg), [design_direction], design.phases, design.delays
    )
    values = gains[:, 0] / array.n_elements
    return GainMap(
        axes=(Axis("subcarrier", "index", np.arange(1, cfg.n_subcarriers + 1)),),
        values=values,
    )


def subcarrier_sweep_near(
    geom: NearFieldGeometry, cfg: WidebandConfig, use_dam: bool = False
) -> GainMap:
    """Normalized gain at the user across all M subcarriers (near-field)."""
    design = near_design(geom, cfg, use_dam)
    gains = near_gain_row(
        geom, cfg, subcarrier_frequencies(cfg), np.array([geom.user_xy]),
        design.phases, design.delays,
    )
    values = gains[:, 0] / geom.array.n_elements
    return GainMap(
        axes=(Axis("subcarrier", "index", np.arange(1, cfg.n_subcarriers + 1)),),
        values=values,
    )


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
    design = near_design(geom, cfg, use_dam)
    freq = subcarrier_frequency(cfg, resolve_subcarrier(cfg, subcarrier))
    ux, uy = geom.user_xy
    xs = ux + grid_points(-half_span_m, half_span_m, step_m)
    ys = uy + grid_points(-half_span_m, half_span_m, step_m)
    cells = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    gains = near_gain_row(geom, cfg, freq, cells, design.phases, design.delays)
    values = gains.reshape(xs.size, ys.size) / geom.array.n_elements
    return GainMap(
        axes=(Axis("x", "m", xs), Axis("y", "m", ys)),
        values=values,
    )


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
