"""Correctness checks for benchmark results.

Every check here holds under any reading of the frequency factor in the
phase model, because it only looks at quantities that do not depend on it:
the range of a normalized gain, the per-subcarrier gain at the design point
(far: nu0, near: the user), the DAM identity, metric recomputation and the
CSV round-trip. Peak positions of phase-only angle sweeps and the argmax of
phase-only heatmaps are deliberately not checked.

The oracles are computed from the raw scenario document with plain numpy,
not through the library. Generated scenarios never set the spacing ``d``,
so every array is half-wavelength at the carrier.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
GAIN_SLACK = 1e-9
ORACLE_TOL = 1e-9
DEFAULT_M = 128
DEFAULT_THRESHOLD = 0.5


class CheckFailed(AssertionError):
    """A result broke one of the invariants below."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---- scenario fields, resolved without the library ------------------------

def n_subcarriers(scn: dict) -> int:
    return scn.get("M", DEFAULT_M)


def is_dam(scn: dict) -> bool:
    return scn.get("design", "phases_only") == "dam"


def design_direction(scn: dict) -> float:
    if "nu0" in scn:
        return scn["nu0"]
    return math.sin(scn["chi"]) - math.sin(scn["psi"])


def subcarrier_freq(scn: dict, index: int) -> float:
    """Frequency of 1-based subcarrier ``index``; 0 is the carrier, -1 the top."""
    f_c, m = scn["f_c"], n_subcarriers(scn)
    if index == -1:
        index = m
    if index == 0:
        return f_c
    return f_c + (scn["B"] / m) * (index - 1 - (m - 1) / 2.0)


def all_subcarrier_freqs(scn: dict) -> np.ndarray:
    return np.array([subcarrier_freq(scn, i) for i in range(1, n_subcarriers(scn) + 1)])


# ---- oracles -----------------------------------------------------------------

def far_oracle(scn: dict, freqs) -> np.ndarray:
    """Phase-only far gain at nu0: |sum_r exp(j pi r nu0 (1 - f/f_c))| / R."""
    r = np.arange(scn["R"], dtype=np.float64)
    residual = 1.0 - np.asarray(freqs, dtype=np.float64) / scn["f_c"]
    phase = np.pi * design_direction(scn) * np.outer(residual, r)
    return np.abs(np.exp(1j * phase).sum(axis=1)) / scn["R"]


def near_oracle(scn: dict, freqs) -> np.ndarray:
    """Phase-only near gain at the user: |sum_r exp(j k_c L_r (1 - f/f_c))| / R,
    with L_r the BS-element-user path length from raw coordinates."""
    f_c = scn["f_c"]
    spacing = scn.get("d", SPEED_OF_LIGHT / f_c / 2.0)
    x0, y0 = scn["irs_origin"]
    xs = x0 + spacing * np.arange(scn["R"], dtype=np.float64)
    (bx, by), (ux, uy) = scn["bs"], scn["user"]
    path = np.hypot(xs - bx, y0 - by) + np.hypot(xs - ux, y0 - uy)
    k_c = 2.0 * np.pi * f_c / SPEED_OF_LIGHT
    residual = 1.0 - np.asarray(freqs, dtype=np.float64) / f_c
    return np.abs(np.exp(1j * k_c * np.outer(residual, path)).sum(axis=1)) / scn["R"]


def design_point_gain(scn: dict, freqs) -> np.ndarray:
    """Expected normalized gain at the design point for each frequency."""
    if is_dam(scn):
        return np.ones(len(freqs))
    oracle = near_oracle if "user" in scn else far_oracle
    return oracle(scn, freqs)


# ---- checks on gain maps --------------------------------------------------

def check_gains(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    require(values.size > 0, "empty gain map")
    require(np.all(np.isfinite(values)), "non-finite gain")
    require(values.min() >= 0.0, f"negative gain {values.min()!r}")
    require(values.max() <= 1.0 + GAIN_SLACK, f"normalized gain {values.max()!r} above 1")


def check_against(values, expected, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(values) - expected)))
    require(err <= ORACLE_TOL, f"{what} is off the oracle by {err:.3e}")


def check_dam_floor(values, what: str) -> None:
    low = float(np.min(values))
    require(low >= 1.0 - ORACLE_TOL, f"{what}: DAM gain {low!r} below 1")


def check_subcarrier_sweep(values, scn: dict) -> None:
    """All-M sweep at the design point: oracle for phase-only, floor for DAM."""
    check_gains(values)
    values = np.asarray(values).ravel()
    require(values.size == n_subcarriers(scn), f"{values.size} subcarriers, want {n_subcarriers(scn)}")
    if is_dam(scn):
        check_dam_floor(values, "subcarrier sweep")
    else:
        check_against(values, design_point_gain(scn, all_subcarrier_freqs(scn)), "subcarrier sweep")


def grid_index(points, value: float, what: str) -> int:
    points = np.asarray(points)
    i = int(np.argmin(np.abs(points - value)))
    require(abs(points[i] - value) <= 1e-12 * max(1.0, abs(value)), f"{what} {value} is not a grid point")
    return i


def check_angle_sweep(rows, nu, values, scn: dict) -> None:
    """(subcarrier x direction) sweep: every row's value at nu0 is the
    design-point gain of that row's frequency (1 for DAM: each row reaches 1)."""
    check_gains(values)
    values = np.asarray(values)
    require(values.shape == (len(rows), len(nu)), f"shape {values.shape} vs axes")
    col = grid_index(nu, design_direction(scn), "nu0")
    freqs = [subcarrier_freq(scn, int(s)) for s in rows]
    check_against(values[:, col], design_point_gain(scn, freqs), "gain at nu0")


def check_heatmap(xs, ys, values, scn: dict, subcarrier: int) -> None:
    """x-y heatmap: the user cell holds the design-point gain; with DAM it is
    also the argmax, with value 1."""
    check_gains(values)
    values = np.asarray(values)
    require(values.shape == (len(xs), len(ys)), f"shape {values.shape} vs axes")
    cell = (grid_index(xs, scn["user"][0], "user x"), grid_index(ys, scn["user"][1], "user y"))
    expected = design_point_gain(scn, [subcarrier_freq(scn, subcarrier)])
    check_against(values[cell], expected, "gain at the user")
    if is_dam(scn):
        top = np.unravel_index(np.argmax(values), values.shape)
        require(tuple(int(i) for i in top) == cell, f"DAM argmax {top} is not the user cell {cell}")


def check_metrics(metrics: dict, values, threshold: float) -> None:
    """squint_metrics output agrees with the metrics recomputed from ``values``.

    A value within the oracle tolerance of the threshold may fall either side.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    for key in ("fraction_above", "min_gain", "mean_gain"):
        require(key in metrics and math.isfinite(metrics[key]), f"metric {key} missing or non-finite")
    require(abs(metrics["min_gain"] - values.min()) <= ORACLE_TOL, "min_gain disagrees")
    require(abs(metrics["mean_gain"] - values.mean()) <= ORACLE_TOL, "mean_gain disagrees")
    sure = np.count_nonzero(values >= threshold + ORACLE_TOL)
    maybe = np.count_nonzero(values >= threshold - ORACLE_TOL)
    count = metrics["fraction_above"] * values.size
    require(sure - 0.5 <= count <= maybe + 0.5, f"fraction_above {metrics['fraction_above']!r} disagrees")


def check_reductions(values, metrics: dict, argmax, threshold: float) -> None:
    """In-memory reductions agree exactly with a recomputation."""
    values = np.asarray(values)
    require(metrics["fraction_above"] == float(np.mean(values >= threshold)), "fraction_above differs")
    require(metrics["min_gain"] == float(values.min()), "min_gain differs")
    require(abs(metrics["mean_gain"] - float(values.mean())) <= 1e-12, "mean_gain differs")
    require(values[tuple(argmax)] == values.max(), f"argmax_cell {argmax} is not a maximum")


# ---- artifacts ---------------------------------------------------------------

def parse_gain_map_json(path):
    """(axis names, axis points, values) of a JSON gain-map artifact."""
    with open(path) as fh:
        doc = json.load(fh)
    names = [ax["name"] for ax in doc["axes"]]
    points = [np.array(ax["points"], dtype=np.float64) for ax in doc["axes"]]
    return names, points, np.array(doc["values"], dtype=np.float64)


def parse_gain_map_csv(path):
    """(axis names, axis points, values) of a CSV gain-map artifact, parsed
    with the csv module alone (one row per grid point, row-major)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names, body = rows[0][:-1], np.array(rows[1:], dtype=np.float64)
    points = [np.array(list(dict.fromkeys(body[:, i]))) for i in range(len(names))]
    values = body[:, -1].reshape(tuple(p.size for p in points))
    expected_coords = np.array(np.meshgrid(*points, indexing="ij")).reshape(len(names), -1).T
    require(np.array_equal(body[:, :-1], expected_coords), "CSV coordinates are not a row-major grid")
    return names, points, values


def parse_metrics(path, out_format: str) -> dict:
    if out_format == "json":
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["metric", "value"], f"metrics CSV header {rows[0]}")
    return {key: float(value) for key, value in rows[1:]}


def check_roundtrip(header, table, json_path) -> None:
    """A CSV read back equals, bit for bit, the same map written as JSON."""
    names, points, values = parse_gain_map_json(json_path)
    require(list(header) == names + ["value"], f"CSV header {header} vs axes {names}")
    coords = np.array(np.meshgrid(*points, indexing="ij")).reshape(len(names), -1).T
    expected = np.column_stack((coords, values.reshape(-1)))
    require(table.shape == expected.shape, f"CSV table shape {table.shape}, want {expected.shape}")
    require(np.array_equal(table, expected), "CSV round-trip is not bit-exact")


def check_gain_map_artifact(subcommand: str, names, points, values, scn: dict) -> None:
    """Dispatch on the subcommand that wrote the artifact."""
    if subcommand == "far-angle-sweep":
        require(names == ["subcarrier", "direction"], f"axes {names}")
        check_angle_sweep(points[0], points[1], values, scn)
    elif subcommand in ("far-subcarrier-sweep", "near-subcarrier-sweep"):
        require(names == ["subcarrier"], f"axes {names}")
        check_subcarrier_sweep(values, scn)
    elif subcommand == "near-heatmap":
        require(names == ["x", "y"], f"axes {names}")
        check_heatmap(points[0], points[1], values, scn, scn.get("sweep", {}).get("subcarrier", 0))
    else:
        raise CheckFailed(f"no check for subcommand {subcommand}")


def check_metrics_artifact(path, out_format: str, scn: dict, threshold: float) -> None:
    metrics = parse_metrics(path, out_format)
    expected = design_point_gain(scn, all_subcarrier_freqs(scn))
    check_metrics(metrics, expected, threshold)
    if is_dam(scn):
        require(metrics["min_gain"] >= 1.0 - ORACLE_TOL, f"DAM min_gain {metrics['min_gain']!r} below 1")
