"""Command-line front end.

Parses a scenario JSON file, dispatches to the design or sweep operations,
and serializes the result as CSV (one record per grid point, 17 significant
digits) or JSON ({axes, values, meta}) for external plotting. Exit codes:
0 success, 2 scenario/subcommand problem, 3 I/O failure.

Each subcommand is one entry of ``_SUBCOMMANDS``: its help text, its handler
and the optional flags it takes. A ``far-`` or ``near-`` name prefix limits
the subcommand to scenarios of that regime.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .farfield import far_design
from .model import GainMap, fraunhofer_distance
from .nearfield import near_design
from .scan import (
    angle_sweep,
    location_heatmap,
    squint_metrics,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from .scenario import Scenario, ScenarioError, check_sweep_grid, load_scenario

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_IO = 3


def _write(path, out_format, header, columns, payload) -> None:
    """Write ``columns`` under ``header`` as CSV, or ``payload`` as JSON.

    The CSV table is built only for CSV, from equal-size columns of any shape
    flattened row-major. Its rows end in CRLF and hold 17 significant digits, which round-trip
    float64 exactly; the names of a (name, value) object table are written
    as they are. JSON writes numpy arrays as nested lists.
    """
    if out_format == "csv":
        table = np.column_stack([np.ravel(c) for c in columns])
        with open(path, "w", newline="") as fh:
            fmt = ("%s", "%.17g") if table.dtype == object else "%.17g"
            np.savetxt(fh, table, fmt=fmt, delimiter=",", header=",".join(header),
                       comments="", newline="\r\n")
    else:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=np.ndarray.tolist)
            fh.write("\n")


def _named(values: dict) -> tuple[np.ndarray, np.ndarray]:
    """The names and the values of ``values`` as two object columns."""
    return np.array(list(values), dtype=object), np.array(list(values.values()), dtype=object)


def write_gain_map(path, gain_map: GainMap, out_format: str, meta: dict) -> None:
    """Serialize a gain map: CSV has one row per grid point, JSON keeps axes."""
    axes = gain_map.axes
    grid = np.meshgrid(*(ax.points for ax in axes), indexing="ij", copy=False)
    payload = {
        "axes": [{"name": ax.name, "unit": ax.unit, "points": ax.points} for ax in axes],
        "values": gain_map.values,
        "meta": meta | {"normalized": True},
    }
    header = [ax.name for ax in axes] + ["value"]
    _write(path, out_format, header, [*grid, gain_map.values], payload)


def read_gain_map_csv(path) -> tuple[list[str], np.ndarray]:
    """Re-parse a CSV gain map into its column names and value table."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table


def _run_design(subcommand, scenario: Scenario, out_path, out_format) -> dict:
    use_dam = scenario.design == "dam"
    if scenario.regime == "far":
        design = far_design(scenario.make_array(), scenario.config, scenario.direction(), use_dam)
    else:
        design = near_design(scenario.make_geometry(), scenario.config, use_dam)
    phases = design.phases.phases
    delays = design.delays.delays if design.delays is not None else np.zeros(phases.size)
    columns = (np.arange(1, phases.size + 1), phases, delays)
    meta = {"regime": scenario.regime, "design": scenario.design} | design.summary
    payload = {"phases": phases, "delays": delays, "meta": meta}
    _write(out_path, out_format, ["element", "phase_rad", "delay_s"], columns, payload)
    return {"elements": scenario.n_elements}


def _angle_sweep(scenario: Scenario):
    array = scenario.make_array()
    design = far_design(array, scenario.config, scenario.direction(), scenario.design == "dam")
    sweep = scenario.sweep
    nu_grid = (sweep.nu_start, sweep.nu_stop, sweep.nu_step)
    gm = angle_sweep(array, scenario.config, design.phases, design.delays,
                     subcarriers=sweep.subcarriers, nu_grid=nu_grid)
    return gm, design.summary


def _subcarrier_sweep(scenario: Scenario):
    """Gain per subcarrier at the design direction (far) or the user (near)."""
    use_dam = scenario.design == "dam"
    if scenario.regime == "far":
        direction = scenario.direction()
        gm = subcarrier_sweep_far(scenario.make_array(), scenario.config, direction, use_dam)
        return gm, {"design_direction": direction}
    gm = subcarrier_sweep_near(scenario.make_geometry(), scenario.config, use_dam)
    return gm, {"user_xy": list(scenario.user_xy)}


def _heatmap(scenario: Scenario):
    sweep = scenario.sweep
    gm = location_heatmap(scenario.make_geometry(), scenario.config, subcarrier=sweep.subcarrier,
                          use_dam=scenario.design == "dam", half_span_m=sweep.half_span_m,
                          step_m=sweep.step_m)
    cell = gm.argmax_cell()
    argmax_xy = [float(ax.points[i]) for ax, i in zip(gm.axes, cell)]
    return gm, {"subcarrier": sweep.subcarrier, "argmax_cell": list(cell),
                "argmax_xy": argmax_xy, "user_xy": list(scenario.user_xy)}


def _gain_map(sweep):
    """A handler that writes the gain map ``sweep(scenario)`` returns with its meta."""

    def handler(subcommand, scenario: Scenario, out_path, out_format) -> dict:
        gm, extra = sweep(scenario)
        info = {"regime": scenario.regime, "design": scenario.design} | extra
        write_gain_map(out_path, gm, out_format, {"subcommand": subcommand} | info)
        return {"points": int(gm.values.size)} | info

    return handler


def _run_metrics(subcommand, scenario: Scenario, out_path, out_format) -> dict:
    gm, _ = _subcarrier_sweep(scenario)
    metrics = squint_metrics(gm, scenario.threshold)
    meta = {"regime": scenario.regime, "design": scenario.design, "threshold": scenario.threshold}
    _write(out_path, out_format, ["metric", "value"], _named(metrics), metrics | {"meta": meta})
    return metrics


def _run_fraunhofer(subcommand, scenario: Scenario, out_path, out_format) -> dict:
    if scenario.n_elements == 1:
        raise ScenarioError("fraunhofer needs R >= 2 (a single element has zero aperture)")
    aperture = (scenario.n_elements - 1) * scenario.spacing_m
    boundary = fraunhofer_distance(aperture, scenario.config)
    payload = {"aperture_m": aperture, "fraunhofer_distance_m": boundary,
               "wavelength_m": scenario.config.wavelength_m}
    _write(out_path, out_format, ["metric", "value"], _named(payload), payload)
    return payload


_THRESHOLD = ("--threshold", "metrics threshold in (0, 1)")
_GRID_STEP = ("--grid-step", "override the sweep step (direction units or meters)")

# name -> (help, handler(subcommand, scenario, out_path, out_format), optional (flag, help)s)
_SUBCOMMANDS = {
    "design": ("emit the phase/delay profiles for the scenario", _run_design, ()),
    "far-angle-sweep": ("normalized gain over (subcarrier x direction)",
                        _gain_map(_angle_sweep), (_GRID_STEP,)),
    "far-subcarrier-sweep": ("normalized gain at the design direction per subcarrier",
                             _gain_map(_subcarrier_sweep), ()),
    "near-subcarrier-sweep": ("normalized gain at the user per subcarrier",
                              _gain_map(_subcarrier_sweep), ()),
    "near-heatmap": ("normalized gain over a 2-D grid around the user",
                     _gain_map(_heatmap), (_GRID_STEP,)),
    "metrics": ("fraction-above-threshold, min and mean gain of the subcarrier sweep",
                _run_metrics, (_THRESHOLD,)),
    "fraunhofer": ("near/far boundary 2 D^2 / lambda for the scenario's aperture",
                   _run_fraunhofer, ()),
}


def run(subcommand: str, scenario: Scenario, out_path, out_format=None,
        threshold=None, grid_step=None) -> dict:
    """Execute one subcommand against a loaded scenario and write the artifact.

    Returns a small summary dict; raises ScenarioError for an incompatible
    scenario/subcommand pair and OSError for I/O failures.
    """
    regime = subcommand.partition("-")[0]
    if regime in ("far", "near") and scenario.regime != regime:
        raise ScenarioError(f"'{subcommand}' requires a {regime}-field scenario")
    if grid_step is not None:
        sweep = replace(scenario.sweep, nu_step=grid_step, step_m=grid_step)
        scenario = replace(scenario, sweep=sweep)
        check_sweep_grid(scenario, "--grid-step")
    if threshold is not None:
        scenario = replace(scenario, threshold=threshold)
    handler = _SUBCOMMANDS[subcommand][1]
    return handler(subcommand, scenario, out_path, out_format or scenario.out_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsbeam",
        description="Wideband IRS beam-squint simulator: designs, sweeps and metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the scenario's output format")
        for flag, flag_help in flags:
            p.add_argument(flag, type=float, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = run(args.subcommand, load_scenario(args.scenario), args.out,
                      out_format=args.format, threshold=getattr(args, "threshold", None),
                      grid_step=getattr(args, "grid_step", None))
    except (ValueError, OSError) as exc:  # a ScenarioError is a ValueError
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_SCENARIO if isinstance(exc, ValueError) else EXIT_IO
    parts = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(f"irsbeam {args.subcommand}: wrote {args.out} ({parts})")
    return EXIT_OK
