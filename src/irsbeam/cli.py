"""Command-line front end.

Parses a scenario JSON file, dispatches to the design or sweep operations,
and serializes the result as CSV (one record per grid point, 17 significant
digits) or JSON ({axes, values, meta}) for external plotting. Exit codes:
0 success, 2 scenario/subcommand problem, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

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
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_IO = 3

_FAR_ONLY = {"far-angle-sweep", "far-subcarrier-sweep"}
_NEAR_ONLY = {"near-subcarrier-sweep", "near-heatmap"}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_gain_map(path, gain_map: GainMap, out_format: str, meta: dict) -> None:
    """Serialize a gain map: CSV has one row per grid point, JSON keeps axes."""
    if out_format == "csv":
        header = [ax.name for ax in gain_map.axes] + ["value"]
        points = [ax.points for ax in gain_map.axes]
        flat = gain_map.values.ravel()
        rows = (
            [_fmt(c) for c in coords] + [_fmt(v)]
            for coords, v in zip(itertools.product(*points), flat)
        )
        _write_csv(path, header, rows)
    else:
        _write_json(
            path,
            {
                "axes": [
                    {"name": ax.name, "unit": ax.unit, "points": ax.points.tolist()}
                    for ax in gain_map.axes
                ],
                "values": gain_map.values.tolist(),
                "meta": meta | {"normalized": gain_map.normalized},
            },
        )


def read_gain_map_csv(path) -> tuple[list[str], np.ndarray]:
    """Re-parse a CSV gain map into its column names and value table."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        table = np.array([[float(v) for v in row] for row in reader])
    return header, table


def _design_profiles(scenario: Scenario):
    """Phase and delay profiles for the scenario's regime and design kind."""
    use_dam = scenario.design == "dam"
    if scenario.regime == "far":
        return far_design(scenario.make_array(), scenario.config, scenario.direction(), use_dam)
    return near_design(scenario.make_geometry(), scenario.config, use_dam)


def _run_design(scenario: Scenario, out_path, out_format) -> dict:
    phases, delays, extra = _design_profiles(scenario)
    delay_list = (
        delays.delays.tolist() if delays is not None else [0.0] * scenario.n_elements
    )
    if out_format == "csv":
        rows = (
            [str(r + 1), _fmt(p), _fmt(t)]
            for r, (p, t) in enumerate(zip(phases.phases, delay_list))
        )
        _write_csv(out_path, ["element", "phase_rad", "delay_s"], rows)
    else:
        _write_json(
            out_path,
            {
                "phases": phases.phases.tolist(),
                "delays": delay_list,
                "meta": {"regime": scenario.regime, "design": scenario.design} | extra,
            },
        )
    return {"elements": scenario.n_elements}


def _run_sweep(subcommand, scenario: Scenario, out_path, out_format, grid_step) -> dict:
    use_dam = scenario.design == "dam"
    sweep = scenario.sweep
    meta = {"subcommand": subcommand, "regime": scenario.regime, "design": scenario.design}
    if subcommand == "far-angle-sweep":
        phases, delays, extra = _design_profiles(scenario)
        gm = angle_sweep(
            scenario.make_array(),
            scenario.config,
            phases,
            delays,
            subcarriers=sweep.subcarriers,
            nu_grid=(sweep.nu_start, sweep.nu_stop, grid_step or sweep.nu_step),
        )
        meta |= extra
    elif subcommand == "far-subcarrier-sweep":
        gm = subcarrier_sweep_far(
            scenario.make_array(), scenario.config, scenario.direction(), use_dam
        )
        meta["design_direction"] = scenario.direction()
    elif subcommand == "near-subcarrier-sweep":
        gm = subcarrier_sweep_near(scenario.make_geometry(), scenario.config, use_dam)
        meta["user_xy"] = list(scenario.user_xy)
    else:  # near-heatmap
        gm = location_heatmap(
            scenario.make_geometry(),
            scenario.config,
            subcarrier=sweep.subcarrier,
            use_dam=use_dam,
            half_span_m=sweep.half_span_m,
            step_m=grid_step or sweep.step_m,
        )
        cell = gm.argmax_cell()
        meta |= {
            "subcarrier": sweep.subcarrier,
            "argmax_cell": list(cell),
            "argmax_xy": [float(gm.axes[0].points[cell[0]]), float(gm.axes[1].points[cell[1]])],
            "user_xy": list(scenario.user_xy),
        }
    write_gain_map(out_path, gm, out_format, meta)
    return {"points": int(gm.values.size), **{k: meta[k] for k in meta if k != "subcommand"}}


def _run_metrics(scenario: Scenario, out_path, out_format, threshold) -> dict:
    use_dam = scenario.design == "dam"
    if scenario.regime == "far":
        gm = subcarrier_sweep_far(
            scenario.make_array(), scenario.config, scenario.direction(), use_dam
        )
    else:
        gm = subcarrier_sweep_near(scenario.make_geometry(), scenario.config, use_dam)
    metrics = squint_metrics(gm, threshold if threshold is not None else scenario.threshold)
    if out_format == "csv":
        _write_csv(out_path, ["metric", "value"], ([k, _fmt(v)] for k, v in metrics.items()))
    else:
        _write_json(
            out_path,
            metrics
            | {
                "meta": {
                    "regime": scenario.regime,
                    "design": scenario.design,
                    "threshold": threshold if threshold is not None else scenario.threshold,
                }
            },
        )
    return metrics


def _run_fraunhofer(scenario: Scenario, out_path, out_format) -> dict:
    aperture = (scenario.n_elements - 1) * scenario.spacing_m
    if scenario.n_elements == 1:
        raise ScenarioError("fraunhofer needs R >= 2 (a single element has zero aperture)")
    boundary = fraunhofer_distance(aperture, scenario.config)
    payload = {
        "aperture_m": aperture,
        "fraunhofer_distance_m": boundary,
        "wavelength_m": scenario.config.wavelength_m,
    }
    if out_format == "csv":
        _write_csv(out_path, ["metric", "value"], ([k, _fmt(v)] for k, v in payload.items()))
    else:
        _write_json(out_path, payload)
    return payload


def run(subcommand: str, scenario: Scenario, out_path, out_format=None,
        threshold=None, grid_step=None) -> dict:
    """Execute one subcommand against a loaded scenario and write the artifact.

    Returns a small summary dict; raises ScenarioError for an incompatible
    scenario/subcommand pair and OSError for I/O failures.
    """
    if subcommand in _FAR_ONLY and scenario.regime != "far":
        raise ScenarioError(f"'{subcommand}' requires a far-field scenario")
    if subcommand in _NEAR_ONLY and scenario.regime != "near":
        raise ScenarioError(f"'{subcommand}' requires a near-field scenario")
    out_format = out_format or scenario.out_format
    if subcommand == "design":
        return _run_design(scenario, out_path, out_format)
    if subcommand == "metrics":
        return _run_metrics(scenario, out_path, out_format, threshold)
    if subcommand == "fraunhofer":
        return _run_fraunhofer(scenario, out_path, out_format)
    return _run_sweep(subcommand, scenario, out_path, out_format, grid_step)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsbeam",
        description="Wideband IRS beam-squint simulator: designs, sweeps and metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("design", "emit the phase/delay profiles for the scenario"),
        ("far-angle-sweep", "normalized gain over (subcarrier x direction)"),
        ("far-subcarrier-sweep", "normalized gain at the design direction per subcarrier"),
        ("near-subcarrier-sweep", "normalized gain at the user per subcarrier"),
        ("near-heatmap", "normalized gain over a 2-D grid around the user"),
        ("metrics", "fraction-above-threshold, min and mean gain of the subcarrier sweep"),
        ("fraunhofer", "near/far boundary 2 D^2 / lambda for the scenario's aperture"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the scenario's output format")
        p.add_argument("--threshold", type=float, default=None,
                       help="metrics threshold in (0, 1)")
        p.add_argument("--grid-step", type=float, default=None,
                       help="override the sweep step (direction units or meters)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        summary = run(
            args.subcommand,
            scenario,
            args.out,
            out_format=args.format,
            threshold=args.threshold,
            grid_step=args.grid_step,
        )
    except FileNotFoundError as exc:
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ValueError as exc:
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except OSError as exc:
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_IO
    parts = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(f"irsbeam {args.subcommand}: wrote {args.out} ({parts})")
    return EXIT_OK
