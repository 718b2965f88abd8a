"""Command-line front end.

Parses a scenario JSON file, dispatches to the design or sweep operations,
and serializes the result as CSV (one record per grid point, 17 significant
digits, one ``%`` per block of at most 256 cells) or JSON ({axes, values,
meta}) for plotting.
JSON is streamed too, one array row at a time, in the bytes that
``json.dump(payload, indent=2)`` writes for the arrays as nested lists.
Exit codes: 0 success, 2 scenario/subcommand problem, 3 I/O failure.

Each subcommand is one entry of ``_SUBCOMMANDS``: its help text and its
handler. A ``far-`` or ``near-`` name prefix limits the subcommand to
scenarios of that regime. The scenario file fixes every number a run
computes; ``--format`` picks only the artifact's encoding. The argument
parser is built on the first ``main`` call and reused for the rest of the
process.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .model import GainMap, fraunhofer_distance
from .scan import (
    angle_sweep,
    location_heatmap,
    make_design,
    squint_metrics,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_IO = 3


_CELL = "%.17g"  # 17 significant digits round-trip float64 exactly
_BLOCK = 256  # most cells one `%` formats: the text in flight is one block, not a row


def _write(path, out_format, header, lines, payload) -> None:
    """Write the CSV ``lines`` under ``header``, or ``payload`` as JSON.

    CSV writes the header and then each string of ``lines`` as it is: one or
    more records, each ending in CRLF. JSON streams ``payload`` one array row
    at a time (``_json_chunks``), in the bytes ``json.dump(payload, indent=2)``
    writes for the arrays as nested lists, so no whole-map list of Python
    floats is built.
    """
    if out_format == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(lines)
    else:
        with open(path, "w") as fh:
            fh.writelines(_json_chunks(payload))
            fh.write("\n")


# the stdlib encoder writes finite floats and ints by these reprs
_REPRS = {"f": float.__repr__, "i": int.__repr__}


def _json_chunks(value, indent=""):
    """The text of ``json.dumps(value, indent=2, default=np.ndarray.tolist)`` in pieces.

    Dicts, lists, tuples and arrays of two or more dimensions are written an
    item (a row) at a time, a 1-D array in one join of its items' reprs; any
    other value, and an empty one, is written by ``json.dumps`` itself.
    """
    inner = indent + "  "
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
        encode = _REPRS.get(value.dtype.kind, json.dumps)
        if encode is float.__repr__ and not np.isfinite(value).all():
            encode = json.dumps  # NaN and Infinity, as the stdlib spells them
        yield f"[\n{inner}" + f",\n{inner}".join(map(encode, value.tolist())) + f"\n{indent}]"
        return
    if isinstance(value, dict) and value:
        # each key as the stdlib coerces and quotes it
        items, brackets = ((json.dumps({k: 0})[1:-4] + ": ", v) for k, v in value.items()), "{}"
    elif isinstance(value, (list, tuple)) and value or (
            isinstance(value, np.ndarray) and value.ndim > 1 and len(value)):
        items, brackets = (("", v) for v in value), "[]"
    else:
        yield json.dumps(value, default=np.ndarray.tolist)
        return
    sep = brackets[0] + "\n" + inner
    for prefix, item in items:
        yield sep + prefix
        yield from _json_chunks(item, inner)
        sep = ",\n" + inner
    yield "\n" + indent + brackets[1]


def _named(values: dict):
    """A CSV record per item of ``values``: the name as it is, the value as a cell."""
    return (f"%s,{_CELL}\r\n" % item for item in values.items())


def _grid_lines(gain_map: GainMap):
    """The CSV records of the grid points, in blocks of at most ``_BLOCK`` cells of
    one grid row. A record is a prefix, the head axes' cells each followed by a
    comma (empty for a 1-D map), and a tail, the last axis's cell, a comma, the
    value's ``%`` spec and CRLF (a map without axes has the one record of its
    value). Each axis point is formatted once, and each block of values by one
    ``%`` of its prefixed tails."""
    head, last = gain_map.axes[:-1], gain_map.axes[-1:]
    tails = [f"{_CELL % p},{_CELL}\r\n" for ax in last for p in ax.points.tolist()]
    tails = tails or [_CELL + "\r\n"]
    prefixes = itertools.product(*([_CELL % p + "," for p in ax.points.tolist()] for ax in head))
    values = np.atleast_1d(gain_map.values)
    for index, cells in zip(np.ndindex(values.shape[:-1]), prefixes):
        prefix, row = "".join(cells), values[index]
        for j in range(0, len(tails), _BLOCK):
            template = prefix + prefix.join(tails[j : j + _BLOCK])
            yield template % tuple(row[j : j + _BLOCK].tolist())


def _table_lines(columns):
    """The CSV records of equal-length numeric ``columns``, a cell of each, in
    blocks of ``_BLOCK // len(columns)`` records, each formatted by one ``%``."""
    step = _BLOCK // len(columns)
    record = ",".join([_CELL] * len(columns)) + "\r\n"
    for j in range(0, len(columns[0]), step):
        block = np.column_stack([column[j : j + step] for column in columns])
        yield (record * len(block)) % tuple(block.ravel().tolist())


def write_gain_map(path, gain_map: GainMap, out_format: str, meta: dict) -> None:
    """Serialize a gain map: CSV writes one record per grid point, JSON keeps axes."""
    axes = gain_map.axes
    payload = {
        "axes": [{"name": ax.name, "unit": ax.unit, "points": ax.points} for ax in axes],
        "values": gain_map.values,
        "meta": meta | {"normalized": True},
    }
    header = [ax.name for ax in axes] + ["value"]
    _write(path, out_format, header, _grid_lines(gain_map), payload)


def read_gain_map_csv(path) -> tuple[list[str], np.ndarray]:
    """Re-parse a CSV gain map into its column names and value table."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table


def _run_design(subcommand, scenario: Scenario, out_path, out_format) -> dict:
    design = make_design(scenario.array, scenario.config, scenario.link, scenario.design == "dam")
    phases = design.phases.phases
    delays = design.delays.delays if design.delays is not None else np.zeros(phases.size)
    columns = (np.arange(1, phases.size + 1), phases, delays)
    lines = _table_lines(columns)
    meta = {"regime": scenario.regime, "design": scenario.design} | design.summary
    payload = {"phases": phases, "delays": delays, "meta": meta}
    _write(out_path, out_format, ["element", "phase_rad", "delay_s"], lines, payload)
    return {"elements": scenario.n_elements}


def _angle_sweep(scenario: Scenario):
    design = make_design(scenario.array, scenario.config, scenario.link, scenario.design == "dam")
    sweep = scenario.sweep
    nu_grid = (sweep.nu_start, sweep.nu_stop, sweep.nu_step)
    gm = angle_sweep(scenario.array, scenario.config, design.phases, design.delays,
                     subcarriers=sweep.subcarriers, nu_grid=nu_grid)
    return gm, design.summary


def _subcarrier_sweep(scenario: Scenario):
    """Gain per subcarrier at the design direction (far) or the user (near)."""
    use_dam = scenario.design == "dam"
    if scenario.regime == "far":
        gm = subcarrier_sweep_far(scenario.array, scenario.config, scenario.link, use_dam)
        return gm, {"design_direction": scenario.link}
    gm = subcarrier_sweep_near(scenario.link, scenario.config, use_dam)
    return gm, {"user_xy": list(scenario.user_xy)}


def _heatmap(scenario: Scenario):
    sweep = scenario.sweep
    try:
        gm = location_heatmap(scenario.link, scenario.config, subcarrier=sweep.subcarrier,
                              use_dam=scenario.design == "dam", half_span_m=sweep.half_span_m,
                              step_m=sweep.step_m)
    except ValueError as exc:  # the kernel's check of a cell: "point (x, y) coincides ..."
        if not str(exc).startswith("point "):
            raise
        raise ScenarioError(f"fields 'user', 'half_span_m' and 'step_m' give a heatmap whose "
                            f"{exc}") from exc
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
        raise ScenarioError("fraunhofer needs field 'R' >= 2 (a single element has no aperture)")
    aperture = (scenario.n_elements - 1) * scenario.array.spacing_m
    boundary = fraunhofer_distance(aperture, scenario.config)
    payload = {"aperture_m": aperture, "fraunhofer_distance_m": boundary,
               "wavelength_m": scenario.config.wavelength_m}
    _write(out_path, out_format, ["metric", "value"], _named(payload), payload)
    return payload


# name -> (help, handler(subcommand, scenario, out_path, out_format))
_SUBCOMMANDS = {
    "design": ("emit the phase/delay profiles for the scenario", _run_design),
    "far-angle-sweep": ("normalized gain over (subcarrier x direction)", _gain_map(_angle_sweep)),
    "far-subcarrier-sweep": ("normalized gain at the design direction per subcarrier",
                             _gain_map(_subcarrier_sweep)),
    "near-subcarrier-sweep": ("normalized gain at the user per subcarrier",
                              _gain_map(_subcarrier_sweep)),
    "near-heatmap": ("normalized gain over a 2-D grid around the user", _gain_map(_heatmap)),
    "metrics": ("fraction-above-threshold, min and mean gain of the subcarrier sweep",
                _run_metrics),
    "fraunhofer": ("near/far boundary 2 D^2 / lambda for the scenario's aperture",
                   _run_fraunhofer),
}


def run(subcommand: str, scenario: Scenario, out_path, out_format=None) -> dict:
    """Execute one subcommand against a loaded scenario and write the artifact.

    Returns a small summary dict; raises ScenarioError for an incompatible
    scenario/subcommand pair and OSError for I/O failures.
    """
    regime = subcommand.partition("-")[0]
    if regime in ("far", "near") and scenario.regime != regime:
        raise ScenarioError(f"'{subcommand}' requires a {regime}-field scenario")
    handler = _SUBCOMMANDS[subcommand][1]
    return handler(subcommand, scenario, out_path, out_format or scenario.out_format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="irsbeam",
        description="Wideband IRS beam-squint simulator: designs, sweeps and metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the scenario's output format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = run(args.subcommand, load_scenario(args.scenario), args.out, args.format)
    except (ValueError, OSError) as exc:  # a ScenarioError is a ValueError
        print(f"irsbeam: {exc}", file=sys.stderr)
        return EXIT_SCENARIO if isinstance(exc, ValueError) else EXIT_IO
    parts = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(f"irsbeam {args.subcommand}: wrote {args.out} ({parts})")
    return EXIT_OK
