"""Digest every CLI artifact of the shipped presets, to compare two versions.

Runs each preset x subcommand x format (csv, json) through ``irsbeam.cli.main``
in a temporary directory and prints one line per run:

    <preset>/<subcommand>.<format> <sha256 of the artifact> <max |numeric value|>

A run that exits non-zero prints ``exit<code>:<sha256 of its stderr>`` and
``-`` in place of the digest and the maximum. After them come the fixed
library outputs that no preset reaches, one line each in the same form, keyed
``library/<R>/<output>``: the geometry's BS and user legs, a point list off the
carrier, multi-frequency DAM rows, the empty point list, and, for R = 128 and
2048, a heatmap whose chunks split its x rows; and for R = 64 and 1024 and both
designs, angle sweeps at all 16 subcarriers over 20,001 directions (two
chirp-z blocks, FFTs one frequency at a time) and over 2,001 (FFTs on blocks
of several frequencies), and a profile at 777 irregular directions; and for
R = 7 and 300 and both designs, the far (nu0 = 1.5) and near subcarrier
sweeps over M = 257 subcarriers of a 30 GHz band, keyed
``library/<R>/{far,near}_subcarrier_sweep_{phases_only,dam}``. Their
digest covers the shape, the dtype and the bytes. Last come the CSV bytes of
``write_gain_map`` for maps whose rows end at the edges of the writer's blocks
of 256 cells, keyed ``library/csv/<shape>``: 1, 255, 256, 257 and 1,000
points, 1-D and under a 3-point integer head axis, with -0.0, 5e-324 and
+-1e300 among the points and -0.0, 5e-324, 0 and 1 among the values at those
edges. Last of all, one line per fixed invalid scenario document, one for
each rule of the loader's field parsers and one for each of its semantic
checks, keyed ``library/scenario/<case>``: the sha256 of the
``ScenarioError`` text that ``scenario_from_dict`` raises (``loaded`` if it
loads), and ``-``, so a diff names every loader message that moved. They use
only the package's public API, so one copy of this script digests any version. Two versions of
the package give the same artifacts and library outputs exactly when their
outputs ``diff`` clean:

    PYTHONPATH=src python tools/artifact_digests.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/artifact_digests.py > old.txt
    diff old.txt new.txt

Without ``irsbeam`` on the path it exits 2, naming ``PYTHONPATH=<checkout>/src``;
it does not add a ``src`` directory itself, so ``PYTHONPATH`` alone picks the
version that runs.

``--keep DIR`` also copies the artifacts into DIR. ``--compare OLD NEW`` reads
two such directories and prints, for each artifact in both, the largest
absolute difference between their numbers (``same`` when the bytes match),
which bounds how far a version moved the artifacts that are not identical;
an artifact in only one of them is ``missing`` (from NEW) or ``added`` (to NEW).
If OLD or NEW is not a directory it exits 2 with one line on stderr.
Design phases (the CSV ``phase_rad`` column, the JSON ``phases`` list) are
compared as angles: their difference is reduced into [-pi, pi] first, so a
phase that moved from just below 2 pi to 0 counts by how far it turned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

FORMATS = ("csv", "json")
ANGLE_COLUMN, ANGLE_KEY = "phase_rad", "phases"


def _numbers(path: Path) -> tuple[list[float], list[str], list[bool]]:
    """The artifact's numbers in file order, its non-numeric tokens, and for each
    number whether it is a design phase."""
    numbers, words, angles = [], [], []
    if path.suffix == ".csv":
        rows = path.read_text().split("\n")  # read as text: CRLF -> LF
        columns = rows[0].split(",")
        phase = columns.index(ANGLE_COLUMN) if ANGLE_COLUMN in columns else None
        for row in rows:
            for i, cell in enumerate(row.split(",")):
                try:
                    numbers.append(float(cell))
                    angles.append(i == phase)
                except ValueError:
                    words.append(cell)
        return numbers, words, angles

    def walk(node, angle=False):
        if isinstance(node, dict):
            for key, value in node.items():
                words.append(key)
                walk(value, key == ANGLE_KEY)
        elif isinstance(node, list):
            for value in node:
                walk(value, angle)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))
            angles.append(angle)
        else:
            words.append(repr(node))

    walk(json.loads(path.read_text()))
    return numbers, words, angles


def digest_lines(keep: Path | None) -> list[str]:
    from irsbeam import cli

    presets = sorted(p for p in resources.files("irsbeam").joinpath("presets").iterdir()
                     if p.name.endswith(".json"))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in presets:
            for subcommand in cli._SUBCOMMANDS:
                for fmt in FORMATS:
                    key = f"{preset.name[:-5]}/{subcommand}.{fmt}"
                    out = Path(tmp, key.replace("/", "__"))
                    argv = [subcommand, "--scenario", str(preset), "--out", str(out),
                            "--format", fmt]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(argv)
                    if code:
                        sha = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
                        lines.append(f"{key} exit{code}:{sha} -")
                        continue
                    sha = hashlib.sha256(out.read_bytes()).hexdigest()
                    numbers, _, _ = _numbers(out)
                    peak = max((abs(v) for v in numbers), default=0.0)
                    lines.append(f"{key} {sha} {peak!r}")
                    if keep is not None:
                        shutil.copyfile(out, keep / out.name)
    return lines


def _array_line(key: str, values) -> str:
    import numpy as np

    values = np.ascontiguousarray(values)
    sha = hashlib.sha256(f"{values.shape} {values.dtype}\n".encode() + values.tobytes())
    peak = float(np.abs(values).max()) if values.size else 0.0
    return f"{key} {sha.hexdigest()} {peak!r}"


def library_lines() -> list[str]:
    import numpy as np

    import irsbeam as ib

    cfg = ib.WidebandConfig(carrier_hz=200e9, bandwidth_hz=6e9, n_subcarriers=16)
    n = np.arange(777)  # targets off the array: y <= 0.8, the elements at y = 1
    points = np.column_stack((2.0 + 0.003 * n, -1.0 + 0.05 * (n % 37)))
    lines = []
    for n_elements in (1, 7, 128, 2048):
        geom = ib.NearFieldGeometry((0.0, 0.0), (3.0, 0.0), (1.0, 1.0),
                                    ib.IrsArray.half_wavelength(cfg, n_elements))
        phases, dam = ib.near_optimal_phases(geom, cfg), ib.near_dam_design(geom, cfg)
        outputs = {
            "legs": np.stack((geom.bs_distances, geom.user_distances)),
            "points_199GHz": ib.near_gain_row(geom, cfg, 199e9, points, phases),
            "dam_rows": ib.near_gain_row(geom, cfg, ib.subcarrier_frequencies(cfg), points[:50],
                                         dam.phases, dam.delays),
            "empty": ib.near_gain_row(geom, cfg, 199e9, np.empty((0, 2)), phases),
        }
        if n_elements >= 128:
            for use_dam in (False, True):
                gm = ib.location_heatmap(geom, cfg, 1, use_dam, half_span_m=0.05, step_m=0.005)
                outputs[f"heatmap_{'dam' if use_dam else 'phase'}"] = gm.values
        lines += [_array_line(f"library/{n_elements}/{k}", v) for k, v in outputs.items()]
    rows = range(1, cfg.n_subcarriers + 1)
    directions = 2.0 * np.sin(0.7 * np.arange(777))  # irregular, over [-2, 2]
    for n_elements in (64, 1024):
        array = ib.IrsArray.half_wavelength(cfg, n_elements)
        dam = ib.far_dam_design(array, cfg, 0.3)
        designs = {"phase": (ib.far_optimal_phases(array, 0.3), None),
                   "dam": (dam.phases, dam.delays)}
        outputs = {}
        for name, (phases, delays) in designs.items():
            for n_points, grid in ((20_001, (-2.0, 2.0, 2e-4)), (2001, (-1.0, 1.0, 1e-3))):
                gm = ib.angle_sweep(array, cfg, phases, delays, rows, grid)
                outputs[f"far_sweep_{n_points}_{name}"] = gm.values
            outputs[f"far_profile_{name}"] = ib.far_beam_gain_profile(
                array, cfg, ib.subcarrier_frequencies(cfg), directions, phases, delays)
        lines += [_array_line(f"library/{n_elements}/{k}", v) for k, v in outputs.items()]
    cfg = ib.WidebandConfig(carrier_hz=200e9, bandwidth_hz=30e9, n_subcarriers=257)
    for n_elements in (7, 300):
        array = ib.IrsArray.half_wavelength(cfg, n_elements)
        geom = ib.NearFieldGeometry((0.0, 0.0), (3.0, 0.0), (1.0, 1.0), array)
        for use_dam in (False, True):
            design = "dam" if use_dam else "phases_only"
            sweeps = {"far": ib.subcarrier_sweep_far(array, cfg, 1.5, use_dam),
                      "near": ib.subcarrier_sweep_near(geom, cfg, use_dam)}
            lines += [_array_line(f"library/{n_elements}/{regime}_subcarrier_sweep_{design}",
                                  gm.values) for regime, gm in sweeps.items()]
    return lines


def csv_lines() -> list[str]:
    import numpy as np

    import irsbeam as ib

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "map.csv")
        for n in (1, 255, 256, 257, 1000):
            for head in ((), (ib.Axis("x", "m", [-(2**53), 0, 2**53]),)):
                rng = np.random.default_rng(n)
                edges = sorted({i for i in (0, 255, 256, n - 1) if i < n})
                points = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
                points[edges] = [-0.0, 5e-324, 1e300, -1e300][: len(edges)]
                values = rng.random((3, n) if head else n)
                values[..., edges] = [0.0, -0.0, 5e-324, 1.0][: len(edges)]
                gm = ib.GainMap((*head, ib.Axis("y", "m", points)), values)
                ib.cli.write_gain_map(out, gm, "csv", {})
                sha = hashlib.sha256(out.read_bytes()).hexdigest()
                peak = max(abs(v) for v in _numbers(out)[0])
                lines.append(f"library/csv/{'x'.join(map(str, values.shape))} {sha} {peak!r}")
    return lines


FAR = {"f_c": 200e9, "B": 6e9, "R": 64, "nu0": 0.5}
NEAR = {"f_c": 200e9, "B": 6e9, "R": 64, "bs": [0.0, 0.0], "user": [3.0, 0.0],
        "irs_origin": [1.0, 1.0]}
# invalid documents: one per rule of a field parser, then one per semantic check
SCENARIO_CASES = {
    "number": {**FAR, "nu0": "0.5"},
    "number_huge_int": {**FAR, "chi": 10**400, "psi": 0.0},
    "positive": {**FAR, "B": 0},
    "count": {**FAR, "R": 0},
    "count_bool": {**FAR, "M": True},
    "point": {**NEAR, "user": [3.0]},
    "design": {**FAR, "design": "other"},
    "format": {**FAR, "format": "xml"},
    "regime_value": {**FAR, "regime": "mid"},
    "description": {**FAR, "description": 7},
    "sweep_object": {**FAR, "sweep": [1]},
    "sweep_number": {**FAR, "sweep": {"nu_start": None}},
    "sweep_positive": {**NEAR, "sweep": {"step_m": -0.01}},
    "subcarriers_list": {**FAR, "sweep": {"subcarriers": []}},
    "subcarrier_integer": {**NEAR, "sweep": {"subcarrier": 1.0}},
    "document": [FAR],
    "unknown": {**FAR, "bogus": 1},
    "required": {"f_c": 200e9, "R": 64, "nu0": 0.5},
    "band": {**FAR, "B": 500e9},
    "wavelength": {"f_c": 1e-310, "B": 1e-310, "R": 3, "d": 1e9, "nu0": 0.5},
    "top_subcarrier": {"f_c": 1.7e308, "B": 1e-310, "R": 3, "M": 2, "nu0": 0.5},
    "both_regimes": {**NEAR, "nu0": 0.5},
    "no_geometry": {"f_c": 200e9, "B": 6e9, "R": 64},
    "regime_mismatch": {**FAR, "regime": "near"},
    "chi_without_psi": {**FAR, "chi": 0.1},
    "chi_type_without_psi": {**FAR, "chi": "0.1"},
    "direction_range": {**FAR, "nu0": 2.5},
    "direction_angles": {**FAR, "chi": 0.5, "psi": 0.0},
    "near_missing": {k: v for k, v in NEAR.items() if k != "irs_origin"},
    "near_coincides": {**NEAR, "user": [1.0, 1.0]},
    "near_overflow": {**NEAR, "d": 1e300},
    "aperture_overflow": {**FAR, "d": 1e300},
    "aperture_underflow": {"f_c": 1e300, "B": 1e9, "R": 3, "nu0": 0.5},
    "threshold": {**FAR, "threshold": 1.0},
    "sweep_stray": {**FAR, "sweep": {"half_span_m": 0.1}},
    "subcarriers_index": {**FAR, "sweep": {"subcarriers": [1, 999]}},
    "subcarrier_index": {**NEAR, "sweep": {"subcarrier": -2}},
    "grid_divide": {**FAR, "sweep": {"nu_step": 0.3}},
    "grid_cells": {**NEAR, "sweep": {"step_m": 1e-7}},
    "grid_evals": {**FAR, "R": 2**15, "sweep": {"nu_step": 1e-4}},
    "subcarrier_evals": {**FAR, "R": 2**11, "M": 2**20},
}


def scenario_lines() -> list[str]:
    from irsbeam import ScenarioError, scenario_from_dict

    lines = []
    for case, doc in SCENARIO_CASES.items():
        try:
            scenario_from_dict(doc)
            sha = "loaded"
        except ScenarioError as exc:
            sha = hashlib.sha256(str(exc).encode()).hexdigest()
        lines.append(f"library/scenario/{case} {sha} -")
    return lines


def compare_lines(old: Path, new: Path) -> list[str]:
    lines = []
    for name in sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}):
        a, b = old / name, new / name
        key = name.replace("__", "/")
        if not b.exists():
            lines.append(f"{key} missing")
        elif not a.exists():
            lines.append(f"{key} added")
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"{key} same")
        else:
            (xa, wa, angles), (xb, wb, _) = _numbers(a), _numbers(b)
            if wa != wb or len(xa) != len(xb):
                lines.append(f"{key} layout differs")
            else:
                delta = max((abs(math.remainder(u - v, math.tau) if angle else u - v)
                             if math.isfinite(u - v) else math.inf
                             for u, v, angle in zip(xa, xb, angles)), default=0.0)
                lines.append(f"{key} max_abs_delta {delta!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, help="also copy the artifacts into this directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two --keep directories instead of running the presets")
    args = parser.parse_args(argv)
    if args.compare:
        for directory in args.compare:
            if not directory.is_dir():
                print(f"artifact_digests: --compare: {directory} is not a directory",
                      file=sys.stderr)
                return 2
        lines = compare_lines(*args.compare)
    else:
        if importlib.util.find_spec("irsbeam") is None:
            src = Path(__file__).resolve().parents[1] / "src"
            print(f"artifact_digests: cannot import irsbeam; run with PYTHONPATH=<checkout>/src"
                  f" (this checkout: PYTHONPATH={src})", file=sys.stderr)
            return 2
        if args.keep is not None:
            args.keep.mkdir(parents=True, exist_ok=True)
        lines = digest_lines(args.keep) + library_lines() + csv_lines() + scenario_lines()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
