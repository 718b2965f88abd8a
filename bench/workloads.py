"""The benchmark's workloads: seeded scenario generators and op lists.

A workload is built once per run in set-up. ``build(ib, name, seed, root, work)``
writes its scenario files under ``work`` and returns a :class:`Workload`
whose ``ops`` make up one pass. Every op is a closed-loop call into irsbeam
that yields one result; ``check`` verifies that result against the
convention-free invariants in ``checks.py``. Ops reach irsbeam through module
attributes at call time, so the traced run can wrap them.

Op cost depends only on sizes, which the generators fix; the seed draws the
values that do not change cost (carrier, bandwidth, direction, geometry,
threshold) and the op order. That keeps timings and the traced counts
comparable between seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks

WORKLOADS = ("presets", "param-study", "squint-fan")

# the figure subcommand each shipped preset reproduces
PRESET_SUBCOMMANDS = {
    "fig2a": "far-angle-sweep",
    "fig2c": "far-angle-sweep",
    "fig3": "far-subcarrier-sweep",
    "fig4": "far-subcarrier-sweep",
    "fig5": "far-angle-sweep",
    "fig6": "near-heatmap",
    "fig7": "near-subcarrier-sweep",
    "fig8": "near-heatmap",
}

CARRIERS_HZ = (100e9, 140e9, 200e9, 300e9)
PARAM_R = (8, 16, 32, 64, 128, 256, 512, 1024)
PARAM_M = (16, 32, 64, 128, 256, 512, 1024)
DESIGNS = ("phases_only", "dam")

# squint-fan sizes. Far-kernel temporaries per row are about FAR_ROW_BYTES
# per (direction, element): 2001 x 64 is 5 MB and fits the last-level cache
# of any current CPU; 4001 x 1024 is 164 MB and exceeds it.
FAN_IN_CACHE = dict(R=64, M=16, directions=2001, count=6)
FAN_BEYOND_CACHE = dict(R=1024, M=2, directions=4001, count=4)
FAR_ROW_BYTES = 40
FAN_HEATMAP_R = (16, 64, 128)
FAN_HEATMAP_HALF_SPAN_M = 0.25
FAN_HEATMAP_STEP_M = 0.005


@dataclass(frozen=True)
class Op:
    """One closed-loop call. ``call`` is timed; ``digest`` and ``check`` run
    on its return value outside the timed region."""

    key: str
    call: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], None]


@dataclass
class Workload:
    name: str
    scenario_files: list[Path]
    ops: list[Op] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _write_scenario(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _random_band(rng: random.Random) -> dict:
    f_c = rng.choice(CARRIERS_HZ)
    return {"f_c": f_c, "B": f_c * rng.uniform(0.005, 0.15)}


def _random_near_geometry(rng: random.Random) -> dict:
    # The IRS row sits at y >= 0.5 m and the BS and user at y <= -0.3 m, so
    # neither (nor a heatmap cell within 0.25 m of the user) can coincide
    # with an element.
    return {
        "irs_origin": [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)],
        "bs": [rng.uniform(-3.0, -1.0), rng.uniform(-2.0, -0.3)],
        "user": [rng.uniform(1.0, 3.0), rng.uniform(-2.0, -0.3)],
    }


def _on_grid(rng: random.Random, start: float, step: float, lo: float, hi: float) -> float:
    """A direction inside [lo, hi] that is exactly a point of the sweep grid."""
    k = rng.randint(math.ceil((lo - start) / step), math.floor((hi - start) / step))
    return start + step * k


# ---- generators ----------------------------------------------------------

def generate_param_study(seed: int, out_dir: Path) -> list[Path]:
    """One scenario per (regime, design, R, M) cell of the full factorial:
    2 x 2 x 8 x 7 = 224 files, in a seeded order with seeded values."""
    rng = random.Random(f"param-study:{seed}")
    cells = list(itertools.product(("far", "near"), DESIGNS, PARAM_R, PARAM_M))
    rng.shuffle(cells)
    paths = []
    for i, (regime, design, n_elements, m) in enumerate(cells):
        doc = _random_band(rng) | {
            "M": m, "R": n_elements, "design": design,
            "threshold": round(rng.uniform(0.2, 0.8), 3), "format": "json",
        }
        if regime == "near":
            doc |= _random_near_geometry(rng)
        elif rng.random() < 0.5:
            doc["nu0"] = rng.uniform(-1.9, 1.9)
        else:
            doc["chi"], doc["psi"] = rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)
        paths.append(_write_scenario(out_dir / f"ps-{i:03d}.json", doc))
    return paths


def generate_squint_fan(seed: int, out_dir: Path) -> list[Path]:
    """Far all-subcarrier angle sweeps at an in-cache and a beyond-cache
    size, and near heatmaps at three subcarriers, three R and both designs."""
    rng = random.Random(f"squint-fan:{seed}")
    paths = []
    for tag, size in (("in-cache", FAN_IN_CACHE), ("beyond-cache", FAN_BEYOND_CACHE)):
        step = 2.0 / (size["directions"] - 1)
        for i in range(size["count"]):
            doc = _random_band(rng) | {
                "M": size["M"], "R": size["R"], "design": DESIGNS[i % 2],
                "nu0": _on_grid(rng, -1.0, step, -0.9, 0.9),
                "sweep": {"nu_start": -1.0, "nu_stop": 1.0, "nu_step": step,
                          "subcarriers": list(range(1, size["M"] + 1))},
                "threshold": round(rng.uniform(0.2, 0.8), 3),
            }
            paths.append(_write_scenario(out_dir / f"sf-far-{tag}-{i}.json", doc))
    for n_elements, design, sub in itertools.product(FAN_HEATMAP_R, DESIGNS, (1, 0, -1)):
        doc = _random_band(rng) | _random_near_geometry(rng) | {
            "M": 128, "R": n_elements, "design": design,
            "sweep": {"subcarrier": sub, "half_span_m": FAN_HEATMAP_HALF_SPAN_M,
                      "step_m": FAN_HEATMAP_STEP_M},
            "threshold": round(rng.uniform(0.2, 0.8), 3),
        }
        paths.append(_write_scenario(out_dir / f"sf-near-R{n_elements}-{design}-{sub}.json", doc))
    return paths


# ---- ops ---------------------------------------------------------------------

def _cli_op(ib, key, argv, artifact: Path, check_artifact) -> Op:
    """An in-process ``irsbeam`` CLI call; the result is its exit code and artifact."""

    def check(code):
        checks.require(code == 0, f"exit code {code}")
        check_artifact(artifact)

    return Op(
        key=key,
        call=lambda: ib.cli.main(argv),
        digest=lambda code: _sha(code, artifact.read_bytes()),
        check=check,
    )


def _gain_map_cli_ops(ib, key, subcommand, scenario: Path, scn: dict, work: Path) -> list[Op]:
    """The figure subcommand in CSV and JSON, then the CSV read back."""
    stem = work / key.replace("/", "-")
    csv_path, json_path = stem.with_suffix(".csv"), stem.with_suffix(".json")

    def check_csv(path):
        checks.check_gain_map_artifact(subcommand, *checks.parse_gain_map_csv(path), scn)

    def check_json(path):
        checks.check_gain_map_artifact(subcommand, *checks.parse_gain_map_json(path), scn)

    base = [subcommand, "--scenario", str(scenario), "--out"]
    return [
        _cli_op(ib, f"{key}/csv", base + [str(csv_path), "--format", "csv"], csv_path, check_csv),
        _cli_op(ib, f"{key}/json", base + [str(json_path), "--format", "json"], json_path, check_json),
        Op(
            key=f"{key}/read",
            call=lambda: ib.cli.read_gain_map_csv(csv_path),
            digest=lambda res: _sha(res[0], res[1].tobytes()),
            check=lambda res: checks.check_roundtrip(res[0], res[1], json_path),
        ),
    ]


def _metrics_cli_op(ib, key, scenario: Path, scn: dict, work: Path, out_format: str) -> Op:
    out = work / f"{key.replace('/', '-')}.{out_format}"
    threshold = scn.get("threshold", checks.DEFAULT_THRESHOLD)
    argv = ["metrics", "--scenario", str(scenario), "--out", str(out), "--format", out_format]
    return _cli_op(
        ib, key, argv, out,
        lambda path: checks.check_metrics_artifact(path, out_format, scn, threshold),
    )


def _reduced(gm, metrics, argmax) -> dict:
    return {"values": gm.values, "metrics": metrics, "argmax": argmax, "axes": gm.axes}


def _reduced_digest(res) -> str:
    return _sha(res["values"].tobytes(), res["metrics"], res["argmax"],
                *(ax.points.tobytes() for ax in res["axes"]))


def _angle_sweep_op(ib, key, scenario, scn: dict) -> Op:
    sweep = scenario.sweep

    def call():
        array, cfg, nu0 = scenario.make_array(), scenario.config, scenario.direction()
        if scenario.design == "dam":
            design = ib.far_dam_design(array, cfg, nu0)
            phases, delays = design.phases, design.delays
        else:
            phases, delays = ib.far_optimal_phases(array, nu0), None
        gm = ib.angle_sweep(array, cfg, phases, delays, subcarriers=sweep.subcarriers,
                            nu_grid=(sweep.nu_start, sweep.nu_stop, sweep.nu_step))
        return _reduced(gm, ib.squint_metrics(gm, scenario.threshold), gm.argmax_cell())

    def check(res):
        rows, nu = res["axes"][0].points, res["axes"][1].points
        checks.check_angle_sweep(rows, nu, res["values"], scn)
        checks.check_reductions(res["values"], res["metrics"], res["argmax"], scenario.threshold)

    return Op(key=key, call=call, digest=_reduced_digest, check=check)


def _heatmap_op(ib, key, scenario, scn: dict) -> Op:
    sweep = scenario.sweep

    def call():
        gm = ib.location_heatmap(scenario.make_geometry(), scenario.config,
                                 subcarrier=sweep.subcarrier, use_dam=scenario.design == "dam",
                                 half_span_m=sweep.half_span_m, step_m=sweep.step_m)
        return _reduced(gm, ib.squint_metrics(gm, scenario.threshold), gm.argmax_cell())

    def check(res):
        xs, ys = res["axes"][0].points, res["axes"][1].points
        checks.check_heatmap(xs, ys, res["values"], scn, sweep.subcarrier)
        checks.check_reductions(res["values"], res["metrics"], res["argmax"], scenario.threshold)

    return Op(key=key, call=call, digest=_reduced_digest, check=check)


# ---- workloads ---------------------------------------------------------------

def _presets(ib, seed: int, root: Path, inputs: Path, work: Path) -> Workload:
    """The 8 shipped presets through the CLI: figure subcommand and metrics,
    in CSV and JSON, with every gain-map CSV read back."""
    names = sorted(PRESET_SUBCOMMANDS)
    random.Random(f"presets:{seed}").shuffle(names)
    wl = Workload("presets", [root / "src" / "irsbeam" / "presets" / f"{n}.json" for n in names])
    for name, path in zip(names, wl.scenario_files):
        scn = json.loads(path.read_text())
        wl.ops += _gain_map_cli_ops(ib, name, PRESET_SUBCOMMANDS[name], path, scn, work)
        for fmt in ("csv", "json"):
            wl.ops.append(_metrics_cli_op(ib, f"{name}/metrics/{fmt}", path, scn, work, fmt))
    return wl


def _param_study(ib, seed: int, root: Path, inputs: Path, work: Path) -> Workload:
    """Hundreds of small generated scenarios through ``metrics`` with JSON output."""
    wl = Workload("param-study", generate_param_study(seed, inputs))
    for path in wl.scenario_files:
        scn = json.loads(path.read_text())
        wl.ops.append(_metrics_cli_op(ib, path.stem, path, scn, work, "json"))
    wl.sizes = {"R": list(PARAM_R), "M": list(PARAM_M), "scenarios": len(wl.scenario_files)}
    return wl


def _squint_fan(ib, seed: int, root: Path, inputs: Path, work: Path) -> Workload:
    """Large in-memory grids through the library, reduced to metrics and an argmax."""
    wl = Workload("squint-fan", generate_squint_fan(seed, inputs))
    for path in wl.scenario_files:
        scn = json.loads(path.read_text())
        scenario = ib.load_scenario(path)
        build = _angle_sweep_op if scenario.regime == "far" else _heatmap_op
        wl.ops.append(build(ib, path.stem, scenario, scn))
    wl.sizes = {
        f"far_{tag}": {"R": s["R"], "M": s["M"], "directions": s["directions"],
                       "row_temporaries_mb": s["directions"] * s["R"] * FAR_ROW_BYTES / 1e6}
        for tag, s in (("in_cache", FAN_IN_CACHE), ("beyond_cache", FAN_BEYOND_CACHE))
    } | {"heatmap_R": list(FAN_HEATMAP_R),
         "heatmap_cells": round(2 * FAN_HEATMAP_HALF_SPAN_M / FAN_HEATMAP_STEP_M + 1) ** 2}
    return wl


_MAKERS = {"presets": _presets, "param-study": _param_study, "squint-fan": _squint_fan}


def build(ib, name: str, seed: int, root: Path, work: Path) -> Workload:
    """Generate the inputs of workload ``name`` under ``work/inputs`` and
    return its ops, which write their artifacts under ``work/out``."""
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir()
    out.mkdir()
    return _MAKERS[name](ib, seed, root, inputs, out)


def digest_files(paths) -> str:
    """One hash over the bytes of every input file, for the provenance record."""
    return _sha(*(Path(p).read_bytes() for p in paths))
