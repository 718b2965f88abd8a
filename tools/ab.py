"""Interleaved A/B timing of two source trees in one process.

    python tools/ab.py OLD_TREE NEW_TREE --workload presets|squint-fan --seed N --seconds S

Each tree is a directory holding ``src/irsbeam``: a checkout, or
``git archive <commit> src/irsbeam`` unpacked. Each tree's package is loaded
under its own module name, and each workload is built once per tree through
the bench's own ``workloads.build``, from the ``bench/`` beside this script.
Every op then runs once per tree and must pass its check, with the op's result
digest compared between the trees. The timed passes alternate the two trees op
by op, and flip which goes first on every pass, so that a slow or fast spell of
the machine, or of the process, falls on both. They run until at least
``--passes`` passes and ``--seconds`` of op time. The CLI's stdout is muted.

It prints one line per op, then one for the whole pass, and last a JSON object
with the same numbers. A line gives the op's median old and new time, the
median of the per-pair ratios new/old with their quartiles, and the pairs in
which new was faster. The whole-pass ratio is that of each pass's summed op
times, so it weighs every op by its time. ``same`` is whether both trees gave
the same result digest in the checked run. Compare a ratio only with the spread
of an A/A run (the same tree twice) of the same workload: one process cannot
tell smaller differences apart. Set-up time and allocation peaks need a fresh
interpreter per tree and stay with ``bench/run.py``.

``--op KEY`` (repeatable) limits the run to the named ops.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402,F401  pins the BLAS and OpenMP pools to one thread before numpy loads
import workloads  # noqa: E402

import numpy as np  # noqa: E402


def load_tree(tree: Path, name: str):
    """The package ``tree/src/irsbeam``, imported as module ``name``."""
    init = tree / "src" / "irsbeam" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab: no irsbeam package under {tree}/src")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _spread(old, new) -> dict:
    """The median old and new time, and the quartiles of new/old over the pairs."""
    ratios = np.divide(new, old)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"old_s": float(np.median(old)), "new_s": float(np.median(new)),
            "median": float(median), "q1": float(q1), "q3": float(q3),
            "won": int((ratios < 1).sum()), "pairs": int(ratios.size)}


def compare(old_tree, new_tree, workload: str, seed: int, seconds: float, passes: int = 2,
            keys=None) -> dict:
    """The report of an interleaved run of ``workload`` on the two trees."""
    with tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):
        sides = []
        for tag, tree in (("old", old_tree), ("new", new_tree)):
            ib = load_tree(Path(tree), f"irsbeam_ab_{tag}")
            (Path(work) / tag).mkdir()
            ops = workloads.build(ib, workload, seed, Path(tree), Path(work) / tag).ops
            sides.append([op for op in ops if keys is None or op.key in keys])
        names = [op.key for op in sides[0]]
        if not names or names != [op.key for op in sides[1]]:
            raise SystemExit(f"ab: the trees give different or no ops: {names}")
        digests = [[], []]
        for ops, digest in zip(sides, digests):
            for op in ops:
                raw = op.call()
                op.check(raw)
                digest.append(op.digest(raw))
        times = np.zeros((0, len(names), 2))
        while len(times) < passes or times.sum() < seconds:
            row = np.empty((len(names), 2))
            for i in range(len(names)):
                for side in (0, 1) if len(times) % 2 == 0 else (1, 0):
                    start = perf_counter()
                    raw = sides[side][i].call()
                    row[i, side] = perf_counter() - start
                    del raw
            times = np.concatenate((times, row[None]))
    report = {"workload": workload, "seed": seed, "passes": len(times), "ops": [
        {"key": key, "same": digests[0][i] == digests[1][i]} | _spread(*times[:, i].T)
        for i, key in enumerate(names)]}
    report["total"] = _spread(*times.sum(axis=1).T)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="interleaved A/B timing of two source trees")
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workload", required=True, choices=("presets", "squint-fan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time of both trees")
    parser.add_argument("--passes", type=int, default=2, help="the fewest passes")
    parser.add_argument("--op", action="append", dest="keys", help="time only this op")
    args = parser.parse_args(argv)
    report = compare(args.old_tree, args.new_tree, args.workload, args.seed, args.seconds,
                     max(1, args.passes), args.keys)
    print(f"{'op':34} {'old ms':>9} {'new ms':>9} {'new/old':>8} {'[q1, q3]':>17} {'won':>7}")
    for key, s in [(op["key"] + ("" if op["same"] else " (results differ)"), op)
                   for op in report["ops"]] + [("whole pass, by op time", report["total"])]:
        print(f"{key:34} {1e3 * s['old_s']:9.3f} {1e3 * s['new_s']:9.3f} {s['median']:8.4f} "
              f"[{s['q1']:.4f}, {s['q3']:.4f}] {s['won']:>3}/{s['pairs']:<3}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
