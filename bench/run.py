"""irsbeam benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload presets --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; irsbeam is imported from ``src/``.
One process, one caller, closed loop: each op starts when the previous one
has returned. A run

1. generates the workload's inputs from the seed (``workloads.py``);
2. runs one untimed pass that checks every op's result (``checks.py``);
3. with ``--trace 0``, runs whole timed passes until the op time reaches
   ``--seconds`` (every result must match a checked one), each after one
   timed fresh-interpreter set-up (import irsbeam and load the scenario
   files), then one pass under tracemalloc for each op's memory peak;
   with ``--trace 1``, it alternates plain and traced passes instead and
   reports per-layer metrics per pass (``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count, and the provenance of the run.
See bench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, in this process and in the
# set-up children, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7  # the fewest set-ups a run times
MIN_OPS = 100  # the fewest timed ops a run makes, however short --seconds is
# glibc's _SC_LEVEL3_CACHE_SIZE, which the os module does not name
SC_LEVEL3_CACHE_SIZE = 194

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import irsbeam
for path in sys.argv[2:]:
    irsbeam.load_scenario(path)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="irsbeam benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


# ---- measurement ---------------------------------------------------------

def verify(op, raw, verified: dict, errors: list) -> bool:
    """Check a result unless one with the same digest already passed."""
    try:
        digest = op.digest(raw)
        seen = verified.setdefault(op.key, set())
        if digest not in seen:
            op.check(raw)
            seen.add(digest)
        return True
    except Exception as exc:  # a result that cannot be checked is a failed op
        errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
        return False


def run_pass(ops, verified: dict, errors: list, tracer=None, peaks=None) -> list:
    """One closed-loop pass; returns (seconds, ok) per op. With ``peaks``,
    tracemalloc must be on, and each op's allocation peak above its starting
    level is appended in MB."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        if peaks is not None:
            gc.collect()  # leftover cycles would otherwise be freed inside some ops
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # an op that raises is a failed op
            out.append((perf_counter() - start, False))
            errors.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            continue
        elapsed = perf_counter() - start
        if peaks is not None:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        out.append((elapsed, verify(op, raw, verified, errors)))
        del raw
    return out


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and the highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def peak_alloc_pass(ops, verified: dict, errors: list) -> list:
    """A pass under tracemalloc, which slows it down: each op's allocation
    peak above its starting level, in MB."""
    peaks = []
    tracemalloc.start()
    try:
        run_pass(ops, verified, errors, peaks=peaks)
    finally:
        tracemalloc.stop()
    return peaks


def setup_time(files) -> float:
    """Seconds for a fresh interpreter to import irsbeam and load ``files``."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, files)]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if child.returncode != 0:
        raise RuntimeError(f"set-up child failed: {child.stderr.strip()[-2000:]}")
    return float(child.stdout)


def end_to_end(wl, seconds, verified, errors) -> tuple[dict, dict, list]:
    """Whole timed passes until the op time reaches ``seconds``, each after
    one set-up, then the memory pass, once every cache is warm. Spreading
    the set-ups over the run keeps their median from resting on a few
    seconds of the machine's state.

    Each op's time is its trimmed mean over the passes. On a shared machine
    the same code runs in a slow and a fast state, up to 1.7x apart, in
    spells of seconds to minutes. A per-op best or median jumps between the
    two states when the share of fast time in a run crosses 0 or 1/2; the
    mean moves in proportion to that share, and trimming drops the odd
    stall. Percentiles and throughput are taken over these per-op times.
    """
    setup, passes = [], []
    while len(passes) * len(wl.ops) < MIN_OPS or sum(t for p in passes for t, _ in p) < seconds:
        setup.append(setup_time(wl.scenario_files))
        passes.append(run_pass(wl.ops, verified, errors))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time(wl.scenario_files))
    peaks = peak_alloc_pass(wl.ops, verified, errors)
    per_op = [trimmed_mean([p[i][0] for p in passes]) for i in range(len(wl.ops))]
    ops = len(passes) * len(wl.ops)
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(per_op),
        "op_s_p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "ops_per_s": len(per_op) / sum(per_op),
        "peak_alloc_mb": max(peaks) if peaks else 0.0,
    }
    samples = {"setup_s": f"{len(setup)} set-ups",
               "peak_alloc_mb": f"{len(peaks)} ops"} | dict.fromkeys(
        ("op_s_p50", "op_s_p90", "ops_per_s"),
        f"{ops} ops: trimmed mean of {len(passes)} passes for each of {len(wl.ops)} ops")
    return values, samples, [r for p in passes for r in p]


def per_layer(ib, wl, seconds, verified, errors, tracer) -> tuple[dict, dict, list]:
    """Alternate plain and traced passes; per-layer metrics are per traced pass."""
    results, plain, traced, passes = [], 0.0, 0.0, 0
    while passes == 0 or plain + traced < seconds:
        res = run_pass(wl.ops, verified, errors)
        plain += sum(t for t, _ in res)
        results += res
        tracer.install(ib)
        try:
            res = run_pass(wl.ops, verified, errors, tracer)
        finally:
            tracer.uninstall()
        traced += sum(t for t, _ in res)
        results += res
        passes += 1
    values = tracing.layer_metrics(tracer.spans, passes)
    values["trace_overhead_frac"] = traced / plain - 1.0
    samples = dict.fromkeys(values, f"{passes} traced passes")
    return values, samples, results


# ---- provenance ------------------------------------------------------------

def git_sha(root: Path):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(ib, wl, args) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    try:
        llc = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        llc = None
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "src_sha256": workloads.digest_files(sources),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "inputs_sha256": workloads.digest_files(wl.scenario_files),
        "irsbeam": getattr(ib, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "llc_bytes": llc,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "sizes": wl.sizes,
    }


# ---- main --------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "irsbeam" / "__init__.py").is_file():
        print(f"bench: no irsbeam sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import irsbeam

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    verified, errors = {}, []
    tracer = tracing.Tracer()
    try:
        wl = workloads.build(irsbeam, args.workload, args.seed, ROOT, work)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            checked = run_pass(wl.ops, verified, errors)
            if args.trace:
                values, samples, results = per_layer(irsbeam, wl, args.seconds, verified, errors, tracer)
            else:
                values, samples, results = end_to_end(wl, args.seconds, verified, errors)
        prov = provenance(irsbeam, wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failed = sum(not ok for _, ok in results)
    prov["absent"] = sorted(tracer.absent)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"# {wl.name} {name} = {metric['value']:.6g} {metric['unit']} (n = {samples[name]})")
    print(f"# {wl.name} fail_frac = {failed / len(results):.6g} (n = {len(results)} ops)")
    for line in dict.fromkeys(errors):
        print(f"bench: {line}", file=sys.stderr)
    correct = not errors and all(ok for _, ok in checked)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
