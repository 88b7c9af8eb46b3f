#!/usr/bin/env python3
"""banditstop benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload demo --seed 42 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.

--trace 0  Set-up is timed in fresh child processes (median of several), then
           units of the workload repeat until --seconds would be exceeded.
           Prints the end-to-end metrics: medians over the units, with times
           scaled to a reference machine speed (see PROBE_REF_S).
--trace 1  One untraced unit, one traced pass (set-up plus one unit), one
           more untraced unit.  Prints the per-layer metrics of the traced
           pass and the tracing overhead.

Every run checks the outputs: invariants on any seed, recorded references on
the default seed, identical output bytes across the run's units.  The last
line of stdout is the result as JSON; the full report (run metadata, every
metric's median, quartiles and sample count, every check) and, with
--trace 1, the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os
import sys

# One process, single-threaded BLAS: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("demo", "long_residual", "rejection", "short_many")
SETUP_REPEATS = 5
# Shared machines drift in speed by tens of percent within a minute, and
# the workloads, the probe below and everything else drift together.  A
# timer runs the probe every PROBE_INTERVAL_S during the timed phase; each
# unit's time, less the probe runs inside it, is scaled by PROBE_REF_S / (the
# mean probe time inside it).  The mean, not the median: speed flips between
# a fast and a slow state within seconds, and a unit's time adds up the work
# done in both.  End-to-end times are therefore seconds at the speed where one
# probe takes PROBE_REF_S; report.json keeps the raw ones.
PROBE_REF_S = 0.03
PROBE_BATCHES = 200
PROBE_INTERVAL_S = 0.3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "batches_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--record-references",
        action="store_true",
        help="run one unit of every workload on the default seed and rewrite references.json",
    )
    args = p.parse_args(argv)
    if args.workload is None and not args.record_references:
        p.error("--workload is required")
    return args


def summarize(values):
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".growth", ".share", ".acceptance_rate")):
        return "ratio"
    return "bytes" if name == "harness.bytes_written" else "count"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "banditstop").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def time_setups(workload: str, seed: int):
    """Seconds from spawning a fresh process to a loaded, validated config
    (and, for `rejection`, the target record), once per child, and the mean
    probe time each child measured right after its set-up."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        ready, probe = proc.stdout.split()[-2:]
        times.append(float(ready) - start)
        probes.append(float(probe))
    return times, probes


def speed_probe() -> float:
    """Seconds for a fixed, package-independent imitation of the batch loop:
    small matrix products, Cholesky solves and 2x2 eigenvalues from Python."""
    import numpy as np
    import scipy.linalg

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    beta = np.array([0.2, -0.1])
    total = np.eye(2)
    acc = 0.0
    for _ in range(PROBE_BATCHES):
        x = rng.uniform(-1.0, 1.0, size=(100, 2))
        y = x @ beta + rng.standard_normal(100)
        arm = x[rng.random(100) < 0.5]
        gram = arm.T @ arm
        if np.linalg.eigvalsh(gram)[0] > 1e-10:
            cho = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
            acc += float(scipy.linalg.cho_solve(cho, arm.T @ y[: arm.shape[0]], check_finite=False)[0])
            total = total + gram
        inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(total, lower=True), np.eye(2))
        acc += float(np.linalg.eigvalsh(0.5 * (inv + inv.T))[-1])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("speed probe produced a non-finite checksum")
    return elapsed


class ProbeTimer:
    """Runs `speed_probe` from SIGALRM every PROBE_INTERVAL_S while entered.

    The handler runs between bytecodes of the main thread, so the workload is
    paused, not contended, while a probe runs.  The timer is re-armed after
    each probe, so a slow probe never queues another.
    """

    def __init__(self):
        self.times = []

    def _fire(self, signum, frame):
        self.times.append(speed_probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_unit(wl):
    wl.reset()
    start = time.perf_counter()
    raw = wl.unit()
    wall = time.perf_counter() - start
    return wall, raw, wl.result(raw)


class Checks:
    """Named pass/fail checks; every failure counts against the run."""

    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail=None):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(1 for c in self.items if not c["ok"])


def check_units(workloads_mod, name: str, seed: int, results, checks: Checks):
    first = results[0]
    for key in first.invariants:
        ok = all(r.invariants.get(key, False) for r in results)
        checks.add(f"invariant.{key}", ok)
    checks.add("identical_outputs_across_units", len({r.digest for r in results}) == 1)
    if seed == workloads_mod.DEFAULT_SEED:
        bad = workloads_mod.reference_mismatches(name, first.reference_view)
        checks.add("reference", not bad, bad or None)


def traced_run(args, workloads, tracing, wl, run_dir: Path, checks: Checks, report: dict):
    """Untraced unit, traced pass (set-up and one unit), untraced unit."""
    untraced = [run_unit(wl)]
    tracer = tracing.Tracer()
    with tracer.installed():
        pass_start = time.perf_counter()
        traced = workloads.make(args.workload, args.seed, run_dir / "traced")
        if isinstance(traced, workloads.Forward):
            traced.cli_main = tracer.wrap("cli.main", traced.cli_main)
        traced_wall, _, traced_result = run_unit(traced)
        pass_end = time.perf_counter()
    untraced.append(run_unit(wl))
    layer = tracing.layer_metrics(tracer.spans, tracer.counts, pass_start, pass_end)
    layer["trace.overhead_s"] = traced_wall - statistics.median(u[0] for u in untraced)
    checks.add("traced_equals_untraced", traced_result.digest == untraced[0][2].digest)
    with gzip.open(run_dir / "spans.jsonl.gz", "wt") as fh:
        for s in sorted(tracer.spans):
            fh.write(json.dumps(s._asdict()) + "\n")
    report["traced_pass_s"] = pass_end - pass_start
    report["summary"] = {k: summarize([v]) for k, v in layer.items()}
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return metrics, untraced, [u[2] for u in untraced] + [traced_result]


def timed_run(args, wl, setup_raw, setup_probes, report: dict):
    """Units until --seconds would be exceeded, under the probe timer."""
    units = []
    timed = []  # (wall, probe times inside)
    start = time.perf_counter()
    with ProbeTimer() as probes:
        while True:
            before = len(probes.times)
            units.append(run_unit(wl))
            inside = probes.times[before:]
            timed.append((units[-1][0], inside))
            if time.perf_counter() - start + statistics.median(u[0] for u in units) > args.seconds:
                break
    overall = statistics.mean(probes.times)
    walls = [(w - sum(p)) * PROBE_REF_S / (statistics.mean(p) if p else overall) for w, p in timed]
    samples = {
        "setup_s": [t * PROBE_REF_S / p for t, p in zip(setup_raw, setup_probes)],
        "wall_s": walls,
        "reps_per_s": [u[2].reps / w for u, w in zip(units, walls)],
        "batches_per_s": [u[2].batches / w for u, w in zip(units, walls)],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    if args.workload == "rejection":
        samples["attempts_per_s"] = samples["reps_per_s"]
        samples["draws_per_s"] = [u[2].reference_view["kept"] / w for u, w in zip(units, walls)]
    report["measured"] = {
        "setup_s": setup_raw,
        "setup_probes_s": setup_probes,
        "wall_s": [u[0] for u in units],
        "probes_s_inside_units": [p for _, p in timed],
    }
    report["samples"] = samples
    report["summary"] = {k: summarize(v) for k, v in samples.items()}
    metrics = {
        k: {"value": report["summary"][k]["median"], "unit": unit}
        for k, unit in END_TO_END_UNITS.items()
    }
    return metrics, units, [u[2] for u in units]


def run(args) -> int:
    import tracing
    import workloads

    if args.setup_child:
        workloads.make(args.workload, args.seed, OUT / f"{args.workload}-setup-child")
        ready = time.monotonic()
        print(ready, statistics.mean(speed_probe() for _ in range(5)))
        return 0
    if args.record_references:
        return record_references(workloads)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    report = {"workload": args.workload, "trace": args.trace, "metadata": metadata(args.seed)}
    checks = Checks()
    if args.trace:
        wl = workloads.make(args.workload, args.seed, run_dir / "work")
        metrics, units, results = traced_run(args, workloads, tracing, wl, run_dir, checks, report)
    else:
        setup_raw, setup_probes = time_setups(args.workload, args.seed)
        wl = workloads.make(args.workload, args.seed, run_dir / "work")
        metrics, units, results = timed_run(args, wl, setup_raw, setup_probes, report)

    check_units(workloads, args.workload, args.seed, results, checks)
    if args.workload == "rejection":
        report["expected_failures"] = [wl.defect_check(units[0][1])]

    attempted = sum(r.reps for r in results)
    errors = sum(r.errors for r in results)
    failed = errors + checks.failed
    report.update(
        checks=checks.items,
        replication_errors=errors,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        units=len(results),
        metrics=metrics,
    )
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for xf in report.get("expected_failures", ()):
        if xf["status"] == "xpass":
            print(f"note: expected failure {xf['name']} did not reproduce", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_references(workloads) -> int:
    refs = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.make(name, workloads.DEFAULT_SEED, OUT / f"{name}-references")
        _wall, _raw, result = run_unit(wl)
        refs[name] = result.reference_view
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "banditstop" / "__init__.py").is_file():
        print(f"perfbench: no banditstop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
