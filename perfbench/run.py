#!/usr/bin/env python3
"""Benchmark of the ``cubical`` CLI on seeded, closed-loop job lists.

    python3 perfbench/run.py --workload cat0_check --seed 1 --seconds 30 --trace 0

Run from the repository root. One client in one process with one thread
generates the workload's input files from the seed, then calls
``cubical.cli.main(argv)`` in-process for every job, one after the other,
capturing stdout. Each verdict is checked against an expectation known
independently of the code under test (see check.py). The job list is
repeated a whole number of times: as many as fit in ``--seconds`` at the
first pass's pace, and at least once. Every pass must produce the same
output, byte for byte.

Times are reported in reference seconds. A fixed pure-Python calibration
loop runs between jobs; each job's wall time is multiplied by
CALIBRATION_REF_S over the median loop time of the CALIBRATION_WINDOW
loops on either side of the job, and each set-up time by
CALIBRATION_REF_S over the loop's time right after it. The
shared host this was written on drifts by up to 20% in speed over seconds,
which moves program and loop alike; the ratio cancels that drift while a
change in the program's own speed passes through unchanged. Wall-clock
times are printed as raw_* and kept in the result file.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one untraced pass, then traced passes, and reports
the per-layer metrics of spans.py plus the tracing overhead. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Spans and a per-job result table are written under perfbench/_out/.
The script re-executes itself with PYTHONHASHSEED=0 so that set iteration
order, and every count that depends on it, repeats between runs.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes set the iteration order of the program's sets, and with it
    # where its early exits fall (hyperplanes_cross, for one); a fixed seed
    # makes every per-layer count repeat between runs
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 6
MIN_BEYOND = 10
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW = 3

E2E_UNITS = {
    "jobs_per_s": "jobs/s", "job_p50_s": "s", "job_p90_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "output_cells": "count", "output_bytes": "count",
}


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile of the samples, or None unless at least
    ``min_beyond`` samples lie strictly above it."""
    xs = sorted(samples)
    if not xs:
        return None
    value = xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]
    beyond = len(xs) - sum(1 for x in xs if x <= value)
    return value if beyond >= min_beyond else None


def calibrate() -> float:
    """Best of three timings of a fixed loop of the work the program's own
    loops are made of: tuple keys, dict updates, frozensets, set
    intersection and a keyed sort. The collector is off, so the timing
    does not depend on how many objects the program keeps alive."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            d: dict = {}
            s = set()
            for i in range(2000):
                k = (i % 211, i % 199, i % 7)
                d[k] = d.get(k, 0) + 1
                s.add(frozenset(k))
            sorted(d.items(), key=lambda kv: (kv[0][2], kv[0][0]))
            len(s & set(list(s)[:250]))
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the job list through ``cli_main`` and checks every verdict."""

    def __init__(self, jobs, cli_main):
        self.jobs = jobs
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, tracer=None) -> list[dict]:
        """Run every job once, with the calibration loop before the first
        job and after each one. A job's time is scaled by the median of the
        CALIBRATION_WINDOW loop timings on either side of it."""
        calibrations = [calibrate()]
        rows = []
        for job in self.jobs:
            rows.append(self._run_job(job, tracer))
            calibrations.append(calibrate())
        for i, row in enumerate(rows):
            near = calibrations[max(0, i + 1 - CALIBRATION_WINDOW):
                                i + 1 + CALIBRATION_WINDOW]
            scale = CALIBRATION_REF_S / statistics.median(near)
            row["ref_s"] = row["raw_s"] * scale
            if tracer is not None:
                tracer.add(row.pop("layer_s"), scale)
        return rows

    def _run_job(self, job, tracer) -> dict:
        argv = job["argv"]
        gc.collect()
        buf = io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    rc = tracer.run_job(job["id"],
                                        lambda: self.cli_main(argv))
        except (Exception, SystemExit) as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        text = buf.getvalue()
        cells = 0
        if error is None:
            try:
                cells = check.check(job, rc, text)
            except Exception as exc:  # any malformed verdict is a failure
                error = f"check failed: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"job {job['id']} {' '.join(argv[:2])}: {error}")
        row = {"id": job["id"], "raw_s": seconds, "rc": rc,
               "bytes": len(text.encode()), "cells": cells}
        if tracer is not None:
            row["layer_s"] = tracer.job_times
        return row


def passes_for(seconds: float, first_pass: float) -> int:
    """Whole passes that fit in ``seconds`` at the first pass's pace,
    overrunning by at most a quarter pass."""
    return max(1, int(seconds / first_pass + 0.25))


def outputs(rows):
    return [(r["id"], r["rc"], r["bytes"], r["cells"]) for r in rows]


def rates(rows_by_pass, key) -> dict:
    samples = [r[key] for rows in rows_by_pass for r in rows]
    return {"jobs_per_s": len(samples) / sum(samples),
            "job_p50_s": percentile(samples, 50),
            "job_p90_s": percentile(samples, 90)}


def run_probes(args) -> tuple[list[float], list[float], list[str]]:
    """Set-up times (reference and raw) and input digests of fresh
    processes, each doing the same import and input generation as a run."""
    ref, raw, digests = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        ref.append(probe["setup_s"])
        raw.append(probe["raw_setup_s"])
        digests.append(probe["digest"])
    return ref, raw, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cubical" / "cli.py").is_file():
        print(f"error: no cubical sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cubical
    import cubical.cli

    if Path(cubical.__file__).resolve().parent != SRC / "cubical":
        print(f"error: imported cubical from {cubical.__file__}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        jobs = gen.build(args.workload, args.seed, str(workdir))
        files = digest(workdir)
        raw_setup = time.perf_counter() - _T0
        setup = raw_setup * CALIBRATION_REF_S / calibrate()
        if args.probe_setup:
            print(json.dumps({"setup_s": setup, "raw_setup_s": raw_setup,
                              "digest": files}))
            return 0
        return measure(args, jobs, files, (setup, raw_setup),
                       cubical.cli.main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, jobs, files, setup, cli_main) -> int:
    runner = Runner(jobs, cli_main)
    problems: list[str] = []
    start = time.perf_counter()
    rows_by_pass = [runner.run_pass()]
    first_pass = time.perf_counter() - start
    total = passes_for(args.seconds, first_pass)
    tracers = []
    if args.trace:
        for _ in range(max(total, 2) - 1):
            tracer = spans.Tracer()
            tracer.install()
            try:
                rows_by_pass.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
    else:
        for _ in range(total - 1):
            rows_by_pass.append(runner.run_pass())
    if any(outputs(rows) != outputs(rows_by_pass[0]) for rows in rows_by_pass):
        problems.append("passes produced different outputs")

    probe_ref, probe_raw, probe_digests = run_probes(args)
    if any(d != files for d in probe_digests):
        problems.append("the same seed generated different input files")

    raw = {"raw_" + k: v for k, v in rates(rows_by_pass, "raw_s").items()}
    raw["raw_setup_s"] = statistics.median([setup[1]] + probe_raw)
    if args.trace:
        metrics, units = layer_metrics(rows_by_pass, tracers, problems)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-s{args.seed}.jsonl", "w") as fh:
            for tracer in tracers:
                tracer.write_spans(fh)
    else:
        metrics = rates(rows_by_pass, "ref_s")
        metrics["setup_s"] = statistics.median([setup[0]] + probe_ref)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics["ok_ratio"] = (
            (runner.attempted - runner.failed) / runner.attempted)
        metrics["output_cells"] = sum(r["cells"] for r in rows_by_pass[0])
        metrics["output_bytes"] = sum(r["bytes"] for r in rows_by_pass[0])
        units = E2E_UNITS
    missing = [k for k, v in metrics.items() if v is None]
    for k in missing:
        problems.append(f"no {k}: fewer than {MIN_BEYOND} samples beyond it")
        metrics[k] = 0.0

    write_results(args, rows_by_pass, metrics, raw, runner, problems)
    for line in runner.errors + problems:
        print(f"FAIL {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{len(rows_by_pass)} passes, first pass {first_pass:.2f} s")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    for name in sorted(raw):
        print(f"  {name:34s} {raw[name]:>16.6g} wall clock")
    correct = runner.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(rows_by_pass, tracers, problems):
    """Per-pass layer times and counts over the traced passes, plus the
    traced and untraced job rates. Counts must repeat in every pass."""
    counts = [t.counts for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    metrics, units = {}, {}
    for name in spans.TIME_METRICS:
        metrics[name] = sum(t.times[name] for t in tracers) / len(tracers)
        units[name] = "s"
    for name in spans.COUNT_METRICS:
        metrics[name] = counts[0][name]
        units[name] = "count"
    untraced = rates(rows_by_pass[:1], "ref_s")["jobs_per_s"]
    traced = rates(rows_by_pass[1:], "ref_s")["jobs_per_s"]
    metrics["trace.jobs_per_s"] = traced
    metrics["trace.untraced_jobs_per_s"] = untraced
    metrics["trace.overhead_pct"] = (untraced / traced - 1) * 100
    units.update({"trace.jobs_per_s": "jobs/s",
                  "trace.untraced_jobs_per_s": "jobs/s",
                  "trace.overhead_pct": "%"})
    return metrics, units


def write_results(args, rows_by_pass, metrics, raw, runner, problems):
    """Per-job outputs and times, for comparing output sizes between runs."""
    OUT.mkdir(exist_ok=True)
    times: dict[str, list] = {}
    for rows in rows_by_pass:
        for r in rows:
            times.setdefault(r["id"], []).append((r["ref_s"], r["raw_s"]))
    first = {r["id"]: r for r in rows_by_pass[0]}
    jobs = [{"id": job["id"], "argv": job["argv"][:2], "params": job["params"],
             "rc": first[job["id"]]["rc"], "bytes": first[job["id"]]["bytes"],
             "cells": first[job["id"]]["cells"],
             "median_ref_s": statistics.median(t[0] for t in times[job["id"]]),
             "median_raw_s": statistics.median(t[1] for t in times[job["id"]])}
            for job in runner.jobs]
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "passes": len(rows_by_pass),
                   "metrics": metrics, "wall_clock": raw,
                   "errors": runner.errors + problems, "jobs": jobs},
                  fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
