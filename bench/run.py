"""lchkit benchmark runner (standard library only).

Usage, from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1

A run builds its inputs from the seed, then runs the workload's jobs as a
closed loop with one client: each job is one in-process
``lchkit.cli.run([..., "--json"])`` call with stdout captured, and the next
job starts when the previous one returns.  Jobs run in whole seeded
permutations of the job list until ``--seconds`` have passed (and, when
``--seconds`` is above 0, at least MIN_JOBS jobs ran).  Outputs are checked
against independent oracles after the timed loop, and after the peak memory
is read, so that the oracles' own work shows in no metric.

``setup_s`` is the time from spawning a fresh interpreter to the first job
being ready in it: start-up, importing lchkit and building the inputs.  It
is measured SETUP_REPEATS times in child processes and the median reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: two untimed counting passes record exact work
counters, which must agree job by job, then each job runs once untraced and
once with span wrappers, in alternating order, which gives every layer's
self time, its share of the traced wall time and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full result, with run metadata and raw
times, and the spans of the first traced cycle are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# Setup is repeated and its median reported, because one interpreter start,
# import and input generation takes 0.1 to 0.3 s and a single reading is
# noisy.
SETUP_REPEATS = 9
# p90 needs at least ten samples above it.  A run of 0 seconds (the smoke
# test) does one cycle of the job list instead.
MIN_JOBS = 110
# A calibration sample (calibration.py) runs between jobs after every
# CALIBRATE_EVERY_S of job time, and each job's time is scaled by
# calibration.REF_MS over the median of the samples around it.  Raw times
# are kept in the result file.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 3  # samples on each side of a job

import calibration  # noqa: E402  (bench-local modules, found via the script dir)
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (for example, lchkit is missing)."""


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------


def import_lchkit():
    """Import lchkit from the checkout's src directory."""
    sys.path.insert(0, str(SRC))
    lch = importlib.import_module("lchkit")
    cli = importlib.import_module("lchkit.cli")
    if Path(lch.__file__).resolve().parent != (SRC / "lchkit").resolve():
        raise BenchError(f"imported lchkit from {lch.__file__}, not from {SRC}")
    return lch, cli


# Run in a fresh interpreter as ``python -c SETUP_CHILD src bench workload
# seed workdir``: import lchkit and build the inputs as the workload process
# does, then print the system-wide monotonic clock and, after it, the
# child's own calibration sample.
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import lchkit, lchkit.cli, workloads
workloads.WORKLOADS[sys.argv[3]][0](lchkit, int(sys.argv[4]), sys.argv[5])
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
import calibration
print(ready, calibration.median_sample(5))
"""


def setup_child_s(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first job being ready,
    and the calibration sample the child took afterwards (ms)."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed), workdir]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup of {name} failed in a fresh process: {proc.stderr.strip()[-400:]}")
    ready, calibration_ms = map(float, proc.stdout.split())
    return ready - start, calibration_ms


def timed_setup(name: str, seed: int, workdir: str):
    """Median of SETUP_REPEATS child-process setups, calibrated and raw.

    Each child's time is scaled by the child's own calibration sample: the
    parent's samples track the speed of the child poorly.
    """
    times, scaled = [], []
    for repeat in range(SETUP_REPEATS):
        child_dir = os.path.join(workdir, f"setup{repeat}")
        os.mkdir(child_dir)
        seconds, calibration_ms = setup_child_s(name, seed, child_dir)
        times.append(seconds)
        scaled.append(seconds * calibration.REF_MS / calibration_ms)
    return statistics.median(scaled), statistics.median(times)


# ----------------------------------------------------------------------
# running jobs
# ----------------------------------------------------------------------


def run_job(cli, argv: list[str]):
    """One CLI call; returns (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # a crash is a failed job, not a failed run
        code = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, code, out.getvalue(), error


class Outcomes:
    """First output of every job, and whether every repeat matched it."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: dict[int, tuple] = {}
        self.matched: dict[int, int] = {}  # attempts equal to the first output
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index: int, code, stdout: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(index, error)
        elif index not in self.first:
            self.first[index] = (code, stdout)
            self.matched[index] = 1
        elif self.first[index] != (code, stdout):
            self.fail(index, "output differs from the job's first run")
        else:
            self.matched[index] += 1

    def fail(self, index: int, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{self.jobs[index].key}: {message}")

    def check_first_outputs(self) -> None:
        """Run each job's oracle once; repeats were compared to the first."""
        for index, (code, stdout) in self.first.items():
            message = self.jobs[index].check(code, stdout)
            if message is not None:
                self.fail(index, message, count=self.matched[index])


def permutations(jobs, seed: int):
    rng = random.Random(f"order-{seed}")
    order = list(range(len(jobs)))
    while True:
        rng.shuffle(order)
        yield list(order)


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


# ----------------------------------------------------------------------
# the two passes
# ----------------------------------------------------------------------


def untraced_pass(cli, jobs, seed: int, seconds: float):
    outcomes = Outcomes(jobs)
    elapsed, code, stdout, error = run_job(cli, jobs[0].argv)  # warm-up
    outcomes.record(0, code, stdout, error)
    samples: list[tuple[float, int]] = []  # (seconds, calibrations before it)
    calibrations = [calibrate()]
    since_calibration = 0.0
    cycles = 0
    order = permutations(jobs, seed)
    loop_start = time.perf_counter()
    while True:
        for index in next(order):
            elapsed, code, stdout, error = run_job(cli, jobs[index].argv)
            samples.append((elapsed, len(calibrations)))
            outcomes.record(index, code, stdout, error)
            since_calibration += elapsed
            if since_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                since_calibration = 0.0
        cycles += 1
        if time.perf_counter() - loop_start >= seconds and (
                seconds <= 0 or len(samples) >= MIN_JOBS):
            break
    loop_wall = time.perf_counter() - loop_start - sum(calibrations[1:]) / 1000.0
    calibrations.append(calibrate())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcomes, samples, cycles, loop_wall, peak_rss_kb, calibrations


def counting_pass(cli, jobs, outcomes) -> list[tuple[list[int], dict]]:
    """Every job once, in list order, with counting wrappers; untimed."""
    per_job = []
    for index, job in enumerate(jobs):
        counting = tracing.CountingTracer()
        counting.install(sys.modules)
        try:
            _, code, stdout, error = run_job(cli, job.argv)
        finally:
            counting.uninstall()
        outcomes.record(index, code, stdout, error)
        per_job.append((counting.calls, counting.counters))
    return per_job


def traced_pass(cli, jobs, seed: int, seconds: float):
    outcomes = Outcomes(jobs)
    # The counting passes are part of the run's --seconds, so a traced run
    # takes no longer than an untraced one.
    run_start = time.perf_counter()

    # Exact counters, twice: a job whose calls or counters differ between
    # the two passes is not deterministic and fails.
    per_job = counting_pass(cli, jobs, outcomes)
    for index, again in enumerate(counting_pass(cli, jobs, outcomes)):
        if again != per_job[index]:
            outcomes.fail(index, "exact counters differ between two counting passes")
    calls_by_job = [calls for calls, _ in per_job]

    spans = tracing.SpanTracer()
    calibrations = [calibrate()]
    traced_s = untraced_s = 0.0
    traced_jobs = 0
    cycles = 0
    order = permutations(jobs, seed)
    while True:
        for index in next(order):
            traced_first = traced_jobs % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    before = list(spans.calls)
                    spans.job = traced_jobs
                    spans.install(sys.modules)
                    try:
                        elapsed, code, stdout, error = run_job(cli, jobs[index].argv)
                    finally:
                        spans.uninstall()
                    traced_s += elapsed
                    if error is None and [a - b for a, b in zip(spans.calls, before)] != calls_by_job[index]:
                        error = "call counts differ from the counting pass"
                else:
                    elapsed, code, stdout, error = run_job(cli, jobs[index].argv)
                    untraced_s += elapsed
                outcomes.record(index, code, stdout, error)
            traced_jobs += 1
        cycles += 1
        calibrations.append(calibrate())
        spans.keep_spans = False
        if time.perf_counter() - run_start >= seconds:
            break
    counters = tracing.merge_counters([c for _, c in per_job])
    return outcomes, calls_by_job, counters, spans, traced_s, untraced_s, cycles, calibrations


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def calibrated_ms(samples, calibrations) -> list[float]:
    """Job times in reference milliseconds, each scaled by nearby calibrations."""
    out = []
    for seconds, k in samples:
        window = calibrations[max(0, k - CALIBRATION_WINDOW): k + CALIBRATION_WINDOW]
        out.append(seconds * 1000.0 * calibration.REF_MS / statistics.median(window))
    return out


def end_to_end_metrics(samples, loop_wall, setup, peak_rss_kb, outcomes, calibrations):
    raw = [seconds * 1000.0 for seconds, _ in samples]
    ms = calibrated_ms(samples, calibrations)
    p90 = percentile_90(ms)
    metrics = {
        "job_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "jobs_per_s": {"value": 1000.0 * len(ms) / sum(ms), "unit": "1/s"},
        "setup_s": {"value": setup[0], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        "ok_rate": {"value": (outcomes.attempted - outcomes.failed) / outcomes.attempted, "unit": "share"},
    }
    extra = {
        "samples": len(ms),
        "samples_above_p90": sum(1 for x in ms if x > p90),
        "error_rate": outcomes.failed / outcomes.attempted,
        "calibration_ms": statistics.median(calibrations),
        "calibration_samples": len(calibrations),
        "raw": {"job_p50_ms": statistics.median(raw), "job_p90_ms": percentile_90(raw),
                "jobs_per_s": len(raw) / loop_wall, "setup_s": setup[1]},
    }
    return metrics, extra


def per_layer_metrics(calls_by_job, c, spans, traced_s, untraced_s, cycles, calibrations):
    """Calls and counters over one cycle; self times per cycle, calibrated."""
    scale = calibration.REF_MS / statistics.median(calibrations) / cycles
    metrics = {}
    for i, name in enumerate(tracing.SPAN_NAMES):
        metrics[f"{name}.calls"] = {"value": sum(calls[i] for calls in calls_by_job), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": spans.self_s[i] * scale, "unit": "s"}
        metrics[f"{name}.self_share"] = {"value": spans.self_s[i] / traced_s, "unit": "share"}
    unattributed = traced_s - sum(spans.self_s)
    metrics["unattributed.self_s"] = {"value": unattributed * scale, "unit": "s"}
    metrics["unattributed.self_share"] = {"value": unattributed / traced_s, "unit": "share"}
    grid = c["augment.grid_points"]
    metrics.update({
        "dgafile.bytes": {"value": c["dgafile.bytes"], "unit": "bytes"},
        "augment.grid_points": {"value": grid, "unit": "count"},
        "augment.found": {"value": c["augment.found"], "unit": "count"},
        "augment.yield": {"value": c["augment.found"] / grid if grid else 0.0, "unit": "share"},
        "linearize.complexes": {"value": c["linearize.complexes"], "unit": "count"},
        "linearize.cells": {"value": c["linearize.cells"], "unit": "count"},
        "linearize.nnz": {"value": c["linearize.nnz"], "unit": "count"},
        "linearize.unit_share": {
            "value": c["linearize.units"] / c["linearize.nnz"] if c["linearize.nnz"] else 0.0,
            "unit": "share"},
        "linearize.square_checks_per_complex": {
            "value": (c["linearize.square_checks"] / c["linearize.complexes"]
                      if c["linearize.complexes"] else 0.0),
            "unit": "ratio"},
        "homology.max_factor_bits": {"value": c["homology.max_factor_bits"], "unit": "bits"},
        "matrices.rank_cells": {"value": c["matrices.rank_cells"], "unit": "count"},
        "trace_overhead": {"value": traced_s / untraced_s, "unit": "ratio"},
    })
    return metrics


# ----------------------------------------------------------------------
# metadata and output
# ----------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lchkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, jobs, **extra) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "lchkit_commit": _git_commit(),
        "lchkit_source_sha256": _source_digest(),
        "distinct_jobs": len(jobs),
        **extra,
    }


def emit(args, result: dict, meta: dict, details: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "meta": meta, **details}, handle, indent=1, sort_keys=True)
    print(json.dumps(result))


def run_workload(args) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    setup_fn, prepare = workloads.WORKLOADS[args.workload]
    try:
        lch, cli = import_lchkit()
        jobs = setup_fn(lch, args.seed, workdir)
        if args.trace:
            (outcomes, calls_by_job, counters, spans, traced_s, untraced_s, cycles,
             calibrations) = traced_pass(cli, jobs, args.seed, args.seconds)
            metrics = per_layer_metrics(calls_by_job, counters, spans, traced_s, untraced_s,
                                        cycles, calibrations)
            meta = metadata(args, jobs, jobs_attempted=outcomes.attempted,
                            traced_jobs=cycles * len(jobs), cycles=cycles,
                            traced_wall_s=traced_s, untraced_wall_s=untraced_s,
                            calibration_ms=statistics.median(calibrations))
            OUT_DIR.mkdir(exist_ok=True)
            with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                      encoding="utf-8") as handle:
                for span in spans.spans:
                    handle.write(json.dumps(dict(zip(
                        ("id", "job", "name", "start", "end", "parent"), span))) + "\n")
            details = {"raw_self_s": dict(zip(tracing.SPAN_NAMES, spans.self_s)),
                       "counters": counters, "calibration_ms": calibrations}
        else:
            setup = timed_setup(args.workload, args.seed, workdir)
            outcomes, samples, cycles, loop_wall, peak_rss_kb, calibrations = untraced_pass(
                cli, jobs, args.seed, args.seconds)
            metrics, extra = end_to_end_metrics(
                samples, loop_wall, setup, peak_rss_kb, outcomes, calibrations)
            meta = metadata(args, jobs, jobs_attempted=outcomes.attempted, cycles=cycles,
                            percentile_samples={"job_p50_ms": extra["samples"],
                                                "job_p90_ms": extra["samples"]},
                            **extra)
            details = {"job_ms": [seconds * 1000.0 for seconds, _ in samples],
                       "calibration_ms": calibrations}
        # The oracles' references (for example, integral homology of every
        # file) are built only now, after the timing and the memory reading.
        if prepare is not None:
            prepare(lch, jobs)
        outcomes.check_first_outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in outcomes.errors:
        print(f"error: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcomes.attempted} jobs attempted, {outcomes.failed} failed")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    emit(args, result, meta, details)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="lchkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if not (SRC / "lchkit" / "__init__.py").is_file():
            raise BenchError(f"lchkit sources not found under {SRC}")
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
