"""Benchmark of the hermite_chihara package: one workload, one seed, one run.

    python3 bench/run.py --workload exact-checks --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` beside this directory and fails (exit 1, no result) when that is
missing.  One single-threaded process runs a closed loop with one client: the
next job starts when the previous one returns.  Each job calls the package's
public functions or ``hermite_chihara.cli.main(argv)`` in-process, and the
oracle in ``oracle.py`` checks its output before the next one starts; the
loop's clock runs only while a job runs.

A run draws its job list from the seed at the scale that takes about
``--seconds`` on one core of a 2-vCPU x86-64 VM (``workload.scale_for``) and
runs every job once.

Times are given at reference speed (``workload.Meter``): on a shared host the
speed of the machine wanders by a quarter, within seconds and over whole runs,
so each job and each fresh start that ``setup_s`` takes the median of is timed
together with a fixed loop that shares no code with the package, and scaled
by the loop's speed.

The edge probes of known defects run apart from the workloads (``probes.py``),
so that no operation of a workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer as tracing
import workload as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# numpy's BLAS would start a thread per core, and its timings would then hang
# on whatever else the machine runs; the benchmark is one single-threaded process
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 3  # fresh interpreters per run; setup_s is their median
TRACE_SCALE = 2  # scale of a traced run's job list, so its counts repeat for a seed


def load_package():
    """Import hermite_chihara from this checkout's src/, and nowhere else."""
    if not (SRC / "hermite_chihara" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hermite_chihara
    import hermite_chihara.cli  # noqa: F401  (hc.cli is looked up per job)

    if Path(hermite_chihara.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported hermite_chihara from {hermite_chihara.__file__}, not {SRC}")
    return hermite_chihara


def fresh_start(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it is ready for the first
    job, at reference speed; the child runs the calibration loops."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        report = proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    child = json.loads(report)
    return (ready - start - child["calibrating_s"]) * child["speed"]


class Loop:
    """Closed loop over jobs; keeps one record per job.  With a ``meter``,
    latencies are at reference speed."""

    def __init__(self, hc, pool, meter: wl.Meter | None = None):
        self.hc = hc
        self.pool = pool
        self.meter = meter
        self.records: list[tuple[wl.Job, float, str | None]] = []
        self.busy = 0.0

    def run_job(self, job: wl.Job, trace: tracing.Tracer | None = None) -> float:
        """Run and check one job; returns its latency in seconds."""
        if trace is not None:
            trace.job = f"{len(self.records)}:{job.label()}"
        if self.meter is not None:
            self.meter.start()
        start = time.perf_counter()
        try:
            output, error = wl.run_job(self.hc, job, self.pool), None
        except Exception as exc:  # a failed job is counted, and the loop goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = self.meter.stop() if self.meter else time.perf_counter() - start
        if error is None:
            try:
                error = oracle.check(job, output)
            except Exception as exc:  # output the oracle cannot read is wrong
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if trace is not None:
            trace.end_job(len(output.stdout.encode()) if isinstance(output, wl.CliResult) else 0)
        self.records.append((job, latency, error))
        self.busy += latency
        return latency

    @property
    def failures(self) -> list[tuple[wl.Job, str]]:
        return [(job, error) for job, _, error in self.records if error is not None]

    @property
    def jobs_per_s(self) -> float:
        return (len(self.records) - len(self.failures)) / self.busy


def end_to_end(hc, workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    setup = [fresh_start(workload) for _ in range(SETUP_STARTS)]
    pool = wl.build_pool(hc, workload)
    warmup = Loop(hc, pool)
    warmup.run_job(wl.WARMUP[workload])
    jobs = wl.job_list(workload, seed, wl.scale_for(workload, seconds))
    loop = Loop(hc, pool, wl.Meter())
    latencies = [loop.run_job(job) for job in jobs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "jobs_per_s": ((len(jobs) - len(loop.failures)) / sum(latencies), "jobs/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    loop.records[:0] = warmup.records  # checked and counted, not timed
    return loop, metrics


def per_layer(hc, workload: str, seed: int, seconds: float) -> tuple[Loop, dict, tracing.Tracer]:
    """Each job of the TRACE_SCALE job list runs once untraced and once
    traced, in alternating order; a slow machine stops early, once the
    untraced runs have taken ``seconds``."""
    trace = tracing.Tracer()
    trace.install()
    pool = wl.build_pool(hc, workload)  # spans of job "setup"
    trace.uninstall()
    trace.end_job()
    untraced, traced = Loop(hc, pool), Loop(hc, pool)
    for i, job in enumerate(wl.job_list(workload, seed, TRACE_SCALE)):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                untraced.run_job(job)
                continue
            trace.install()
            try:
                traced.run_job(job, trace)
            finally:
                trace.uninstall()
        if untraced.busy >= seconds:
            break
    metrics = {}
    times = tracing.layer_times(trace.spans)
    for name in tracing.TARGETS:
        row = times.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics["systems.max_coeff_bits"] = (trace.max_coeff_bits, "bits")
    metrics["quadrature.panels"] = (trace.panels, "count")
    ratio = trace.gram_converged / trace.gram_calls if trace.gram_calls else 0.0
    metrics["quadrature.converged_ratio"] = (ratio, "ratio")
    metrics["cli.output_bytes"] = (trace.output_bytes, "bytes")
    overhead = traced.jobs_per_s / untraced.jobs_per_s if untraced.jobs_per_s else 0.0
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    untraced.records += traced.records
    return untraced, metrics, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(SINGLE_THREAD)  # before numpy loads, here and in set-up children
    hc = load_package()
    if args.trace:
        loop, metrics, trace = per_layer(hc, args.workload, args.seed, args.seconds)
    else:
        loop, metrics = end_to_end(hc, args.workload, args.seed, args.seconds)
    failures = loop.failures

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        trace.write_spans(RESULTS / f"spans-{tag}.jsonl")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [[job.label(), latency, error] for job, latency, error in loop.records],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(loop.records)} jobs run, {len(failures)} failed")
    for job, error in failures[:10]:
        print(f"job {job.label()} FAILED: {error}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(loop.records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
