#!/usr/bin/env python3
"""linkage-kit benchmark: one workload, closed loop, one caller, no threads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
readable table goes to stderr, and the full record, with the run metadata,
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_PROBES = 9  # fresh interpreters timed from launch to "inputs ready"
MIN_PASSES = 3  # per-job medians need three samples, even when a pass is long
TAIL_BEYOND = 10  # the tail is the highest percentile with this many jobs beyond it


def import_package():
    """Import linkage_kit from this checkout's src/, or exit non-zero."""
    if not (SRC / "linkage_kit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'linkage_kit'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import linkage_kit

    if Path(linkage_kit.__file__).resolve().parent != (SRC / "linkage_kit").resolve():
        sys.exit(f"perfbench: imported linkage_kit from {linkage_kit.__file__}, not {SRC}")
    return linkage_kit


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _probe(opts) -> None:
    """Child process: build the inputs, say so, and for the RSS probe run one
    unchecked pass and report the peak resident set size."""
    import workloads

    inputs = workloads.build_inputs(opts.workload, opts.seed)
    print("ready", flush=True)
    if opts.probe == "rss":
        for job in inputs.jobs:
            workloads.run_job(job)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)


def _spawn_probe(opts, kind):
    """Time a fresh interpreter from launch to "inputs ready"."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", opts.workload, "--seed", str(opts.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{kind} probe exited with code {code}")
    return setup, rest


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _metadata(lk, opts) -> dict:
    return {
        "kernel": lk.kernel_implementation,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "machine": platform.machine(),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
    }


class Runner:
    """Runs passes over the jobs, timing each job and checking its output
    after the clock stops."""

    def __init__(self, inputs, checker, run_job):
        self.run_job = run_job
        self.inputs = inputs
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.output_bytes = 0  # CLI stdout bytes in the last pass

    def one_pass(self, tracer=None):
        """Run every job once; returns the (start, end) clock of each."""
        gc.collect()
        clocks = []
        self.output_bytes = 0
        for n, job in enumerate(self.inputs.jobs):
            if tracer is not None:
                tracer.current_job = n
            t0 = time.perf_counter()
            try:
                out = self.run_job(job)
            except Exception as exc:  # a job that raises is a failed job; keep going
                clocks.append((t0, time.perf_counter()))
                self.attempted += 1
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{job.key}: raised {exc!r}")
                continue
            clocks.append((t0, time.perf_counter()))
            self.attempted += 1
            if job.kind == "cli":
                self.output_bytes += len(out[1])
            if not self.checker.check(job, out):
                self.failed += 1
            del out
        return clocks


def _wall(clocks):
    return sum(e - s for s, e in clocks)


def _timed_loop(seconds, min_passes, step):
    """Call step() until the next pass would overrun ``seconds`` of timed
    work, and at least ``min_passes`` times."""
    spent, n, last = 0.0, 0, 0.0
    while n < min_passes or spent + last <= seconds:
        last = step(n)
        spent += last
        n += 1


def _percentiles(per_job):
    """p50 and tail of per-job latencies; the tail is the highest
    percentile with TAIL_BEYOND jobs beyond it (the maximum when there are
    too few jobs)."""
    lat = sorted(per_job)
    n = len(lat)
    tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return statistics.median(lat), lat[tail_rank], 100.0 * (tail_rank + 1) / n


def _end_to_end(opts, runner):
    # set-up runs in a child process the timer cannot sample: scale each
    # probe by the speed measured just before and just after it
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = speed.factor_now()
        raw_setups.append(_spawn_probe(opts, "setup")[0])
        setups.append(raw_setups[-1] * (before + speed.factor_now()) / 2)
    _, rss_out = _spawn_probe(opts, "rss")
    peak_rss_mb = int(rss_out.strip()) / 1024.0

    passes, raw_walls = [], []

    def step(n):
        with speed.Speedometer() as meter:
            clocks = runner.one_pass()
        passes.append([meter.reference_seconds(s, e) for s, e in clocks])
        raw_walls.append(_wall(clocks))
        return raw_walls[-1]

    _timed_loop(opts.seconds, MIN_PASSES, step)
    # each job at its median over the passes, so one slow stretch moves one
    # sample of many jobs rather than the whole figure
    per_job = [statistics.median(ts) for ts in zip(*passes)]
    p50, tail, tail_pct = _percentiles(per_job)
    slowest = sorted(range(len(per_job)), key=per_job.__getitem__)[-TAIL_BEYOND - 1 :]
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (1000.0 * p50, "ms"),
        "job_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "passes": len(passes),
        "pass_reference_s": [sum(p) for p in passes],
        "pass_raw_wall_s": raw_walls,
        "jobs_per_pass": len(per_job),
        "tail_percentile": tail_pct,
        "slowest_jobs_ms": {runner.inputs.jobs[i].key: 1000.0 * per_job[i] for i in slowest},
        "setup_reference_s": setups,
        "setup_raw_s": raw_setups,
    }
    return metrics, detail


def _per_layer(runner, tracer, setup, seconds):
    """Alternate untraced and traced passes; per-layer values are for one
    set-up plus one traced pass, in reference seconds."""

    untraced, traced, sums, output_bytes = [], [], [], []

    def step(n):
        lo = tracer.mark()
        with speed.Speedometer() as meter:
            if n % 2 == 0:
                clocks = runner.one_pass()
            else:
                with tracer.installed():
                    clocks = runner.one_pass(tracer)
        ref = sum(meter.reference_seconds(s, e) for s, e in clocks)
        if n % 2 == 0:
            untraced.append(ref)
        else:
            traced.append(ref)
            sums.append(spans.summarize(tracer, lo, tracer.mark(), meter.reference_seconds))
            output_bytes.append(runner.output_bytes)
        return _wall(clocks)

    _timed_loop(seconds, 2, step)
    k = len(sums)

    def per_pass(get):
        return get(setup) + sum(get(s) for s in sums) / k

    metrics = {}
    for name in spans.SPAN_NAMES:
        suffix = "self_s" if name in spans.SELF_S else "s"
        metrics[f"{name}.{suffix}"] = (per_pass(lambda s: s["layers"][name]["self_s"]), "s")
        metrics[f"{name}.calls"] = (per_pass(lambda s: s["layers"][name]["calls"]), "count")
        if name in spans.EXTRA_COUNTS:
            metrics[f"{name}.{spans.EXTRA_COUNTS[name]}"] = (
                per_pass(lambda s: s["layers"][name]["count"]), "count")
    kept = sum(s["kept"] for s in sums)
    closure = sum(s["closure"] for s in sums)
    enumerated = sum(s["depths_enumerated"] for s in sums)
    final = sum(s["depths_final"] for s in sums)
    metrics["cli.output_bytes"] = (sum(output_bytes) / k, "bytes")
    metrics["linkage.candidates.keep_ratio"] = (kept / closure if closure else 0.0, "ratio")
    metrics["oracle.depth_ratio"] = (enumerated / final if final else 0.0, "ratio")
    traced_wall = sum(traced) / k
    self_total = sum(s["self_total_s"] for s in sums) / k
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.self_total_s"] = (self_total, "s")
    metrics["trace.remainder_s"] = (traced_wall - self_total, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    detail = {
        "untraced_passes": len(untraced),
        "traced_passes": k,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "absent": tracer.absent,
        "setup_spans": setup["layers"],
    }
    return metrics, detail


def main(argv=None) -> int:
    opts = _parse(sys.argv[1:] if argv is None else argv)
    lk = import_package()
    if opts.probe:
        _probe(opts)
        return 0

    import check
    import workloads

    if opts.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {opts.workload!r}; one of {workloads.WORKLOADS}")
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)

    tracer = spans.Tracer() if opts.trace else None
    if tracer is not None:
        with speed.Speedometer() as meter, tracer.installed():
            inputs = workloads.build_inputs(opts.workload, opts.seed)
        setup = spans.summarize(tracer, 0, tracer.mark(), meter.reference_seconds)
    else:
        inputs = workloads.build_inputs(opts.workload, opts.seed)
    runner = Runner(inputs, check.Checker(expected, inputs.contexts, opts.seed), workloads.run_job)

    if tracer is None:
        metrics, detail = _end_to_end(opts, runner)
    else:
        metrics, detail = _per_layer(runner, tracer, setup, opts.seconds)

    correct = runner.failed == 0
    record = {
        "meta": _metadata(lk, opts),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "problems": runner.errors + runner.checker.problems,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    meta = record["meta"]
    print(f"perfbench {opts.workload} seed={opts.seed} kernel={meta['kernel']} "
          f"python={meta['python']} nproc={meta['nproc']} commit={meta['commit'][:12]}",
          file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u}", file=sys.stderr)
    print(f"  {'fail_ratio':<44} {record['fail_ratio']:>14.6g} "
          f"({runner.failed}/{runner.attempted})", file=sys.stderr)
    for p in record["problems"]:
        print(f"  problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
