"""Benchmark of thermolindblad, run from the root of a source checkout.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Each workload is a closed loop: one process, one caller, the next job
starts when the previous one returns.  The library is imported from
src/ of the checkout, with one BLAS thread and THERMO_LINDBLAD_THREADS
removed so the library runs on its defaults.  With --trace 0 the run
reports the end-to-end metrics named in BENCHMARK.json, taken from each
job's and each set-up's fastest run (see perfbench/README.md for why);
with --trace 1 it times the workload's passes with and without spans
(the tracing overhead) and then runs the traced layer sweep for the
per-layer metrics.  The last line of standard output is
one JSON object; the lines before it, and a JSON report under
perfbench/.out/, give the details (percentile levels, sample counts,
failures, machine facts).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("audit", "trajectory", "composite", "cli")
# Set-ups and fresh-interpreter imports repeated between passes, spread over
# the run, so that they sample the same machine state as the jobs do.
SETUP_PROBES = 16
# Set-ups per probe.  The first one runs with caches cold from the import
# probe, so setup_s takes the best of several.
SETUP_REPEATS = 4
MIN_PASSES = 3
TAIL_BEYOND = 10
# One BLAS thread (at most nproc): at the library's matrix sizes (up to
# 400 x 400) two threads were no faster on a 2-core machine, and their run
# to run spread was several times larger.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIBRARY_THREADS_VAR = "THERMO_LINDBLAD_THREADS"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import thermolindblad; print(time.perf_counter() - t)"
)


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare_environment():
    """Pin BLAS to one thread and unset the library's thread knob, in this
    process and its children.  Must run before numpy is imported."""
    nproc = _nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    removed = os.environ.pop(LIBRARY_THREADS_VAR, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, SRC)
    return {"nproc": nproc, LIBRARY_THREADS_VAR: "unset" if removed is None else f"unset (was {removed!r})"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(env_facts):
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        **env_facts,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# -- measurement ---------------------------------------------------------------


def run_job(job, tracer):
    """(seconds, failure message or None) for one job."""
    start = perf_counter()
    try:
        with tracer.job(job.name, job.label):
            job.run(tracer)
        failure = None
    except Exception as exc:  # every failure is counted, and the run goes on
        failure = f"{job.name}: {type(exc).__name__}: {exc}"
    return perf_counter() - start, failure


class Tally:
    """Job times by size, pass times, and failures."""

    def __init__(self):
        self.samples = {"small": [], "large": []}
        self.passes = []
        self.attempted = 0
        self.failures = []
        self.log = []  # (pass index, job name, seconds)

    def run_pass(self, jobs, tracer):
        start = perf_counter()
        for job in jobs:
            seconds, failure = run_job(job, tracer)
            self.log.append((len(self.passes), job.name, seconds))
            self.attempted += 1
            if job.size in self.samples:
                self.samples[job.size].append(seconds)
            if failure is not None:
                self.failures.append(failure)
        self.passes.append(perf_counter() - start)

    @property
    def failed(self):
        return len(self.failures)

    def best_pass(self, jobs):
        """One pass over jobs with each job at its fastest run."""
        best = best_times(self.log)
        return sum(best[job.name] for job in jobs)


def tail(samples):
    """The highest order statistic with TAIL_BEYOND samples above it, and
    its percentile level."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(workload):
    """Peak resident memory of the process that runs the library: the
    benchmark itself, or for cli the largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds():
    """Time of `import thermolindblad` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload, seed, ctx):
    """(jobs, set-up seconds) for one set-up in this process: input
    generation and prebuilding.  The package is already imported; its
    fresh-interpreter import is timed apart, by import_seconds."""
    import workloads

    start = perf_counter()
    jobs = workloads.WORKLOADS[workload](seed, ctx)
    return jobs, perf_counter() - start


def measure(jobs, tracer, seconds, probe=None):
    """Passes over the job list for `seconds` (at least MIN_PASSES).  The
    optional probe runs SETUP_PROBES times, spread over the run."""
    tally = Tally()
    start = perf_counter()
    next_probe = seconds / SETUP_PROBES
    while len(tally.passes) < MIN_PASSES or perf_counter() - start < seconds:
        tally.run_pass(jobs, tracer)
        if probe is not None and perf_counter() - start >= next_probe:
            probe()
            next_probe += seconds / SETUP_PROBES
    return tally


def best_times(log):
    """Fastest run of each job in the log."""
    best = {}
    for _, name, seconds in log:
        best[name] = min(seconds, best.get(name, seconds))
    return best


def end_to_end(workload, seed, seconds, ctx):
    from tracing import NullTracer

    imports = [import_seconds()]
    jobs, seconds_up = set_up(workload, seed, ctx)
    setups = [seconds_up]

    def probe():
        imports.append(import_seconds())
        setups.extend(set_up(workload, seed, ctx)[1] for _ in range(SETUP_REPEATS))

    tally = measure(jobs, NullTracer(), seconds, probe)
    best = best_times(tally.log)
    size_of = {job.name: job.size for job in jobs}
    small_tail, level = tail(tally.samples["small"])
    metrics = {
        "setup_s": min(setups),
        "small_p50_s": statistics.median(b for name, b in best.items() if size_of[name] == "small"),
        "large_p50_s": statistics.median(b for name, b in best.items() if size_of[name] == "large"),
        "pass_s": tally.best_pass(jobs),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    details = {
        "passes": len(tally.passes),
        "set_ups": len(setups),
        "import_best_s": min(imports),
        "small_samples": len(tally.samples["small"]),
        "large_samples": len(tally.samples["large"]),
        "small_wall_p50_s": statistics.median(tally.samples["small"]),
        "small_wall_tail_s": small_tail,
        "small_wall_tail_percentile": round(level, 2),
        "large_wall_p50_s": statistics.median(tally.samples["large"]),
        "pass_wall_p50_s": statistics.median(tally.passes),
        "failed_frac": tally.failed / tally.attempted,
        "raw": {"setups": setups, "imports": imports, "passes": tally.passes, "jobs": tally.log},
    }
    return metrics, tally, details


def traced(workload, seed, seconds, ctx, spans_path):
    """Tracing overhead from alternating plain and traced passes over half
    of `seconds`, then the traced layer sweep."""
    import sweep
    import workloads
    from tracing import NullTracer, Tracer

    jobs = workloads.WORKLOADS[workload](seed, ctx)
    plain, spanned = Tally(), Tally()
    pass_tracer, null = Tracer(), NullTracer()
    start = perf_counter()
    while len(spanned.passes) < 2 or perf_counter() - start < seconds / 2:
        plain.run_pass(jobs, null)
        spanned.run_pass(jobs, pass_tracer)

    # one untimed pass at the smallest sizes pays for first-call costs
    Tally().run_pass(sweep.sweep_jobs(seed, ctx, sweep.new_counts(), warm_up=True), null)
    counts = sweep.new_counts()
    sweep_tracer = Tracer()
    sweep_tally = Tally()
    sweep_tally.run_pass(sweep.sweep_jobs(seed, ctx, counts), sweep_tracer)

    pass_tracer.dump(spans_path, "passes")
    sweep_tracer.dump(spans_path, "sweep")
    metrics = sweep.layer_metrics(sweep_tracer, counts)
    metrics["trace.overhead"] = spanned.best_pass(jobs) / plain.best_pass(jobs)
    tally = Tally()
    for part in (plain, spanned, sweep_tally):
        tally.attempted += part.attempted
        tally.failures += part.failures
    details = {
        "overhead_passes": len(spanned.passes),
        "sweep_seconds": sweep_tally.passes[0],
        "spans": os.path.relpath(spans_path, ROOT),
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, tally, details


# -- output --------------------------------------------------------------------


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace):
    return {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}


def declared_run_seconds():
    return float(declared()["run_seconds"])


def result_line(metrics, tally, trace):
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"no measurement for declared metrics: {', '.join(missing)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def print_run(args, metrics, tally, details, facts):
    result = result_line(metrics, tally, args.trace)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        **details,
        "failures": tally.failures[:20],
        "result": result,
    }
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  report {os.path.relpath(path, ROOT)}")
    for key, value in details.items():
        if key != "raw":
            print(f"  {key:<24} {value}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    for failure in tally.failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))


def run_one(args, env_facts):
    import workloads

    os.makedirs(OUT, exist_ok=True)
    ctx = workloads.Context(root=ROOT, out=OUT, env=dict(os.environ))
    facts = machine_facts(env_facts)
    if args.trace:
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        metrics, tally, details = traced(args.workload, args.seed, args.seconds, ctx, spans_path)
    else:
        metrics, tally, details = end_to_end(args.workload, args.seed, args.seconds, ctx)
    print_run(args, metrics, tally, details, facts)
    return 0


def run_all(args):
    """Every workload in its own process; prints each, then a summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(summary))
    return 0


def self_test(args):
    """Run one small pass of every workload plus corrupted inputs, and
    check that exactly the corrupted jobs are counted as failed."""
    import workloads
    from tracing import NullTracer

    os.makedirs(OUT, exist_ok=True)
    ctx = workloads.Context(root=ROOT, out=OUT, env=dict(os.environ))
    sound, corrupted = workloads.selftest_jobs(args.seed, ctx)
    tally = Tally()
    tally.run_pass(sound + corrupted, NullTracer())
    failed_names = sorted(f.split(":", 1)[0] for f in tally.failures)
    expected_names = sorted(job.name for job in corrupted)
    ok = failed_names == expected_names
    for failure in tally.failures:
        print(f"  counted as failed: {failure}")
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "expected_failed": expected_names,
    }))
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that corrupted inputs are counted as failed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermolindblad", "__init__.py")):
        print(f"error: no thermolindblad sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env_facts = prepare_environment()
    import thermolindblad

    if not os.path.abspath(thermolindblad.__file__).startswith(SRC + os.sep):
        print(f"error: thermolindblad imported from {thermolindblad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, env_facts)


if __name__ == "__main__":
    sys.exit(main())
