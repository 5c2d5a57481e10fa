"""lgcardy benchmark: one client, closed loop, every verdict checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it runs one cycle of the workload's jobs
repeatedly, alternating untraced and traced passes, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run first runs the oracle self-test (``selftest.py``).  Exit codes:
0 on a result, 1 when the oracle self-test fails, 2 when the package or the
arguments are unusable.
"""

# Modules that import numpy (workloads, calibration, tracer, selftest) are
# imported inside functions: BLAS threads must be capped first, and a set-up
# probe must time the first numpy import as part of importing lgcardy.

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("pointwise-cf", "bundle-series", "family-cli")
SETUP_PROBES = 7  # fresh processes whose set-up time is measured
MIN_JOBS = 100  # p90 keeps at least ten samples beyond it
HARD_CAP_S = 150.0  # the timed loop never runs longer than this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Unusable(Exception):
    """The package cannot be found or imported (exit code 2)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    limit = _nproc()
    for var in BLAS_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= limit
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(limit)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "lgcardy", "__init__.py")):
        raise Unusable("no lgcardy package under %s" % SRC)
    sys.path.insert(0, SRC)
    try:
        import lgcardy
        import lgcardy.cli  # noqa: F401
    except ImportError as exc:
        raise Unusable("cannot import lgcardy: %s" % exc)
    if not os.path.abspath(lgcardy.__file__).startswith(SRC + os.sep):
        raise Unusable("lgcardy imported from %s, not from %s" % (lgcardy.__file__, SRC))
    return lgcardy


def prepare(lib, workload, seed):
    """Generate the inputs and fill per-process caches."""
    import workloads

    jobs = workloads.generate(workload, seed)
    workloads.fill_caches(lib, workload, jobs)
    return jobs


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lgcardy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": _nproc(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "clients": 1,
        "processes": 1,
    }


def setup_probes(workload, seed):
    """Set-up seconds of fresh processes, one after the other, as
    (rescaled to the start reference speed, raw)."""
    import calibration

    scaled = []
    raw = []
    for _ in range(SETUP_PROBES):
        before = calibration.start_reference_seconds()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise Unusable("set-up probe failed: %s" % done.stderr.strip()[-500:])
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        after = calibration.start_reference_seconds()
        raw.append(seconds)
        scaled.append(seconds * calibration.START_REFERENCE_S * 2 / (before + after))
    return scaled, raw


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(lib, workload, jobs, seconds):
    """Closed loop over whole cycles of the job pool, stopping at the cycle
    boundary nearest to ``seconds`` (and after at least MIN_JOBS).

    Whole cycles keep the mix of job kinds the same in every run.  The
    reference computation runs after every job, outside its timing.
    """
    import calibration
    import workloads

    cycle = len(workloads.CYCLES[workload])
    tally = workloads.Tally()
    latencies = []
    references = []
    kinds = []
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= HARD_CAP_S:
            break
        if i and i % cycle == 0 and len(latencies) >= MIN_JOBS:
            per_cycle = elapsed * cycle / i
            if elapsed + per_cycle / 2 >= seconds:
                break
        job = jobs[i % len(jobs)]
        i += 1
        start = time.perf_counter()
        outcome, error = workloads.run_job(lib, workload, job)
        latencies.append(time.perf_counter() - start)
        tally.add(job, workloads.judge(workload, job, outcome, error))
        references.append(calibration.reference_seconds())
        kinds.append(job.kind.name)
    return tally, latencies, references, kinds, time.perf_counter() - begin


def end_to_end_run(lib, workload, jobs, seconds, seed, setup, setup_raw):
    """End-to-end metrics of one untraced run, with its details printed."""
    import calibration
    import workloads

    tally, raw, references, kinds, wall = measure(lib, workload, jobs, seconds)
    latencies = calibration.rescale(raw, references)
    count = len(latencies)
    metrics = {
        "jobs_per_s": (count / sum(latencies), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1e3 * _quantile(latencies, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(1 for x in latencies if x > metrics["job_p90_ms"][0] / 1e3)
    print("%s seed %d: %d jobs (%d whole cycles) in %.1f s, one client, closed loop"
          % (workload, seed, count, count // len(workloads.CYCLES[workload]), wall))
    print("  samples: latency %d (%d beyond p90), set-up %d fresh processes"
          % (count, beyond, len(setup)))
    print("  raw wall times: %.4g jobs/s, p50 %.4g ms, p90 %.4g ms, set-up %s s;"
          " reference median %.4g ms (scale %.4g)"
          % (count / sum(raw), 1e3 * statistics.median(raw), 1e3 * _quantile(raw, 90),
             " ".join("%.3f" % t for t in setup_raw), 1e3 * statistics.median(references),
             calibration.scale(references)))
    print("  failed_share %.4f (%d of %d)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    by_kind = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    for name in sorted(by_kind, key=lambda k: statistics.median(by_kind[k])):
        values = by_kind[name]
        print("  kind %-28s %4d jobs, median %8.2f ms"
              % (name, len(values), 1e3 * statistics.median(values)))
    return tally, metrics


def trace_run(lib, workload, jobs, seconds, env, seed):
    """Passes over one cycle of jobs, each job run untraced and traced.

    The two runs of a job are back to back, in alternating order, so that
    drift in machine speed cancels out of the tracing overhead.
    """
    import tracer as tracing
    import workloads

    cycle = jobs[: len(workloads.CYCLES[workload])]
    tracer = tracing.Tracer(lib)
    totals = tracing.LayerTotals(tracer.functions)
    tally = workloads.Tally()
    plain = traced = 0.0
    size = 0
    passes = 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < min(seconds, HARD_CAP_S):
        for job in cycle:
            for tracing_on in ((False, True) if job.index % 2 else (True, False)):
                if tracing_on:
                    tracer.job = job.index
                    tracer.install()
                start = time.perf_counter()
                try:
                    outcome, error = workloads.run_job(lib, workload, job)
                finally:
                    busy = time.perf_counter() - start
                    tracer.uninstall()
                tally.add(job, workloads.judge(workload, job, outcome, error))
                if tracing_on:
                    traced += busy
                    size += workloads.report_bytes(workload, outcome)
                else:
                    plain += busy
        spans = tracer.take_spans()
        totals.add(spans)
        if passes == 0:
            write_spans(workload, seed, env, tracer.functions, spans)
        passes += 1
    jobs_traced = passes * len(cycle)
    metrics = tracing.layer_metrics(totals, jobs_traced)
    metrics["cli.report_bytes_per_job"] = (size / jobs_traced, "B/job")
    metrics["trace.coverage"] = (totals.self_seconds() / traced, "ratio")
    metrics["trace.overhead_share"] = (1.0 - plain / traced, "ratio")
    print("traced %d passes of %d jobs: %d spans, %.2f s untraced, %.2f s traced"
          % (passes, len(cycle), totals.spans, plain, traced))
    return tally, metrics


def write_spans(workload, seed, env, functions, spans):
    """Spans of the first traced pass, one JSON line each, gzip compressed."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%s.jsonl.gz" % (workload, seed))
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "env": env,
                             "fields": ["layer", "function", "start_s", "end_s",
                                        "parent", "job", "raised"]}) + "\n")
        for fid, start, end, parent, job, raised, _ in spans:
            layer, name = functions[fid]
            fh.write(json.dumps([layer, name, round(start, 9), round(end, 9),
                                 parent, job, raised]) + "\n")
    print("spans written to %s" % os.path.relpath(path, ROOT))


def _fmt_metrics(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, HERE)

    try:
        if args.setup_probe:
            start = time.perf_counter()
            prepare(import_package(), args.workload, args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        lib = import_package()
        import selftest
        import workloads

        problems = selftest.run(lib)
        for line in problems:
            print("self-test: " + line, file=sys.stderr)
        if problems:
            return 1
        print("self-test: the oracle fails every job an always-pass verifier lets through")
        probes = None if args.trace else setup_probes(args.workload, args.seed)
    except Unusable as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    jobs = prepare(lib, args.workload, args.seed)
    env = environment()
    print("env: " + json.dumps(env))

    if args.trace:
        tally, metrics = trace_run(lib, args.workload, jobs, args.seconds, env, args.seed)
    else:
        tally, metrics = end_to_end_run(lib, args.workload, jobs, args.seconds, args.seed,
                                        *probes)
    for name, (value, unit) in metrics.items():
        print("  %-45s %14.6g %s" % (name, value, unit))
    for line in workloads.known_defects(lib, args.workload, args.seed):
        print(line)
    if tally.first_failure:
        print("failed: " + tally.first_failure, file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _fmt_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
