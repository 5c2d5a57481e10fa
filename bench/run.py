"""Per-layer timings of lgcardy, written to ``BENCH_<label>.json``.

    python bench/run.py --label NAME

The package is imported from the ``src/`` of the checkout the script sits
in, and the result is written to ``BENCH_NAME.json`` at its root.  For
n = 2, 3, 4, 6 and 8 it builds one seeded model and times each layer of
the verifier on it: critical points, ``build_closed``, the critical data
of a stack of S seeded polynomials in one ``_critical_data`` call at
S = 10 (the sample sweep of ``verify_bundle``, with the idempotents and
weights of ``_idempotents``) and S = 60 (the draws of one potential fit,
which form none), the flat chart from (n, a) (``flat_chart``, its closed
algebra built in the call) and on the model's closed algebra
(``chart_on``: ``_chart_on``), ``structure_tensor``, both Cardy routes
(``_trace_route`` and ``_coordinate_route``, their defects reduced by
``_worst``, the Gram matrices formed outside the timed call),
``verify_cardy_frobenius``, the
stacked Cardy check of the ``verify_bundle`` sweep (``cardy_stack_s11``: its
one ``_cardy_checks`` call on the base point and BUNDLE_SAMPLE_POINTS sample
points, the stacked pair recorded from one sweep), both
``verify_frobenius`` checks, ``build_quaternion_model``,
``corrupt_model`` (``b_associativity``, the corruption that edits a
boundary cube), the boundary triple pairing ``_cubic_blocks`` (the Gram
matrix formed outside the timed call),
``reconstruct_potential``, ``wdvv_check`` (the fitted potential at
WDVV_POINTS points drawn as the CLI's ``wdvv`` draws them),
``assemble_potential``, ``ext_wdvv_check``, the
series route of ``verify_bundle`` (``series_route``: assembly over the
structural keys plus the numeric pass, on the warm layout of its (n,
t_degree, blocks); ``series_route_t5``, at n <= SERIES_T5_MAX_N only, the
same at t_degree 5, where the assembly recentres the fitted bulk potential
at the chart), ``verify_bundle`` and, for each CLI subcommand, its report
writer (``report_writer_<command>``: ``cli._dumps`` on the report of the
subcommand's run on the model).  It also times every CLI
subcommand end to end, in process, with its output discarded.

Each cell calls its function in batches, the smallest of 1, 2, 4, ...
calls that spans at least SAMPLE_S seconds (the batches that find it are
not kept, and warm the cell up), so that a cell of a few microseconds is
not read off the timer's noise.  It takes batches for BUDGET_S seconds (at least three, at most 200) and runs
the fixed reference computation of ``perfbench/calibration.py`` after every
batch.  The JSON records, per cell, the call count, the batch size and the
median and minimum wall times per call over the batches, and the median
rescaled to the reference machine speed the way perfbench rescales its job
times, and ``src_lines`` records the size of the package source as
``wc -l src/lgcardy/*.py`` counts it.  BLAS threads are capped, and the
machine (CPU, Python, numpy, BLAS and its threads, commit and source hash)
is recorded, with the helpers of
``perfbench/run.py``; models are drawn and CLI coefficients formatted by
``perfbench/workloads.py``, each loaded from its path by
``bench/_perfbench.py``.  Only the script entry puts ``src/`` on
``sys.path`` and caps the BLAS threads in the environment; imported as a
module, the script reads ``lgcardy`` from the path it is given and leaves
both alone, so its cells can be reused.  This script is not part of the
test suite.
"""

import argparse
import contextlib
import io
import json
import os
import runpy
import statistics
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_perfbench = runpy.run_path(os.path.join(HERE, "_perfbench.py"))["load"]  # imports no numpy
perfbench_run = _perfbench("run")  # imports no numpy either

if __name__ == "__main__":
    # the package of this checkout, and the BLAS caps before numpy is imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    perfbench_run.cap_blas_threads()

import numpy as np  # noqa: E402

import lgcardy as lib  # noqa: E402
from lgcardy import bundle, cli  # noqa: E402
from lgcardy.landau_ginzburg import _critical_data, _idempotents  # noqa: E402
from lgcardy.polycore import _Failures  # noqa: E402
from lgcardy.cardy import _cardy_checks, _coordinate_route, _trace_route  # noqa: E402
from lgcardy.frobenius import _worst  # noqa: E402
from lgcardy.moduli import _chart_on, _reversion_table  # noqa: E402
from lgcardy.tensor_series import _conditions  # noqa: E402

calibration = _perfbench("calibration")
workloads = _perfbench("workloads")

SIZES = (2, 3, 4, 6, 8)
BUDGET_S = 0.3
SAMPLE_S = 1e-3
MIN_SAMPLES = 3
MAX_SAMPLES = 200
BUNDLE_SAMPLE_POINTS = 10
# stack sizes of the critical-data cells: the sweep's sample points and the
# draws of one potential fit
FIT_DRAWS = 60
CRITICAL_STACKS = (BUNDLE_SAMPLE_POINTS, FIT_DRAWS)
# check points of the wdvv_check cell, as many as the CLI's wdvv draws
WDVV_POINTS = 20
# largest n of the series_route_t5 cell, as far as the replay grid runs
# the CLI above truncation 4
SERIES_T5_MAX_N = 4


def seeded_model(n, seed=0):
    """A model drawn as the perfbench workloads draw theirs."""
    rng = np.random.default_rng(1000 + 10 * n + seed)
    a = workloads.draw_coefficients(rng, n, workloads.SCALE)
    return lib.build_quaternion_model(n=n, a=a)


def seeded_stack(n, count):
    """``count`` coefficient rows of degree n, drawn as the perfbench
    workloads draw theirs."""
    rng = np.random.default_rng(2000 + 10 * n + count)
    return np.array([workloads.draw_coefficients(rng, n, workloads.SCALE) for _ in range(count)])


def sweep_critical_data(a):
    """The critical data of the ``verify_bundle`` sweep on the rows of a:
    roots and functional values, then the idempotents and weights."""
    failures = _Failures(len(a))
    _, roots, values = _critical_data(a, failures)
    return _idempotents(roots, values, failures.ok)


def sweep_cardy_pair(model):
    """The stacked Cardy pair that one ``verify_bundle`` sweep hands to
    ``_cardy_checks``: the base point and BUNDLE_SAMPLE_POINTS sample
    points."""
    seen = []

    def recording(cf, tol):
        seen.append(cf)
        return _cardy_checks(cf, tol)

    bundle._cardy_checks = recording
    try:
        lib.verify_bundle(model, sample_points=BUNDLE_SAMPLE_POINTS)
    finally:
        bundle._cardy_checks = _cardy_checks
    [cf] = seen
    return cf


def time_batch(fn, batch):
    """Wall seconds of ``batch`` calls of ``fn``."""
    t = time.perf_counter()
    for _ in range(batch):
        fn()
    return time.perf_counter() - t


def time_call(fn):
    """Call ``fn`` in batches that span at least SAMPLE_S each; returns the
    cell's timing record, per call."""
    batch = 1
    while time_batch(fn, batch) < SAMPLE_S:
        batch *= 2
    times, refs = [], []
    start = time.perf_counter()
    while len(times) < MIN_SAMPLES or (time.perf_counter() - start < BUDGET_S
                                       and len(times) < MAX_SAMPLES):
        times.append(time_batch(fn, batch) / batch)
        refs.append(calibration.reference_seconds())
    return {
        "calls": batch * len(times),
        "batch": batch,
        "median_ms": 1e3 * statistics.median(times),
        "min_ms": 1e3 * min(times),
        "median_rescaled_ms": 1e3 * statistics.median(calibration.rescale(times, refs)),
    }


def series_route(model, chart, tol, t_degree=4):
    """The series route of ``verify_bundle`` on a clean model: the
    coefficient vector over the structural keys, then the numeric pass on
    the cached layout."""
    _, layout, coeffs = bundle._assemble(model, chart, model.cf, t_degree)
    return _conditions(layout, coeffs, tol)


def layers(model):
    """The timed calls of each layer on one model, by layer name."""
    n, p, closed, cf = model.n, model.p, model.closed, model.cf
    chart = _chart_on(closed)
    series = lib.assemble_potential(model)
    ga, gb = cf.a.gram(), cf.b.gram()
    tol = lib.EQ_TOL
    stacks = {count: seeded_stack(n, count) for count in CRITICAL_STACKS}
    potential, _ = lib.reconstruct_potential(n)
    points = np.random.default_rng(42).uniform(-0.8, 0.8, size=(WDVV_POINTS, n))
    swept = sweep_cardy_pair(model)
    t5 = {}
    if n <= SERIES_T5_MAX_N:
        series_route(model, chart, tol, 5)  # builds the layout and fits the potential
        t5["series_route_t5"] = lambda: series_route(model, chart, tol, 5)
    return {
        "critical_points": lambda: lib.critical_points(p),
        "build_closed": lambda: lib.build_closed(p.n, p.a),
        "critical_data_s%d" % BUNDLE_SAMPLE_POINTS:
            lambda: sweep_critical_data(stacks[BUNDLE_SAMPLE_POINTS]),
        "critical_data_s%d" % FIT_DRAWS: lambda: _critical_data(stacks[FIT_DRAWS],
                                                                 _Failures(FIT_DRAWS)),
        "flat_chart": lambda: lib.flat_chart(p.n, p.a),
        "chart_on": lambda: _chart_on(closed),
        "structure_tensor": lambda: lib.structure_tensor(chart),
        "cardy_trace": lambda: _worst([_trace_route(cf, ga, gb)]),
        "cardy_coordinate": lambda: _worst([_coordinate_route(cf, ga, gb)]),
        "verify_cardy_frobenius": lambda: lib.verify_cardy_frobenius(cf),
        "cardy_stack_s%d" % (1 + BUNDLE_SAMPLE_POINTS): lambda: _cardy_checks(swept, tol),
        "verify_frobenius_bulk": lambda: lib.verify_frobenius(cf.a, commutative=True),
        "verify_frobenius_boundary": lambda: lib.verify_frobenius(cf.b),
        "build_quaternion_model": lambda: lib.build_quaternion_model(p.n, p.a),
        "corrupt_model": lambda: lib.corrupt_model(model, "b_associativity"),
        "cubic_blocks": lambda: bundle._cubic_blocks(cf.b, gb),
        "reconstruct_potential": lambda: lib.reconstruct_potential(n),
        "wdvv_check": lambda: lib.wdvv_check(potential, points),
        "assemble_potential": lambda: lib.assemble_potential(model),
        "ext_wdvv_check": lambda: lib.ext_wdvv_check(series),
        "series_route": lambda: series_route(model, chart, tol),
        **t5,
        "verify_bundle": lambda: lib.verify_bundle(model, sample_points=BUNDLE_SAMPLE_POINTS),
        **report_writers(model),
    }


def report_writers(model):
    """The report writer ``cli._dumps`` of each CLI subcommand, timed on the
    report of its ``cli_argvs`` run."""
    cells = {}
    for name, argv in cli_argvs(model).items():
        report, _ = cli.run(cli._config_from_args(cli._ARGPARSER.parse_args(argv)))
        cells["report_writer_" + name] = lambda report=report: cli._dumps(report)
    return cells


def cli_argvs(model):
    """One argv per CLI subcommand on the model's coefficients."""
    a = tuple(complex(z) for z in np.asarray(model.p.a, dtype=complex))
    on_model = ["--n", str(model.n), workloads._format_a(a)]
    return {
        "build": ["build"] + on_model,
        "verify-cf": ["verify-cf"] + on_model,
        "chart": ["chart"] + on_model,
        "potential": ["potential", "--n", str(model.n)],
        "wdvv": ["wdvv", "--n", str(model.n)],
        "ext-wdvv": ["ext-wdvv"] + on_model,
        "bundle": ["bundle"] + on_model,
    }


def src_lines():
    """Lines of the package source, as ``wc -l src/lgcardy/*.py`` counts them."""
    folder = os.path.join(ROOT, "src", "lgcardy")
    total = 0
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError("lgcardy %s exited %s" % (" ".join(argv), code))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)

    result = {
        "label": args.label,
        "created": datetime.now(timezone.utc).isoformat(),
        "machine": perfbench_run.environment(),
        "reference_s": calibration.REFERENCE_S,
        "bundle_sample_points": BUNDLE_SAMPLE_POINTS,
        "src_lines": src_lines(),
        "layers": {},
        "cli": {},
    }
    for n in SIZES:
        model = seeded_model(n)
        _reversion_table(n)  # the per-process cache every chart reads
        for name, fn in layers(model).items():
            cell = time_call(fn)
            result["layers"].setdefault(name, {})[str(n)] = cell
            print("n=%d %-26s %10.3f ms  (%d calls)" % (n, name, cell["median_ms"], cell["calls"]),
                  flush=True)
        for name, argv_n in cli_argvs(model).items():
            cell = time_call(lambda: run_cli(argv_n))
            result["cli"].setdefault(name, {})[str(n)] = cell
            print("n=%d cli %-22s %10.3f ms  (%d calls)" % (n, name, cell["median_ms"], cell["calls"]),
                  flush=True)
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
