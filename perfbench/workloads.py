"""Workloads of the lgcardy benchmark: seeded inputs, job runners and the oracle.

A job is one verification a user would ask for.  Each workload repeats a
fixed cycle of job kinds; the coefficients of every job are drawn from the
workload seed, i.i.d. complex normal at a stated scale (the distribution of
``lgcardy.moduli.sample_charts``).  A draw is rejected only when the
critical points (the roots of p', computed with numpy) collide, never
because of a verdict.

Every kind carries the verdict a correct verifier gives, and every kind in
a cycle gets that verdict from lgcardy today, so a timed run fails no job.
Kinds whose verdict is known to be wrong today are marked ``known_defect``
and kept out of the cycles, in ``KNOWN_DEFECTS``: each run tries them once,
outside its timing and tally, and prints whether each still fails exactly
as its defect is documented to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SCALE = 0.8  # default scale of moduli.sample_charts
LARGE_SCALE = 1e3
CORRUPTIONS = ("t_symmetry", "b_associativity", "centrality", "homomorphism", "cardy")
# jobs generated per run, rounded up to whole cycles; the timed loop wraps
# around the pool
POOL = 1024
BUNDLE_SAMPLE_POINTS = 10

DEFECT_T5 = "series route wrong above truncation 4: condition_6 fires, routes disagree (ROADMAP item 3)"
DEFECT_SCALE = "absolute eq_tol: chart FAILs on 1e3-scale coefficients at large n (ROADMAP item 5)"
# what judge() returns for a known-defect job that failed as documented
AS_DOCUMENTED = "failed as its known defect is documented to"


@dataclass(frozen=True)
class Kind:
    """One kind of job and the verdict a correct verifier gives it."""

    name: str
    n: int
    scale: float = SCALE
    corruption: str = None
    t_degree: int = 4
    command: str = None
    known_defect: str = None


@dataclass(frozen=True)
class Job:
    index: int
    kind: Kind
    a: tuple
    argv: tuple = None


def _pointwise_cycle():
    # n cycles 3, 4, 5; every fourth job is corrupted, and over 60 jobs each
    # corruption meets each n once per 15 corrupted jobs.
    kinds = []
    for j in range(60):
        n = (3, 4, 5)[j % 3]
        if j % 4 == 3:
            c = CORRUPTIONS[(j // 4) % len(CORRUPTIONS)]
            kinds.append(Kind("cf-n%d-%s" % (n, c), n, corruption=c))
        else:
            kinds.append(Kind("cf-n%d" % n, n))
    return tuple(kinds)


def _spread(base, extra):
    """``base`` with the items of ``extra`` spaced evenly through it."""
    out = list(base)
    step = (len(base) + len(extra)) / len(extra)
    for k, item in enumerate(extra):
        out.insert(int(k * step + step / 2), item)
    return tuple(out)


def _bundle_cycle():
    clean2 = Kind("bundle-n2", 2)
    clean3 = Kind("bundle-n3", 3)
    bad2 = [Kind("bundle-n2-%s" % c, 2, corruption=c) for c in CORRUPTIONS]
    bad3 = [Kind("bundle-n3-%s" % c, 3, corruption=c) for c in CORRUPTIONS]
    # At truncation 5 condition_6 fires spuriously (ROADMAP item 3), so clean
    # models there are a known defect, a cardy corruption fires it before its
    # predicted condition_7, and a homomorphism corruption, which predicts
    # condition_6, would pass the oracle unseen.  The other three remain.
    t5 = [Kind("bundle-n2-t5-%s" % c, 2, corruption=c, t_degree=5)
          for c in ("t_symmetry", "b_associativity", "centrality")]
    # Latency modes: n=2 at t_degree 4 ~60 ms (21 of 30 jobs), n=2 at
    # t_degree 5 ~180 ms (3), n=3 300-450 ms (6).  p50 falls at 0.7 of the
    # n=2 mode and p90 in the middle of the n=3 mode.
    n2 = _spread([clean2] * 16, bad2)
    return _spread(n2, [clean3, t5[0], bad3[0], bad3[1], t5[1], bad3[2], bad3[3], t5[2],
                        bad3[4]])


def _family_cycle():
    chart = {n: Kind("chart-n%d" % n, n, command="chart") for n in range(2, 9)}
    # At scale 1e3 only n=2 has a stable passing verdict (a 2000x margin);
    # for n=3..6 the verdict depends on the draw, and n=7, 8 always fail,
    # a known defect.
    large2 = Kind("chart-n2-1e3", 2, scale=LARGE_SCALE, command="chart")
    build = {n: Kind("build-n%d" % n, n, command="build") for n in range(2, 9)}
    pot = {n: Kind("potential-n%d" % n, n, command="potential") for n in (2, 3, 4)}
    wdvv = {n: Kind("wdvv-n%d" % n, n, command="wdvv") for n in (2, 3, 4)}
    # 48 jobs.  34 take under ~35 ms (charts, builds up to n=4), so p50
    # falls at 0.7 of that mode.  Of the 14 slow ones, the six n=3
    # potential/wdvv jobs (200-450 ms) hold quantiles 0.83-0.96 and the two
    # at n=4 the top 4%, so p90 falls inside the n=3 mode.
    small = _spread(
        [chart[n] for n in range(2, 9)] * 3,
        [large2, build[2], large2, build[3], large2, build[4], large2,
         build[2], large2, build[3], large2, build[4], large2],
    )
    slow = [pot[3], build[5], wdvv[3], pot[2], build[6], pot[3], wdvv[4],
            wdvv[3], build[7], wdvv[2], pot[3], build[8], wdvv[3], pot[4]]
    return _spread(small, slow)


CYCLES = {
    "pointwise-cf": _pointwise_cycle(),
    "bundle-series": _bundle_cycle(),
    "family-cli": _family_cycle(),
}

# the kinds of job lgcardy gets wrong today, by workload
KNOWN_DEFECTS = {
    "bundle-series": (Kind("bundle-n2-t5", 2, t_degree=5, known_defect=DEFECT_T5),),
    "family-cli": tuple(Kind("chart-n%d-1e3" % n, n, scale=LARGE_SCALE, command="chart",
                             known_defect=DEFECT_SCALE) for n in (7, 8)),
}


def _critical_data(n, a):
    """Roots of p' and the weights 1/p''(alpha), from numpy alone."""
    coeffs = np.zeros(n + 2, dtype=complex)  # descending coefficients of p
    coeffs[0] = 1.0
    coeffs[2:] = a
    dp = np.polyder(coeffs)
    roots = np.roots(dp)
    weights = 1.0 / np.polyval(np.polyder(dp), roots)
    return roots, weights


def draw_coefficients(rng, n, scale):
    while True:
        a = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        roots, _ = _critical_data(n, a)
        gaps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gaps, np.inf)
        if float(np.min(gaps)) >= 1e-6 * max(1.0, float(np.max(np.abs(roots)))):
            return tuple(complex(z) for z in a)


def _format_a(a):
    return "--a=" + " ".join("%r,%r" % (z.real, z.imag) for z in a)


def _make_job(rng, index, kind):
    a = None
    argv = None
    if kind.command in ("potential", "wdvv"):
        argv = (kind.command, "--n", str(kind.n), "--seed", str(int(rng.integers(2**31))))
    else:
        a = draw_coefficients(rng, kind.n, kind.scale)
        if kind.command is not None:
            argv = (kind.command, "--n", str(kind.n), _format_a(a))
    return Job(index, kind, a, argv)


def generate(workload, seed, count=POOL):
    """At least ``count`` jobs of a workload, in whole cycles, all
    determined by ``seed``."""
    cycle = CYCLES[workload]
    count = -(-count // len(cycle)) * len(cycle)
    rng = np.random.default_rng(seed)
    return [_make_job(rng, i, cycle[i % len(cycle)]) for i in range(count)]


def known_defects(lib, workload, seed):
    """One job of each known-defect kind of ``workload``, drawn from
    ``seed``, run and judged outside any timing; one line of status each."""
    rng = np.random.default_rng([seed, 1])
    lines = []
    for kind in KNOWN_DEFECTS.get(workload, ()):
        job = _make_job(rng, -1, kind)
        outcome, error = run_job(lib, workload, job)
        problem = judge(workload, job, outcome, error)
        if problem == AS_DOCUMENTED:
            status = "still fails as documented: " + kind.known_defect
        elif problem is None:
            status = "now gets the right verdict"
        else:
            status = "fails otherwise than documented: " + problem
        lines.append("known defect %s: %s" % (kind.name, status))
    return lines


def fill_caches(lib, workload, jobs):
    """Fill the per-process caches the workload's jobs would otherwise fill.

    These are the ``reversion_polynomials`` cache, used by every flat chart,
    and the bulk potential cache that ``assemble_potential`` keeps for
    truncations above 4.
    """
    kinds = CYCLES[workload]
    if workload != "pointwise-cf":
        for n in sorted({k.n for k in kinds}):
            lib.reversion_polynomials(n)
    for job in jobs:
        if job.kind.command is None and job.kind.t_degree > 4:
            model = lib.build_quaternion_model(n=job.kind.n, a=job.a)
            lib.assemble_potential(model, t_degree=job.kind.t_degree)
            break


# ---------------------------------------------------------------- runners


def _run_pointwise(lib, job):
    model = lib.build_quaternion_model(n=job.kind.n, a=job.a)
    cf = model.cf if job.kind.corruption is None else lib.corrupt_model(model, job.kind.corruption)
    return (
        lib.verify_cardy_frobenius(cf),
        lib.verify_frobenius(cf.a, commutative=True),
        lib.verify_frobenius(cf.b),
    )


def _run_bundle(lib, job):
    model = lib.build_quaternion_model(n=job.kind.n, a=job.a)
    return lib.verify_bundle(
        model,
        t_degree=job.kind.t_degree,
        sample_points=BUNDLE_SAMPLE_POINTS,
        corruption=job.kind.corruption,
    )


def _run_cli(lib, job):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


RUNNERS = {
    "pointwise-cf": _run_pointwise,
    "bundle-series": _run_bundle,
    "family-cli": _run_cli,
}


def run_job(lib, workload, job):
    """Run one job; returns (outcome, error text or None)."""
    try:
        return RUNNERS[workload](lib, job), None
    except Exception as exc:  # a raising job is judged failed, the run goes on
        return None, "%s: %s" % (type(exc).__name__, exc)


# ----------------------------------------------------------------- oracle

CF_RESIDUALS = {"commutativity", "homomorphism", "unit_preservation", "centrality",
                "cardy_trace", "cardy_coordinate"}
BULK_RESIDUALS = {"associativity", "unit", "form_symmetry", "commutativity"}
BOUNDARY_RESIDUALS = {"associativity", "unit", "form_symmetry"}
# residual that must fire for each corruption: (report index, name)
CF_FIRES = {
    "t_symmetry": ((0, "commutativity"), (1, "commutativity")),
    "b_associativity": ((2, "associativity"),),
    "centrality": ((0, "centrality"),),
    "homomorphism": ((0, "homomorphism"),),
    "cardy": ((0, "cardy_trace"), (0, "cardy_coordinate")),
}
SERIES_CONDITIONS = ("condition_1", "condition_3", "condition_4", "condition_5",
                     "condition_6", "condition_7")
PREDICTED_CONDITION = {
    "t_symmetry": "condition_1",
    "b_associativity": "condition_4",
    "centrality": "condition_5",
    "homomorphism": "condition_6",
    "cardy": "condition_7",
}
CLI_RESIDUALS = {
    "chart": {"metric_constancy", "grading_of_p", "grading_of_flat_coordinates",
              "grading_of_raw_coordinates"},
    "build": {"idempotent_products", "unit_sum"},
    "potential": {"fit_residual", "quasi_homogeneity"},
    "wdvv": {"fit_residual", "associativity", "normalization", "quasi_homogeneity"},
}
INDEPENDENT_TOL = 1e-6


def _missing(report, names):
    return sorted(set(names) - set(report.residuals))


def _judge_pointwise(job, reports):
    for rep, names in zip(reports, (CF_RESIDUALS, BULK_RESIDUALS, BOUNDARY_RESIDUALS)):
        missing = _missing(rep, names)
        if missing:
            return "%s lacks %s" % (rep.subject, missing)
    cf = reports[0]
    trace_fails = cf.residuals["cardy_trace"] > cf.tol
    coord_fails = cf.residuals["cardy_coordinate"] > cf.tol
    if trace_fails != coord_fails:
        return "the two transfer identity routes disagree"
    passed = all(rep.passed for rep in reports)
    corruption = job.kind.corruption
    if corruption is None:
        return None if passed else "clean model judged FAIL"
    if passed:
        return "corrupted model judged pass"
    for index, name in CF_FIRES[corruption]:
        rep = reports[index]
        if not rep.residuals[name] > rep.tol:
            return "%s did not fire %s" % (corruption, name)
    return None


def _judge_bundle(job, rep):
    missing = _missing(rep.conditions, SERIES_CONDITIONS)
    if missing:
        return "series report lacks %s" % missing
    tol = rep.conditions.tol
    fired = sorted(k for k, v in rep.conditions.residuals.items() if v > tol)
    corruption = job.kind.corruption
    if corruption is None:
        if (job.kind.known_defect == DEFECT_T5 and fired == ["condition_6"]
                and rep.pointwise_passed and not (rep.series_passed or rep.passed
                                                  or rep.routes_agree)):
            return AS_DOCUMENTED
        if not rep.routes_agree:
            return "routes disagree on a clean model"
        return None if rep.passed else "clean model judged FAIL"
    if not rep.routes_agree:
        return "routes disagree on a corrupted model"
    if rep.series_passed or rep.pointwise_passed:
        return "corrupted model judged pass"
    predicted = PREDICTED_CONDITION[corruption]
    if not fired or fired[0] != predicted:
        return "%s fired %s, predicted %s first" % (corruption, fired, predicted)
    return None


def _match_error(got, want):
    """Worst distance from each reported value to the nearest expected one."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.min(np.abs(got[:, None] - want[None, :]), axis=1))) / scale


def _complex_list(rows):
    return [complex(re, im) for re, im in rows]


def _check_build(job, data):
    _, weights = _critical_data(job.kind.n, job.a)
    if _match_error(_complex_list(data["mu"]), weights) > INDEPENDENT_TOL:
        return "reported weights mu differ from numpy's 1/p''(alpha)"
    return None


def _check_chart(job, data):
    """Flat metric of the reported tangents, by partial fractions in numpy."""
    roots, weights = _critical_data(job.kind.n, job.a)
    tangents = [np.array(_complex_list(t))[::-1] for t in data["tangents"]]
    values = np.array([np.polyval(t, roots) for t in tangents])
    metric = (values * weights) @ values.T
    flip = np.fliplr(np.eye(job.kind.n))
    if float(np.max(np.abs(metric - flip))) > INDEPENDENT_TOL:
        return "reported tangents are not flat under the residue pairing"
    return None


def _chart_well_formed(n, data):
    """The chart's coordinates and tangents: n finite complex numbers each."""
    rows = np.asarray([data["t"], data["ttilde"], *data["tangents"]], dtype=float)
    return rows.shape == (n + 2, n, 2) and bool(np.all(np.isfinite(rows)))


def _load_reference_potentials():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_potentials.json")
    with open(path) as fh:
        recorded = json.load(fh)["potentials"]
    return {int(n): _monomials(pot) for n, pot in recorded.items()}


def _monomials(potential):
    return {tuple(m["exponents"]): complex(*m["coeff"]) for m in potential["monomials"]}


# the output of `potential --n N` for N = 2, 3, 4 (see the file for the
# commit); the fit does not depend on --seed beyond ~1e-15
REFERENCE_POTENTIALS = _load_reference_potentials()


def _check_potential(job, data):
    want = REFERENCE_POTENTIALS[job.kind.n]
    got = _monomials(data["potential"])
    if set(got) != set(want):
        return "potential has monomials %s, the reference %s" % (sorted(got), sorted(want))
    scale = max(1.0, max(abs(c) for c in want.values()))
    if max(abs(got[e] - want[e]) for e in want) > INDEPENDENT_TOL * scale:
        return "potential differs from the reference potential"
    return None


# independent checks of the numbers a CLI command reports; wdvv reports
# residuals only, so it is judged by its exit code and pass flags
CLI_CHECKS = {"build": _check_build, "chart": _check_chart, "potential": _check_potential}


def _judge_cli(job, outcome):
    code, out, err = outcome
    if code not in (0, 1):
        return "exit code %r: %s" % (code, err.strip()[:200])
    report = json.loads(out)
    command = job.kind.command
    entries = {e["name"]: e for e in report["residuals"]}
    missing = sorted(CLI_RESIDUALS[command] - set(entries))
    if missing:
        return "%s report lacks %s" % (command, missing)
    for e in entries.values():
        if not math.isfinite(e["value"]) or e["pass"] != (e["value"] <= e["tol"]):
            return "residual %s has an inconsistent pass flag" % e["name"]
    if report["passed"] != (code == 0):
        return "exit code disagrees with the report"
    data = report["data"]
    if (job.kind.known_defect == DEFECT_SCALE and code == 1
            and any(not entries[name]["pass"] for name in CLI_RESIDUALS["chart"])
            and _chart_well_formed(job.kind.n, data)):
        return AS_DOCUMENTED
    check = CLI_CHECKS.get(command)
    problem = check(job, data) if check else None
    if problem:
        return problem
    return None if code == 0 else "valid model judged FAIL"


JUDGES = {
    "pointwise-cf": _judge_pointwise,
    "bundle-series": _judge_bundle,
    "family-cli": _judge_cli,
}


def judge(workload, job, outcome, error):
    """None when the verdict matches the oracle, AS_DOCUMENTED when a
    known-defect job fails as documented, else the reason it does not match."""
    if error is not None:
        return "raised " + error
    try:
        return JUDGES[workload](job, outcome)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return "malformed result: %s: %s" % (type(exc).__name__, exc)


@dataclass
class Tally:
    """Jobs attempted and failed, and the first failure."""

    attempted: int = 0
    failed: int = 0
    first_failure: str = None

    def add(self, job, problem):
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = "job %d (%s): %s" % (job.index, job.kind.name, problem)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def report_bytes(workload, outcome):
    """Bytes of JSON the CLI printed for one job (0 outside family-cli)."""
    if workload != "family-cli" or outcome is None:
        return 0
    return len(outcome[1].encode())
