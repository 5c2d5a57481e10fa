"""Oracle self-test, run at the start of every benchmark run: a verifier
that checks less must be caught.

One cycle of every workload runs against a stand-in for lgcardy whose
verifiers report a pass with every expected residual at zero, without
computing anything.  The oracle must judge every corrupted job failed, and
every CLI job whose reported numbers it checks independently, so a change
that "speeds up" by checking less shows as failed jobs and an incorrect
run.  A stand-in whose verifiers raise must fail every job, and must make
every known-defect kind fail otherwise than documented.
"""

import json
from types import SimpleNamespace

import workloads as wl


def _always_pass(lib):
    def report(subject, names):
        return lib.VerificationReport(subject, 1e-9, {name: 0.0 for name in names}, {})

    def verify_cardy_frobenius(cf, tol=None):
        return report(cf.name, wl.CF_RESIDUALS)

    def verify_frobenius(pair, tol=None, commutative=False):
        return report(pair.name, wl.BULK_RESIDUALS)

    def verify_bundle(model, **kwargs):
        return SimpleNamespace(
            passed=True, series_passed=True, pointwise_passed=True, routes_agree=True,
            conditions=report("ext_wdvv", wl.SERIES_CONDITIONS),
        )

    def main(argv):
        command, n = argv[0], int(argv[2])
        zeros = [[0.0, 0.0]] * n
        print(json.dumps({
            "command": command,
            "residuals": [{"name": name, "value": 0.0, "tol": 1e-9, "pass": True}
                          for name in sorted(wl.CLI_RESIDUALS[command])],
            "data": {"mu": zeros, "t": zeros, "ttilde": zeros, "tangents": [zeros] * n,
                     "potential": {"n": n, "monomials": []}},
            "passed": True,
        }))
        return 0

    return SimpleNamespace(
        build_quaternion_model=lib.build_quaternion_model,
        corrupt_model=lib.corrupt_model,
        verify_cardy_frobenius=verify_cardy_frobenius,
        verify_frobenius=verify_frobenius,
        verify_bundle=verify_bundle,
        cli=SimpleNamespace(main=main),
    )


def _always_raise(lib):
    def fail(*args, **kwargs):
        raise RuntimeError("verifier unavailable")

    return SimpleNamespace(
        build_quaternion_model=lib.build_quaternion_model,
        corrupt_model=lib.corrupt_model,
        verify_cardy_frobenius=fail,
        verify_frobenius=fail,
        verify_bundle=fail,
        cli=SimpleNamespace(main=fail),
    )


def _must_fail(job):
    """Jobs the always-pass stand-in must not get through."""
    return job.kind.corruption is not None or job.kind.command in wl.CLI_CHECKS


def run(lib):
    """Problems found; an empty list means the oracle is sound."""
    problems = []
    for workload in wl.CYCLES:
        jobs = wl.generate(workload, seed=0, count=len(wl.CYCLES[workload]))
        stub = _always_pass(lib)
        tally = wl.Tally()
        for job in jobs:
            outcome, error = wl.run_job(stub, workload, job)
            problem = wl.judge(workload, job, outcome, error)
            tally.add(job, problem)
            if _must_fail(job) and problem is None:
                problems.append("%s: always-pass verifier got %s through"
                                % (workload, job.kind.name))
        if not any(_must_fail(job) for job in jobs) or tally.correct:
            problems.append("%s: always-pass verifier left the run correct" % workload)
        stub = _always_raise(lib)
        for job in jobs:
            outcome, error = wl.run_job(stub, workload, job)
            problem = wl.judge(workload, job, outcome, error)
            if problem is None:
                problems.append("%s: raising verifier's %s judged pass"
                                % (workload, job.kind.name))
        for line in wl.known_defects(stub, workload, seed=0):
            if "fails otherwise than documented" not in line:
                problems.append("%s: raising verifier: %s" % (workload, line))
    return problems
