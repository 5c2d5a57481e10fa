"""Replay a fixed grid of models through lgcardy, and compare two replays.

    python bench/replay.py dump OUT.jsonl
    python bench/replay.py diff A.jsonl B.jsonl
    python bench/replay.py pin [OUT.json]

``dump`` imports the package from the ``src/`` of the checkout the script
sits in and runs a fixed, seeded grid: for n = 1..8 and the coefficient
scales 0.8 and 1e3 it draws one model the way the perfbench workloads draw
theirs (``perfbench/workloads.draw_coefficients``), runs every CLI
subcommand on it in process, with ``chart --index-reversal`` and
``bundle --paper-scale`` besides, ``bundle`` and ``ext-wdvv`` at
``--t-degree 5`` for n <= 4, and runs ``verify_bundle`` at t_degree 4,
at t_degree 5 for n <= 3 and at t_degree 6 for n <= 2, clean and with
every corruption (``CORRUPTIONS`` and ``phi_swap``).  For each model it
also records the critical data of ``build_closed``: the roots, mu and the
functional values.
``potential`` and ``wdvv`` take no model; they run once per n, under both
index conventions.  It writes one canonical JSON line per report: the
case, the exit code (CLI) or the raised error, ``passed``,
``routes_agree`` where the report has it, every residual and margin
row as [name, value, tol, pass], for a ``verify_bundle`` report its
``worst_sample``, ``frame_drift`` and ``frame_scale_spread``, and for a
CLI report the sha256 of its text with the ``"timestamp"`` line removed.  The first line records the
machine and the source, with the helpers of ``perfbench/run.py``.

``diff`` reads two dumps and prints every verdict flip, row flip,
exit-code change and change of raised error type, then the largest
relative value gap |a - b| / max(1, |a|) per row name, per frame value
and per critical datum (roots, mu, functional values), the models whose
root order changed (a root of the first dump nearest another slot in the
second), the ``worst_sample`` maps that changed, the raised messages
that changed, and the CLI report texts that changed (counted over the
cases whose records in both dumps carry a digest).  It exits 1 when
anything flipped, else 0; a changed text alone is not a flip.

``pin`` runs the same grid and writes its verdicts alone, one per case
(``verdict``: the exit code or raised error type, ``passed``,
``routes_agree`` and the names of the failing rows; no values), to the
golden file that ``tests/test_replay_verdicts.py`` replays against
(default ``tests/replay_verdicts.json``).  A change that moves a verdict
rewrites that file in the same commit.  ``dump`` and ``diff`` are not
part of the test suite.

Only the script entry puts ``src/`` on ``sys.path`` and caps the BLAS
threads in the environment; imported as a module, the script reads
``lgcardy`` from the path it is given and leaves both alone.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _perfbench(name):
    """perfbench/<name>.py, loaded from its path under the module name
    ``perfbench_<name>``, so that nothing is put on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    # the package of this checkout, and the BLAS caps before numpy is imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _perfbench("run").cap_blas_threads()

import numpy as np  # noqa: E402

import lgcardy as lib  # noqa: E402
from lgcardy import cli  # noqa: E402
from lgcardy.frobenius import complex_to_json  # noqa: E402

workloads = _perfbench("workloads")

SIZES = range(1, 9)
SCALES = (workloads.SCALE, workloads.LARGE_SCALE)
# (subcommand, extra options, largest n) of each CLI run on a model; a
# truncation-5 bundle takes 0.3 s at n=4 and 2.4 s at n=6
MODEL_RUNS = tuple((command, [], 8) for command in
                   ("build", "verify-cf", "chart", "ext-wdvv", "bundle")) + (
    ("chart", ["--index-reversal"], 8),
    ("bundle", ["--paper-scale"], 8),
    ("bundle", ["--t-degree", "5"], 4),
    ("ext-wdvv", ["--t-degree", "5"], 4),
)
BUNDLE_CORRUPTIONS = (None,) + tuple(lib.CORRUPTIONS) + ("phi_swap",)
# (t_degree, largest n) of the verify_bundle runs; the case names of
# t_degree 4 carry no truncation
BUNDLE_TRUNCATIONS = ((4, 8), (5, 3), (6, 2))
CLOSED_DATA = ("roots", "mu", "functional_values")


def draw_model(n, scale):
    rng = np.random.default_rng([2005, n, int(scale * 10)])
    return workloads.draw_coefficients(rng, n, scale)


def _rows(residuals, margins):
    return [[r["name"], r["value"], r["tol"], r["pass"]] for r in residuals + margins]


def _error(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


def cli_record(case, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = {"case": case, "argv": argv, "exit": code}
    if code in (0, 1):
        report = json.loads(out.getvalue())
        record["passed"] = report["passed"]
        record["routes_agree"] = report["data"].get("routes_agree")
        record["rows"] = _rows(report["residuals"], report["margins"])
        text = "".join(ln for ln in out.getvalue().splitlines(True) if '"timestamp"' not in ln)
        record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        record["stderr"] = err.getvalue().strip()
    return record


def bundle_record(case, a, corruption, t_degree):
    record = {"case": case, "corruption": corruption}
    try:
        model = lib.build_quaternion_model(n=len(a), a=a)
        rep = lib.verify_bundle(model, t_degree=t_degree, corruption=corruption)
    except Exception as exc:  # the raise itself is part of the record
        record["raised"] = _error(exc)
        return record
    record["passed"] = rep.passed
    record["routes_agree"] = rep.routes_agree
    record["rows"] = _rows(*rep.entries())
    record["worst_sample"] = rep.worst_sample
    record["frame"] = {"frame_drift": rep.frame_drift,
                       "frame_scale_spread": rep.frame_scale_spread}
    return record


def closed_record(case, a):
    record = {"case": case}
    try:
        closed = lib.build_closed(n=len(a), a=a)
    except Exception as exc:  # the raise itself is part of the record
        record["raised"] = _error(exc)
        return record
    record["closed"] = {name: complex_to_json(getattr(closed, name))
                        for name in CLOSED_DATA}
    return record


def grid():
    """A thunk per report of the replay grid, in a fixed order."""
    for n in SIZES:
        for command in ("potential", "wdvv"):
            for extra in ([], ["--index-reversal"]):
                argv = [command, "--n", str(n)] + extra
                yield lambda argv=argv: cli_record(" ".join(argv), argv)
        for scale in SCALES:
            a = draw_model(n, scale)
            where = "n=%d scale=%g" % (n, scale)
            yield lambda where=where, a=a: closed_record("build_closed " + where, a)
            for command, extra, largest in MODEL_RUNS:
                if n > largest:
                    continue
                argv = [command, "--n", str(n), workloads._format_a(a)] + extra
                case = " ".join([command] + extra + [where])
                yield lambda case=case, argv=argv: cli_record(case, argv)
            for t_degree, largest in BUNDLE_TRUNCATIONS:
                if n > largest:
                    continue
                for corruption in BUNDLE_CORRUPTIONS:
                    case = "verify_bundle%s %s corruption=%s" % (
                        "" if t_degree == 4 else " t_degree=%d" % t_degree, where, corruption)
                    yield lambda case=case, corruption=corruption, a=a, t=t_degree: bundle_record(
                        case, a, corruption, t)


def verdict(record):
    """The verdict of a record, without values: the exit code or raised
    error type, ``passed``, ``routes_agree`` and the failing rows."""
    out = {key: record[key] for key in ("exit", "passed", "routes_agree") if key in record}
    if "exit" not in record:  # a library call: the type of its error, None if it returned
        out["raised"] = record.get("raised", {}).get("type")
    if "rows" in record:
        out["failing"] = sorted(name for name, _, _, ok in record["rows"] if not ok)
    return out


def verdicts():
    """The verdict of every case of the grid, by case name."""
    return {r["case"]: verdict(r) for r in (thunk() for thunk in grid())}


def pin(path):
    """Write the grid's verdicts to ``path`` as a JSON object, one case a line."""
    lines = ["%s: %s" % (json.dumps(case), json.dumps(v, sort_keys=True))
             for case, v in sorted(verdicts().items())]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print("wrote the verdicts of the grid to %s" % path)
    return 0


def dump(path):
    with open(path, "w") as fh:
        header = {"case": None, "machine": _perfbench("run").environment()}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        count = 0
        for thunk in grid():
            fh.write(json.dumps(thunk(), sort_keys=True) + "\n")
            count += 1
    print("wrote %d reports to %s" % (count, path))
    return 0


def _load(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {r["case"]: r for r in records if r["case"] is not None}


def _gap(a, b):
    if a is None or b is None:
        return 0.0 if a == b else math.inf
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(1.0, abs(a))


def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def diff(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    flips, messages, texts, samples, reordered = [], [], [], [], []
    digests = 0  # cases whose records in both dumps carry a text digest
    gaps = {}  # row name -> (gap, case)
    for case in sorted(set(a) | set(b)):
        if case not in a or case not in b:
            flips.append("%s: only in %s" % (case, path_a if case in a else path_b))
            continue
        ra, rb = a[case], b[case]
        for key in ("exit", "passed", "routes_agree"):
            if ra.get(key) != rb.get(key):
                flips.append("%s: %s %r -> %r" % (case, key, ra.get(key), rb.get(key)))
        ea, eb = ra.get("raised"), rb.get("raised")
        if (ea or {}).get("type") != (eb or {}).get("type"):
            flips.append("%s: raised %r -> %r" % (case, ea, eb))
        elif ea != eb or ra.get("stderr") != rb.get("stderr"):
            messages.append("%s: %r -> %r" % (case, ea or ra.get("stderr"), eb or rb.get("stderr")))
        if "sha256" in ra and "sha256" in rb:
            digests += 1
            if ra["sha256"] != rb["sha256"]:
                texts.append(case)
        if ra.get("worst_sample") != rb.get("worst_sample"):
            samples.append("%s: %r -> %r" % (case, ra.get("worst_sample"), rb.get("worst_sample")))
        closed_a, closed_b = ra.get("closed"), rb.get("closed")
        if closed_a and closed_b:
            for name in CLOSED_DATA:
                va, vb = _complex(closed_a[name]), _complex(closed_b[name])
                gap = float(np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va)), initial=0.0))
                if "closed." + name not in gaps or gap > gaps["closed." + name][0]:
                    gaps["closed." + name] = (gap, case)
            roots_a, roots_b = _complex(closed_a["roots"]), _complex(closed_b["roots"])
            nearest = np.argmin(np.abs(roots_a[:, None] - roots_b[None]), axis=1)
            if not np.array_equal(nearest, np.arange(len(roots_a))):
                reordered.append("%s: %s" % (case, nearest.tolist()))
        frame_a, frame_b = ra.get("frame", {}), rb.get("frame", {})
        for name in sorted(frame_a.keys() & frame_b.keys()):
            gap = _gap(frame_a[name], frame_b[name])
            if "data." + name not in gaps or gap > gaps["data." + name][0]:
                gaps["data." + name] = (gap, case)
        rows_a = {row[0]: row for row in ra.get("rows", [])}
        rows_b = {row[0]: row for row in rb.get("rows", [])}
        if rows_a.keys() != rows_b.keys():
            flips.append("%s: rows %s -> %s" % (case, sorted(rows_a), sorted(rows_b)))
        for name in sorted(rows_a.keys() & rows_b.keys()):
            (_, va, ta, pa), (_, vb, tb, pb) = rows_a[name], rows_b[name]
            if pa != pb or ta != tb:
                flips.append("%s: row %s pass %r -> %r (value %r -> %r, tol %r -> %r)"
                             % (case, name, pa, pb, va, vb, ta, tb))
            gap = _gap(va, vb)
            if name not in gaps or gap > gaps[name][0]:
                gaps[name] = (gap, case)
    print("%d cases in %s, %d in %s" % (len(a), path_a, len(b), path_b))
    print("flips: %d" % len(flips))
    for line in flips:
        print("  FLIP " + line)
    print("largest relative gap |a - b| / max(1, |a|) per row (data.*: frame values, "
          "closed.*: critical data):")
    for name in sorted(gaps):
        gap, case = gaps[name]
        print("  %-34s %.3e  (%s)" % (name, gap, case))
    print("changed root orders: %d" % len(reordered))
    for line in reordered:
        print("  " + line)
    print("changed worst_sample maps: %d" % len(samples))
    for line in samples:
        print("  " + line)
    print("changed raise messages: %d" % len(messages))
    for line in messages:
        print("  " + line)
    print("changed report texts: %d of %d" % (len(texts), digests))
    for case in texts:
        print("  " + case)
    return 1 if flips else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("dump").add_argument("out")
    both = sub.add_parser("diff")
    both.add_argument("a")
    both.add_argument("b")
    sub.add_parser("pin").add_argument(
        "out", nargs="?", default=os.path.join(ROOT, "tests", "replay_verdicts.json"))
    args = parser.parse_args(argv)
    if args.action == "dump":
        return dump(args.out)
    if args.action == "pin":
        return pin(args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
