"""Command line front end for building and verifying quaternion models.

Subcommands
-----------
build      construct a model, report its idempotent residuals, and
           optionally write the model JSON to --output
verify-cf  run the bulk/boundary axiom suite on one model
chart      flat coordinates, metric and grading residuals at one point
potential  reconstruct the bulk potential from sampled structure tensors
wdvv       associativity residuals of the reconstructed potential
ext-wdvv   the seven-condition check on a stored or assembled series
bundle     two-route verification of the boundary bundle at one model

A report is a single JSON document: the to_dict() block of the library
report behind the command ("residuals" and "margins" arrays of {name,
value, tol, pass} rows, each sub-report's rows sorted by name, "data"
and "passed") with the command, its config, "skipped", the command's
own data after the report's, and a timestamp.  A residual,
the largest |entry| of its check's defect arrays (NaN if any entry is,
0 if none), passes at or below its tolerance, a margin above it, a NaN never.
bundle lists the series conditions (condition_*), the pointwise facts
(a_associativity, b_associativity, centrality, homomorphism, cardy,
unit, form_symmetry) and, unless --paper-scale is given, frame_drift;
its data gives, for each pointwise fact and margin, the point where the
worst value occurred (worst_sample: 0 the base point, k the k-th sample;
the first NaN, else the first within about 128 ulps of the extreme).
Suites that do not apply are never dropped silently: they appear
under "skipped" with a reason.  Exit codes: 0 when the report passes,
1 when it fails, 2 for unusable arguments or input files, 3 for a
degenerate model.  An option the subcommand does not read is unusable
unless left at its default, and so is a --tol that is NaN, negative or
infinite; with --input the file fixes the model (and, for ext-wdvv, the
truncation).
With the same arguments and seed the report is byte identical except
for the timestamp field.

Complex values on the command line are written "re,im"; lists of them
are space separated, e.g. --a="-3,0 0,0".  Quote the list and use the
equals form when the first value is negative.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from .polycore import EQ_TOL
from .frobenius import VerificationReport, _worst, complex_to_json
from .cardy import verify_cardy_frobenius
from .landau_ginzburg import build_quaternion_model, model_from_dict, model_to_dict
from .moduli import (
    UnderdeterminedFitError,
    _chart_on,
    euler_check,
    flat_chart,
    potential_to_dict,
    reconstruct_potential,
    wdvv_check,
)
from .tensor_series import _conditions, ext_wdvv_check, series_from_dict
from .bundle import _assemble, verify_bundle

__all__ = ["RunConfig", "main", "run"]


class CLIError(Exception):
    """Unusable arguments or input file (exit code 2)."""


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its options."""

    command: str
    n: int = None
    a: tuple = None
    input: str = None
    output: str = None
    seed: int = 42
    samples: int = None
    t_degree: int = 4
    tol: float = None
    branch: tuple = None
    paper_scale: bool = False
    index_reversal: bool = False

    def eq_tol(self):
        return EQ_TOL if self.tol is None else float(self.tol)


def parse_complex(text):
    parts = text.split(",")
    if len(parts) > 2:
        raise CLIError("bad complex value %r, expected re,im" % text)
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise CLIError("bad complex value %r, expected re,im" % text)
    return complex(re, im)


def parse_complex_list(text):
    items = text.split()
    if not items:
        raise CLIError("empty coefficient list")
    return tuple(parse_complex(item) for item in items)


_SIGNS = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}


def parse_branch(text):
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in _SIGNS:
            raise CLIError("bad branch entry %r, expected + or -" % token)
        out.append(_SIGNS[token])
    return tuple(out)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise CLIError("%s is not valid JSON: %s" % (path, exc))


def _config_echo(c):
    """The run configuration, one key per RunConfig field."""
    echo = {f.name: getattr(c, f.name) for f in fields(c)}
    echo["a"] = None if c.a is None else complex_to_json(c.a)
    echo["branch"] = None if c.branch is None else list(c.branch)
    return echo


def _report(config, report, data=None, skipped=None):
    """The JSON report of a command: the verdict block of its library
    report (an empty one for None) with the command's own data after the
    report's, and the command, its config and the skipped suites."""
    block = (VerificationReport(config.command, 0.0) if report is None else report).to_dict()
    return {"command": config.command, "config": _config_echo(config),
            "residuals": block["residuals"], "margins": block["margins"],
            "skipped": list(skipped or []), "data": {**block["data"], **(data or {})},
            "passed": block["passed"]}


def _model_from_config(c):
    if c.input:
        raw = _load_json(c.input)
        try:
            return model_from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise CLIError("bad model file %s: %s" % (c.input, exc))
    if c.n is None or c.a is None:
        raise CLIError("need --n together with --a, or --input FILE")
    return build_quaternion_model(n=c.n, a=c.a, branch=c.branch)


def _idempotent_residuals(closed):
    alg, e, n = closed.pair.algebra, closed.idempotents, closed.n
    (_, c), = alg.stacks  # the closed algebra is one block
    # prods[x, y] = e_x e_y = sum_j e[y, j] (sum_i e[x, i] c[i, j, :])
    prods = e[None] @ (e @ c.reshape(n, n * n)).reshape(n, n, n)
    return (_worst([prods - np.eye(n)[:, :, None] * e[None, :, :]]),
            _worst([e.sum(axis=0) - alg.unit]))


def cmd_build(c):
    model = _model_from_config(c)
    idem, unit = _idempotent_residuals(model.closed)
    rep = VerificationReport("idempotents", c.eq_tol(),
                             {"idempotent_products": idem, "unit_sum": unit})
    data = {"mu": complex_to_json(model.closed.mu), "rho": complex_to_json(model.rho)}
    if c.output:
        with open(c.output, "w") as fh:
            fh.write(_dumps(model_to_dict(model)) + "\n")
        data["model_written_to"] = c.output
    else:
        data["model"] = model_to_dict(model)
    return _report(c, rep, data=data)


def cmd_verify_cf(c):
    model = _model_from_config(c)
    rep = verify_cardy_frobenius(model.cf, tol=c.eq_tol())
    data = {"mu": complex_to_json(model.closed.mu), "rho": complex_to_json(model.rho)}
    return _report(c, rep, data=data)


def cmd_chart(c):
    if c.n is None or c.a is None:
        raise CLIError("chart needs --n together with --a")
    chart = flat_chart(n=c.n, a=c.a)
    euler = euler_check(chart)
    rep = VerificationReport("chart", c.eq_tol(), {
        "metric_constancy": chart.metric_residual,
        "grading_of_p": euler["p_identity"],
        "grading_of_flat_coordinates": euler["flat_scaling"],
        "grading_of_raw_coordinates": euler["raw_scaling"],
    })
    step = -1 if c.index_reversal else 1
    data = {
        "ttilde": complex_to_json(chart.ttilde),
        "t": complex_to_json(chart.t[::step]),
        "tangents": [complex_to_json(tan) for tan in chart.tangents[::step]],
    }
    return _report(c, rep, data=data)


def cmd_potential(c):
    if c.n is None:
        raise CLIError("potential needs --n")
    count = c.samples if c.samples is not None else 60
    pot, fit = reconstruct_potential(c.n, sample_count=count, seed=c.seed)
    rep = VerificationReport("potential", c.eq_tol(), {
        "fit_residual": fit,
        "quasi_homogeneity": pot.quasi_homogeneity_residual(),
    })
    payload = potential_to_dict(pot)
    if c.index_reversal:  # relabel t^i as t^(n+1-i)
        payload["index_reversal"] = True
        for row in payload["monomials"]:
            row["exponents"].reverse()
        payload["monomials"].sort(key=lambda row: row["exponents"])
    data = {"potential": payload}
    exps = (0,) * (c.n - 1) + (4,)
    if exps in pot.terms:
        quartic = pot.terms[exps]
        data["quartic_coefficient"] = complex_to_json(quartic)
        data["quartic_ratio_to_one_over_24"] = complex_to_json(quartic * 24.0)
    return _report(c, rep, data=data)


def cmd_wdvv(c):
    if c.n is None:
        raise CLIError("wdvv needs --n")
    if c.n == 1:
        skipped = [
            {
                "name": "wdvv_associativity",
                "reason": "single flat direction: associativity is vacuous "
                "and the unit direction carries the documented scale factor",
            }
        ]
        return _report(c, None, skipped=skipped)
    pot, fit = reconstruct_potential(c.n, seed=c.seed)
    count = c.samples if c.samples is not None else 20
    rng = np.random.default_rng(c.seed)
    points = rng.uniform(-0.8, 0.8, size=(count, c.n))
    if c.index_reversal:  # the check points are given in the reversed labels
        points = points[:, ::-1]
    # the fit and the equations are judged at 1e-7 unless --tol is given
    rep = wdvv_check(pot, points, tol=c.tol if c.tol is not None else 1e-7)
    rep.residuals["fit_residual"] = fit
    return _report(c, rep, data={"check_points": int(count)})


def cmd_ext_wdvv(c):
    if not c.input:
        model = _model_from_config(c)
        _refuse_large_series(model.n, model.cf.b.algebra.dim, c.t_degree)
        # the assembled coefficients on the cached layout, as verify_bundle checks them
        _, layout, coeffs = _assemble(model, _chart_on(model.closed), model.cf, c.t_degree)
        source = {"assembled_from": _config_echo(c)["a"], "t_degree": c.t_degree}
        return _report(c, _conditions(layout, coeffs, c.eq_tol()), data=source)
    raw = _load_json(c.input)
    try:
        series = series_from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError("bad series file %s: %s" % (c.input, exc))
    _refuse_large_series(series.n, series.m, series.truncation)
    return _report(c, ext_wdvv_check(series, tol=c.eq_tol()), data={"series_file": c.input})


def cmd_bundle(c):
    model = _model_from_config(c)
    _refuse_large_series(model.n, model.cf.b.algebra.dim, c.t_degree)
    points = c.samples if c.samples is not None else 10
    # under --paper-scale the drift is documented behaviour: data, not a row
    return _report(c, verify_bundle(model, t_degree=c.t_degree, sample_points=points,
                                    tol=c.eq_tol(), paper_scale=c.paper_scale, seed=c.seed))


COMMANDS = {
    "build": cmd_build,
    "verify-cf": cmd_verify_cf,
    "chart": cmd_chart,
    "potential": cmd_potential,
    "wdvv": cmd_wdvv,
    "ext-wdvv": cmd_ext_wdvv,
    "bundle": cmd_bundle,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None, help="number of deformation coefficients")
    common.add_argument(
        "--a",
        type=str,
        default=None,
        help='coefficients as space separated "re,im" pairs, e.g. --a="-3,0 0,0"',
    )
    common.add_argument("--input", type=str, default=None, help="input JSON file")
    common.add_argument("--output", type=str, default=None, help="output JSON file")
    common.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    common.add_argument("--samples", type=int, default=None, help="sample or check point count")
    common.add_argument("--t-degree", dest="t_degree", type=int, default=4,
                        help="series truncation degree (default 4)")
    common.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
    common.add_argument("--branch", type=str, default=None,
                        help='per-block square root signs, e.g. "+,-"')
    common.add_argument("--paper-scale", dest="paper_scale", action="store_true",
                        help="use the literal rho_p/rho_q frame scale")
    common.add_argument("--index-reversal", dest="index_reversal", action="store_true",
                        help="report flat coordinates t^i as t^(n+1-i) (chart, potential, wdvv)")
    parser = argparse.ArgumentParser(
        prog="lgcardy",
        description="build and verify quaternion models of polynomial superpotentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


_ARGPARSER = _build_parser()

_PARSERS = {"a": parse_complex_list, "branch": parse_branch}


def _config_from_args(args):
    """RunConfig from parsed arguments: each field is the option of the
    same name, with coefficient lists and branch signs parsed."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    for name, parse in _PARSERS.items():
        if values[name] is not None:
            values[name] = parse(values[name])
    return RunConfig(**values)


# the options each command reads; every report can go to --output
_READS = {
    "build": {"n", "a", "input", "branch", "tol"},
    "verify-cf": {"n", "a", "input", "branch", "tol"},
    "chart": {"n", "a", "tol", "index_reversal"},
    "potential": {"n", "seed", "samples", "tol", "index_reversal"},
    "wdvv": {"n", "seed", "samples", "tol", "index_reversal"},
    "ext-wdvv": {"n", "a", "input", "branch", "tol", "t_degree"},
    "bundle": {"n", "a", "input", "branch", "tol", "t_degree", "samples", "seed", "paper_scale"},
}
# what a model or series file fixes itself
_FIXED_BY_INPUT = {"n", "a", "branch"}
# the most classes a series check may hold: a model of n = 8 (m = 32) holds
# 861 at t_degree 6 and peaks near 300 MB, and would hold 12,341 at 7
MAX_SERIES_CLASSES = 1000


def _refuse_large_series(n, m, t_degree):
    """Raise CLIError when the C(n + m + w, w) classes of degree at most
    w = t_degree - 4 over n + m letters exceed MAX_SERIES_CLASSES."""
    w = t_degree - 4
    classes = math.comb(n + m + w, w) if w >= 0 else 0
    if classes > MAX_SERIES_CLASSES:
        raise CLIError("--t-degree %d at n = %d, m = %d needs %d series classes, more than %d"
                       % (t_degree, n, m, classes, MAX_SERIES_CLASSES))


def _refuse_unsupported(c):
    """Raise CLIError for option values that no run of the command supports,
    and for options the command does not read, unless left at default."""
    reads = _READS[c.command] | {"command", "output"}
    if c.input and "input" in reads:
        reads -= _FIXED_BY_INPUT | ({"t_degree"} if c.command == "ext-wdvv" else set())
    for f in fields(c):
        if f.name not in reads and getattr(c, f.name) != f.default:
            option = "--" + f.name.replace("_", "-")
            if f.name in _READS[c.command]:
                raise CLIError("%s cannot be combined with --input" % option)
            raise CLIError("%s does not read %s" % (c.command, option))
    if c.n is not None and c.n < 1:
        raise CLIError("--n must be at least 1, got %d" % c.n)
    if c.n is not None and c.a is not None and len(c.a) != c.n:
        raise CLIError("expected %d coefficients in --a, got %d" % (c.n, len(c.a)))
    if c.a is not None and not np.all(np.isfinite(c.a)):
        raise CLIError("--a must be finite, got %s" % " ".join(map(str, c.a)))
    # at 3, conditions 3-7 judge no class: bundle's series route passes vacuously
    least = 4 if c.command == "bundle" else 3
    if c.t_degree < least:
        raise CLIError("--t-degree must be at least %d, got %d" % (least, c.t_degree))
    if c.seed < 0:
        raise CLIError("--seed must not be negative, got %d" % c.seed)
    # potential and wdvv check nothing without a sample or check point
    least = 1 if c.command in ("potential", "wdvv") else 0
    if c.samples is not None and c.samples < least:
        raise CLIError("%s needs --samples of at least %d" % (c.command, least))
    if c.branch is not None and c.n is not None and len(c.branch) != c.n:
        raise CLIError("expected %d entries in --branch, got %d" % (c.n, len(c.branch)))
    # --tol 0 judges exactly; a NaN or negative tolerance passes nothing,
    # and an infinite one refuses every form as degenerate
    if c.tol is not None and not (math.isfinite(c.tol) and c.tol >= 0):
        raise CLIError("--tol must be finite and not negative, got %r" % c.tol)


def run(config):
    """Execute one command; returns (report dict, exit code).  Option
    values the command does not support raise CLIError up front."""
    _refuse_unsupported(config)
    handler = COMMANDS[config.command]
    report = handler(config)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report, (0 if report["passed"] else 1)


# json's text of a scalar of each exact type, without the encoder that
# json.dumps builds per call; json.dumps still writes a non-finite float
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                float: lambda x: float.__repr__(x) if x - x == 0 else json.dumps(x),
                bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _dumps(obj, indent="\n"):
    """``json.dumps(obj, indent=2)``, character for character.  Scalars of
    the exact types in ``_SCALAR_TEXT`` are written from there, any other
    (np.float64 too) by json.dumps.  A list of finite floats, or of [re, im]
    pairs of them, is formatted by one ``%`` over a joined template; with
    ``indent`` set, json would run its pure-Python encoder on every float."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        # json writes a non-str key as its own JSON text, quoted
        return "{" + inner + sep.join([
            encode_basestring_ascii(k if isinstance(k, str) else _dumps(k))
            + ": " + _dumps(v, inner) for k, v in obj.items()]) + indent + "}"
    flat, item = obj, "%r"
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
        flat = [x for pair in obj for x in pair]
        item = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
    # a sum of floats is finite only if every term is
    if set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
        body = sep.join([item] * len(obj)) % tuple(flat)
    else:
        body = sep.join([_dumps(x, inner) for x in obj])
    return "[" + inner + body + indent + "]"


def _emit(report, config):
    text = _dumps(report)
    # build already used --output for the model file itself
    out = None if config.command == "build" else config.output
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print("%s: %s (report written to %s)" % (
            config.command, "pass" if report["passed"] else "FAIL", out))
    else:
        print(text)


def main(argv=None):
    args = _ARGPARSER.parse_args(argv)
    try:
        config = _config_from_args(args)
        report, code = run(config)
    except (CLIError, UnderdeterminedFitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        # a DegenerateModelError, or a degeneracy surfacing mid-run
        # (singular forms, bad branches)
        print("error: degenerate model: %s" % exc, file=sys.stderr)
        return 3
    _emit(report, config)
    return code


if __name__ == "__main__":
    sys.exit(main())
