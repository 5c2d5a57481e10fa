"""The closed sector on the discriminant: the A_n point a = 0.

At p = z^(n+1) every critical point sits at 0, yet C[z]/(p'), its
residue pairing and the flat chart are polynomial in a and need no
critical point.  So ``chart`` runs there, while every command that reads
the roots (``build``, ``verify-cf``, ``bundle``) still refuses the model
as degenerate, with the message it has always given.
"""

import json

import numpy as np
import pytest

from lgcardy import cli, landau_ginzburg, polycore
from lgcardy.landau_ginzburg import build_closed
from lgcardy.moduli import flat_chart, structure_tensor


def _zero(n):
    return "--a=" + " ".join(["0,0"] * n)


@pytest.mark.parametrize("n", range(1, 9))
def test_chart_runs_at_the_an_point(n, capsys):
    assert cli.main(["chart", "--n", str(n), _zero(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["t"] == [[0.0, 0.0]] * n
    metric, = (row["value"] for row in report["residuals"] if row["name"] == "metric_constancy")
    assert metric <= 1e-15


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_tensor_at_the_an_point_reads_one_on_the_unit_words(n):
    # c(t^1, t^i, t^(n+1-i)) is the flat metric, the antidiagonal identity
    c = structure_tensor(flat_chart(n, (0.0,) * n))
    words = np.array([c[0, i, n - 1 - i] for i in range(n)])
    assert np.max(np.abs(words - 1.0)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_chart_tends_to_its_value_at_the_an_point(n):
    # t, the tangents and c are polynomial in a: their gaps to a = 0 shrink
    # in step with eps
    rng = np.random.default_rng(30 + n)
    a0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    at_zero = flat_chart(n, (0.0,) * n)
    c0 = structure_tensor(at_zero)
    last = None
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        chart = flat_chart(n, tuple(eps * a0))
        gap = max(np.max(np.abs(chart.t - at_zero.t)),
                  np.max(np.abs(chart.tangents - at_zero.tangents)),
                  np.max(np.abs(structure_tensor(chart) - c0)))
        assert gap <= 10 * eps
        if last is not None:
            assert gap <= 1.01e-2 * last or gap == 0.0
        last = gap
        assert chart.metric_residual <= 1e-14


def test_laurent_values_at_the_an_point_are_exact():
    # 1/p' = z^(-n) / (n + 1): l(z^(n-1)) = 1/(n+1), every other value 0
    for n in range(1, 9):
        values = build_closed(n, (0.0,) * n).functional_values
        want = np.zeros(2 * n - 1, dtype=complex)
        want[n - 1] = 1.0 / (n + 1)
        assert np.array_equal(values, want)


@pytest.mark.parametrize("command", ("build", "verify-cf", "bundle"))
@pytest.mark.parametrize("n", range(1, 9))
def test_commands_that_read_the_roots_still_refuse_the_an_point(n, command, capsys):
    # A_1, p = z^2, is Morse: its one critical point is simple
    code = cli.main([command, "--n", str(n), _zero(n)])
    err = capsys.readouterr().err
    if n == 1:
        assert code == 0
    else:
        assert code == 3
        assert err == "error: degenerate model: degenerate critical points\n"


def test_closed_data_is_each_row_bit_for_bit_with_the_an_point_in_the_stack():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        a = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        a[2] = 0.0
        failures = polycore._Failures(len(a))
        stacked = landau_ginzburg._closed_data(a, failures)
        assert failures.ok.all()
        for s in range(len(a)):
            alone = landau_ginzburg._closed_data(a[s:s + 1], polycore._Failures(1))
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[s], want[0])
