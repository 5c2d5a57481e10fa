"""
Flat coordinates, the reconstructed potential, and WDVV
=======================================================

From a superpotential to flat coordinates on the coefficient space,
then to the potential whose third derivatives are the structure
constants, then to the associativity equations.
"""

import numpy as np

from lgcardy import (
    PotentialPoly,
    euler_check,
    flat_chart,
    reconstruct_potential,
    sample_charts,
    structure_tensor,
    wdvv_check,
)

# ----------------- the chart at one point -----------------
chart = flat_chart(n=2, a=(-3.0, 0.0))
print("raw reversion coordinates:", np.round(chart.ttilde, 12))
print("flat coordinates t:", np.round(chart.t, 12))
print("metric constancy defect:", chart.metric_residual)

# dp/dt^k as polynomials in z (ascending coefficients); the first is
# the unit direction, the second is 3z for this model.
print("tangent polynomials:")
print(np.round(chart.tangents, 12))

# grading identities at the same point
print("grading residuals:", euler_check(chart))

# structure constants in the flat frame: c112 = 1 and c222 = 9 here.
c = structure_tensor(chart)
print("c(1,1,2) =", np.round(c[0, 0, 1], 12))
print("c(2,2,2) =", np.round(c[1, 1, 1], 12))

# ----------------- the global potential -----------------
pot, fit = reconstruct_potential(2)
print("\nfit residual over the sampled tensor entries:", fit)
for exps, coeff in sorted(pot.terms.items()):
    if abs(coeff) > 1e-12:
        print("  t^%s coefficient %s" % (exps, np.round(coeff, 12)))
print("quasi-homogeneity defect:", pot.quasi_homogeneity_residual())

# The quartic coefficient reproduces sampled c222 through 24 b t2.
beta2 = pot.terms[(0, 4)]
worst = 0.0
for ch in sample_charts(2, 8, seed=9):
    cc = structure_tensor(ch)
    worst = max(worst, abs(cc[1, 1, 1] - 24.0 * beta2 * ch.t[1]))
print("quartic vs freshly sampled c222:", worst)

# ----------------- WDVV for three variables -----------------
pot3, fit3 = reconstruct_potential(3)
rng = np.random.default_rng(2)
points = rng.uniform(-0.8, 0.8, (20, 3))
rep = wdvv_check(pot3, points)
print("\nn=3 potential fit %.3e, WDVV report:" % fit3)
print(rep.summary())

# Corrupt one quartic coefficient and associativity collapses; this is
# the negative control showing the check has teeth.
bad = PotentialPoly(3, dict(pot3.terms))
slot = next(e for e in bad.terms if sum(e) == 4)
bad.terms[slot] = bad.terms[slot] + 0.1
print("corrupted associativity:",
      wdvv_check(bad, points).residuals["associativity"])
