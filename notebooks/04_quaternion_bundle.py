"""
The bundle picture: frames, the assembled series, seven conditions
==================================================================

Moving the base point moves the boundary blocks.  A scale choice per
block keeps the boundary form literally constant; the assembled formal
series in commuting t and noncommuting s letters then satisfies seven
coefficient identities, checked two independent ways.
"""

import numpy as np

from lgcardy import (
    CORRUPTIONS,
    PREDICTED_CONDITION,
    assemble_potential,
    build_quaternion_model,
    ext_wdvv_check,
    verify_bundle,
)

model = build_quaternion_model(n=2, a=(-3.0, 0.0))

# ----------------- frames near the base point -----------------
# verify_bundle continues the frame to its sample points: it matches
# critical points by proximity, continues the branch signs, and reports
# how far the boundary Gram matrix moved over the sweep.
for paper_scale in (False, True):
    rep = verify_bundle(model, t_degree=4, sample_points=10, paper_scale=paper_scale)
    print("%s scale: frame drift %.3e, scale spread %.3e"
          % ("literal" if paper_scale else "sqrt", rep.frame_drift, rep.frame_scale_spread))

# The sqrt scale keeps the form constant to machine precision; the
# literal ratio scale does not, and the drift above measures by how much.

# ----------------- constant blocks of the series -----------------
# The mixed block is the transfer 2 rho_i T_k(x_i) on the unit of block i;
# the cubic boundary block is the triple pairing l((f_u f_v) f_w) / 3.
series = assemble_potential(model, t_degree=4)
print("\nrho:", np.round(model.rho, 12))
for k in range(model.n):
    row = [series.coefficient((k,), (u,)) for u in range(series.m)]
    print("mixed row t%d:" % (k + 1), np.round(row, 12))
print("cubic, block 0 unit entry:", np.round(series.coefficient((), (0, 0, 0)), 12))
print("cubic, block 0 (I, J, K):", np.round(series.coefficient((), (1, 2, 3)), 12))

# ----------------- the seven conditions on the series -----------------
report = ext_wdvv_check(series)
print("\n" + report.summary())

# ----------------- two routes, five corruptions -----------------
rep = verify_bundle(model, t_degree=4, sample_points=4)
print("\nclean run: series pass=%s pointwise pass=%s routes agree=%s"
      % (rep.series_passed, rep.pointwise_passed, rep.routes_agree))
print("frame drift over the sweep:", rep.frame_drift)

# Each corruption of the underlying algebra is caught by a specific
# condition, and the pointwise route reaches the same verdict.
for name in CORRUPTIONS:
    broken = verify_bundle(model, t_degree=4, sample_points=2, corruption=name)
    fired = [cond for cond, val in broken.conditions.residuals.items() if val > 1e-8]
    print("%-15s -> predicted %s, fired %s, routes agree %s"
          % (name, PREDICTED_CONDITION[name], fired, broken.routes_agree))
