"""Repairing a non-tame field and checking that nothing depends on it.

The field (x1 - 1, x2) vanishes exactly on the unit circle, so its boundary
zero census is undefined.  ``make_tame`` pushes the zero into the interior by
evaluating the field at slightly inward-shifted points; the shift is
supported in a collar of the boundary and dies out in the interior.  The
index bookkeeping of the repaired field still satisfies the theorem, and
five independent repairs (different random seeds) all agree on the boundary
index, as do the two collar conventions.

Run with:  python3 demos/02_taming_and_invariance.py
"""

from vfindex.expr import parse
from vfindex.fields import ExpressionField
from vfindex.indices import full_index
from vfindex.manifold import Collar, DomainManifold
from vfindex.verify import (collar_independence_verdict, invariance_verdict,
                            make_tame, tameness_status)

disk = DomainManifold(parse("x1^2 + x2^2 - 1", 2), 2, [[-1.5, 1.5]] * 2,
                      "ball_2")
collar = Collar("neg_g")
v = ExpressionField.parse(["x1 - 1", "x2"])

print("field:", v)
print("status before repair:", tameness_status(disk, collar, v))

tamed, log = make_tame(disk, collar, v, seed=1)
print("status after repair: ", tameness_status(disk, collar, tamed))
for entry in log:
    print("  applied:", entry)

rep = full_index(disk, collar, tamed)
print(f"ind_interior = {rep.interior_index}   "
      f"ind_boundary = {rep.boundary_index}   "
      f"total = {rep.total_index} (chi = {rep.chi})")

print()
print(invariance_verdict(disk, collar, v, trials=5).line())
reports = {kind: full_index(disk, Collar(kind), v, auto_tame=True)
           for kind in ("neg_g", "scaled")}
print(collar_independence_verdict(reports).line())
