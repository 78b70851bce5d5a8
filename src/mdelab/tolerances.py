"""Every numerical threshold of the package, in one place.

The schemes select between solutions that need not be unique, and these
thresholds make the selections: whether two atoms merge, whether a median
atom tears, whether two masses agree.  No other module defines one; each
imports the names it compares against.  Each name says what it compares
and whether it is absolute or relative to something.
"""

# Absolute, per coordinate: two atoms (or two times) closer than this in
# every coordinate are the same atom (the same time).
MERGE_TOL = 1e-12
# Absolute, on normalized weights: atoms strictly below this are dropped.
WEIGHT_FLOOR = 1e-15
# Absolute, on a total mass: within this of one it is not renormalized, so
# identity-like operations are exactly idempotent.
UNIT_MASS_TOL = 1e-13
# Absolute: two masses, weights or coordinates that must agree (glued
# masses, transport marginals, a rule's base, on-grid positions) agree
# within this.
AGREE_TOL = 1e-9
# Absolute, on a CDF value: dyadic near-ties (a cumsum landing a few ulps
# above 1/2) bin the way exact arithmetic would.
CDF_TOL = 1e-12
# Relative to the grid step: values within this many steps of a cell
# boundary from below bin upward, which keeps exact bin values (velocity 1
# with dv = 1/7, say) stable under float dust.
CELL_TOL = 1e-9
# Absolute, on normalized weights: the largest allowed prune floor.
PRUNE_FLOOR_MAX = 1e-6
# Absolute: plan masses down to minus this are roundoff and clipped to 0.
PLAN_NEG_TOL = 1e-12
# Relative to 1 + max|C|: a cell enters the basis only below minus this,
# so roundoff in duals summed along the tree never prices a cell in.
REDUCED_COST_TOL = 1e-11
# Relative to 1 + W*: stage two of the fiber comparison may use the cells
# whose stage-one reduced cost is at most this.
TIGHT_TOL = 1e-9
