"""
Is this path actually a solution?  Ask the test functions
=========================================================

For a candidate path, integrate any smooth bump along it and compare the
change of the integral with what the evolution rule says it should be.
Real approximate solutions leave a residual that shrinks with the step
size; a path produced by a wrong rule leaves a residual that does not.
This gives a cheap referee that needs no closed-form solution.
"""

from mdelab import (
    CustomPvf,
    GridSpec,
    SchemeConfig,
    SplittingParticlePvf,
    convergence_study,
    dirac,
    eval_pvf,
    make_lifted,
    make_measure,
    residual,
    run_scheme,
)

split = SplittingParticlePvf()
origin = dirac([0.0])


def grid_free(N):
    return run_scheme(
        split, origin, SchemeConfig(scheme="lagrangian", grid=GridSpec(T=1.0, N=N))
    )


print("splitting rule, grid-free runs; residual vs step count:")
print(f"{'N':>5} {'max defect':>13} {'ratio':>7}")
prev = None
paths = {}
for N in (8, 16, 32, 64):
    path = grid_free(N)
    paths[N] = path
    defect = residual(path, split).max_defect
    ratio = "" if prev is None else f"{prev / defect:7.2f}"
    print(f"{N:>5} {defect:13.3e} {ratio:>7}")
    prev = defect


# negative control: score the N=64 path against a rule with doubled speeds
def doubled(mu):
    lifted = eval_pvf(split, mu)
    return make_lifted(lifted.positions, 2.0 * lifted.velocities, lifted.weights)


wrong = CustomPvf(doubled, name="doubled-splitting")
good = residual(paths[64], split).max_defect
bad = residual(paths[64], wrong).max_defect
print(f"\nsame path scored against doubled speeds: {bad:.3e} ({bad / good:.0f}x worse)")

# and the usual error-vs-N table against the closed form
def two_rays(t):
    return make_measure([[-t], [t]], [0.5, 0.5]) if t > 0 else origin


table = convergence_study([grid_free(4)] + [paths[N] for N in (8, 16, 32)],
                          "lagrangian", reference=two_rays)
print("\nsup-node W1 error vs the exact two-ray solution:")
for N, err in table.rows():
    print(f"  N = {N:<3}  error = {err:.3e}")
