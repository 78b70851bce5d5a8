from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
import strategies as sts
from mdelab import (
    ConfigError,
    ConstantFiberPvf,
    CustomPvf,
    DimMismatchError,
    GRAPH_FIELDS,
    GraphPvf,
    GridSpec,
    SchemeConfig,
    SplittingParticlePvf,
    barycentric_field,
    base_of,
    dirac,
    eval_pvf,
    make_lifted,
    make_measure,
    pvf_from_json,
    pvf_to_json,
    quantile_uniform,
    run_scheme,
    sublinearity_bound,
)
from mdelab import pvf
from mdelab.measures import _derive, disintegrate
from mdelab.pvf import _kind, _median
from mdelab.tolerances import CDF_TOL

SPLIT = SplittingParticlePvf()
PM1 = make_measure([[-1.0], [1.0]], [0.5, 0.5])


def m1(xs, ws):
    return make_measure([[x] for x in xs], ws)


Median = namedtuple("Median", "index B eta mass_at_B cdf_left_of_B")


def median(mu):
    """``pvf._median`` of a 1-D measure, with the median atom B itself."""
    i, eta, mass, left = _median(mu)
    return Median(i, float(mu.atoms[i, 0]), eta, mass, left)


def test_graph_zero_field_gives_zero_fibers():
    mu = m1([0.0, 2.5], [0.5, 0.5])
    lift = eval_pvf(GraphPvf(lambda x: 0.0 * x), mu)
    assert np.array_equal(lift.positions, mu.atoms)
    assert np.all(lift.velocities == 0.0)
    assert base_of(lift) == mu


def test_splitting_on_point_mass():
    lift = eval_pvf(SPLIT, dirac(3.0))
    dis = disintegrate(lift)
    assert dis.base == dirac(3.0)
    assert dis.fibers[0] == PM1


def test_splitting_on_two_atoms():
    mu = m1([0.0, 1.0], [0.5, 0.5])
    dis = disintegrate(eval_pvf(SPLIT, mu))
    # CDF at the left atom sits exactly on 1/2, so the split point is the
    # right atom; everything strictly left moves left, the split atom moves
    # right with eta = 1/2
    assert dis.fibers[0] == dirac(-1.0)
    assert dis.fibers[1] == dirac(1.0)


def test_splitting_requires_dim_1():
    with pytest.raises(DimMismatchError):
        eval_pvf(SPLIT, dirac([0.0, 0.0]))


def test_median_examples():
    md = median(dirac(0.0))
    assert (md.B, md.eta, md.mass_at_B) == (0.0, 0.5, 1.0)

    md = median(m1([-0.7, 0.7], [0.5, 0.5]))
    assert (md.B, md.eta) == (0.7, 0.5)

    md = median(m1([0.0, 1 / 3, 2 / 3, 1.0], [0.25] * 4))
    assert md.B == pytest.approx(2 / 3, abs=1e-15)
    assert md.eta == pytest.approx(0.25, abs=1e-12)


@given(sts.measures(max_atoms=7))
def test_median_internal_consistency(mu):
    md = median(mu)
    cdf_at_B = md.cdf_left_of_B + md.mass_at_B
    assert md.eta == pytest.approx(cdf_at_B - 0.5, abs=1e-12)
    assert md.eta >= -1e-12
    assert md.cdf_left_of_B <= 0.5 + 1e-12
    assert md.B in mu.atoms[:, 0]
    assert mu.atoms[md.index, 0] == md.B


@given(sts.measures(max_atoms=7), st.sampled_from([1.25, 2.0, 3.0]))
def test_median_scale_consistency(mu, c):
    scaled = make_measure(c * mu.atoms, mu.weights)
    assert median(scaled).B == c * median(mu).B


def test_barycentric_field_examples():
    w = barycentric_field(SPLIT, dirac(4.0))
    assert np.allclose(w, [[0.0]], atol=1e-15)

    cf = ConstantFiberPvf(PM1)
    mu = m1([-2.0, 0.5, 3.0], [0.2, 0.3, 0.5])
    assert np.allclose(barycentric_field(cf, mu), 0.0, atol=1e-15)

    peano = GraphPvf(GRAPH_FIELDS["peano"], name="graph:peano")
    assert barycentric_field(peano, dirac(-1.0))[0, 0] == 2.0


def test_sublinearity_examples():
    zero = GraphPvf(lambda x: 0.0 * x)
    assert sublinearity_bound(zero, [dirac(0.0), m1([1, 2], [0.5, 0.5])]) == 0.0
    assert sublinearity_bound(ConstantFiberPvf(PM1), [dirac(0.0)]) == 1.0
    assert sublinearity_bound(SPLIT, [dirac(5.0)]) == pytest.approx(1 / 6, abs=1e-15)


def test_sublinearity_needs_samples():
    from mdelab import EmptyInputError

    with pytest.raises(EmptyInputError):
        sublinearity_bound(SPLIT, [])


@given(sts.measures(max_atoms=6))
def test_base_consistency_all_variants(mu):
    variants = [
        GraphPvf(lambda x: x),
        ConstantFiberPvf(PM1),
        SPLIT,
    ]
    for spec in variants:
        lift = eval_pvf(spec, mu)
        assert np.array_equal(base_of(lift).atoms, mu.atoms)
        assert np.allclose(base_of(lift).weights, mu.weights, atol=1e-12)


@given(sts.measures(max_atoms=7))
def test_splitting_fiber_at_split_atom(mu):
    md = median(mu)
    dis = disintegrate(eval_pvf(SPLIT, mu))
    k = int(np.searchsorted(dis.base.atoms[:, 0], md.B))
    fiber = dis.fibers[k]
    assert abs(fiber.weights.sum() - 1.0) <= 1e-9
    expected_mean = (md.eta - (0.5 - md.cdf_left_of_B)) / md.mass_at_B
    got_mean = float(np.sum(fiber.atoms[:, 0] * fiber.weights))
    assert got_mean == pytest.approx(expected_mean, abs=1e-9)
    # all fibers are supported on {-1, +1}
    for f in dis.fibers:
        assert set(np.round(f.atoms[:, 0], 12)) <= {-1.0, 1.0}


def test_constant_fiber_is_product_measure():
    omega = m1([-1.0, 0.0, 2.0], [0.25, 0.25, 0.5])
    mu = m1([0.0, 1.0], [0.4, 0.6])
    lift = eval_pvf(ConstantFiberPvf(omega), mu)
    dis = disintegrate(lift)
    assert dis.base == mu
    for fiber in dis.fibers:
        assert fiber == omega


def test_graph_field_shape_validation():
    bad = GraphPvf(lambda x: np.zeros(3))  # wrong output dimension
    with pytest.raises(DimMismatchError):
        eval_pvf(bad, dirac([0.0, 0.0]))


def test_custom_pvf_contract():
    ok = CustomPvf(lambda mu: eval_pvf(SPLIT, mu))
    lift = eval_pvf(ok, dirac(0.0))
    assert base_of(lift) == dirac(0.0)

    not_lifted = CustomPvf(lambda mu: mu)
    with pytest.raises(ValueError):
        eval_pvf(not_lifted, dirac(0.0))

    wrong_base = CustomPvf(
        lambda mu: make_lifted(mu.atoms + 1.0, 0.0 * mu.atoms, mu.weights)
    )
    with pytest.raises(ValueError):
        eval_pvf(wrong_base, dirac(0.0))


def test_graph_field_registry():
    peano = GRAPH_FIELDS["peano"]
    pts = np.array([[-1.0], [0.0], [4.0]])
    assert np.allclose(peano(pts), [[2.0], [0.0], [4.0]])
    assert GRAPH_FIELDS["sqrt2"] is GRAPH_FIELDS["peano"]
    zero = GRAPH_FIELDS["zero"]
    assert np.allclose(zero(pts), 0.0)
    linear = GRAPH_FIELDS["linear"]
    assert np.allclose(linear(pts), pts)


def test_pvf_json_round_trip():
    for frag in (
        {"kind": "graph", "field": "peano"},
        {"kind": "graph", "field": "zero"},
        {"kind": "splitting"},
        {
            "kind": "constant_fiber",
            "omega": {"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]},
        },
    ):
        spec = pvf_from_json(frag)
        again = pvf_from_json(pvf_to_json(spec))
        mu = m1([0.0, 0.25], [0.5, 0.5])
        assert eval_pvf(spec, mu) == eval_pvf(again, mu)


def test_pvf_json_diagnostics():
    with pytest.raises(ConfigError, match="pvf.kind"):
        pvf_from_json({"kind": "fourier"})
    with pytest.raises(ConfigError, match="pvf.field"):
        pvf_from_json({"kind": "graph", "field": "cubic"})
    with pytest.raises(ConfigError, match="pvf.omega"):
        pvf_from_json({"kind": "constant_fiber"})
    with pytest.raises(ConfigError):
        pvf_from_json({"field": "peano"})
    # a kind-less omega is an atoms fragment; a measure kind must be a known string
    with pytest.raises(ConfigError, match=r"^pvf\.omega\.weights: required for atoms$"):
        pvf_from_json({"kind": "constant_fiber", "omega": {"atoms": [[1.0]]}})
    with pytest.raises(ConfigError, match=r"^pvf\.omega\.kind: unknown kind \[\]"):
        pvf_from_json({"kind": "constant_fiber", "omega": {"kind": []}})
    with pytest.raises(ConfigError, match=r"^pvf\.omega\.point: "):
        pvf_from_json({"kind": "constant_fiber", "omega": {"kind": "dirac", "point": "x"}})


OMEGA = {"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}


@pytest.mark.parametrize("frag, where, known", [
    ({"kind": "splitting", "rate": 2}, "pvf.rate", "kind"),
    ({"kind": "graph", "field": "linear", "feild": "peano"}, "pvf.feild", "kind, field"),
    ({"kind": "constant_fiber", "omega": OMEGA, "omgea": OMEGA}, "pvf.omgea", "kind, omega"),
    ({"kind": "constant_fiber", "omega": dict(OMEGA, atom=2)}, "pvf.omega.atom",
     "kind, atoms, weights"),
    ({"kind": "constant_fiber", "omega": {"kind": "uniform_1d", "a": 0, "b": 1, "atom": 2}},
     "pvf.omega.atom", "kind, a, b, atoms"),
])
def test_a_rule_fragment_refuses_a_key_its_kind_does_not_take(frag, where, known):
    with pytest.raises(ConfigError) as info:
        pvf_from_json(frag)
    assert str(info.value) == f"{where}: unknown key (known: {known})"


@st.composite
def split_inputs(draw):
    """1-D measures whose median often falls exactly on a CDF step: dyadic
    atoms with small integer weights, so eta = 0 and zero parts occur."""
    if draw(st.booleans()):
        return draw(sts.measures(max_atoms=9))
    n = draw(st.integers(1, 9))
    xs = draw(st.lists(sts.dyadic, min_size=n, max_size=n))
    ws = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return m1(xs, [float(w) for w in ws])


@given(split_inputs())
@example(m1([0.0, 1.0], [0.5, 0.5]))
@example(m1([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]))
def test_splitting_lift_matches_loop_reference(mu):
    md = median(mu)
    pos, vel, w = oracles.splitting_lift_loop(
        mu.atoms[:, 0], mu.weights, md.B, md.eta, md.cdf_left_of_B
    )
    assert eval_pvf(SPLIT, mu) == make_lifted(pos, vel, w)


@st.composite
def splitting_routes(draw):
    """1-D measures on every route of the splitting lift: dyadic blocks of
    2^k equal atoms torn by a few steps (the median atom moves whole),
    random weights, the 100- and 600-equal-atom near-ties, and a dirac
    start (the median splits) with the steps after it."""
    kind = draw(st.sampled_from(["torn", "random", "near-tie", "dirac"]))
    if kind == "random":
        return draw(split_inputs())
    a = draw(sts.dyadic)
    if kind == "torn":
        mu = quantile_uniform(a, a + 1.0, 2 ** draw(st.integers(0, 9)))
    elif kind == "near-tie":
        mu = quantile_uniform(a, a + 1.0, draw(st.sampled_from([100, 600])))
    else:
        mu = dirac(a)
    steps = draw(st.integers(0, 3))
    if steps:
        cfg = SchemeConfig(scheme="lagrangian", grid=GridSpec(T=steps / 8, N=steps))
        mu = run_scheme(SPLIT, mu, cfg).measures[-1]
    return mu


@given(splitting_routes())
@example(dirac(0.0))  # the median splits
@example(quantile_uniform(0.0, 1.0, 256))  # moves whole
@example(m1([0.0, 1.0, 2.0], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]))  # moves whole, lighter
@example(quantile_uniform(0.0, 1.0, 100))
@example(quantile_uniform(0.0, 1.0, 600))
def test_splitting_lift_is_the_checked_lift_of_its_rows(mu):
    # the median is the argmax form's; the lift is the public constructor's
    # on the same rows, bit for bit; and the lift adopts mu's weights array
    # exactly when the median atom moves right whole with its own weight
    ref = oracles.median_argmax(mu.weights, CDF_TOL)
    assert _median(mu) == ref
    _, eta, mass, left = ref
    lift = eval_pvf(SPLIT, mu)
    checked = make_lifted(*_kind(SPLIT).rows(SPLIT, mu)[:3])
    for a, b in [(lift.positions, checked.positions), (lift.velocities, checked.velocities),
                 (lift.weights, checked.weights)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (lift.weights is mu.weights) == (left >= 0.5 and eta == mass)


def test_torn_block_lagrangian_step_builds_n_lift_rows(monkeypatch):
    """A uniform block of 256 atoms tears with exactly half its mass left of
    the median atom at every step, so B moves right whole: the lift has n
    rows, not the n + 1 of the construction kept in ``oracles``, and the
    lift and the next node are bit-identical to what that one gives."""
    from mdelab import GridSpec, SchemeConfig, measures, quantile_uniform, schemes

    cfg = SchemeConfig(scheme="lagrangian", grid=GridSpec(T=1.0, N=16))
    rows = []
    kernel = measures._canonical

    def counting(pts, w, *args):
        rows.append(len(w))
        return kernel(pts, w, *args)

    monkeypatch.setattr(measures, "_canonical", counting)
    mu = quantile_uniform(0.0, 1.0, 256)
    for _ in range(cfg.grid.N):
        md = median(mu)
        assert md.cdf_left_of_B == 0.5
        rows.clear()
        lifted, nxt, _ = schemes._lagrangian_step(SPLIT, mu, cfg)
        assert rows == [mu.natoms]  # the next node; the lift takes no pass
        assert lifted.natoms == mu.natoms
        pos, vel, w = oracles.splitting_lift_rows(
            mu.atoms, mu.weights, md.B, md.eta, md.cdf_left_of_B
        )
        assert len(w) == mu.natoms + 1
        old = make_lifted(pos, vel, w)
        old_next = make_measure(old.positions + cfg.grid.dt * old.velocities, old.weights)
        for a, b in [
            (lifted.positions, old.positions),
            (lifted.velocities, old.velocities),
            (lifted.weights, old.weights),
            (nxt.atoms, old_next.atoms),
            (nxt.weights, old_next.weights),
        ]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        mu = nxt


@contextmanager
def unmemoized():
    """A context in which the splitting rule forgets the weights it has
    seen before every evaluation, so each lift computes its median and
    columns afresh."""
    split = pvf._split

    def fresh(mu):
        pvf._split_memo = None
        return split(mu)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pvf, "_split", fresh)
        yield


def lift_bits(lift):
    return [(a.shape, a.tobytes()) for a in (lift.positions, lift.velocities, lift.weights)]


def path_bits(path):
    return ([bits(mu) for mu in path.measures], [lift_bits(lift) for lift in path.interp],
            path.pruned_mass)


@given(splitting_routes())
@example(dirac(0.0))
@example(quantile_uniform(0.0, 1.0, 256))
@example(quantile_uniform(0.0, 1.0, 100))
@example(quantile_uniform(0.0, 1.0, 600))
@example(m1([0.0, 1.0, 2.0], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]))  # B lighter than its weight
def test_a_splitting_run_is_the_same_with_its_memo_emptied_before_every_lift(mu):
    # the memo keeps what a weights array fixes; a run that finds it at
    # every step and one that computes it afresh are the same bit for bit
    for scheme in ("lagrangian", "las", "mean-velocity"):
        cfg = SchemeConfig(scheme=scheme, grid=GridSpec(T=1.0, N=6))
        kept = path_bits(run_scheme(SPLIT, mu, cfg))
        with unmemoized():
            assert path_bits(run_scheme(SPLIT, mu, cfg)) == kept


def test_measures_sharing_weights_but_not_atoms_lift_to_their_own_rows():
    # nodes k and k + 1 of a torn block hold one weights array on atoms
    # that moved: the second lift reuses the first's columns, and each is
    # the lift computed afresh
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, 256),
                      SchemeConfig(scheme="lagrangian", grid=GridSpec(T=1.0, N=4)))
    for k in range(4):
        a, b = path.measures[k], path.measures[k + 1]
        assert a.weights is b.weights and not np.array_equal(a.atoms, b.atoms)
        lifts = [eval_pvf(SPLIT, a), eval_pvf(SPLIT, b)]
        assert lifts[0].velocities is lifts[1].velocities
        with unmemoized():
            fresh = [eval_pvf(SPLIT, a), eval_pvf(SPLIT, b)]
        assert [lift_bits(lift) for lift in lifts] == [lift_bits(lift) for lift in fresh]
        assert all(base_of(lift) is mu for lift, mu in zip(lifts, (a, b)))
    # the shared columns are read-only before any lift adopts them, as the
    # rows las bins are never adopted
    for mu in (dirac(0.0), path.measures[0]):
        _, vel, w, _ = _kind(SPLIT).rows(SPLIT, mu)
        assert not (vel.flags.writeable or w.flags.writeable)


def test_a_split_median_leaves_the_memo_of_a_whole_median(monkeypatch):
    # node 0 of a torn block moves its median atom whole, and its lift,
    # kept alive as a path keeps it, holds the velocity column the memo
    # refers to weakly; a lift whose median splits keeps nothing, so node 0
    # lifted again finds its median without a search
    calls = [0]
    median = pvf._median

    def counted(mu):
        calls[0] += 1
        return median(mu)

    monkeypatch.setattr(pvf, "_median", counted)
    monkeypatch.setattr(pvf, "_split_memo", None)
    node = quantile_uniform(0.0, 1.0, 256)
    kept = eval_pvf(SPLIT, node)
    assert eval_pvf(SPLIT, dirac(0.0)).natoms == 2
    again = eval_pvf(SPLIT, node)
    assert calls == [2]
    assert again.velocities is kept.velocities and again.weights is node.weights
    assert lift_bits(again) == lift_bits(kept)


def bits(mu):
    return mu.atoms.shape, mu.atoms.tobytes(), mu.weights.tobytes()


@st.composite
def attach_inputs(draw):
    """(rule, measure) pairs on every route of an attached base: splits
    exact and inexact, torn blocks (600 atoms reach the ``fsum`` near-tie),
    median atoms that move whole, leftward slivers under ``WEIGHT_FLOOR``,
    and 2-D graph fields whose first gaps are at most ``MERGE_TOL``."""
    kind = draw(st.sampled_from(["split", "block", "sliver", "graph", "graph-2d"]))
    if kind == "split":
        return SPLIT, draw(split_inputs())
    if kind == "block":
        a = draw(sts.finite)
        return SPLIT, quantile_uniform(a, a + 1.0, draw(st.sampled_from([1, 2, 6, 100, 256, 600])))
    if kind == "sliver":
        # the mass left of the median atom falls j 1e-16 short of 1/2
        d = draw(st.integers(-30, 30)) * 1e-16
        return SPLIT, m1([0.0, 1.0, 2.0], [0.5 - d, 0.25, 0.25 + d])
    field = GRAPH_FIELDS[draw(st.sampled_from(sorted(GRAPH_FIELDS)))]
    if kind == "graph":
        return GraphPvf(field), draw(sts.measures(max_atoms=9))
    rows = draw(sts.near_tie_rows(widths=(2,)))
    return GraphPvf(field), make_measure(rows, np.arange(1.0, len(rows) + 1.0))


@given(attach_inputs())
@example((SPLIT, m1([0.0, 1.0, 2.0], [0.5 - 3e-16, 0.25, 0.25 + 3e-16])))
@example((SPLIT, m1([0.0, 1.0, 2.0], [0.5 - 1e-16, 0.25, 0.25 + 1e-16])))
@example((GraphPvf(GRAPH_FIELDS["linear"]), make_measure([[0.0, 0.0], [5e-13, 1.0]], [1.0, 2.0])))
def test_an_attached_base_is_what_the_kernel_returns(case):
    # eval_pvf attaches mu as its lift's base only where the kernel, run on
    # the lift's positions and weights, returns mu bit for bit
    spec, mu = case
    lift = eval_pvf(spec, mu)
    if base_of(lift) is mu:
        assert bits(_derive(lift.positions, lift.weights, finite=True)) == bits(mu)


@given(attach_inputs(), st.sampled_from([1.0, 0.25, 1e-3]))
def test_a_lattice_lift_attaches_only_the_base_the_kernel_returns(case, dv):
    # las bins the rows before its lift's kernel pass, and attaches mu as
    # the base by the rule eval_pvf follows
    from mdelab import GridSpec, SchemeConfig, schemes

    spec, mu = case
    cfg = SchemeConfig(scheme="las", grid=GridSpec(T=1.0, N=4, dv=dv))
    mu = schemes.snap_space(mu, cfg.grid)
    lift, _, _ = schemes._las_step(spec, mu, cfg)
    if base_of(lift) is mu:
        assert bits(_derive(lift.positions, lift.weights, finite=True)) == bits(mu)


@pytest.mark.parametrize("spec, mu, attached", [
    (SPLIT, m1([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]), True),  # B moves right whole
    (SPLIT, m1([0.0, 1.0, 2.0], [0.1, 0.7, 0.2]), True),  # 0.4 + 0.3 adds back to 0.7
    (SPLIT, m1([0.0, 1.0, 2.0], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]), False),  # inexact split
    (SPLIT, m1([0.0, 1.0, 2.0], [0.5 - 1e-16, 0.25, 0.25 + 1e-16]), False),  # sliver dropped
    (SPLIT, m1([0.0, 1.0, 2.0], [0.5 - 2e-15, 0.25, 0.25 + 2e-15]), True),  # sliver kept
    (GraphPvf(GRAPH_FIELDS["peano"]), make_measure([[0.0, 0.0], [5e-13, 1.0]], [1.0, 2.0]), True),
    (ConstantFiberPvf(make_measure([[0.5]], [1.0])), m1([0.0, 1.0], [0.5, 0.5]), False),
])
def test_which_lifts_carry_their_node_as_base(spec, mu, attached):
    assert (base_of(eval_pvf(spec, mu)) is mu) == attached
