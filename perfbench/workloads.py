"""The benchmark's three workloads: inputs from a seed, operations, checks.

An operation is one closed-loop call into mdelab's public API.  ``run`` is
the timed part.  ``digest`` turns its result into plain data, and ``check``
raises ``CheckError`` on wrong data; both run after the timer stops.  Every
operation resolves the mdelab function when it runs (``M.w1_distance``, not
a name bound at import), so the traced run's wrappers see every call.

Every pass of a workload runs the same kinds of operations.  The seed fixes
the inputs (``transport-2d`` draws fresh pairs for every pass) and, for
``scenarios`` and ``transport-2d``, the order of the operations in a pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

import checks
from checks import require

WORK_DIR = os.path.join("perfbench", "out", "work")


@dataclass(frozen=True)
class Op:
    """One timed call and the untimed steps around it."""

    name: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any] = lambda raw: raw
    check: Callable[[Any], None] = lambda data: None
    before: Optional[Callable[[], None]] = None


def fresh_dir(path: str) -> None:
    """Remove ``path`` so the operation writes into a directory of its own."""
    shutil.rmtree(path, ignore_errors=True)


def read_tree(path: str) -> dict[str, bytes]:
    """Every file written under ``path``, then the directory removed."""
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    shutil.rmtree(path)
    return files


class Workload:
    name = ""
    why = ""
    size = ""
    # Seconds one pass took on a shared 2-core x86 box (Python 3.11,
    # numpy 2.4).  A run times ceil(seconds / nominal) passes, at least
    # ``min_passes``; the count never depends on a clock, so every run of
    # a workload times the same operations.
    nominal_pass_s = 1.0
    min_passes = 1

    def __init__(self, M, seed: int, passes: int):
        self.M = M
        self.seed = seed % 2**32  # numpy seeds must be nonnegative

    @classmethod
    def pass_count(cls, seconds: float) -> int:
        """Timed passes of a run asked to measure for ``seconds``."""
        return max(cls.min_passes, math.ceil(seconds / cls.nominal_pass_s))

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def shuffled(self, ops: list[Op], index: int) -> list[Op]:
        """``ops`` in an order fixed by the seed and the pass index."""
        random.Random(self.seed * 7919 + index).shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class Scenarios(Workload):
    name = "scenarios"
    why = (
        "what a user of the lab runs: the five built-in scenarios and one CLI "
        "run; 1-D, so transport takes only the quantile route"
    )
    size = (
        "6 operations per pass: run_scenario on splitting-dirac, "
        "splitting-uniform, binomial, uniform-fiber, peano, and "
        "cli.main(['run', 'binomial']), in a seeded order"
    )
    nominal_pass_s = 4.7
    min_passes = 2

    BUILTINS = ("splitting-dirac", "splitting-uniform", "binomial", "uniform-fiber", "peano")

    def __init__(self, M, seed: int, passes: int):
        super().__init__(M, seed, passes)
        self.scenarios = {
            name: replace(M.get_scenario(name), outputs=os.path.join(WORK_DIR, name))
            for name in self.BUILTINS
        }
        self.cli_out = os.path.join(WORK_DIR, "cli-binomial")
        # artifact trees of the first pass, which later passes must repeat
        self.reference: dict[str, dict[str, bytes]] = {}

    def _same_as_first(self, key: str, tree: dict[str, bytes]) -> None:
        tree = checks.normalize_tree(tree)
        if key in self.reference:
            checks.check_same_tree(tree, self.reference[key])
        else:
            self.reference[key] = tree

    def _scenario_op(self, name: str) -> Op:
        scn = self.scenarios[name]
        closed_form = {
            "splitting-dirac": lambda f: checks.check_splitting_dirac(f, scn.Ns),
            "splitting-uniform": lambda f: checks.check_splitting_uniform(f, scn.Ns[0], scn.initial["atoms"]),
            "binomial": lambda f: checks.check_binomial(f, scn.Ns),
            "uniform-fiber": lambda f: checks.check_uniform_fiber(f, scn.Ns),
            "peano": checks.check_peano,
        }[name]

        def check(files):
            closed_form(files)
            self._same_as_first(name, files)

        return Op(
            name=f"run_scenario:{name}",
            run=lambda: self.M.run_scenario(scn),
            digest=lambda manifest: read_tree(scn.outputs),
            check=check,
            before=lambda: fresh_dir(scn.outputs),
        )

    def _cli_op(self) -> Op:
        argv = ["run", "binomial", "--out", self.cli_out]
        Ns = self.scenarios["binomial"].Ns

        def run():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = self.M.cli.main(argv)
            return code, out.getvalue()

        def check(data):
            code, message, files = data
            require(code == 0, f"cli exit code {code}: {message.strip()}")
            checks.check_binomial(files, Ns)
            self._same_as_first("cli", files)

        return Op(
            name="cli:run-binomial",
            run=run,
            digest=lambda raw: (raw[0], raw[1], read_tree(self.cli_out)),
            check=check,
            before=lambda: fresh_dir(self.cli_out),
        )

    def pass_ops(self, index: int) -> list[Op]:
        ops = [self._scenario_op(name) for name in self.BUILTINS] + [self._cli_op()]
        return self.shuffled(ops, index)


# ---------------------------------------------------------------------------
# transport-2d
# ---------------------------------------------------------------------------

class Transport2d(Workload):
    name = "transport-2d"
    why = (
        "the only workload where the dense simplex runs; almost no canonical "
        "form and no scheme or artifact work"
    )
    size = (
        "28 seeded pairs per pass, fresh each pass: 2-D W1 by LP at m=n 10 (x3), "
        "20 (x8), 40 (x2); 2-D pairs on a line at 10, 20 (x2), 40 (x2) against "
        "the quantile route; lifted_w1 + fiber_pseudometric on 20-atom 1-D "
        "lifted pairs (x3); 1-D W1 by LP and by quantile at 10 (x3), 20 (x4)"
    )
    nominal_pass_s = 6.6
    min_passes = 1

    # Sizes are balanced around the median: as many operations below the
    # 20-atom pairs as above them, so op_p50_s falls among the 20-atom LPs
    # and op_tail_s among the 40-atom LPs.
    GENERIC_2D = (10,) * 3 + (20,) * 8 + (40,) * 2
    ON_A_LINE = (10, 20, 20, 40, 40)
    LIFTED = (20,) * 3
    LINE_1D = (10,) * 3 + (20,) * 4

    def __init__(self, M, seed: int, passes: int):
        super().__init__(M, seed, passes)
        # LP times vary from pair to pair, so every pass gets pairs of its
        # own and a run averages over many of them
        self.inputs = [self._pairs(np.random.default_rng([self.seed, i])) for i in range(passes + 1)]

    def _pairs(self, rng) -> dict:
        M = self.M

        def measure(n, d):
            return M.make_measure(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(0.5, 1.5, n))

        def on_a_line(n):
            angle = rng.uniform(0.0, np.pi)
            u = np.array([np.cos(angle), np.sin(angle)])
            c = rng.uniform(-1.0, 1.0, 2)
            pair = [measure(n, 1), measure(n, 1)]
            return pair, [M.make_measure(mu.atoms * u + c, mu.weights) for mu in pair]

        def lifted(n):
            # few distinct positions, so every position carries a fiber
            sites = rng.uniform(-1.0, 1.0, 7)
            return M.make_lifted(
                rng.choice(sites, n)[:, None], rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(0.5, 1.5, n))

        return {
            "generic": [(measure(n, 2), measure(n, 2)) for n in self.GENERIC_2D],
            "on_a_line": [on_a_line(n) for n in self.ON_A_LINE],
            "lifted": [(lifted(n), lifted(n)) for n in self.LIFTED],
            "line_1d": [(measure(n, 1), measure(n, 1)) for n in self.LINE_1D],
        }

    def pass_ops(self, index: int) -> list[Op]:
        M = self.M
        pairs = self.inputs[index]
        ops = []
        for mu, nu in pairs["generic"]:
            where = f"w1 2-D LP m=n={mu.natoms}"
            ops.append(Op(
                name=f"w1_2d_lp:{mu.natoms}",
                run=lambda mu=mu, nu=nu: M.w1_distance(mu, nu),
                check=lambda w, mu=mu, nu=nu, where=where: checks.check_w1_bounds(
                    w, mu.atoms, mu.weights, nu.atoms, nu.weights, where),
            ))
        for (mu, nu), (mu2, nu2) in pairs["on_a_line"]:
            where = f"w1 2-D on a line m=n={mu.natoms}"
            ops.append(Op(
                name=f"w1_2d_line:{mu.natoms}",
                run=lambda mu=mu, nu=nu, mu2=mu2, nu2=nu2: (
                    M.w1_distance(mu2, nu2), M.w1_distance(mu, nu, method="quantile")),
                check=lambda r, where=where: checks.check_equal_routes(r[0], r[1], where),
            ))
        for v1, v2 in pairs["lifted"]:
            where = f"lifted pair of {v1.natoms} atoms"
            ops.append(Op(
                name=f"lifted:{v1.natoms}",
                run=lambda v1=v1, v2=v2: (M.lifted_w1(v1, v2), M.fiber_pseudometric(v1, v2)),
                check=lambda r, v1=v1, v2=v2, where=where: checks.check_lifted(
                    r[0], r[1],
                    checks.w1_line(v1.positions, v1.weights, v2.positions, v2.weights),
                    where),
            ))
        for mu, nu in pairs["line_1d"]:
            where = f"w1 1-D m=n={mu.natoms}"
            ops.append(Op(
                name=f"w1_1d_lp:{mu.natoms}",
                run=lambda mu=mu, nu=nu: (
                    M.w1_distance(mu, nu, method="lp"), M.w1_distance(mu, nu, method="quantile")),
                check=lambda r, where=where: checks.check_equal_routes(r[0], r[1], where),
            ))
        return self.shuffled(ops, index)


# ---------------------------------------------------------------------------
# long-runs
# ---------------------------------------------------------------------------

class LongRuns(Workload):
    name = "long-runs"
    why = (
        "a few large calls where scenarios makes many tiny ones: big lattices, "
        "a 1024-curve bundle, a few large files read back; no LP"
    )
    size = (
        "11 operations per pass: las uniform-fiber N=6 (672 lifted atoms); "
        "las binomial N=10, build_representation (1024 curves), "
        "write_trajectories_json, read_trajectories_json; lagrangian "
        "splitting-uniform N=256 (256 atoms) on 5 seeded blocks, residual on the first"
    )
    nominal_pass_s = 14.4
    min_passes = 2

    UF_N, BIN_N, SPLIT_N, SPLIT_ATOMS = 6, 10, 256, 256
    # The lagrangian run is the noisiest operation here.  With five per
    # pass, op_p50_s and op_tail_s both fall in the middle of ten lagrangian
    # runs; with one, they would fall on the edge of two.
    SPLIT_BLOCKS = 5

    def __init__(self, M, seed: int, passes: int):
        super().__init__(M, seed, passes)
        rng = np.random.default_rng(self.seed)
        grid = lambda n: M.GridSpec(T=1.0, N=n)
        # starting points on each run's space grid (dx = 1/N^2), or a
        # block shifted off the origin
        self.uf = (
            M.get_scenario("uniform-fiber").pvf_spec(),
            M.dirac([int(rng.integers(-18, 19)) / self.UF_N**2]),
            M.SchemeConfig(scheme="las", grid=grid(self.UF_N)),
        )
        self.bin_x0 = int(rng.integers(-50, 51)) / self.BIN_N**2
        self.bin = (
            M.get_scenario("binomial").pvf_spec(),
            M.dirac([self.bin_x0]),
            M.SchemeConfig(scheme="las", grid=grid(self.BIN_N)),
        )
        self.split_spec = M.get_scenario("splitting-uniform").pvf_spec()
        self.split = [
            (a, M.quantile_uniform(a, a + 1.0, self.SPLIT_ATOMS),
             M.SchemeConfig(scheme="lagrangian", grid=grid(self.SPLIT_N)))
            for a in rng.uniform(-1.0, 1.0, self.SPLIT_BLOCKS).tolist()
        ]
        self.json_path = os.path.join(WORK_DIR, "trajectories.json")

    def pass_ops(self, index: int) -> list[Op]:
        M = self.M
        n_bin, m = self.BIN_N, self.SPLIT_ATOMS
        # results later operations of the pass consume
        state: dict[str, Any] = {}

        def nodes(path):
            return [(mu.atoms, mu.weights) for mu in path.measures]

        def final_node(path):
            return nodes(path)[-1]

        def keep(key, digest):
            def keep_and_digest(raw):
                state[key] = raw
                return digest(raw)
            return keep_and_digest

        def check_binomial_nodes(data):
            require(len(data) == n_bin + 1, f"{len(data)} nodes")
            for k, (atoms, weights) in enumerate(data):
                ea, ew = checks.binomial_law(self.bin_x0, k, n_bin)
                checks.check_node(atoms, weights, ea, ew, 1e-9, f"binomial las node {k}")

        def bundle(ens):
            final = M.evaluate_pushforward(ens, 1.0)
            return ens.ncurves, final.atoms, final.weights

        def check_bundle(data):
            ncurves, atoms, weights = data
            require(ncurves == 2**n_bin, f"{ncurves} curves, expected {2**n_bin}")
            ea, ew = checks.binomial_law(self.bin_x0, n_bin, n_bin)
            checks.check_node(atoms, weights, ea, ew, 1e-9, "bundle at t=1")

        def read_back(ens):
            os.remove(self.json_path)
            return ens.times, ens.weights, ens.knots

        def check_round_trip(data):
            ens = state["ens"]
            checks.check_round_trip((ens.times, ens.weights, ens.knots), data, "trajectories JSON")

        def check_split(a):
            def check(data):
                atoms, weights = data
                checks.check_node(
                    atoms, weights, checks.torn_block(a, m, 1.0), np.full(m, 1.0 / m),
                    1e-9, f"splitting-uniform from [{a:g}, {a + 1:g}] final node")
            return check

        def check_residual(data):
            defects, max_defect = data
            require(defects.shape == (9, self.SPLIT_N + 1), f"defects of shape {defects.shape}")
            require(bool(np.all(np.isfinite(defects))), "non-finite defect")
            require(float(np.max(np.abs(defects[:, 0]))) == 0.0, "nonzero defect at t=0")
            require(max_defect == float(defects.max()), "max_defect is not the largest defect")
            require(max_defect <= 1e-3, f"max_defect {max_defect!r} for an exact solution")

        split_ops = [
            Op(
                name="lagrangian:splitting-uniform",
                run=lambda mu=mu, cfg=cfg: M.run_scheme(self.split_spec, mu, cfg),
                # the residual operation scores the first block's path
                digest=keep("split_path", final_node) if i == 0 else final_node,
                check=check_split(a),
            )
            for i, (a, mu, cfg) in enumerate(self.split)
        ]
        return [
            Op(
                name="las:uniform-fiber",
                run=lambda: M.run_scheme(*self.uf),
                digest=nodes,
                check=lambda data: checks.check_lattice_path(
                    data, 1.0 / self.UF_N**2, 11, "uniform-fiber las"),
            ),
            Op(
                name="las:binomial",
                run=lambda: M.run_scheme(*self.bin),
                digest=keep("bin_path", nodes),
                check=check_binomial_nodes,
            ),
            Op(
                name="build_representation:binomial",
                run=lambda: M.build_representation(state["bin_path"]),
                digest=keep("ens", bundle),
                check=check_bundle,
            ),
            Op(
                name="write_trajectories_json",
                run=lambda: M.artifacts.write_trajectories_json(state["ens"], self.json_path),
                digest=lambda _: os.path.getsize(self.json_path),
                check=lambda size: require(size > 0, "empty trajectories file"),
                before=lambda: os.makedirs(WORK_DIR, exist_ok=True),
            ),
            Op(
                name="read_trajectories_json",
                run=lambda: M.artifacts.read_trajectories_json(self.json_path),
                digest=read_back,
                check=check_round_trip,
            ),
            *split_ops,
            Op(
                name="residual:splitting-uniform",
                run=lambda: M.residual(state["split_path"], self.split_spec),
                digest=lambda rep: (np.asarray(rep.defects), rep.max_defect),
                check=check_residual,
            ),
        ]


WORKLOADS = {w.name: w for w in (Scenarios, Transport2d, LongRuns)}
