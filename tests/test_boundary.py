"""Input is validated where it enters the library.

``measures._derive`` is the one constructor of values the library derives
from canonical measures.  It runs the canonical kernel ``_canonical``, or
only the kernel's weight tests, with only the checks the caller's proofs
leave open, and it takes a lift's base and rule as arguments.  Outside
input must go through the checked constructors, so these entry points may
be called only from the modules that derive rows.  A value is complete
when it is constructed: ``object.__setattr__`` runs only in
``__post_init__`` and ``_set``-style initializers, and a value's
``__dict__`` is written only there or in the function that built the value
with ``object.__new__``, never on a value another function built.

In the same way ``transport._lp`` solves a transport problem whose
marginals it does not check: the distances hand it canonical weights, and
``lp_solve`` checks outside input before it calls it.  Only ``transport``
may call it.  It is the one caller of the simplex ``_simplex``, so every
coupling, both stages of ``fiber_pseudometric`` included, gets its
rescaled marginals and its marginal check, and the one caller of
``_pairwise_dist``: the distances hand it their points, and it builds the
costs after its cell cap.

The package computes every quantity inside numpy's elementwise loops and
reductions, whose bits depend on numpy's summation order alone, or with
``math.fsum``, which is correctly rounded, so its bits depend on no order
at all: the value of a transport solve is ``math.fsum`` over its basic
cells.  So it calls no BLAS product, whose kernel OpenBLAS picks for the
CPU at run time, and raises to no power but 2, since numpy picks its
``power`` loop for the CPU too; a square is one exact product.
"""

import ast
from pathlib import Path

import mdelab

UNCHECKED = {"_derive", "_canonical"}
ALLOWED = {"measures.py", "pvf.py", "schemes.py"}
ROOT = Path(mdelab.__file__).parent


def callee(node) -> str | None:
    """The name a call calls, bare or as an attribute; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def unchecked_calls(path: Path, names=UNCHECKED) -> list[str]:
    """Calls to one of ``names`` in a source file, as file:line: name."""
    return [f"{path.name}:{node.lineno}: {callee(node)}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if callee(node) in names]


def sources() -> list[Path]:
    demos = ROOT.parents[1] / "demos"
    return sorted(ROOT.glob("*.py")) + sorted(demos.glob("*.py"))


def test_unchecked_construction_stays_inside_the_deriving_modules():
    outside = [hit for path in sources() if path.name not in ALLOWED or path.parent != ROOT
               for hit in unchecked_calls(path)]
    assert outside == []


def test_the_deriving_modules_use_the_unchecked_entry_points():
    # guards the test above against a rename that would leave it vacuous
    inside = {path.name for path in sources()
              if path.name in ALLOWED and path.parent == ROOT and unchecked_calls(path)}
    assert inside == ALLOWED


def is_object_call(node, name: str) -> bool:
    """Whether an AST node is a call ``object.<name>(...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and getattr(node.func.value, "id", None) == "object")


def setattr_calls(path: Path) -> list[tuple[str, str, bool]]:
    """``object.__setattr__`` calls and uses of ``__dict__`` in a source
    file, as (file:line, name of the innermost enclosing function, whether
    the hit is a use of ``__dict__`` in a function that calls
    ``object.__new__``)."""
    found = []

    def visit(node, func, builds):
        for child in ast.iter_child_nodes(node):
            if is_object_call(child, "__setattr__"):
                found.append((f"{path.name}:{child.lineno}", func, False))
            elif isinstance(child, ast.Attribute) and child.attr == "__dict__":
                found.append((f"{path.name}:{child.lineno}", func, builds))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name,
                      any(is_object_call(n, "__new__") for n in ast.walk(child)))
            else:
                visit(child, func, builds)

    visit(ast.parse(path.read_text(), filename=str(path)), "", False)
    return found


def test_values_are_set_only_by_their_initializers():
    # ``object.__setattr__`` only in an initializer; a value's ``__dict__``
    # also in the function that built it with ``object.__new__``
    calls = [call for path in sorted(ROOT.glob("*.py")) for call in setattr_calls(path)]
    assert [where for where, func, built in calls
            if not (func == "__post_init__" or func.startswith("_set") or built)] == []
    # guards against a pattern that would leave the test vacuous
    assert {func for _, func, built in calls if not built} >= {"__post_init__", "_set"}
    assert {func for _, func, built in calls if built} == {"run_scheme"}


def test_the_unchecked_solve_is_called_only_inside_transport():
    calls = {path: unchecked_calls(path, {"_lp"}) for path in sources()}
    transport = ROOT / "transport.py"
    assert [hit for path, hits in calls.items() if path != transport for hit in hits] == []
    assert calls[transport]  # guards against a rename that would leave the test vacuous


def calls_by_function(path: Path, names) -> list[tuple[str, str]]:
    """Calls to one of ``names`` in a source file, as (file:line, name of
    the innermost enclosing function)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if callee(child) in names:
                found.append((f"{path.name}:{child.lineno}", func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_the_simplex_is_called_only_by_the_unchecked_solve():
    calls = [call for path in sources() for call in calls_by_function(path, {"_simplex"})]
    assert [where for where, func in calls if func != "_lp"] == []
    # guards against a rename that would leave the test vacuous
    assert [func for _, func in calls] == ["_lp"]


def test_the_costs_are_built_only_by_the_unchecked_solve():
    calls = [call for path in sources() for call in calls_by_function(path, {"_pairwise_dist"})]
    assert [where for where, func in calls if func != "_lp"] == []
    # guards against a rename that would leave the test vacuous
    assert {func for _, func in calls} == {"_lp"}


BLAS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def cpu_chosen(source: str, name: str = "<source>") -> list[str]:
    """BLAS products and powers other than 2 in Python source, as name:line: what.

    The BLAS products are the calls named in ``BLAS``, ``@`` and
    ``linalg.norm`` without ``axis`` (of a vector, a BLAS dot).  A power of
    literals, such as ``2.0 ** 50``, is exact and allowed.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            func, called = node.func, callee(node)
            norm = (called == "norm" and isinstance(func, ast.Attribute)
                    and getattr(func.value, "attr", None) == "linalg"
                    and "axis" not in {k.arg for k in node.keywords})
            if called in BLAS or norm:
                found.append(f"{name}:{node.lineno}: {called}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            left = node.left if isinstance(node, ast.BinOp) else node.target
            right = node.right if isinstance(node, ast.BinOp) else node.value
            square = isinstance(right, ast.Constant) and right.value == 2
            literal = isinstance(left, ast.Constant) and isinstance(right, ast.Constant)
            if isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno}: @")
            elif isinstance(node.op, ast.Pow) and not (square or literal):
                found.append(f"{name}:{node.lineno}: **")
    return found


def test_no_route_in_the_package_is_chosen_by_the_cpu():
    found = [hit for path in sorted(ROOT.glob("*.py"))
             for hit in cpu_chosen(path.read_text(), path.name)]
    assert found == []


def test_the_cpu_route_scan_finds_every_form():
    # guards the test above against a pattern that would leave it vacuous
    source = """
a = np.matmul(x, y) + x.dot(y) + np.vdot(x, y) + np.inner(x, y)
b = np.tensordot(x, y, 1) + np.einsum("i,i", x, y) + x @ y
c = np.linalg.norm(x) + s ** 3 + s ** 0.5 + s ** n
s **= 3
x @= y
ok = np.linalg.norm(x, axis=1) + s ** 2 + s**2.0 + 2.0 ** 50 + np.sum(s * s * s * w)
"""
    assert sorted(hit.split(": ")[1] for hit in cpu_chosen(source)) == sorted([
        "matmul", "dot", "vdot", "inner", "tensordot", "einsum", "@",
        "norm", "**", "**", "**", "**", "@",
    ])
