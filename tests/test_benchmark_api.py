"""The benchmark in ``perfbench/`` wraps and calls mdelab by name.

A function it traces or calls must not disappear from mdelab unnoticed:
``perfbench/run.py --trace 1`` would fail to install its wrappers, and a
timed operation would fail to resolve.
"""

import importlib.util
import re
from pathlib import Path

import mdelab
import mdelab.cli  # noqa: F401  (the benchmark wraps cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracing = load_tracing()
    for module, fn, _, _ in tracing.WRAPPED:
        assert callable(getattr(getattr(mdelab, module), fn, None)), f"mdelab.{module}.{fn}"


def test_every_name_the_workloads_call_exists():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bM\.(\w+(?:\.\w+)*)", text))
    assert "run_scheme" in names
    for name in sorted(names):
        obj = mdelab
        for part in name.split("."):
            assert hasattr(obj, part), f"mdelab.{name}"
            obj = getattr(obj, part)


def test_tracer_installs_and_removes():
    tracing = load_tracing()
    original = mdelab.schemes.run_scheme
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert mdelab.schemes.run_scheme is not original
        assert getattr(mdelab.run_scheme, tracing.MARK) == "schemes.run_scheme"
    finally:
        tracer.remove()
    assert mdelab.schemes.run_scheme is original
    assert mdelab.run_scheme is original
    tracing.assert_unwrapped()
