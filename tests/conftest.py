import os
import re

from hypothesis import HealthCheck, settings

settings.register_profile(
    "mdelab",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# ten times the examples, for the differential tests of the grouping kernel,
# of the scheme routes, of the transport solves and values, of the cost
# matrix, of the CDF row kernel and of the residual's blocks:
# HYPOTHESIS_PROFILE=deep python -m pytest tests/test_measures.py -k ...
# HYPOTHESIS_PROFILE=deep python -m pytest tests/test_schemes.py \
#     -k "step_loop or read_only or adopt_route"
# HYPOTHESIS_PROFILE=deep python -m pytest tests/test_transport.py \
#     -k "fiber_pseudometric or lp_solve_degenerate or strongly_feasible or degenerate_problems or cdf_kernel \
#         or pairwise_dist or basic_cells"
# HYPOTHESIS_PROFILE=deep python -m pytest tests/test_analysis.py -k "broadcast or matches_loop_reference"
settings.register_profile("deep", settings.get_profile("mdelab"), max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "mdelab"))


# The acceptance module names its tests test_criterion_NN_*.  Collect their
# outcomes and echo one PASS/FAIL line per criterion at the end of the run.

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _results[num] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _results[num] = "FAIL"
    elif report.when == "setup" and report.skipped:
        _results[num] = "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        terminalreporter.write_line(f"criterion {num}: {_results[num]}")
