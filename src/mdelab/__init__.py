"""mdelab: a numerical laboratory for measure-valued evolution laws.

Probability measures with finitely many atoms evolve under velocity rules
that attach a distribution of velocities to every point of a measure.
The package provides the measure algebra, exact Wasserstein-1 transport
for small instances, three time-stepping schemes, trajectory-ensemble
representations of runs, weak-residual and convergence diagnostics, and a
scenario-driven CLI that reproduces the desk-scale experiments.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BaseOffGridError,
    ConfigError,
    DimMismatchError,
    EmptyInputError,
    EndpointMismatchError,
    IoError,
    IterationCapError,
    LpFailureError,
    MdeLabError,
    NegativeWeightError,
    OutOfRangeError,
    SupportBlowupError,
)
from .tolerances import MERGE_TOL, WEIGHT_FLOOR
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    base_of,
    coalesce,
    dirac,
    make_lifted,
    make_measure,
    quantile_uniform,
    support_radius,
)
from .transport import (
    TransportPlan,
    fiber_pseudometric,
    lifted_w1,
    lp_solve,
    w1_distance,
    w1_plan,
)
from .pvf import (
    GRAPH_FIELDS,
    ConstantFiberPvf,
    CustomPvf,
    GraphPvf,
    PvfSpec,
    SplittingParticlePvf,
    barycentric_field,
    eval_pvf,
    pvf_from_json,
    pvf_to_json,
    sublinearity_bound,
)
from .schemes import (
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    SCHEMES,
    GridSpec,
    MeasurePath,
    SchemeConfig,
    interpolate_at,
    run_scheme,
    support_bound_check,
)
from .superposition import (
    FiberBarycenterReport,
    TrajectoryEnsemble,
    build_representation,
    concat_merge,
    evaluate_pushforward,
    max_speed,
    verify_fiber_barycenter,
)
from .analysis import (
    ComparisonTable,
    ConvergenceTable,
    ResidualReport,
    TestFunction,
    convergence_study,
    default_test_family,
    residual,
    scheme_compare,
)
from .scenarios import (
    Scenario,
    get_scenario,
    initial_from_spec,
    list_scenarios,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)
from . import artifacts

__version__ = "0.1.0"

# every public name imported above and the artifacts module; the imports
# also bind the other submodules, which are left out
__all__ = [name for name, value in list(globals().items()) if not name.startswith("_")
           and (name == "artifacts" or not isinstance(value, _ModuleType))] + ["__version__"]
