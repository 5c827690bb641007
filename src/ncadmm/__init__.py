"""Mini-batch stochastic ADMM for nonconvex nonsmooth composite problems.

Solvers for min f(x) + g(y) subject to Ax - y = c with a smooth nonconvex
finite-sum f and a prox-friendly g, plus the theory-side parameter
certificates, stationarity diagnostics and a small benchmark harness.
"""

from .exceptions import (
    CapabilityError,
    ConfigError,
    DivergenceError,
    InputError,
    InternalInvariantError,
    NcadmmError,
    NumericalError,
    ParseError,
)
from .problems import (
    BlockSeparableRegularizer,
    CompositeProblem,
    ConstraintSystem,
    L1Block,
    NuclearNormBlock,
    SigmoidLoss,
    SmoothedMultiTaskLoss,
    build_graph_guided_A,
    build_multitask_constraints,
    build_overlap_A,
    prox_l1,
    prox_nuclear,
)
from .solvers import RunResult, SolverConfig, SolverState, TraceRecord, run
from .params import (
    Certificate,
    TheoryConstants,
    check_feasible,
    estimate_lipschitz,
    min_admissible_r,
    suggest_params,
)
from .metrics import StationarityReport, stationarity
from .data import Dataset, gen_graph_guided, gen_overlap, parse_libsvm, split

__all__ = [
    "BlockSeparableRegularizer",
    "CapabilityError",
    "Certificate",
    "CompositeProblem",
    "ConfigError",
    "ConstraintSystem",
    "Dataset",
    "DivergenceError",
    "InputError",
    "InternalInvariantError",
    "L1Block",
    "NcadmmError",
    "NuclearNormBlock",
    "NumericalError",
    "ParseError",
    "RunResult",
    "SigmoidLoss",
    "SmoothedMultiTaskLoss",
    "SolverConfig",
    "SolverState",
    "StationarityReport",
    "TheoryConstants",
    "TraceRecord",
    "build_graph_guided_A",
    "build_multitask_constraints",
    "build_overlap_A",
    "check_feasible",
    "estimate_lipschitz",
    "gen_graph_guided",
    "gen_overlap",
    "min_admissible_r",
    "parse_libsvm",
    "prox_l1",
    "prox_nuclear",
    "run",
    "split",
    "stationarity",
    "suggest_params",
]

__version__ = "0.1.0"
