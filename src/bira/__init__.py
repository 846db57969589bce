"""Inexact-restoration solver for problems evaluated at tunable precision.

The solver alternates a restoration phase, which moves toward
feasibility while tightening evaluation precision, with a tangent phase
that improves the objective along a linearization of the constraints.
Acceptance is governed by a merit function whose penalty weight only
ever shrinks, and every run produces a replayable trace that the audit
machinery checks against worst-case bounds derived from the problem's
own constants.
"""

from .core import (
    DEFAULT_KAPPAS,
    AbnormalTermination,
    AlgorithmParams,
    BoxPolytope,
    ConfigurationError,
    ContractError,
    DomainError,
    InsufficientDataError,
    InvariantError,
    PrecisionLevel,
    ProblemConstants,
    SchemaError,
    constraint_ssq,
    merit_phi,
)
from .diagnostics import (
    AuditReport,
    CheckResult,
    IterationBounds,
    TheoreticalConstants,
    audit,
    complexity_fit,
    constants,
    iteration_bounds,
    restoration_inner_cap,
)
from .geometry import TangentSet
from .oracle import (
    EvaluationLedger,
    InexactProblem,
    SyntheticProblem,
    make_p1,
    make_p2,
    make_p3,
    make_p4,
    problem_by_name,
)
from .qp import SolveCertificate
from .restoration import resta
from .solver import bira_run
from .trace import IterationRecord, RestorationOutcome, RunReport

__version__ = "0.1.0"

__all__ = [
    "AbnormalTermination",
    "AlgorithmParams",
    "AuditReport",
    "BoxPolytope",
    "CheckResult",
    "ConfigurationError",
    "ContractError",
    "DEFAULT_KAPPAS",
    "DomainError",
    "EvaluationLedger",
    "InexactProblem",
    "InsufficientDataError",
    "InvariantError",
    "IterationBounds",
    "IterationRecord",
    "PrecisionLevel",
    "ProblemConstants",
    "RestorationOutcome",
    "RunReport",
    "SchemaError",
    "SolveCertificate",
    "SyntheticProblem",
    "TangentSet",
    "TheoreticalConstants",
    "audit",
    "bira_run",
    "complexity_fit",
    "constants",
    "constraint_ssq",
    "iteration_bounds",
    "make_p1",
    "make_p2",
    "make_p3",
    "make_p4",
    "merit_phi",
    "problem_by_name",
    "resta",
    "restoration_inner_cap",
    "__version__",
]
