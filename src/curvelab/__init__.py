"""Numerical toolkit for spacelike curves in 4d Minkowski space.

Vector algebra for the (-,+,+,+) metric, truncated Taylor jets, Frenet
frames and curvatures of spacelike curves, and the rectifying-curve
characterization battery (position in span{T, B1, B2}, hyperbolic
component laws, spherical construction, curvature-profile synthesis).
"""

from .errors import (
    ConvergenceFailure,
    CurveLabError,
    DegenerateFrame,
    DivisionNearZero,
    FrameDriftExceeded,
    IllConditionedFit,
    NonSpacelikePrincipalNormal,
    NonSpacelikeVelocity,
    NotOnHyperbolicSphere,
    OutOfDomain,
    PoleEncountered,
    SqrtNonPositive,
    UsageError,
)
from .lorentz import (
    CausalCharacter,
    Vec4,
    causal_character,
    minkowski_dot,
)
from .jets import Jet
from .curves import CurveSpec, catalog_ids, eval_curve, make_spec, register_curve
from .frenet import (
    ArclengthMap,
    FrenetData,
    JetFrameSource,
    TranslatedSource,
    arclength_map,
    frenet_apparatus,
    frenet_ode_residual,
    synthesize_curve,
)
from .rectifying import (
    ConstructionParams,
    RectifyingReport,
    ReportTolerances,
    Theorem31Fit,
    construct_rectifying,
    fit_theorem31,
    rectifying_residual,
    theorem33_report,
)

__version__ = "0.1.0"

__all__ = [
    "ArclengthMap",
    "CausalCharacter",
    "ConstructionParams",
    "ConvergenceFailure",
    "CurveLabError",
    "CurveSpec",
    "DegenerateFrame",
    "DivisionNearZero",
    "FrameDriftExceeded",
    "FrenetData",
    "IllConditionedFit",
    "Jet",
    "JetFrameSource",
    "NonSpacelikePrincipalNormal",
    "NonSpacelikeVelocity",
    "NotOnHyperbolicSphere",
    "OutOfDomain",
    "PoleEncountered",
    "RectifyingReport",
    "ReportTolerances",
    "SqrtNonPositive",
    "Theorem31Fit",
    "TranslatedSource",
    "UsageError",
    "Vec4",
    "arclength_map",
    "catalog_ids",
    "causal_character",
    "construct_rectifying",
    "eval_curve",
    "fit_theorem31",
    "frenet_apparatus",
    "frenet_ode_residual",
    "make_spec",
    "minkowski_dot",
    "rectifying_residual",
    "register_curve",
    "synthesize_curve",
    "theorem33_report",
]
