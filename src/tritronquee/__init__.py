"""Numerical toolkit for the poles of the Painleve I tritronquee solution."""

__version__ = "0.1.0"

from .bsb import (  # noqa: F401
    BsbSolution,
    QuantumPair,
    descendant,
    solve_bsb,
    tilde_U,
)
from .elliptic import (  # noqa: F401
    CycleId,
    ParamPoint,
    PeriodData,
    Potential,
    TurningPoints,
    legendre_residual,
    turning_points,
)
from .oscillator import (  # noqa: F401
    LogDerivativeSample,
    PoleRecord,
    RaySpec,
    dependence_residual,
    psi_logderivative,
    ray_spec,
    refine_pole,
    u_values,
)
from .painleve import (  # noqa: F401
    PainlevePole,
    TritronqueeState,
    laurent_coefficients,
    seed_asymptotic,
    track,
)
from .stokes import (  # noqa: F401
    StokesGraph,
    StokesLine,
    classify_graph,
    trace_stokes_lines,
)
