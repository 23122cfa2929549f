"""Exception hierarchy for the tritronquee toolkit.

Every numerical failure mode has a named exception so that callers (and the
CLI exit-code mapping) can distinguish them.  All of them derive from
:class:`NumericalError`; I/O problems are reported with the standard
``OSError`` family.
"""


class TritronqueeError(Exception):
    """Base class for all toolkit errors."""


class NumericalError(TritronqueeError):
    """Base class for numerical failures (CLI exit code 3)."""


class DegenerateTurningPoints(NumericalError):
    """Two turning points coincide; the elliptic curve degenerates."""


class QuadratureNotConverged(NumericalError):
    """A cycle's cut runs through the third turning point, where the
    closed-form periods do not hold, or a period or one of its derivatives
    overflows."""


class TraceStalled(NumericalError):
    """A Stokes-line trace could not advance (near-degenerate saddle)."""


class UnresolvedTopology(NumericalError):
    """A Stokes line ended by step limit; the graph cannot be classified."""


class NewtonDiverged(NumericalError):
    """Newton iteration hit the step limit or the residual kept growing."""


class NotType320(NumericalError):
    """A converged point failed the "320" Stokes-graph classification."""


class PathNearTurningPoint(NumericalError):
    """An integration path cannot keep the required margin from a turning point."""


class OdeToleranceNotMet(NumericalError):
    """The adaptive integrator could not meet the requested tolerance."""


class StepUnderflow(NumericalError):
    """Adaptive step size shrank below the representable minimum."""


class DependentBasis(NumericalError):
    """The solutions used as a basis are (numerically) linearly dependent."""


class OutsideDisc(NumericalError):
    """A refined pole violates the configured disc bound around its seed."""


class SeedNotConverged(NumericalError):
    """Asymptotic seeding at two radii disagreed beyond tolerance."""


class PoleFitFailed(NumericalError):
    """Laurent-coefficient fits at two radii disagreed beyond tolerance."""


class InsufficientData(NumericalError):
    """Not enough catalog entries for the requested analysis."""


#: Mapping used by the CLI: error class name -> exit-code class.
#: 2 = bad arguments, 3 = numerical failure, 4 = I/O.
EXIT_CODE_NUMERICAL = 3
EXIT_CODE_BAD_ARGS = 2
EXIT_CODE_IO = 4
