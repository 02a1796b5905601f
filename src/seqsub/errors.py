"""Exception types shared across modules.

Every error raised by the library derives from SeqsubError so the CLI can
map failures to exit code 1 while letting genuine bugs surface as plain
Python exceptions.
"""


class SeqsubError(Exception):
    """Base class for all library errors."""


class ValidationError(SeqsubError):
    """Input data violates a documented invariant (shapes, signs, monotonicity)."""


class TooLargeError(SeqsubError):
    """Instance exceeds a hard enumeration cutoff (never silently truncated)."""


class InfeasibleError(SeqsubError):
    """No feasible solution: LP infeasible or engagement floor unattainable."""


class PolytopeError(SeqsubError):
    """A fractional point expected inside the matroid polytope lies outside it."""


class CertMismatchError(SeqsubError):
    """Flow certificates passed to the policy sampler disagree with the vector."""


class NumericalInstabilityError(SeqsubError):
    """An LP solve went numerically wrong; reported, never silent.

    Raised when the simplex hits its iteration cap, its basic solution loses
    feasibility, or its optimum violates a row or fails its dual certificate,
    and when the revenue LP's marginals break their bounds.
    """


class GenerationError(SeqsubError):
    """Random instance generation failed its own verification or got an unknown kind."""
