"""Exception hierarchy.

Every mathematically meaningful failure gets its own class so callers (and
the CLI exit-code logic) can tell usage errors apart from genuine findings.
"""


class CircHessError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction / arithmetic ---------------------------------------

class NotPrimeError(CircHessError):
    """Requested prime field modulus is not prime."""


class ReducibleModulusError(CircHessError):
    """Quotient extension modulus is reducible (or cannot be certified)."""


class DivisionByZeroError(CircHessError):
    """Inverse or quotient of the zero element."""


class MixedFieldsError(CircHessError):
    """Arithmetic between elements of different fields."""


class NoSuchRootError(CircHessError):
    """No primitive n-th root of unity in the given field."""


class ParseError(CircHessError):
    """Malformed field, element, or JSON text."""


# --- linear algebra ----------------------------------------------------------

class DimensionMismatchError(CircHessError):
    """Non-conformable matrix/vector dimensions."""


class SingularError(CircHessError):
    """Matrix inverse requested for a singular matrix."""


class RepeatedEigenvalueError(CircHessError):
    """Eigenvalue list for idempotents contains a repeat."""


class NotMultiplicityFreeError(CircHessError):
    """Matrix is not annihilated by the product of (A - theta_j I)."""


class UnsupportedFieldError(CircHessError):
    """Operation requires a finite field (of bounded size)."""


# --- systems -----------------------------------------------------------------

class InvalidParameterArrayError(CircHessError, ValueError):
    """Parameter array with a repeated theta or theta* value, or a zero
    phi entry."""


class ZeroVectorError(CircHessError):
    """A nonzero vector was required."""


class NotInE0StarVError(CircHessError):
    """Seed vector has zero projection onto the E*_0 eigenspace."""


class CorruptIdempotentsError(CircHessError):
    """Stored idempotents fail E_i E_j = delta_ij E_i, sum E_i = I or
    E_i != 0, or lack one distinct eigenvalue label each."""


class UnverifiedSystemError(CircHessError):
    """Operation requires a system whose axioms have been verified."""


# --- recurrence --------------------------------------------------------------

class TooShortError(CircHessError):
    """Sequence too short for the recurrence window test."""


class NotRecurrentError(CircHessError):
    """Operation requires a recurrent parameter array."""


class NotRecurrentAtBetaError(CircHessError):
    """The given beta does not make the system recurrent."""


class SingularBasisError(CircHessError):
    """Closed-form fit basis is singular."""


class PreconditionViolatedError(CircHessError):
    """Index preconditions of a quotient identity are violated."""


# --- families ----------------------------------------------------------------

class InvalidFamilyParametersError(CircHessError):
    """Family hypothesis violated; `hypothesis` names the failing one."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class NotCircularError(CircHessError):
    """Recurrent array with equal first/last wrap scalars: not a CH array."""


class InternalContradictionError(CircHessError):
    """Two exact computations disagree: a recurrent CH array failed every
    classification case, or the search probe accepted an array that the
    axiom oracle rejects.

    Either would contradict a proved result (the four-family classification,
    the probe's exactness); it is always reported loudly and never
    swallowed.
    """


# --- bases -------------------------------------------------------------------

class UnknownBasisError(CircHessError):
    """Basis name not among the six supported ones."""


class IdentityCheckError(CircHessError):
    """A closed-form identity failed to match its independent computation."""


# --- search ------------------------------------------------------------------

class BudgetExceededError(CircHessError):
    """Exhaustive candidate count exceeds the configured budget."""


class UnknownSearchModeError(CircHessError):
    """Search mode not among the supported ones."""
