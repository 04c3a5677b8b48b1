"""Exception hierarchy.

Every domain failure raised by the library derives from :class:`GrasschurError`
and carries a stable ``code`` string; the CLI maps those to exit status 2.
"""
from __future__ import annotations


class GrasschurError(Exception):
    """Base class for all domain errors."""

    code = "error"


class ContextMismatch(GrasschurError):
    """Operands belong to different algebra contexts."""

    code = "context-mismatch"


class ShapeMismatch(GrasschurError):
    """Matrix or series shapes are incompatible."""

    code = "shape-mismatch"


class BodyZero(GrasschurError):
    """Inversion/root of a supernumber whose body is (numerically) zero."""

    code = "body-zero"


class BranchCut(GrasschurError):
    """Principal-branch root requested for a body on the negative real axis."""

    code = "branch-cut"


class DomainViolation(GrasschurError):
    """An argument lies outside a function's domain: a root order below 2, a
    Schur step count or a series degree that is not an integer in range, a
    series longer than the context's max_series_degree, or an expansion point a
    derivative oracle refused."""

    code = "domain-violation"


class NotRegular(GrasschurError):
    """A leading principal minor of the body is singular; LDU unavailable."""

    code = "not-regular"

    def __init__(self, minor: int, message: str | None = None):
        self.minor = minor
        super().__init__(message or f"leading principal minor {minor} of the body is singular")


class BodySingular(GrasschurError):
    """Matrix body is not invertible."""

    code = "body-singular"


class NotSuperpositive(GrasschurError):
    """A superpositive matrix/supernumber was required."""

    code = "not-superpositive"


class EtaNotContractive(GrasschurError):
    """Extension parameter eta lies outside the open unit superdisk."""

    code = "eta-not-contractive"


class ConstantTermSingular(GrasschurError):
    """Star inversion of a series whose constant term has singular body."""

    code = "constant-term-singular"


class NotInvertible(GrasschurError):
    """Laurent series fails the body invertibility criterion on the circle."""

    code = "not-invertible"


class WindowTooSmall(GrasschurError):
    """No grid up to ``series._MAX_GRID`` points (2¹⁶) certifies the Wiener inverse:
    ‖F ⋆ G − I‖₁ stays above tol_eq on every grid tried."""

    code = "window-too-small"


class TooLarge(GrasschurError):
    """An array the operation needs would exceed the size budget ``algebra._MAX_ENTRIES``."""

    code = "too-large"


class NotConvergent(GrasschurError):
    """The series a result stands for diverges: a body modulus is not inside the open unit disk."""

    code = "not-convergent"


class DSingular(GrasschurError):
    """Realization inversion needs an invertible constant block D."""

    code = "d-singular"


class JInvalid(GrasschurError):
    """J is not a signature matrix (self-adjoint and unitary)."""

    code = "j-invalid"


class HNotNegative(GrasschurError):
    """KYP certificate H must be self-adjoint with -H superpositive."""

    code = "h-not-negative"


class SteinViolated(GrasschurError):
    """The data does not satisfy the Stein identity P - A*PA = C*JC."""

    code = "stein-violated"


class ISubASingular(GrasschurError):
    """(I - A) has a singular body; the theta normalization is undefined."""

    code = "i-sub-a-singular"


class NodeOutsideSuperdisk(GrasschurError):
    """Interpolation node body lies outside the open unit superdisk."""

    code = "node-outside-superdisk"


class DenominatorSingular(GrasschurError):
    """Linear-fractional denominator has a singular constant-term body."""

    code = "denominator-singular"


class NotSchur(GrasschurError):
    """A function required to be Schur-Grassmann (contractive on the unit superdisk) is not."""

    code = "not-schur"


class SectionResidual(GrasschurError):
    """The identities a Schur section must satisfy at z = 0 fail to vanish within tol_eq."""

    code = "section-residual"


class RhoNotContractive(GrasschurError):
    """Schur coefficient hit the unit boundary; the recursion stops."""

    code = "rho-not-contractive"

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"schur coefficient at step {step} is not contractive")


class StepSingular(GrasschurError):
    """Shifted section denominator is singular; the section solve cannot continue."""

    code = "step-singular"

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"section solve at step {step} has a singular shifted denominator")


class ConstraintViolated(GrasschurError):
    """Blaschke/Brune structural constraint fails."""

    code = "constraint-violated"


class IsotropyViolated(GrasschurError):
    """Brune section requires an isotropic vector: c*Jc = 0."""

    code = "isotropy-violated"


class NotUnimodular(GrasschurError):
    """Brune section requires a unimodular scalar: a†a = 1."""

    code = "not-unimodular"


class SerializationError(GrasschurError):
    """Malformed canonical-format input."""

    code = "serialization-error"
