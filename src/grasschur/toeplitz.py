"""One-step extension of superpositive Toeplitz supermatrices.

Given symbols r_0..r_N with r_0 superreal, the self-adjoint Toeplitz matrix
T_N has entry (j,k) = r_{k-j} above the diagonal and the dagger below.  The
admissible next symbols form a superdisk

    r_{N+1} = c_N + alpha^{-1/2} eta xi,   eta eta† ≺ 1,

with center c_N = a_N T_{N-1}⁻¹ b_N, left radius alpha^{-1/2} where
alpha = (r_0 - a_N T_{N-1}⁻¹ a_N*)⁻¹, and right radius xi the superreal square
root of r_0 - b_N* T_{N-1}⁻¹ b_N.  T_{N-1} leads and trails T_N, so all three are
entries of one 2x2 Schur complement r_0 I - X T_{N-1}⁻¹ X*, X = [a_N; b_N*].
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Supernumber, classify, dagger, invert, kth_root, mul
from .errors import EtaNotContractive, NotSuperpositive
from .matrix import SuperMatrix, adjoint, is_superpositive, mat_invert, mat_mul


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symbols r_0..r_N of a self-adjoint Toeplitz supermatrix."""

    r: tuple[Supernumber, ...]

    def __post_init__(self):
        if not self.r:
            raise ValueError("a Toeplitz spec needs at least r_0")
        object.__setattr__(self, "r", tuple(self.r))
        if not classify(self.r[0]).is_real:
            raise ValueError("r_0 must be superreal")

    @property
    def order(self) -> int:
        return len(self.r) - 1

    @property
    def context(self):
        return self.r[0].context

    def extended(self, r_next: Supernumber) -> "ToeplitzSpec":
        """The spec with r_next appended, built without re-checking the unchanged r_0."""
        spec = object.__new__(ToeplitzSpec)
        object.__setattr__(spec, "r", self.r + (r_next,))
        return spec


@dataclass(frozen=True)
class SuperdiskParams:
    """Center and radii of the admissible one-step extensions."""

    center: Supernumber
    left_radius: Supernumber   # alpha^{-1/2}, superreal
    right_radius: Supernumber  # xi, superreal


def assemble(spec: ToeplitzSpec) -> SuperMatrix:
    """The (N+1)x(N+1) self-adjoint Toeplitz supermatrix of the spec."""
    r = spec.r
    n = len(r)
    lower = [dagger(z) for z in r]
    return SuperMatrix.from_rows([[r[k - j] if k >= j else lower[j - k] for k in range(n)] for j in range(n)])


def extension_params(spec: ToeplitzSpec) -> SuperdiskParams:
    """Superdisk of admissible r_{N+1}; requires a superpositive T_N.

    With X = [a_N; b_N*], the rest of T_N's first and last rows, S = X T_{N-1}⁻¹ X* gives
    alpha⁻¹ = r_0 - S_00, c_N = S_01 and xi² = r_0 - S_11 (Dym and Gohberg, LAA 36, 1981).
    """
    t = assemble(spec)
    report = is_superpositive(t)
    if not report:
        raise NotSuperpositive(report.reason or "Toeplitz matrix is not superpositive")
    r0, n = spec.r[0], spec.order
    if n == 0:
        center, alpha_inv, xi_sq = spec.context.zero(), r0, r0
    else:
        x = SuperMatrix.block([[t.submatrix([0], range(1, n + 1))], [t.submatrix([n], range(n))]])
        s = mat_mul(mat_mul(x, mat_invert(t.submatrix(range(n), range(n)))), adjoint(x))
        center, alpha_inv, xi_sq = s[0, 1], r0 - s[0, 0], r0 - s[1, 1]
    return SuperdiskParams(
        center=center,
        left_radius=kth_root(alpha_inv, 2),
        right_radius=kth_root(xi_sq, 2),
    )


def extend(spec: ToeplitzSpec, eta: Supernumber, params: SuperdiskParams | None = None) -> ToeplitzSpec:
    """Append r_{N+1} = c_N + alpha^{-1/2} eta xi; eta must satisfy |eta_B| < 1."""
    if abs(eta.body) >= 1.0:
        raise EtaNotContractive(f"|eta body| = {abs(eta.body):.6f} >= 1")
    if params is None:
        params = extension_params(spec)
    r_next = params.center + mul(mul(params.left_radius, eta), params.right_radius)
    return spec.extended(r_next)


def verify_extension(spec: ToeplitzSpec) -> bool:
    """Superpositivity of the assembled matrix T_N.

    Equivalent to the Schur-complement test (T_{N-1} superpositive and
    r_0 - b_N* T_{N-1}⁻¹ b_N a positive supernumber): T_N is self-adjoint as
    far as r_0 is real, and taking bodies is a ring morphism, so body(T_N) is
    positive definite iff body(T_{N-1}) is and the body Schur complement is
    positive.
    """
    return bool(is_superpositive(assemble(spec)))


def alpha_from_params(params: SuperdiskParams) -> Supernumber:
    """alpha = (left_radius^2)^{-1}; handy for body comparisons."""
    return invert(mul(params.left_radius, params.left_radius))
