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
from .errors import ContextMismatch, EtaNotContractive, NotSuperpositive
from .matrix import SuperMatrix, _body_definite, adjoint, mat_invert, mat_mul


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symbols r_0..r_N of a self-adjoint Toeplitz supermatrix."""

    r: tuple[Supernumber, ...]

    def __post_init__(self):
        if not self.r:
            raise ValueError("a Toeplitz spec needs at least r_0")
        object.__setattr__(self, "r", tuple(self.r))
        if any(z.context != self.context for z in self.r):
            raise ContextMismatch("Toeplitz symbols use different algebra contexts")
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
        if r_next.context != self.context:
            raise ContextMismatch("Toeplitz symbols use different algebra contexts")
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

    T_N = T_N* by construction up to r_0's own defect, which ToeplitzSpec bounds, so verify_extension decides
    it on the body before T_N's one assembly.  With X = [a_N; b_N*], the rest of T_N's first and last rows,
    S = X T_{N-1}⁻¹ X* gives alpha⁻¹ = r_0 - S_00, c_N = S_01 and xi² = r_0 - S_11 (Dym and Gohberg, LAA 36, 1981).
    """
    if not verify_extension(spec):  # on the body alone: T_N = T_N* by construction
        raise NotSuperpositive("body not positive definite")
    t = assemble(spec)
    r0, n = spec.r[0], spec.order
    if n == 0:  # alpha⁻¹ = xi² = r_0: one root serves both radii
        root = kth_root(r0, 2)
        return SuperdiskParams(spec.context.zero(), root, root)
    x = SuperMatrix.block([[t.submatrix([0], range(1, n + 1))], [t.submatrix([n], range(n))]])
    s = mat_mul(mat_mul(x, mat_invert(t.submatrix(range(n), range(n)))), adjoint(x))
    return SuperdiskParams(s[0, 1], kth_root(r0 - s[0, 0], 2), kth_root(r0 - s[1, 1], 2))


def extend(spec: ToeplitzSpec, eta: Supernumber, params: SuperdiskParams | None = None) -> ToeplitzSpec:
    """Append r_{N+1} = c_N + alpha^{-1/2} eta xi; eta must satisfy |eta_B| < 1."""
    if abs(eta.body) >= 1.0:
        raise EtaNotContractive(f"|eta body| = {abs(eta.body):.6f} >= 1")
    if params is None:
        params = extension_params(spec)
    r_next = params.center + mul(mul(params.left_radius, eta), params.right_radius)
    return spec.extended(r_next)


def verify_extension(spec: ToeplitzSpec) -> bool:
    """Superpositivity of T_N, decided on its body, read off the symbols' bodies; T_N is not assembled.

    T_N = T_N* by construction up to r_0's own defect, which ToeplitzSpec bounds.  Equivalent to the
    Schur-complement test (T_{N-1} superpositive and r_0 - b_N* T_{N-1}⁻¹ b_N a positive supernumber):
    taking bodies is a ring morphism, so body(T_N) is the Toeplitz matrix of body(r_0)..body(r_N), and it
    is positive definite iff body(T_{N-1}) is and the body Schur complement is positive.
    """
    b = [z.body for z in spec.r]
    body = [[b[k - j] if k >= j else b[j - k].conjugate() for k in range(len(b))] for j in range(len(b))]
    return _body_definite(spec.context, body, strict=True)[0]  # no scan: T_N = T_N* by construction


def alpha_from_params(params: SuperdiskParams) -> Supernumber:
    """alpha = (left_radius^2)^{-1}; handy for body comparisons."""
    return invert(mul(params.left_radius, params.left_radius))
