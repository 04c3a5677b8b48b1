"""One-step extension of superpositive Toeplitz supermatrices.

Given symbols r_0..r_N with r_0 superreal, the self-adjoint Toeplitz matrix
T_N has entry (j,k) = r_{k-j} above the diagonal and the dagger below.  The
admissible next symbols form a superdisk

    r_{N+1} = c_N + alpha^{-1/2} eta xi,   eta eta† ≺ 1,

with center c_N = a_N T_{N-1}⁻¹ b_N, left radius alpha^{-1/2} where
alpha = (r_0 - a_N T_{N-1}⁻¹ a_N*)⁻¹, and right radius xi the superreal square
root of r_0 - b_N* T_{N-1}⁻¹ b_N.  All three come from the noncommutative
Levinson recursion on supernumbers alone: predictor rows f, g with
f T_N = [P, 0, …, 0], g T_N = [0, …, 0, Q] and f_0 = g_N = 1 give alpha⁻¹ = P,
xi² = Q and c_N = -Σ_{k≥1} f_k r_{N+1-k}.  A spec built by `extend` carries
its parent's predictors, so the recursion resumes one step from them.

Every quantity of the chain is settled where it is made (`algebra._settled`):
the terms of modulus at most 2⁻⁴⁶‖z‖₁ / len(z) are dropped, at most 2⁻⁴⁶‖z‖₁
in all.  They are the rounding residues that mixed-parity products leave on
monomials whose exact coefficient is zero, so the chain keeps its exact support.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import Supernumber, _in_unit_disk, _settled, classify, dagger, invert, kth_root, linear_combine, mul
from .errors import ContextMismatch, EtaNotContractive, NotSuperpositive
from .matrix import SuperMatrix, _body_definite


class _Levinson(NamedTuple):
    """Predictors of T_m, f = (f_1..f_m) and g = (g_0..g_{m-1}) with f T_m = [P, 0, …, 0], g T_m = [0, …, 0, Q]
    and f_0 = g_m = 1 left implicit, and the center c = c_m; r is the symbol tuple they were computed for."""

    r: tuple[Supernumber, ...]
    f: tuple[Supernumber, ...]
    g: tuple[Supernumber, ...]
    p: Supernumber
    q: Supernumber
    c: Supernumber


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symbols r_0..r_N of a self-adjoint Toeplitz supermatrix."""

    r: tuple[Supernumber, ...]
    # the predictors of r[:-1], when `extend` built this spec from params computed on exactly those symbols
    _levinson: _Levinson | None = field(default=None, init=False, repr=False, compare=False)

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
    _levinson: _Levinson | None = field(default=None, init=False, repr=False, compare=False)


def assemble(spec: ToeplitzSpec) -> SuperMatrix:
    """The (N+1)x(N+1) self-adjoint Toeplitz supermatrix of the spec."""
    r = spec.r
    n = len(r)
    lower = [dagger(z) for z in r]
    return SuperMatrix.from_rows([[r[k - j] if k >= j else lower[j - k] for k in range(n)] for j in range(n)])


def _levinson_step(state: _Levinson, r: tuple[Supernumber, ...]) -> _Levinson:
    """The predictors of T_{m+1} from those of T_m; r starts with r_0..r_{m+1}.

    With Δ_f = r_{m+1} - c_m, the last entry of [f, 0] T_{m+1}, and Δ_g = Δ_f† its first by T = T*:
    f ← [f, 0] - Δ_f Q⁻¹ [0, g], g ← [0, g] - Δ_g P⁻¹ [f, 0], P ← P - Δ_f Q⁻¹ Δ_g, Q ← Q - Δ_g P⁻¹ Δ_f
    (Levinson, J. Math. Phys. 25, 1947; Delsarte, Genin and Kamp, IEEE Trans. Circuits Syst. 25, 1978).
    """
    m = len(state.f)
    delta_f = r[m + 1] - state.c
    delta_g = dagger(delta_f)
    kf, kg = _settled(mul(delta_f, invert(state.q))), _settled(mul(delta_g, invert(state.p)))
    f = tuple(_settled(fk - mul(kf, gk)) for fk, gk in zip(state.f, state.g)) + (-kf,)
    g = (-kg,) + tuple(_settled(gk - mul(kg, fk)) for gk, fk in zip(state.g, state.f))
    c = _settled(linear_combine((-1.0, mul(fk, r[m + 1 - k])) for k, fk in enumerate(f)))
    return _Levinson(r, f, g, _settled(state.p - mul(kf, delta_g)), _settled(state.q - mul(kg, delta_f)), c)


def extension_params(spec: ToeplitzSpec) -> SuperdiskParams:
    """Superdisk of admissible r_{N+1}; requires a superpositive T_N.

    T_N = T_N* by construction up to r_0's own defect, which ToeplitzSpec bounds, so verify_extension decides
    it on the body.  The Levinson recursion then runs from the predictors the spec carries (those of
    r_0..r_{N-1}, when `extend` built it) or else from r_0, one `_levinson_step` per symbol, and gives
    alpha⁻¹ = P, xi² = Q and the center c_N.  The predictors of T_N go on the returned params; the spec is
    not written to.  The center, both radii and every predictor are settled: each drops its terms of
    modulus at most 2⁻⁴⁶‖z‖₁ / len(z), a 1-norm change of at most 2⁻⁴⁶‖z‖₁.
    """
    if not verify_extension(spec):  # on the body alone: T_N = T_N* by construction
        raise NotSuperpositive("body not positive definite")
    r0 = spec.r[0]
    state = spec._levinson or _Levinson(spec.r, (), (), r0, r0, spec.context.zero())
    for _ in range(len(state.f), spec.order):
        state = _levinson_step(state, spec.r)
    left = _settled(kth_root(state.p, 2))
    right = left if spec.order == 0 else _settled(kth_root(state.q, 2))  # order 0: P = Q
    params = SuperdiskParams(state.c, left, right)
    object.__setattr__(params, "_levinson", state)
    return params


def extend(spec: ToeplitzSpec, eta: Supernumber, params: SuperdiskParams | None = None) -> ToeplitzSpec:
    """Append r_{N+1} = c_N + alpha^{-1/2} eta xi; eta_B must lie in the open unit disk.  r_{N+1} is
    settled: its terms of modulus at most 2⁻⁴⁶‖r_{N+1}‖₁ / len(r_{N+1}) are dropped, at most 2⁻⁴⁶‖r_{N+1}‖₁ in all.

    When params were computed from this very spec (the same symbol tuple), the extended spec carries their
    Levinson predictors, so its own extension_params takes one recursion step; otherwise it carries none.
    """
    if not _in_unit_disk(abs(eta.body), eta.context):
        raise EtaNotContractive(f"|eta body| = {abs(eta.body):.6f} >= 1")
    if params is None:
        params = extension_params(spec)
    r_next = _settled(params.center + mul(mul(params.left_radius, eta), params.right_radius))
    extended = spec.extended(r_next)
    if params._levinson is not None and params._levinson.r is spec.r:
        object.__setattr__(extended, "_levinson", params._levinson)
    return extended


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
