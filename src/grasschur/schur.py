"""Schur-Grassmann functions, theta functions, Nevanlinna-Pick interpolation,
the Schur algorithm, and Blaschke/Brune factors.

The organizing object is

    Theta(z) = I - (1-z) C ⋆ (I - zA)^{-star} P^{-1} (I-A)^{-*} C* J

for Stein-consistent data P - A*PA = C*JC; its kernel identity

    sum_n z^n (J - Theta(z) J Theta(w)*) (w†)^n
        = C ⋆ (I-zA)^{-star} P^{-1} [(I-wA)*]^{-star_r} ⋆_r C*

holds iff the Stein identity does, and everything else (interpolation,
the algorithm's elementary sections, Blaschke factors) specializes it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraContext, Supernumber, _in_unit_disk, _within_budget, classify, dagger, invert, mul
from .errors import (
    BodySingular,
    ConstantTermSingular,
    ConstraintViolated,
    DSingular,
    DenominatorSingular,
    DomainViolation,
    HNotNegative,
    ISubASingular,
    IsotropyViolated,
    NodeOutsideSuperdisk,
    NotConvergent,
    NotSchur,
    NotUnimodular,
    RhoNotContractive,
    SectionResidual,
    ShapeMismatch,
    SteinViolated,
    StepSingular,
)
from .matrix import (
    SuperMatrix,
    _body_definite,
    _body_spectral_radius,
    _self_adjoint,
    adjoint,
    is_supernonnegative,
    mat_invert,
    mat_mul,
    sandwich_solve,
)
from .realization import Realization, _check_signature, evaluate_rational, inverse_realization, to_series
from .series import SeriesMatrix, backward_shift, evaluate, star_inverse, star_mul


# ---------------------------------------------------------------------------
# convergent geometric sums
# ---------------------------------------------------------------------------


def geometric_sandwich_sum(x: Supernumber, u: Supernumber, y: Supernumber) -> Supernumber:
    """sum_n x^n u y^n, solved exactly as the X with X - x X y = u.

    Needs |x_B||y_B| in the open unit disk, else NotConvergent.  The scalar
    reference for entrywise checks of Pick rows and Blaschke values.
    """
    ratio = abs(x.body) * abs(y.body)
    if not _in_unit_disk(ratio, x.context):
        raise NotConvergent(f"|x_B||y_B| = {ratio:.6f} >= 1")
    return sandwich_solve(SuperMatrix.from_scalar(x), SuperMatrix.from_scalar(u),
                          SuperMatrix.from_scalar(y))[0, 0]


# ---------------------------------------------------------------------------
# Schur-Grassmann membership
# ---------------------------------------------------------------------------


def is_schur_grassmann(s: SeriesMatrix) -> bool:
    """Contractivity test: I - L_N* L_N supernonnegative for all N <= depth, L_N the block lower-triangular
    Toeplitz matrix of s_0..s_N, at a depth: the degree of a truncated series, max_series_degree for an exact one
    of degree >= 1, 0 for an exact constant.  Each L_N is a leading block of L_depth, so ‖L_N‖ ≤ ‖L_depth‖ and
    the one test at N = depth decides them all: Schur's criterion for s_0..s_depth, and only a necessary one
    for an exact polynomial, whose Schur chain runs on past that depth.  The verdict depends only on the body
    (body Schur <=> Schur-Grassmann), so it is decided on the body series, by the body rule alone: the
    complex matrix I - L*L is Hermitian by its form, so no self-adjointness scan is needed.  An L or L*L of
    more than ``algebra._MAX_ENTRIES`` entries raises TooLarge before either is allocated."""
    depth, (p, q) = s.context.max_series_degree if s.exact and s.degree else s.degree, s.shape
    _within_budget((depth + 1) ** 2 * max(p, q) * q,
                   f"the block Toeplitz matrix of s_0..s_{depth} ({p}x{q} blocks) or its Gram matrix")
    s, lag = s.truncated(depth), np.subtract.outer(np.arange(depth + 1), np.arange(depth + 1))
    blocks = np.where((lag >= 0)[..., None, None], s._body()[np.maximum(lag, 0)], 0)
    l = blocks.transpose(0, 2, 1, 3).reshape((depth + 1) * p, (depth + 1) * q)
    return _body_definite(s.context, np.eye(l.shape[1]) - l.conj().T @ l, strict=False)[0]


def kyp_check(r: Realization, h: SuperMatrix) -> bool:
    """Dissipation inequality for an origin-centered realization.

    H must be self-adjoint with -H superpositive, H scanned for self-adjointness once and -H then judged
    on its body; the test is diag(-H, I) - M* diag(-H, I) M ⪰ 0 for M = [[A,B],[C,D]] (matrix ordering
    taken form-wise, i.e. is_supernonnegative).
    """
    if not _self_adjoint(h)[0]:
        raise HNotNegative("H is not self-adjoint")
    if not _body_definite(h.context, -h.body(), strict=True)[0]:  # H = H* was just checked
        raise HNotNegative("-H is not superpositive")
    if h.rows != r.state_dim:
        raise ShapeMismatch("H must match the state dimension")
    m = SuperMatrix.block([[r.a, r.b], [r.c, r.d]])
    weight = SuperMatrix.block([[-h, None], [None, SuperMatrix.identity(r.context, r.shape[1])]])
    diff = weight - mat_mul(adjoint(m), mat_mul(weight, m))
    return bool(is_supernonnegative(diff))


# ---------------------------------------------------------------------------
# Stein equation and Theta
# ---------------------------------------------------------------------------


def stein_solve(c: SuperMatrix, a: SuperMatrix, j: SuperMatrix) -> SuperMatrix:
    """The P with P - A*PA = C*JC, that is P = sum_n (A*)^n C*JC A^n.

    Solved exactly by sandwich_solve: a body solve plus at most N soul steps, with no truncation,
    returned as ½(X + X*): the exact P is self-adjoint and the Stein map commutes with the adjoint,
    so this can only shrink the residual.  The returned P is self-adjoint bit for bit: entry (i, j)
    of X + X* at a monomial is x_ij ± conj(x_ji), and its dagger sums the same two numbers.  Needs
    the body spectral radius of A below 1, else NotConvergent.
    """
    context = a.context
    radius = _body_spectral_radius(a)
    if not _in_unit_disk(radius, context):
        raise NotConvergent(f"body spectral radius {radius:.6f} not below 1")
    x = sandwich_solve(adjoint(a), mat_mul(adjoint(c), mat_mul(j, c)), a)
    return (x + adjoint(x)) * 0.5


def stein_residual(p: SuperMatrix, c: SuperMatrix, a: SuperMatrix, j: SuperMatrix) -> float:
    return (p - mat_mul(adjoint(a), mat_mul(p, a)) - mat_mul(adjoint(c), mat_mul(j, c))).norm1()


@dataclass(frozen=True)
class ThetaFunction:
    """Theta as its certified realization (A, (I-A)K, C, I - CK), with the Stein
    data P and J and the normalization K.

    ``series`` is to_series of the realization, cut at the context's
    max_series_degree, computed when it is first read and then kept: np_solve
    with a constant sigma never reads it.
    """

    realization: Realization
    p: SuperMatrix
    j: SuperMatrix
    k: SuperMatrix

    @cached_property
    def series(self) -> SeriesMatrix:
        return to_series(self.realization)

    @property
    def context(self) -> AlgebraContext:
        return self.realization.context

    def normalization(self) -> SuperMatrix:
        """K = P^{-1} (I-A)^{-*} C* J (the constant right factor of Theta)."""
        return self.k

    def eval_at(self, z: Supernumber) -> SuperMatrix:
        """Exact left value sum_n z^n Theta_n (evaluate_rational of the realization)."""
        return evaluate_rational(self.realization, z)


def build_theta(
    c: SuperMatrix,
    a: SuperMatrix,
    p: SuperMatrix,
    j: SuperMatrix,
    *,
    verify_samples: int = 0,  # ignored; bench/workloads.py still passes verify_samples=0
) -> ThetaFunction:
    """Assemble Theta from Stein-consistent (C, A, P, J) and certify its colligation.

    Coefficients: Theta_0 = I - CK and Theta_n = C A^{n-1} (I-A) K, with
    K = P^{-1}(I-A)^{-*}C*J.  The realization M = [A B; C D] of Theta must
    satisfy M*(P ⊕ J)M = P ⊕ J block by block (the Stein residual and
    colligation_residuals), which makes the kernel identity hold at every
    pair of central arguments; a block above tol_eq at its scale raises
    SteinViolated.
    """
    context = c.context
    _check_signature(j)
    if not _self_adjoint(p)[0]:
        raise SteinViolated("P is not self-adjoint")
    try:
        i_sub_a_inv = mat_invert(adjoint(SuperMatrix.identity(context, a.rows) - a))
    except BodySingular as exc:
        raise ISubASingular("(I - A) has a singular body") from exc
    residual = stein_residual(p, c, a, j)
    if residual > context.tol_eq * max(1.0, p.norm1()):
        raise SteinViolated(f"Stein residual {residual:.3e}")
    k = mat_mul(mat_invert(p), mat_mul(i_sub_a_inv, mat_mul(adjoint(c), j)))
    r = _theta_realization(c, a, k)
    off_diagonal, corner = colligation_residuals(r, p, j)
    if max(off_diagonal, corner) > context.tol_eq:
        raise SteinViolated(f"colligation residuals {off_diagonal:.3e} (A*PB + C*JD), "
                            f"{corner:.3e} (B*PB + D*JD - J) at their scales")
    return ThetaFunction(realization=r, p=p, j=j, k=k)


def _theta_realization(c: SuperMatrix, a: SuperMatrix, k: SuperMatrix) -> Realization:
    context = c.context
    eye_q = SuperMatrix.identity(context, a.rows)
    eye_p = SuperMatrix.identity(context, c.rows)
    return Realization(a=a, b=mat_mul(eye_q - a, k), c=c, d=eye_p - mat_mul(c, k))


def colligation_residuals(r: Realization, p: SuperMatrix, j: SuperMatrix) -> tuple[float, float]:
    """Off-diagonal and corner blocks of M*(P ⊕ J)M - P ⊕ J for M = [A B; C D].

    Returns the 1-norms of A*PB + C*JD and B*PB + D*JD - J, each divided by
    max(1, the 1-norm bound of the products it sums).  The (1,1) block is the
    Stein residual.  With all three zero the kernel identity holds at every
    pair of central arguments (Dym, CBMS 71, 1989).
    """
    pb, jd = mat_mul(p, r.b), mat_mul(j, r.d)
    off_diagonal = mat_mul(adjoint(r.a), pb) + mat_mul(adjoint(r.c), jd)
    corner = mat_mul(adjoint(r.b), pb) + mat_mul(adjoint(r.d), jd) - j
    p_size, b_size, d_size = p.norm1(), r.b.norm1(), r.d.norm1()
    return (off_diagonal.norm1() / max(1.0, r.a.norm1() * p_size * b_size + r.c.norm1() * d_size),
            corner.norm1() / max(1.0, p_size * b_size ** 2 + d_size ** 2))


def kernel_identity_residual(theta: ThetaFunction, z: Supernumber, w: Supernumber) -> float:
    """Residual of the theta kernel identity at an even-soul sample pair.

    An independent reference for tests: build_theta certifies the identity
    through colligation_residuals and does not call this.
    """
    context, r = theta.context, theta.realization
    eye_q = SuperMatrix.identity(context, r.state_dim)
    tz = theta.eval_at(z)
    tw = theta.eval_at(w)
    x = theta.j - mat_mul(tz, mat_mul(theta.j, adjoint(tw)))
    lhs = x.scale_left(invert(context.one() - mul(z, dagger(w))))
    rz = mat_invert(eye_q - r.a.scale_left(z))
    rw = mat_invert(adjoint(eye_q - r.a.scale_left(w)))
    rhs = mat_mul(r.c, mat_mul(rz, mat_mul(mat_invert(theta.p), mat_mul(rw, adjoint(r.c)))))
    return (lhs - rhs).norm1()


# ---------------------------------------------------------------------------
# Nevanlinna-Pick interpolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationData:
    """Nodes in the open unit superdisk and target values."""

    nodes: tuple[Supernumber, ...]
    values: tuple[Supernumber, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.nodes) != len(self.values) or not self.nodes:
            raise ValueError("need equally many nodes and values, at least one")
        context = self.nodes[0].context
        for z in self.nodes:
            if not _in_unit_disk(abs(z.body), context):
                raise NodeOutsideSuperdisk(f"|z_B| = {abs(z.body):.6f}")

    @property
    def context(self) -> AlgebraContext:
        return self.nodes[0].context

    def state_matrix(self) -> SuperMatrix:
        """A = diag(z_k†)."""
        return SuperMatrix.diagonal([dagger(z) for z in self.nodes])

    def output_matrix(self) -> SuperMatrix:
        """C with first row all ones and second row s_k†."""
        context = self.context
        return SuperMatrix.from_rows([
            [context.one() for _ in self.nodes],
            [dagger(s) for s in self.values],
        ])

    def signature(self) -> SuperMatrix:
        return SuperMatrix.from_body(self.context, np.diag([1.0, -1.0]))


def pick_matrix(data: InterpolationData) -> SuperMatrix:
    """P_jk = sum_n z_j^n (1 - s_j s_k†) (z_k†)^n, with a Stein-residual certificate.

    P is the exact stein_solve solution of P - A*PA = C*JC for the data's
    state matrix A, output matrix C and signature J; a Stein residual above
    tol_eq (relative to P) raises SteinViolated.
    """
    c, a, j = data.output_matrix(), data.state_matrix(), data.signature()
    p = stein_solve(c, a, j)
    residual = stein_residual(p, c, a, j)
    if residual > data.context.tol_eq * max(1.0, p.norm1()):
        raise SteinViolated(f"Stein residual {residual:.3e}")
    return p


def np_node_residuals(data: InterpolationData, theta: ThetaFunction) -> list[float]:
    """Residual norms of (1, -s_k) ⋆ Theta(z) at z = z_k, one per node.

    Each is the exact left value of the realization (A, B, tC, tD) with
    t = row(1, -s_k), built from the data's state matrix A = diag(z_m†), output
    matrix C and theta's K; evaluate_rational solves for the k-th Pick row
    Y = sum_n z_k^n tC A^n, so the check is truncation-free and does not reuse
    theta's P.
    """
    one = data.context.one()
    r = _theta_realization(data.output_matrix(), data.state_matrix(), theta.normalization())
    residuals = []
    for z, s in zip(data.nodes, data.values):
        t = SuperMatrix.row([one, -s])
        residuals.append(evaluate_rational(Realization(r.a, r.b, mat_mul(t, r.c), mat_mul(t, r.d)), z).norm1())
    return residuals


def np_interpolation_check(data: InterpolationData, theta: ThetaFunction) -> bool:
    tol = data.context.tol_eq * max(1.0, theta.p.norm1())
    return all(r <= tol for r in np_node_residuals(data, theta))


def lft_apply(block: SeriesMatrix, sigma: SeriesMatrix) -> SeriesMatrix:
    """Linear fractional map (a⋆sigma + b) ⋆ (c⋆sigma + d)^{-star}.

    ``block`` is a square series Theta, such as a ThetaFunction's ``series``, and
    [[a, b], [c, d]] its blocks by sigma's shape: G = Theta ⋆ col(sigma, I) is one star
    product, and the map is G_1 ⋆ G_2^{-star} for G's top p rows G_1 and last q rows G_2.
    """
    p, q = sigma.shape
    if block.shape != (p + q, p + q):
        raise ShapeMismatch(f"theta {block.shape} incompatible with sigma {sigma.shape}")
    g = star_mul(block.block(0, p + q, 0, p), sigma) + block.block(0, p + q, p, p + q)
    try:
        denominator_inv = star_inverse(g.block(p, p + q, 0, q))
    except ConstantTermSingular as exc:
        raise DenominatorSingular("c ⋆ sigma + d has a singular constant-term body") from exc
    return star_mul(g.block(0, p, 0, q), denominator_inv)


@dataclass(frozen=True)
class NPSolution:
    """Interpolant plus the objects used to build and check it."""

    series: SeriesMatrix
    theta: ThetaFunction
    pick: SuperMatrix
    node_residuals: tuple[float, ...]


def np_solve(data: InterpolationData, sigma: SeriesMatrix | None = None) -> NPSolution:
    """Solve the Nevanlinna-Pick problem: S = T_Theta(sigma) with Schur sigma.

    sigma defaults to 0 (the central solution).  An exact constant sigma goes
    through Theta's realization: G = Theta col(sigma, I) shares Theta's state, and
    with G's rows split into G_1 (p rows) and G_2 (q rows), S = G_1 ⋆ G_2^{-star}
    is the state-n realization (A - B_G D_2⁻¹C_2, B_G D_2⁻¹, C_1 - D_1 D_2⁻¹C_2,
    D_1 D_2⁻¹), expanded by to_series; Theta's series is not built.  A sigma of
    degree >= 1 is a truncated series with no realization here and goes through
    lft_apply on Theta's series.  Either way the solution is cut at the context's
    max_series_degree, and a singular body of the denominator (D_2, the constant
    term of c⋆sigma + d) raises DenominatorSingular.  Node residuals are reported,
    not asserted: they carry the series truncation tail |z_B|^degree.
    """
    context = data.context
    if sigma is None:
        sigma = SeriesMatrix.zero(context, 1, 1)
    if not is_schur_grassmann(sigma):
        raise NotSchur("sigma is not a Schur-Grassmann function")
    c, a, j = data.output_matrix(), data.state_matrix(), data.signature()
    p = stein_solve(c, a, j)  # the Pick matrix; build_theta certifies its Stein residual
    if not _body_definite(context, p.body(), strict=True)[0]:  # stein_solve's P = P* bit for bit
        raise SteinViolated("Pick matrix is not superpositive")
    theta = build_theta(c, a, p, j)
    if sigma.exact and not sigma.degree:
        series = to_series(_lft_realization(theta.realization, sigma.coeffs[0]))
    else:
        series = lft_apply(theta.series, sigma)
    residuals = tuple(
        (evaluate(series, z) - SuperMatrix.from_scalar(s)).norm1()
        for z, s in zip(data.nodes, data.values)
    )
    return NPSolution(series=series, theta=theta, pick=p, node_residuals=residuals)


def _lft_realization(r: Realization, sigma: SuperMatrix) -> Realization:
    """The realization of G_1 ⋆ G_2^{-star} on r's state, G = F col(sigma, I) for the F
    that r realizes: with (A_x, B_x, C_x, D_2⁻¹) the inverse realization of G_2, it is
    (A_x, B_x, C_1 + D_1 C_x, D_1 D_2⁻¹)."""
    p, q = sigma.shape
    column = SuperMatrix.block([[sigma], [SuperMatrix.identity(r.context, q)]])
    d = mat_mul(r.d, column)
    top, bottom, state = range(p), range(p, p + q), range(r.state_dim)
    try:
        inverse = inverse_realization(Realization(r.a, mat_mul(r.b, column), r.c.submatrix(bottom, state),
                                                  d.submatrix(bottom, range(q))))
    except DSingular as exc:
        raise DenominatorSingular("c ⋆ sigma + d has a singular constant-term body") from exc
    d_1 = d.submatrix(top, range(q))
    return Realization(inverse.a, inverse.b, r.c.submatrix(top, state) + mat_mul(d_1, inverse.c),
                       mat_mul(d_1, inverse.d))


# ---------------------------------------------------------------------------
# The Schur algorithm
# ---------------------------------------------------------------------------


def schur_section(rho: Supernumber) -> SeriesMatrix:
    """The degree-one elementary section M(z) = I - (1-z) CK, the Theta of one node at 0:
    A = 0, C = col(1,rho†), P = 1 - rho rho† and J = diag(1,-1) give K = g row(1,-rho),
    g = P⁻¹, and the exact series (D, CB) = (I - CK, CK) of _theta_realization.

    M(0) is singular by construction; both b - sigma⋆d and sigma⋆c - a vanish
    at z = 0 whenever rho = sigma(0).
    """
    one = rho.context.one()
    g = invert(one - mul(rho, dagger(rho)))
    r = _theta_realization(SuperMatrix.column([one, dagger(rho)]), SuperMatrix.zeros(rho.context, 1, 1),
                           SuperMatrix.row([one, -rho]).scale_left(g))
    return SeriesMatrix((r.d, mat_mul(r.c, r.b)), exact=True)


def _require_scalar(sigma: SeriesMatrix) -> None:
    if sigma.shape != (1, 1):
        raise ShapeMismatch("the Schur algorithm is scalar-valued")


def _contractive(rho: Supernumber, step: int) -> Supernumber:
    """rho, or RhoNotContractive when rho_B is not in the open unit disk."""
    if not _in_unit_disk(abs(rho.body), rho.context):
        raise RhoNotContractive(step, f"|rho_B| = {abs(rho.body):.6f} at step {step}")
    return rho


def _verify_section_vanishing(rho: Supernumber, section: SeriesMatrix, step: int, norm: float) -> None:
    # row(1, -rho) M(0) = (a - rho c, b - rho d) at z = 0 must vanish, each identity on its own
    context = rho.context
    row = SuperMatrix.row([context.one(), -rho])
    residuals = np.abs(mat_mul(row, section.coeffs[0]).stack).sum(axis=(0, 1))
    if (residuals > context.tol_eq * max(1.0, norm)).any():
        raise SectionResidual(f"section identities fail to vanish at step {step}")


def _constant_term(f: SeriesMatrix) -> Supernumber:
    return SuperMatrix._of(f.context, f.keys, f.stack[:, 0])[0, 0]


def _pair_step(a: SeriesMatrix, b: SeriesMatrix, step: int) -> tuple[Supernumber, SeriesMatrix, SeriesMatrix]:
    """One step of schur_algorithm's pair recursion: (rho, a_next, b_next)."""
    rho = _contractive(mul(_constant_term(b), invert(_constant_term(a))), step)
    scale = 1.0 / (1.0 - abs(rho.body) ** 2)
    return rho, (a - b.scale_left(dagger(rho))) * scale, backward_shift(b - a.scale_left(rho)) * scale


def schur_step(sigma: SeriesMatrix, step: int = 0) -> tuple[Supernumber, SeriesMatrix, SeriesMatrix]:
    """One coefficient-preserving step: rho = sigma(0) and

        sigma_next = R0(sigma - rho) ⋆ (1 - rho† ⋆ sigma)^{-star} = b ⋆ a^{-star}

    for the pair (a, b) of schur_algorithm's step from (1, sigma): rho = b(0) a(0)^{-1},
    a = (1 - rho† sigma)/(1 - |rho_B|^2) and b = R0(sigma - rho)/(1 - |rho_B|^2), the
    rescale cancelling in the quotient.  Body chains match the classical Schur
    coefficients.  The elementary section M(z) built from rho is returned
    alongside, its vanish-at-zero identities checked against
    tol_eq * max(1, ||sigma||_1); the paper-style section solve lives in
    section_step.  One truncation degree is consumed per step.
    """
    _require_scalar(sigma)
    rho, a, b = _pair_step(SeriesMatrix.identity(sigma.context, 1), sigma, step)
    section = schur_section(rho)
    _verify_section_vanishing(rho, section, step, sigma.norm1())
    return rho, star_mul(b, star_inverse(a)), section


def section_step(sigma: SeriesMatrix, step: int = 0) -> tuple[Supernumber, SeriesMatrix, SeriesMatrix]:
    """The section solve: sigma = T_{M}(sigma_next) inverted by clearing
    denominators and shifting out the common zero at z = 0.

    With N = b - sigma⋆d and M = sigma⋆c - a (both vanish at 0),
    sigma_next = (R0 M)^{-star} ⋆ (R0 N), both read off one star product as
    H = R0(sigma ⋆ [c d] - [a b]) = [R0 M, -R0 N].  M(0) itself is singular, which is
    why the shift, not a naive inversion of M, restores invertibility.
    Note: this parametrization does not preserve classical Schur coefficients
    (the chain of rho's differs from schur_step's by constant J-unitary
    rotations).
    """
    _require_scalar(sigma)
    rho = _contractive(_constant_term(sigma), step)
    section = schur_section(rho)
    _verify_section_vanishing(rho, section, step, sigma.norm1())
    h = backward_shift(star_mul(sigma, section.block(1, 2, 0, 2)) - section.block(0, 1, 0, 2))
    try:
        m_shift_inv = star_inverse(h.block(0, 1, 0, 1))
    except ConstantTermSingular as exc:
        raise StepSingular(step) from exc
    return rho, star_mul(m_shift_inv, -h.block(0, 1, 1, 2)), section


@dataclass(frozen=True)
class SchurChain:
    """Recorded Schur coefficients rho_k = b_k(0) a_k(0)^{-1} of schur_algorithm's
    rescaled pair recursion (sigma_k = b_k ⋆ a_k^{-star}), and why the run stopped.

    The elementary sections schur_section(rho_k) are built on the first read of
    ``sections``, each with its vanish-at-zero identities checked against
    tol_eq * max(1, ||rho_k||_1), never looser than schur_step's ||sigma_k||_1 scale.
    """

    rhos: tuple[Supernumber, ...]
    termination: str  # max_steps | rho_boundary | degree_exhausted (a truncated s only)

    @property
    def steps(self) -> int:
        return len(self.rhos)

    @cached_property
    def sections(self) -> tuple[SeriesMatrix, ...]:
        sections = tuple(map(schur_section, self.rhos))
        for step, (rho, section) in enumerate(zip(self.rhos, sections)):
            _verify_section_vanishing(rho, section, step, rho.norm1())
        return sections


def schur_algorithm(s: SeriesMatrix, max_steps: int) -> SchurChain:
    """The Schur chain of s, run on a pair of series (a, b) with sigma = b ⋆ a^{-star}
    from (a, b) = (1, s).  Each step takes rho = b(0) a(0)^{-1} and sets

        a <- (a - rho† b) / (1 - |rho_B|^2),  b <- R0(b - rho a) / (1 - |rho_B|^2).

    Since R0(sigma - rho) = R0(b - rho a) ⋆ a^{-star} and 1 - rho† sigma =
    (a - rho† b) ⋆ a^{-star}, b ⋆ a^{-star} steps as schur_step's sigma_next with no
    series inverted.  The rescale cancels in that quotient and keeps a(0)'s body at
    1 up to rounding, so invert's absolute tol_body test cannot trip before the
    boundary test does.  No section is built (see SchurChain.sections).

    Stops at max_steps or at the contractivity boundary |rho_B| = 1; rho_k reads
    s_0..s_k only, so a truncated s of degree d also stops after rho_d
    (degree_exhausted).  Before each step both series are cut to the degree
    max_steps - step that the steps left read.  An s that fails is_schur_grassmann
    raises NotSchur; for an exact polynomial that test is a necessary condition only.
    A max_steps that is not an integer >= 0 (a bool included) raises
    DomainViolation, and a series that is not 1x1 ShapeMismatch, both before any step.
    """
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise DomainViolation(f"max_steps must be an integer >= 0, got {max_steps!r}")
    _require_scalar(s)
    if not is_schur_grassmann(s):
        raise NotSchur("input is not a Schur-Grassmann function")
    readable = max_steps if s.exact else min(max_steps, s.degree + 1)
    a, b = SeriesMatrix.identity(s.context, 1), s
    rhos: list[Supernumber] = []
    termination = "max_steps" if readable == max_steps else "degree_exhausted"
    for step in range(readable):
        cut = max_steps - step
        a, b = (f.truncated(cut) if f.degree > cut else f for f in (a, b))
        try:
            rho, a, b = _pair_step(a, b, step)
        except RhoNotContractive:
            termination = "rho_boundary"
            break
        rhos.append(rho)
    return SchurChain(rhos=tuple(rhos), termination=termination)


# ---------------------------------------------------------------------------
# Blaschke factors and Brune sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlaschkeFactor:
    """Scalar theta specialization b_a = Theta (p = q = 1, J = 1).

    Vanishes at omega = c^{-†} a† c†.
    """

    a: Supernumber
    c: Supernumber
    p: Supernumber
    omega: Supernumber
    theta: ThetaFunction

    @property
    def context(self) -> AlgebraContext:
        return self.a.context

    @property
    def series(self) -> SeriesMatrix:
        return self.theta.series

    def eval_at(self, z: Supernumber) -> Supernumber:
        """Exact left value 1 - (1-z) sum z^n c a^n k of theta; needs |z_B||a_B| in the open unit disk."""
        ratio = abs(z.body) * abs(self.a.body)
        if not _in_unit_disk(ratio, self.context):
            raise NotConvergent(f"|z_B||a_B| = {ratio:.6f} >= 1")
        return self.theta.eval_at(z)[0, 0]

    def zero_residual(self) -> float:
        """|b_a(omega)| as a 1-norm; the defining vanishing property."""
        return self.eval_at(self.omega).norm1()

    def factorized_series(self) -> SeriesMatrix:
        """The explicit factorization through (z - omega) as a series.

        b_a(z) = (z-omega) [1 + (omega-1) c^{-†} p c^{-1} omega†]
                 ⋆ (1 - z omega†)^{-star} c p^{-1} (1-a)^{-†} c†,

        formed as z w - omega w for the series w after (z-omega): no degree-1 polynomial, which
        a degree-0 context cannot hold.
        """
        one = self.context.one()
        c_inv_dag = invert(dagger(self.c))
        c_inv = invert(self.c)
        u = one + mul(self.omega - one, mul(c_inv_dag, mul(self.p, mul(c_inv, dagger(self.omega)))))
        v = mul(self.c, self.theta.k[0, 0])
        o = SuperMatrix.from_scalar(dagger(self.omega))  # w_n = u (omega†)^n v
        w = to_series(Realization(o, o.scale_right(v), SuperMatrix.from_scalar(u),
                                  SuperMatrix.from_scalar(mul(u, v))))
        return w.shift_up() - w.scale_left(self.omega)


def blaschke_factor(a: Supernumber, c: Supernumber, p: Supernumber) -> BlaschkeFactor:
    """Blaschke factor from constraint-satisfying data p - a†pa = c†c.

    p must be superreal and invertible, (1-a) body-invertible; the constraint
    residual is checked at tol_eq scale.
    """
    context = a.context
    if not classify(p).is_real or abs(p.body) <= context.tol_body:
        raise ConstraintViolated("p must be superreal and invertible")
    constraint = p - mul(dagger(a), mul(p, a)) - mul(dagger(c), c)
    if constraint.norm1() > context.tol_eq * max(1.0, p.norm1()):
        raise ConstraintViolated(f"p - a†pa - c†c has norm {constraint.norm1():.3e}")
    if abs(1.0 - a.body) <= context.tol_body:
        raise ConstraintViolated("(1 - a) must have a nonzero body")
    if abs(c.body) <= context.tol_body:
        raise ConstraintViolated("c must have a nonzero body for the zero formula")
    theta = build_theta(SuperMatrix.from_scalar(c), SuperMatrix.from_scalar(a), SuperMatrix.from_scalar(p),
                        SuperMatrix.from_body(context, [[1.0]]))
    omega = mul(invert(dagger(c)), mul(dagger(a), dagger(c)))
    return BlaschkeFactor(a=a, c=c, p=p, omega=omega, theta=theta)


def brune_section(c: SuperMatrix, a: Supernumber, p: Supernumber, j: SuperMatrix) -> SeriesMatrix:
    """Degenerate (isotropic) section Theta_BP(z) = Theta(z) M^{-1}.

    Requires c*Jc = 0, a unimodular (a†a = 1, which also makes p even and
    commuting with a), p superreal even invertible, and a body different
    from 1 so that M = I - ½ c (1+a)† p^{-1} (1-a)^{-†} c* J exists.  Expands
    Theta's realization as (A, B, C, D M^{-1}); Theta's series is not built.
    B M^{-1} = B, up to the c*Jc checked below: B = (I - A) K with K c = P^{-1}(I - A)^{-*} c*Jc = 0, and
    M^{-1} = I + ½ c (...) c* J.
    """
    context = a.context
    one = context.one()
    if c.cols != 1:
        raise ShapeMismatch("c must be a column")
    iso = mat_mul(adjoint(c), mat_mul(j, c))[0, 0]
    if iso.norm1() > context.tol_eq * max(1.0, c.norm1() ** 2):
        raise IsotropyViolated(f"c*Jc has norm {iso.norm1():.3e}")
    unim = mul(dagger(a), a) - one
    if unim.norm1() > context.tol_eq:
        raise NotUnimodular(f"a†a - 1 has norm {unim.norm1():.3e}")
    cp = classify(p)
    if not cp.is_real or not cp.is_even or abs(p.body) <= context.tol_body:
        raise ConstraintViolated("p must be superreal, even and invertible")
    if abs(1.0 - a.body) <= context.tol_body:
        raise ConstraintViolated("(1 - a) must have a nonzero body")
    r = build_theta(c, SuperMatrix.from_scalar(a), SuperMatrix.from_scalar(p), j).realization
    chain = mul(dagger(one + a), mul(invert(p), invert(dagger(one - a))))
    m_inv = mat_invert(SuperMatrix.identity(context, c.rows) - mat_mul(
        mat_mul(c.scale_right(chain), adjoint(c)), j) * 0.5)
    return to_series(Realization(r.a, r.b, r.c, mat_mul(r.d, m_inv)))


# ---------------------------------------------------------------------------
# Reproducing kernels and module interpolation
# ---------------------------------------------------------------------------


def kernel_eval(w: Supernumber, xi: SuperMatrix) -> SeriesMatrix:
    """K(., w) xi = sum_n z^n (w†)^n xi as a column series."""
    if xi.cols != 1:
        raise ShapeMismatch("xi must be a column")
    if not _in_unit_disk(abs(w.body), w.context):
        raise NotConvergent(f"|w_B| = {abs(w.body):.6f} >= 1")
    w_dag = SuperMatrix.diagonal([dagger(w)] * xi.rows)
    return to_series(Realization(w_dag, xi, w_dag, xi))


def h_theta_kernel(theta: ThetaFunction, w: Supernumber, xi: SuperMatrix) -> SeriesMatrix:
    """K_{H(Theta)}(., w) xi via the resolvent form of the kernel identity.

    Coefficient n is C A^n P^{-1} V with V = sum_m (A*)^m C* (w†)^m xi = Y xi,
    where Y - A* Y (w† I) = C* is solved exactly by sandwich_solve.
    """
    a, c = theta.realization.a, theta.realization.c
    ratio = abs(w.body) * _body_spectral_radius(a)
    if not _in_unit_disk(ratio, w.context):
        raise NotConvergent("the kernel sum needs |w_B| rho(A_B) < 1")
    wd = SuperMatrix.diagonal([dagger(w)] * c.rows)
    y = sandwich_solve(adjoint(a), adjoint(c), wd)
    pinv_v = mat_mul(mat_invert(theta.p), mat_mul(y, xi))
    return to_series(Realization(a, mat_mul(a, pinv_v), c, mat_mul(c, pinv_v)))


def kernel_decomposition_residual(theta: ThetaFunction, w: Supernumber, xi: SuperMatrix) -> float:
    """Coefficientwise residual of K = Theta Theta*-part + K_{H(Theta)} (J = I)
    through the context's max_series_degree.

    ``w`` must be even so Theta(w) is exact.
    """
    k_full = kernel_eval(w, xi)
    k_heta = h_theta_kernel(theta, w, xi)
    middle = star_mul(theta.series, star_mul(SeriesMatrix.constant(adjoint(theta.eval_at(w))), k_full))
    return max(c.norm1() for c in (k_full - middle - k_heta).coeffs)


@dataclass(frozen=True)
class ModuleInterpolation:
    """Solution F = F_min + Theta ⋆ h of (C* ⋆ F)(A*) = X."""

    series: SeriesMatrix
    minimal: SeriesMatrix
    theta: ThetaFunction


def module_interpolate(c: SuperMatrix, a: SuperMatrix, x: SuperMatrix,
                       h: SeriesMatrix | None = None) -> ModuleInterpolation:
    """Interpolation in the one-sided Wiener-Grassmann module with J = I.

    P solves P - A*PA = C*C; the particular solution is
    F_min = sum z^n C A^n P^{-1} X and the homogeneous freedom is Theta ⋆ h.
    """
    eye_p = SuperMatrix.identity(c.context, c.rows)
    p = stein_solve(c, a, eye_p)
    theta = build_theta(c, a, p, eye_p)
    pinv_x = mat_mul(mat_invert(p), x)
    minimal = to_series(Realization(a, mat_mul(a, pinv_x), c, mat_mul(c, pinv_x)))
    series = minimal if h is None else minimal + star_mul(theta.series, h)
    return ModuleInterpolation(series=series, minimal=minimal, theta=theta)


def adjoint_state_evaluation(c: SuperMatrix, a: SuperMatrix, f: SeriesMatrix) -> SuperMatrix:
    """(C* ⋆ F)(A*) = sum_n (A*)^n C* f_n over the stored coefficients.

    Carries the truncation tail of F; pair with decaying coefficient data.
    """
    astar, cstar = adjoint(a), adjoint(c)
    total = mat_mul(cstar, f.coeffs[-1])
    for coeff in f.coeffs[-2::-1]:  # Horner: C* f_n + A*(C* f_{n+1} + ...)
        total = mat_mul(cstar, coeff) + mat_mul(astar, total)
    return total
