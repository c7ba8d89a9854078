"""Parallel transport on the Stiefel and flag manifolds in O(n d^2) + O(t d^3).

The O(t d^3) term is the exponential action of P_AR (below).  The small
skew exponentials add O(d^3) per t: one scipy.linalg.expm each in a
one-shot call, and one real product each in a reused plan, after an
orthogonal factorization made once per plan (SkewExponential).

A tangent vector xi at Y splits as xi = Y A + Q R (decompose_tangent).
Geodesics and the in-span part of transport live in the (d+k)-column
subspace [Y|Q]; the out-of-span part of a transported vector only picks up
a d x d rotation.  The transport factor in the middle is an exponential
action of the operator P_AR over F = Skew_d x R^{k x d}, applied in its
balanced form (p_bal_operator).  A plan holds these pieces for one
geodesic and is the one geodesic and transport engine, for Stiefel plans
and, with a block mask, for canonical flag plans (flag_grassmann); the
one-shot functions run a one-t plan (single_time).

Elements of F are stored stacked: w = [w_a; w_r] of shape (d+k, d).
Metrics, operators and transports accept leading batch axes on the vectors.
"""
import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri

from . import expaction
from .errors import DimensionError, NumericalError, ValidationError
from .utils import (as_real, asym, check_finite, check_operand, check_time,
                    hcat, matrix_norms, orthonormality_residual, pair_products,
                    refuse_residual, sym, block_norm_bound, two_norm_bound)

POINT_TOL = 1e-10
TANGENT_RTOL = 1e-9
RANK_RTOL = 1e-12
# CholeskyQR2 serves xi whose Y-orthogonal part has a condition number
# (bound) below this; its first step then leaves Q^T Q - I below about
# 1e12 eps ~ 1e-4, which its second step repairs.  It is below
# 1 / RANK_RTOL, so pivoted QR would keep every column of such a part too.
CHOLQR_MAX_COND = 1e6
# One Cholesky-QR step re-orthonormalises a basis of condition below this.
REORTH_MAX_COND = 10.0


@dataclass(frozen=True)
class StiefelMetricParams:
    """Metric parameter: <xi, xi> = Tr xi^T xi + (alpha-1) Tr xi^T Y Y^T xi.

    alpha = 1/2 is the canonical metric, alpha = 1 the embedded Euclidean
    one.
    """
    alpha: float

    def __post_init__(self):
        check_finite(self.alpha, "alpha")
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")


@dataclass(frozen=True)
class TangentDecomposition:
    """xi = Y A + Q R with Q^T Q = I_k, Y^T Q = 0 and A antisymmetric."""
    a: np.ndarray
    q: np.ndarray
    r: np.ndarray
    k: int

    @property
    def d(self):
        return self.a.shape[0]


class SkewExponential:
    """exp(s S) of one real antisymmetric m x m matrix S at any real s.

    Factored once, in O(m^3), by orthogonal transformations only.  The
    Hessenberg reduction S = Q T Q^T leaves T skew-tridiagonal, with
    T[i+1, i] = e_i.  Taking T's even indices first gives
    [[0, B], [-B^T, 0]] with B = T[even, odd] bidiagonal, and its SVD
    B = U diag(sigma) W^T splits T into 2 x 2 rotations (Ward and Gray
    1978).  With the orthonormal columns A = Q[:, even] U and
    B' = Q[:, odd] W, zero-padded to ceil(m/2) columns,
    exp(s S) = [A C - B' Sn | B' C + A Sn] [A^T; B'^T],
    C = cos(s sigma), Sn = sin(s sigma): one real m x m product per s.
    The error stays that of a backward-stable method at every s: nothing
    is squared (the route through eigh(-S @ S) loses (s ||S||)^2 eps).
    Against diagonalising the Hermitian i S with eigh, the same
    exponential, it halves both the one-time work and the product per s
    (an m x 2m by 2m x m one there).  Only sigma and [A^T; B'^T] are
    kept.
    """

    def __init__(self, s):
        m = s.shape[0]
        h, q = scipy.linalg.hessenberg(s, calc_q=True)
        # h is skew-tridiagonal up to rounding, which is dropped
        e = 0.5 * (np.diagonal(h, -1) - np.diagonal(h, 1))
        half, odd = (m + 1) // 2, m // 2
        bid = np.zeros((half, odd))
        bid[np.arange(odd), np.arange(odd)] = -e[0::2]     # T[2j, 2j+1]
        bid[np.arange(1, half), np.arange(half - 1)] = e[1::2]  # T[2j+2, 2j+1]
        u, sigma, wt = scipy.linalg.svd(bid)
        self._sigma = np.zeros(half)
        self._sigma[:odd] = sigma
        self._right = np.zeros((2 * half, m))
        self._right[:half] = u.T @ q[:, 0::2].T
        self._right[half:half + odd] = wt @ q[:, 1::2].T

    def __call__(self, s):
        if s == 0.0:  # exactly, as expm gives it: a geodesic starts at Y
            return np.eye(self._right.shape[1])
        c = np.cos(s * self._sigma)[:, None]
        sn = np.sin(s * self._sigma)[:, None]
        at, bt = np.split(self._right, 2)
        # the transpose of [A C - B' Sn | B' C + A Sn]
        return np.concatenate([c * at - sn * bt, c * bt + sn * at]).T @ self._right


@dataclass(frozen=True)
class StiefelTransportPlan:
    """Precomputed pieces of one geodesic, reusable for its geodesic,
    geodesic velocity and transports at many (eta, t).

    The first use factors big_exp_arg and A, whose multiples
    (1-2 alpha) A and (1-alpha) A are the small exponents, once each
    (SkewExponential, O((d+k)^3) and O(d^3)); every later t then forms its
    exponentials by one real product each instead of a scipy.linalg.expm.
    A zero exponent is not factored and its exponential is skipped.
    """
    decomposition: TangentDecomposition
    big_exp_arg: np.ndarray     # (d+k) x (d+k), antisymmetric
    alpha: float
    basis: np.ndarray           # [Y|Q], cached to avoid per-call copies
    point: np.ndarray           # the checked Y the plan was built at
    mask: np.ndarray = None     # flag diagonal blocks (flag plans only)

    @cached_property
    def p_op(self):  # the balanced operator over F; no geodesic reads it
        return p_bal_operator(self.decomposition,
                              StiefelMetricParams(self.alpha), self.mask)

    @cached_property
    def _factors(self):
        # built on first use, so building a plan costs no factorization;
        # assigned once complete, so a concurrent first use never reads a
        # partial factorization
        return _exponential_maps(self, SkewExponential)

    def _geodesic_parts(self, t):
        """exp(t big_exp_arg) and the map m -> m exp(t (1-2 alpha) A)."""
        t = check_time(t)
        big, small, _ = self._factors
        e_small = small and small(t)
        return big(t), lambda m: m if e_small is None else m @ e_small

    def geodesic(self, t):
        """The geodesic at time t,
        gamma(t) = [Y|Q] exp(t big_exp_arg)[:, :d] exp(t (1-2 alpha) A)."""
        e_big, right = self._geodesic_parts(t)
        return self.basis @ right(e_big[:, :self.decomposition.d])

    def geodesic_velocity(self, t):
        """(gamma(t), dgamma/dt), by the product rule:
        dgamma/dt = [Y|Q] exp(t big_exp_arg) [A; R] exp(t (1-2 alpha) A)."""
        e_big, right = self._geodesic_parts(t)
        dec = self.decomposition
        return (self.basis @ right(e_big[:, :dec.d]),
                self.basis @ right(e_big @ np.vstack([dec.a, dec.r])))


def _exponential_maps(plan, factor):
    """Maps t -> exp(t S) for S = big_exp_arg, (1-2 alpha) A and
    (1-alpha) A, None for a zero S; factor(M) is s -> exp(s M)."""
    a = plan.decomposition.a
    big = factor(plan.big_exp_arg)
    if not a.any():
        return big, None, None
    exp_a = factor(a)
    small, normal = ((lambda t, c=c: exp_a(t * c)) if c else None
                     for c in (1.0 - 2.0 * plan.alpha, 1.0 - plan.alpha))
    return big, small, normal


class _SingleTimePlan(StiefelTransportPlan):
    """A plan used at one t, where one scipy.linalg.expm per exponential
    costs less than factoring its argument."""

    @property
    def _factors(self):
        return _exponential_maps(
            self, lambda m: lambda s: scipy.linalg.expm(s * m))


def single_time(plan):
    """plan for the one-shot entry points, which use it once: its
    exponentials come from scipy.linalg.expm, unfactored, whose error grows
    with |t| ||S||_2: 5.5e-12 relative at |t| ||S||_2 = 264, where a reused
    plan stayed within 1.4e-13.  For large |t|, build a plan."""
    return _SingleTimePlan(**{f.name: getattr(plan, f.name)
                              for f in dataclasses.fields(plan)})


def check_point(y):
    y = as_real(y, "y")
    if y.ndim != 2 or y.shape[0] <= y.shape[1]:
        raise DimensionError(f"y must be n x d with n > d, got shape {y.shape}")
    check_finite(y, "y")
    res = orthonormality_residual(y)
    if not res <= POINT_TOL:
        raise ValidationError(f"y is not orthonormal: residual {res:.3e}")
    return y


def check_coefficient(coeff, scale, name, mask=None):
    """Tangency of the argument name's vectors v from coeff = Y^T v
    (leading batch axes allowed) and scale = ||v||: the symmetric part of
    each coeff must vanish, relative to its own vector, and, with a flag
    block mask, so must its masked blocks (horizontality; Y^T v = 0 for
    the full Grassmann mask)."""
    res = matrix_norms(coeff + np.swapaxes(coeff, -1, -2)) / 2.0
    kind = "tangent"
    if mask is not None:
        res = np.maximum(res, np.linalg.norm(coeff[..., mask], axis=-1))
        kind = "horizontal"
    refuse_residual(res, scale, TANGENT_RTOL, f"{name} is not {kind}: residual")


def project_tangent(y, w):
    """Tangent projection W - Y sym(Y^T W) at the checked point Y."""
    y = check_point(y)
    w = check_operand(w, y.shape, "w")
    return w - y @ sym(y.T @ w)


def metric_inner(y, xi, eta, params):
    """Metric values <xi_i, eta_j> at Y between two stacks of tangent
    vectors (utils.pair_products); Y and each stack are checked once."""
    y = check_point(y)
    xi, eta = (check_operand(v, y.shape, name, batched=True)
               for name, v in (("xi", xi), ("eta", eta)))
    yxi, yeta = y.T @ xi, y.T @ eta
    check_coefficient(yxi, matrix_norms(xi), "xi")
    check_coefficient(yeta, matrix_norms(eta), "eta")
    return pair_products(xi, eta) + (params.alpha - 1.0) * pair_products(yxi, yeta)


def decompose_tangent(y, xi, mask=None):
    """Split xi = Y A + Q R, forming Y^T xi once.

    Y^T xi gives the tangency check, A = asym(Y^T xi) and the Y-orthogonal
    part perp = xi - Y Y^T xi; a flag block mask makes the check one of
    horizontality and zeroes A on it.  k = 0 (empty Q, R) when perp is
    negligible.
    When n - d >= d and cond_2(perp) is below CHOLQR_MAX_COND by the bound
    of _cholesky_qr, the first Cholesky-QR step gives Q's columns and
    k = d: then sigma_min / sigma_max > RANK_RTOL, and pivoted QR, whose
    |r_dd| / |r_11| is at least that ratio, would keep every column too.
    Any other xi (rank-deficient, n - d < d, ill-conditioned) takes pivoted
    QR.  Both routes end in _reorthonormalise, so the Cholesky route is
    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto 2014) with a
    projection against Y between its two steps.  With perp ~ Q_1 T from
    the first step (T = L_1^T, or R_p[:k] P^T from pivoted QR) and
    Q_1 - Y Y^T Q_1 = Q L_2^T, R = Q^T perp = L_2^T T: no n-sized product.
    Every plan is built from this decomposition, so this is where xi's
    shape and entries are checked.
    """
    xi = check_operand(xi, y.shape, "xi")
    n, d = y.shape
    c = y.T @ xi
    scale = np.linalg.norm(xi)
    check_coefficient(c, scale, "xi", mask)
    a = asym(c)
    if mask is not None:
        a[mask] = 0.0
    perp = xi - y @ c
    if np.linalg.norm(perp) <= RANK_RTOL * max(1.0, scale):
        return TangentDecomposition(
            a=a, q=np.zeros((n, 0)), r=np.zeros((0, d)), k=0)
    chol = _cholesky_qr(perp, CHOLQR_MAX_COND) if n - d >= d else None
    q, tri = (chol[0], chol[1].T) if chol else _rank_revealing_basis(perp)
    q, l2 = _reorthonormalise(y, q)
    return TangentDecomposition(a=a, q=q, r=l2.T @ tri, k=q.shape[1])


def _rank_revealing_basis(perp):
    """Columns of pivoted QR's Q whose pivot exceeds RANK_RTOL times the
    largest, and their rows of R unpivoted, T = R[:k] P^T: perp ~ Q[:, :k] T.
    perp is not negligible, so its largest pivot is positive and k >= 1."""
    q, rr, piv = scipy.linalg.qr(perp, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    k = int(np.sum(diag > RANK_RTOL * diag[0]))
    tri = np.empty((k, perp.shape[1]))
    tri[:, piv] = rr[:k]
    return q[:, :k], tri


def _cholesky_qr(m, max_cond):
    """One Cholesky-QR step: the basis m L^{-T} for m^T m = L L^T,
    orthonormal up to about cond_2(m)^2 eps, and L.

    None when the factorisation fails or the product of the 2-norm bounds
    of L and L^{-1} (utils.two_norm_bound), an upper bound on cond_2(m) =
    cond_2(L), is not below max_cond.  The product uses the triangular
    inverse (dtrmm runs several times faster than dtrsm at these shapes);
    m X spans m's range for any nonsingular X, so only the rounding of the
    product reaches the basis.  The basis is written over m.
    """
    chol, info = dpotrf(m.T @ m, lower=1)
    if info != 0:
        return None
    inv, _ = dtrtri(chol, lower=1)
    if not two_norm_bound(chol) * two_norm_bound(inv) < max_cond:
        return None
    return dtrmm(1.0, inv, m.T, lower=1, overwrite_b=1).T, chol


def _reorthonormalise(y, q):
    """One projection against Y, then one Cholesky-QR step: its basis and
    its triangular factor.

    q is orthonormal up to a small Y-component and a small loss of
    orthogonality; on the pivoted-QR route its Y-component is about
    eps ||xi|| / |r_kk|, at most about 1e-4 at RANK_RTOL.  The
    result has Q^T Q = I and Y^T Q = 0 to roundoff.  When the projected q
    is too ill-conditioned for one step to deliver that, xi's Y-orthogonal
    part was lost to rounding, and this raises NumericalError.
    """
    proj = y @ (y.T @ q)
    chol = _cholesky_qr(np.subtract(q, proj, out=proj), REORTH_MAX_COND)
    if chol is None:
        raise NumericalError(
            "re-orthogonalisation failed: the Y-orthogonal part of xi is "
            "lost to rounding")
    return chol


def stiefel_geodesic(y, xi, params, t):
    """Geodesic through Y with velocity xi, evaluated at time t: the
    geodesic of a one-t plan (single_time)."""
    return single_time(make_transport_plan(y, xi, params)).geodesic(t)


def stiefel_geodesic_velocity(y, xi, params, t):
    """(gamma(t), dgamma/dt) from a one-t plan (single_time)."""
    return single_time(make_transport_plan(y, xi, params)).geodesic_velocity(t)


def p_bal_operator(decomp, params, mask=None):
    """The balanced operator on stacked F, top block scaled by
    sqrt(alpha), which is Frobenius-antisymmetric on F: apply/adjoint
    closures, the cheap 1-norm bound of the Taylor selection
    (p_bal_norm_bound) and the 2-norm bound rho (p_bal_two_norm_bound),
    under which expa sums the Chebyshev-Bessel series in about |t| rho
    applies.

    mask, a d x d boolean array, clears the top block of operand and
    result where it is True; canonical flag transport passes its diagonal
    blocks.  Clearing entries is a projection: it raises neither norm, so
    both bounds hold with or without it, and the masked operator stays
    antisymmetric on the masked subspace of F.  A full mask leaves only
    w_r -> alpha w_r A, of 2-norm alpha ||A||_2 (p_bal_two_norm_bound).
    """
    a, r = decomp.a, decomp.r
    d = decomp.d
    alpha = params.alpha
    salpha = np.sqrt(alpha)
    c4 = 4.0 * alpha - 1.0

    # apply's scalars, folded once: its top block is m - m^T
    a_top, r_top = (0.5 * c4) * a, (0.5 * salpha) * r.T
    a_bot, r_bot = alpha * a, salpha * r

    def apply(w):
        wa = w[..., :d, :]
        wr = w[..., d:, :]
        if mask is not None:
            wa = np.where(mask, 0.0, wa)
        m = wa @ a_top
        m += r_top @ wr
        top = m - np.swapaxes(m, -1, -2)
        if mask is not None:
            top[..., mask] = 0.0
        bot = wr @ a_bot
        bot -= r_bot @ wa
        return np.concatenate([top, bot], axis=-2)

    def apply_adjoint(w):
        wa = w[..., :d, :]
        wr = w[..., d:, :]
        ska = 0.5 * (wa - np.swapaxes(wa, -1, -2))
        if mask is not None:
            ska[..., mask] = 0.0
        top = -c4 * (ska @ a) - salpha * (np.swapaxes(r, -1, -2) @ wr)
        if mask is not None:
            top[..., mask] = 0.0
        bot = salpha * (r @ ska) - alpha * (wr @ a)
        return np.concatenate([top, bot], axis=-2)

    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=p_bal_norm_bound(decomp, params),
        domain_shape=(d + decomp.k, d),
        skew_two_norm_bound=p_bal_two_norm_bound(decomp, params, mask))


def p_bal_norm_bound(decomp, params):
    """1-norm bound of the balanced operator, max(n_A, n_R), in O(d(d+k)).

    n_A bounds columns probing the top block: per column j of R,
    sqrt(alpha)*sum_i |r_ij| plus |4*alpha-1|*||A||_1.  n_R bounds columns
    probing the bottom block: per column j of A, alpha*sum_i |a_ij| plus
    sqrt(alpha)*||R||_inf.
    """
    a, r = decomp.a, decomp.r
    alpha = params.alpha
    salpha = np.sqrt(alpha)
    abs_a = np.abs(a)
    abs_r = np.abs(r)
    norm1_a = float(np.max(np.sum(abs_a, axis=0), initial=0.0))
    n_a = salpha * float(np.max(np.sum(abs_r, axis=0), initial=0.0)) \
        + abs(4.0 * alpha - 1.0) * norm1_a
    n_r = alpha * norm1_a \
        + salpha * float(np.max(np.sum(abs_r, axis=1), initial=0.0))
    return max(n_a, n_r)


def p_bal_two_norm_bound(decomp, params, mask=None):
    """rho >= ||P_bal||_2 under the mask of p_bal_operator, in
    O(d^3 + k d^2).

    For ||w_a||_F = u and ||w_r||_F = v, the top block of P_bal w has
    Frobenius norm at most |4 alpha - 1| a u + sqrt(alpha) r v and the
    bottom one sqrt(alpha) r u + alpha a v, with a >= ||A||_2 and
    r >= ||R||_2.  So rho is the top eigenvalue of
    [[|4 alpha - 1| a, sqrt(alpha) r], [sqrt(alpha) r, alpha a]]
    (utils.block_norm_bound).  A full (Grassmann) mask clears u and
    the top block, leaving w_r -> alpha w_r A: rho = alpha a, 0 for the
    zero A of a Grassmann plan.  This holds on the whole stacked space.
    """
    alpha = params.alpha
    a = two_norm_bound(decomp.a)
    if mask is not None and mask.all():
        return block_norm_bound([[alpha * a]])
    off = np.sqrt(alpha) * two_norm_bound(decomp.r)
    return block_norm_bound([[abs(4.0 * alpha - 1.0) * a, off],
                             [off, alpha * a]])


def plan_from_decomposition(y, decomp, params, mask=None):
    """Transport plan along the geodesic from Y with velocity Y A + Q R;
    mask clears the operator's top block (see p_bal_operator)."""
    a, r, k = decomp.a, decomp.r, decomp.k
    return StiefelTransportPlan(
        decomposition=decomp,
        big_exp_arg=np.block([[2.0 * params.alpha * a, -r.T],
                              [r, np.zeros((k, k))]]),
        alpha=params.alpha,
        basis=hcat(y, decomp.q),
        point=y,
        mask=mask)


def make_transport_plan(y, xi, params):
    """Decompose the geodesic velocity once for the geodesic and many
    transports.

    The plan's first use also factors its two skew exponent arguments,
    O((d+k)^3) once; each later t then costs one real product per
    exponential (StiefelTransportPlan), no scipy.linalg.expm.
    """
    y = check_point(y)
    return plan_from_decomposition(y, decompose_tangent(y, xi), params)


def transport_with_plan(plan, y, eta, t):
    """Transport eta (leading batch axes allowed) along the plan geodesic.

    y must be plan.point, the plan's base point: that object passes at
    once, another array after an entry-wise compare.  eta must be tangent
    at Y, and horizontal for a flag plan (plan.mask): its Y-coefficient,
    the top d rows of [Y|Q]^T eta, is checked first, t = 0 included.
    Never forms an n x n intermediate; the largest arrays touched are the
    cached n x (d+k) basis and the result.  The out-of-span part is folded
    into the coefficient matrix, so at most three n-sized products run per
    call, and [Y|Q] @ coeff accumulates into the result in place.  A d x d
    exponential whose argument is zero is skipped with its product.

    The small exponentials take one real product each after the
    factorization a plan's first use makes (StiefelTransportPlan), or
    scipy.linalg.expm for a one-shot plan (single_time).  t must be a real
    finite scalar.
    """
    t = check_time(t)
    if y is not plan.point and not np.array_equal(y, plan.point):
        raise ValidationError("y is not the base point of the plan")
    yq = plan.basis
    d = plan.decomposition.d
    eta = check_operand(eta, (yq.shape[0], d), "eta", batched=True)
    w0 = np.swapaxes(yq, -1, -2) @ eta
    check_coefficient(w0[..., :d, :], matrix_norms(eta), "eta", plan.mask)
    if t == 0.0:
        return eta.copy()
    salpha = np.sqrt(plan.alpha)

    w0b = w0.copy()
    w0b[..., :d, :] *= salpha
    w = expaction.expa(plan.p_op, w0b, t)
    w[..., :d, :] /= salpha

    # yq (M) + (eta - yq w0) e_n  ==  yq (M - w0 e_n) + eta e_n
    e_big, e_small, e_normal = (f and f(t) for f in plan._factors)
    coeff = e_big @ w
    if e_small is not None:
        coeff = coeff @ e_small
    if e_normal is not None:
        coeff -= w0 @ e_normal
        out = eta @ e_normal
    else:
        coeff -= w0
        out = eta.copy()
    # out += yq @ coeff without an n-sized temporary: BLAS on the
    # column-major (transposed) views of the row-major arrays; BLAS
    # rejects the empty operands of d = 0
    for i in np.ndindex(out.shape[:-2] if out.size else (0,)):
        dgemm(1.0, coeff[i].T, yq.T, beta=1.0, c=out[i].T, overwrite_c=True)
    return out


def stiefel_transport(y, xi, eta, params, t):
    """Parallel transport of eta along the geodesic driven by xi.

    One transport: its plan takes scipy.linalg.expm (single_time), which
    at one t costs less than the factorization a reused plan makes but
    whose error grows with |t| ||S||_2: for large |t|, build a plan.
    """
    plan = single_time(make_transport_plan(y, xi, params))
    return transport_with_plan(plan, plan.point, eta, t)


def stiefel_christoffel(y, xi, eta, params):
    """Christoffel function in Stiefel coordinates; oracle/residual use.
    y, xi and eta are refused by name unless real, finite and of one
    shape; y is not checked orthonormal nor xi and eta tangent, as the
    RK oracle evaluates this function at off-manifold states."""
    y = check_finite(as_real(y, "y"), "y")
    xi = check_operand(xi, y.shape, "xi")
    eta = check_operand(eta, y.shape, "eta")
    alpha = params.alpha
    first = 0.5 * y @ (xi.T @ eta + eta.T @ xi)
    m = xi @ (eta.T @ y) + eta @ (xi.T @ y)
    return first + (1.0 - alpha) * (m - y @ (y.T @ m))
