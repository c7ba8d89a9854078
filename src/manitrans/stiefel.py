"""Parallel transport on the Stiefel and flag manifolds in O(n d^2) + O(t d^3).

The O(t d^3) term is the exponential action of P_AR (below).  The small
skew exponentials, of S = big_exp_arg and of multiples of A, add O(d^3)
per t in a reused plan: one real product each, after an orthogonal
factorization made once per plan (SkewExponential).  A one-shot call
forms none of them: it takes the in-span factor and the normal one as
two more Chebyshev actions, on the (d+k) x d coefficients and on I_d, in
about |t| rho small products each, as P_AR's action (_SingleTimePlan).

A tangent vector xi at Y splits as xi = Y A + Q R (decompose_tangent).
Geodesics and the in-span part of transport live in the (d+k)-column
subspace [Y|Q]; the out-of-span part of a transported vector only picks up
a d x d rotation.  The transport factor in the middle is an exponential
action of the operator P_AR over F = Skew_d x R^{k x d}, applied in its
balanced form (p_bal_operator).  A plan holds these pieces for one
geodesic and is the one geodesic and transport engine, for Stiefel plans
and, with a block mask, for canonical flag plans (flag_grassmann).

Every plan starts from the Gram blocks Y^T Y, Y^T xi and xi^T xi: they
check y and xi and give one Cholesky factor L of perp^T perp, perp =
xi - Y Y^T xi (_gram_front).  A one-shot plan (one_shot_plan) then holds
[Y|Q] as [Y|xi] B when its gate holds (the Gram route), and Q is never
formed; every other plan, each reused one included, forms Q
(decompose_tangent).

Elements of F are stored stacked: w = [w_a; w_r] of shape (d+k, d).
Metrics, operators and transports accept leading batch axes on the vectors.
A reused plan keeps the last stack it transported with its coefficients
[Y|Q]^T eta, so the same stack at the next t skips that product and its
checks (transport_with_plan).  From the stack's first return it also keeps
the leading Chebyshev vectors of the exponential action on it, at most
3 n // (d+k) past the first (three times the entries of the kept stack),
so each later t applies P_AR only past those; a one-t plan keeps nothing.
"""
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri

from . import expaction
from .errors import DimensionError, NumericalError, ValidationError
from .utils import (EPS, ORTHONORMALITY_TOL, TANGENT_RTOL, as_real, asym,
                    check_finite, check_operand, check_scalar, hcat,
                    matrix_norms, pair_products, refuse_residual, sym,
                    block_norm_bound, two_norm_bound)

RANK_RTOL = 1e-12
# The explicit route's Cholesky step serves xi whose Gram-block bound
# b >= cond_2(perp) (_gram_front) is below this: its basis then loses about
# b^2 u <= 0.011 of orthonormality, which _reorthonormalise repairs (1e8
# would allow 1.1).  Below 1 / RANK_RTOL: pivoted QR would keep every column.
CHOLQR_MAX_COND = 1e7
# One Cholesky-QR step re-orthonormalises a basis of condition below this.
REORTH_MAX_COND = 10.0
# The one-shot Gram route's bound on the loss of orthogonality of its
# implicit basis [Y|Q] = [Y|xi] B, beyond Y's own (derived at one_shot_plan).
GRAM_MAX_LOSS = 1e-12


@dataclass(frozen=True)
class StiefelMetricParams:
    """Metric parameter: <xi, xi> = Tr xi^T xi + (alpha-1) Tr xi^T Y Y^T xi.

    alpha = 1/2 is the canonical metric, alpha = 1 the embedded Euclidean
    one.  alpha is stored as a float (utils.check_scalar).
    """
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_scalar(self.alpha, "alpha"))
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")


@dataclass(frozen=True)
class TangentDecomposition:
    """xi = Y A + Q R with Q^T Q = I_k, Y^T Q = 0 and A antisymmetric.

    In a plan, q is the view basis[:, d:] of its [Y|Q] (_plan); it is
    None in a Gram-route plan (one_shot_plan), which holds [Y|Q]
    implicitly as basis @ basis_map and never forms Q.
    """
    a: np.ndarray
    q: np.ndarray
    r: np.ndarray
    k: int

    @property
    def d(self):
        return self.a.shape[0]

    @cached_property
    def norm_bounds(self):
        """(a, r) with a >= ||A||_2 and r >= ||R||_2 (utils.two_norm_bound),
        computed once for every rho of the plan that holds this."""
        return two_norm_bound(self.a), two_norm_bound(self.r)


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
        if s == 0.0:  # exactly, as a one-shot plan's: a geodesic starts at Y
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

    basis is [Y|Q], or on a one-shot plan's Gram route [Y|xi], with
    [Y|Q] = basis @ basis_map (one_shot_plan); every n-sized product goes
    through basis (_lift and transport_with_plan).

    Every t takes two factors from the plan: in_span(m, t) =
    exp(t big_exp_arg) m exp(t (1-2 alpha) A) on (d+k) x d coefficients
    m, and normal(t) = exp(t (1-alpha) A).  The first use factors
    big_exp_arg and A once each (SkewExponential, O((d+k)^3) and O(d^3));
    every later t then forms each exponential by one real product.  A
    zero exponent is not factored and its exponential is skipped.  A
    one-shot plan (_SingleTimePlan) takes both factors as Chebyshev
    actions instead, and factors nothing.

    Each transport keeps its checked stack eta (_keep): a read-only copy
    and the (d+k) x d coefficients w0 = basis^T eta per vector, replaced
    by the next stack that differs.  When that stack comes back (its first
    hit, t != 0), the plan also keeps p_op carrying the leading Chebyshev
    vectors C_0 ... C_j of its balanced w0 (_operator,
    expaction.ChebyshevVectors), j <= 3 n // (d+k): at most three times
    the entries of the copy of eta past C_0.  expa extends them as larger
    |t| arrive, and applies P_AR for every term past them on each call.
    Everything kept is freed with the plan or with the next stack.  None
    of it is a field: equality and dataclasses.fields ignore it.
    """
    decomposition: TangentDecomposition
    big_exp_arg: np.ndarray     # (d+k) x (d+k), antisymmetric
    alpha: float
    basis: np.ndarray           # [Y|Q], or [Y|xi] with basis_map
    point: np.ndarray           # the checked Y the plan was built at
    mask: np.ndarray = None     # flag diagonal blocks (flag plans only)
    basis_map: np.ndarray = None  # B of the Gram route, 2d x 2d

    @cached_property
    def p_op(self):  # the balanced operator over F; no geodesic reads it
        return p_bal_operator(self.decomposition,
                              StiefelMetricParams(self.alpha), self.mask)

    @cached_property
    def _factors(self):
        """Maps t -> exp(t M) for M = big_exp_arg, (1-2 alpha) A and
        (1-alpha) A, None for a zero M.  Built on first use, so building a
        plan costs no factorization; assigned once complete, so a
        concurrent first use never reads a partial factorization."""
        a = self.decomposition.a
        big = SkewExponential(self.big_exp_arg)
        if not a.any():
            return big, None, None
        exp_a = SkewExponential(a)
        return (big, *((lambda t, c=c: exp_a(t * c)) if c else None
                       for c in (1.0 - 2.0 * self.alpha, 1.0 - self.alpha)))

    def in_span(self, m, t):
        """exp(t big_exp_arg) m exp(t (1-2 alpha) A), for m of shape
        (..., d+k, d) and a checked t."""
        big, small, _ = self._factors
        m = big(t) @ m
        return m if small is None else m @ small(t)

    def normal(self, t):
        """exp(t (1-alpha) A) at a checked t, None when (1-alpha) A = 0."""
        normal = self._factors[2]
        return normal and normal(t)

    def _keep(self, eta, w0):
        """Keep the checked stack eta (its strides and a read-only copy)
        and its read-only w0 = basis^T eta for transport_with_plan, as one
        tuple assigned once complete, as _factors is; its operator slot
        stays None until the stack's first hit (_operator)."""
        copy = eta.copy()
        copy.flags.writeable = w0.flags.writeable = False
        object.__setattr__(self, "_kept", (eta.strides, copy, w0, None))

    def _operator(self, w0, kept=None):
        """The operator and the balanced operand w0b = [sqrt(alpha) w0_a;
        w0_r] of expa on w0.  kept is the state a hit matched: its kept
        operator and operand, or on the first hit p_op carrying w0b's
        Chebyshev vectors, up to 3 n // (d+k) past C_0 (one w0b holds
        (d+k)/n times the entries of eta), which then joins the kept state;
        none when rho = 0."""
        if kept is not None and kept[3] is not None:
            return kept[3], kept[3].chebyshev_vectors.operand
        w0b = w0.copy()
        w0b[..., :self.decomposition.d, :] *= np.sqrt(self.alpha)
        op = self.p_op
        if kept is not None and op.skew_two_norm_bound:
            vectors = expaction.ChebyshevVectors(
                w0b, 3 * self.basis.shape[0] // self.basis.shape[1])
            op = dataclasses.replace(op, chebyshev_vectors=vectors)
            object.__setattr__(self, "_kept", kept[:3] + (op,))
        return op, w0b

    def _lift(self, m):
        """[Y|Q] @ m."""
        if self.basis_map is not None:
            m = self.basis_map @ m
        return self.basis @ m

    def geodesic(self, t):
        """The geodesic at time t,
        gamma(t) = [Y|Q] exp(t big_exp_arg)[:, :d] exp(t (1-2 alpha) A)."""
        start = np.eye(self.big_exp_arg.shape[0], self.decomposition.d)
        return self._lift(self.in_span(start, check_scalar(t, "t")))

    def geodesic_velocity(self, t):
        """(gamma(t), dgamma/dt), by the product rule:
        dgamma/dt = [Y|Q] exp(t big_exp_arg) [A; R] exp(t (1-2 alpha) A)."""
        dec = self.decomposition
        start = np.eye(self.big_exp_arg.shape[0], dec.d)
        parts = self.in_span(np.stack([start, np.vstack([dec.a, dec.r])]),
                             check_scalar(t, "t"))
        return tuple(self._lift(parts))


class _SingleTimePlan(StiefelTransportPlan):
    """The plan of a one-shot entry point (one_shot_plan), used at one t:
    it factors nothing, and forms no exponential.

    Its in-span factor exp(t S) m exp(t c A), S = big_exp_arg and
    c = 1 - 2 alpha, is the exponential action on m of
    L: W -> S W + c W A over (d+k) x d, as the left and right products
    commute; its normal factor exp(t (1-alpha) A) is the action of
    M -> (1-alpha) A M on I_d.  S and A are exactly antisymmetric, so both
    operators are Frobenius-antisymmetric and expa sums their Chebyshev
    series (_actions), whose error stays near eps at any t, as a reused
    plan's does.  Each costs about |t| rho products of O((d+k)^2 d),
    linear in |t| as P_AR's action beside it: at small |t| rho less than
    factoring S and A, which a plan reused over many t pays once.
    """

    @cached_property
    def _actions(self):
        """The handles of L and of M -> (1-alpha) A M, the latter None
        when (1-alpha) A = 0.

        For ||W_a||_F = u and ||W_r||_F = v, the top block of L W,
        2 alpha A W_a - R^T W_r + c W_a A, has Frobenius norm at most
        (2 alpha + |c|) a u + r v and the bottom one, R W_a + c W_r A, at
        most r u + |c| a v, with (a, r) = decomposition.norm_bounds.  So
        rho(L) is the top eigenvalue of [[(2 alpha + |c|) a, r],
        [r, |c| a]] (utils.block_norm_bound).  The 1-norm bounds are
        ||S||_1 + |c| ||A||_1 and |1-alpha| ||A||_1 (A^T = -A)."""
        dec, alpha = self.decomposition, self.alpha
        s, c = self.big_exp_arg, 1.0 - 2.0 * alpha
        a_bound, r_bound = dec.norm_bounds
        ca = c * dec.a if c and dec.a.any() else None

        def apply(w):
            out = s @ w
            if ca is not None:
                out += w @ ca
            return out

        norm1_a = float(np.max(np.sum(np.abs(dec.a), axis=1), initial=0.0))
        in_span = expaction.LinearOperatorHandle(
            apply=apply, apply_adjoint=None,
            one_norm_upper_bound=float(np.max(np.sum(np.abs(s), axis=0),
                                              initial=0.0))
            + abs(c) * norm1_a,
            domain_shape=(dec.d + dec.k, dec.d),
            skew_two_norm_bound=block_norm_bound(
                [[(2.0 * alpha + abs(c)) * a_bound, r_bound],
                 [r_bound, abs(c) * a_bound]]))
        if alpha == 1.0 or not dec.a.any():
            return in_span, None
        na = (1.0 - alpha) * dec.a
        return in_span, expaction.LinearOperatorHandle(
            apply=lambda m: na @ m, apply_adjoint=None,
            one_norm_upper_bound=abs(1.0 - alpha) * norm1_a,
            domain_shape=(dec.d, dec.d),
            skew_two_norm_bound=block_norm_bound([[abs(1.0 - alpha) * a_bound]]))

    def in_span(self, m, t):
        return expaction.expa(self._actions[0], m, t)

    def normal(self, t):
        op = self._actions[1]
        return None if op is None else expaction.expa(
            op, np.eye(self.decomposition.d), t)

    def _keep(self, eta, w0):  # used at one t, a plan keeps no stack
        pass


def point_array(y):
    """y as a finite n x d float array with n > d, refused by name;
    check_point and every plan's Gram blocks (_gram_front) also refuse it
    unless orthonormal."""
    y = as_real(y, "y")
    if y.ndim != 2 or y.shape[0] <= y.shape[1]:
        raise DimensionError(f"y must be n x d with n > d, got shape {y.shape}")
    return check_finite(y, "y")


def check_point(y):
    y = point_array(y)
    _orthonormality_defect(y.T @ y)
    return y


def _orthonormality_defect(gram):
    """E = Y^T Y - I from the point's Gram block, and ||E||_F; y is
    refused unless ||E||_F <= ORTHONORMALITY_TOL."""
    e = gram - np.eye(gram.shape[0])
    res = np.linalg.norm(e)
    if not res <= ORTHONORMALITY_TOL:
        raise ValidationError(f"y is not orthonormal: residual {res:.3e}")
    return e, res


def coefficient_residual(coeff, mask=None):
    """Per vector v, from coeff = Y^T v (batch axes allowed): the norm of
    sym(coeff) and, with a flag block mask, the larger of it and the norm
    of the masked blocks (horizontality; Y^T v = 0 for a Grassmann mask)."""
    res = matrix_norms(coeff + np.swapaxes(coeff, -1, -2)) / 2.0
    if mask is not None:
        res = np.maximum(res, np.linalg.norm(coeff[..., mask], axis=-1))
    return res


def check_coefficient(coeff, v, name, mask=None):
    """Refuse the argument name's vectors v by their coefficient_residual
    (utils.refuse_residual at utils.TANGENT_RTOL)."""
    kind = "tangent" if mask is None else "horizontal"
    refuse_residual(coefficient_residual(coeff, mask), v, TANGENT_RTOL,
                    f"{name} is not {kind}: residual")


def project_tangent(y, w):
    """Tangent projection W - Y sym(Y^T W) at the checked point Y."""
    y = check_point(y)
    w = check_operand(w, y.shape, "w")
    return w - y @ sym(y.T @ w)


def metric_inner(y, xi, eta, params):
    """Metric values <xi_i, eta_j> at Y between two stacks of tangent
    vectors (utils.pair_products); Y and each stack are checked once."""
    y = check_point(y)
    same = eta is xi  # a Gram matrix: one stack, checked once
    xi = check_operand(xi, y.shape, "xi", batched=True)
    eta = xi if same else check_operand(eta, y.shape, "eta", batched=True)
    yxi = y.T @ xi
    # a copy: yxi with itself would take BLAS syrk, rounding unlike y.T @ eta
    yeta = yxi.copy() if same else y.T @ eta
    check_coefficient(yxi, xi, "xi")
    if not same:
        check_coefficient(yeta, eta, "eta")
    return pair_products(xi, eta) + (params.alpha - 1.0) * pair_products(yxi, yeta)


def decompose_tangent(y, xi, mask=None):
    """Split xi = Y A + Q R explicitly at y, an n x d array that passed
    point_array: every reused plan's decomposition, and a one-shot plan's
    off the Gram route (one_shot_plan).

    k = 0 (empty Q, R) when perp = xi - Y c (_gram_front) is negligible.
    When the factor has b < CHOLQR_MAX_COND, Q_1 = perp L^{-T} and k = d:
    sigma_min / sigma_max >= 1 / b > RANK_RTOL, so pivoted QR would keep
    every column too.  Any other xi takes pivoted QR
    (_rank_revealing_basis).  Both routes end in _reorthonormalise, so the
    Cholesky route is CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and
    Yamamoto 2014) with a projection against Y between its two steps.
    With perp ~ Q_1 T (T = L^T, or R_p[:k] P^T from pivoted QR) and
    Q_1 - Y Y^T Q_1 = Q L_2^T, R = Q^T perp = L_2^T T: no n-sized product.
    """
    xi, c, a, _, factor = _gram_front(y, xi, mask)
    return _explicit_decomposition(y, xi, c, a, factor)


def _gram_front(y, xi, mask):
    """What every plan starts from: the checked xi, c = Y^T xi, A =
    asym(c) (zero where mask is True), res = ||E||_F for E = Y^T Y - I,
    and the factor (L, L^{-1}, b) of perp = xi - Y c.

    Y^T Y refuses y unless orthonormal (a non-finite entry gives a NaN
    residual), and c refuses xi unless tangent, or horizontal under mask.
    The blocks alone give P = perp^T perp = xi^T xi - c^T (c - E c); its
    Cholesky factor L is the first Cholesky-QR step of perp, Q_1 =
    perp L^{-T}.  b = ||xi||_F two_norm_bound(L^{-1}) bounds
    ||xi|| / ||perp|| and cond_2(perp), as ||perp||_2 <= ||xi||_F (up to
    Y's residual) and ||L^{-1}||_2 = 1 / sigma_min(perp).  xi^T xi and
    c^T c carry rounding errors of about u ||xi||_F^2 (u = EPS), which
    their difference keeps, so Q_1^T Q_1 - I = L^{-1} (perp^T perp -
    L L^T) L^{-T} is about b^2 u.  The factor is (None, None, inf) when
    d = 0 or n - d < d (perp then has rank below d), when the
    factorisation fails, or unless sigma_min(perp) > RANK_RTOL
    max(1, ||xi||_F) is certain.
    """
    n, d = y.shape
    e, res = _orthonormality_defect(y.T @ y)
    xi = check_operand(xi, y.shape, "xi")
    c = y.T @ xi
    check_coefficient(c, xi, "xi", mask)
    a = asym(c)
    if mask is not None:
        a[mask] = 0.0
    factor = None, None, math.inf
    if 0 < d <= n - d:
        x = xi.T @ xi
        chol, info = dpotrf(x - c.T @ (c - e @ c), lower=1)
        if info == 0:
            inv, _ = dtrtri(chol, lower=1)
            inv_bound, norm_xi = two_norm_bound(inv), math.sqrt(np.trace(x))
            if RANK_RTOL * max(1.0, norm_xi) * inv_bound < 1.0:
                factor = chol, inv, norm_xi * inv_bound
    return xi, c, a, res, factor


def _explicit_decomposition(y, xi, c, a, factor):
    """decompose_tangent from _gram_front's results."""
    n, d = y.shape
    perp = xi - y @ c
    norm_xi = np.linalg.norm(xi)
    if np.linalg.norm(perp) <= RANK_RTOL * max(1.0, norm_xi):
        return TangentDecomposition(
            a=a, q=np.zeros((n, 0)), r=np.zeros((0, d)), k=0)
    chol, inv, b = factor
    if b < CHOLQR_MAX_COND:
        q, tri = dtrmm(1.0, inv, perp.T, lower=1, overwrite_b=1).T, chol.T
    else:
        q, tri = _rank_revealing_basis(perp, norm_xi)
    q, l2 = _reorthonormalise(y, q)
    return TangentDecomposition(a=a, q=q, r=l2.T @ tri, k=q.shape[1])


def _rank_revealing_basis(perp, norm_xi):
    """Columns of pivoted QR's Q whose pivot exceeds RANK_RTOL times the
    largest and perp's rounding level 16 u ||xi||_F, and their rows of R
    unpivoted, T = R[:k] P^T: perp ~ Q[:, :k] T.

    perp = xi - Y c comes from three roundings (c = Y^T xi, Y c and the
    difference) of about u ||xi||_F each, as ||Y||_2 ~ 1 and ||c||_F <=
    ||xi||_F, so a column that exists only through them has a pivot of a
    few u ||xi||_F, mostly inside span(Y), which _reorthonormalise cannot
    repair.  Such pivots reached 10.4 u ||xi||_F over 2,000 near-span
    velocities whose perp has rank n - d < d (n <= 12), and stayed below
    3 u ||xi||_F at n >= 40.  perp is not negligible, so its largest pivot
    (>= ||perp||_F / sqrt(d)) passes both cuts for d < 3e5: k >= 1.
    """
    q, rr, piv = scipy.linalg.qr(perp, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    k = int(np.sum(diag > max(RANK_RTOL * diag[0], 16.0 * EPS * norm_xi)))
    tri = np.empty((k, perp.shape[1]))
    tri[:, piv] = rr[:k]
    return q[:, :k], tri


def _reorthonormalise(y, q):
    """One projection against Y, then the Cholesky-QR step m L^{-T} of the
    projected q = m, with m^T m = L L^T: that basis and L.

    q is orthonormal up to a loss of about b^2 u (_gram_front), or on the
    pivoted route a Y-component below its pivot cuts.  m L^{-T} is
    orthonormal up to about cond_2(m)^2 u, so the product of the
    two_norm_bound of L and L^{-1}, which bounds cond_2(m), must be below
    REORTH_MAX_COND; otherwise xi's Y-orthogonal part was lost to rounding
    and this raises NumericalError.  The product by L^{-1} (dtrmm) runs
    several times faster than a solve (dtrsm) and spans the same range.
    """
    proj = y @ (y.T @ q)
    m = np.subtract(q, proj, out=proj)
    chol, info = dpotrf(m.T @ m, lower=1)
    if info == 0:
        inv, _ = dtrtri(chol, lower=1)
        if two_norm_bound(chol) * two_norm_bound(inv) < REORTH_MAX_COND:
            return dtrmm(1.0, inv, m.T, lower=1, overwrite_b=1).T, chol
    raise NumericalError(
        "re-orthogonalisation failed: the Y-orthogonal part of xi is "
        "lost to rounding")


def one_shot_plan(y, xi, params, mask=None):
    """The one-t plan (_SingleTimePlan) of the geodesic from y, an
    n x d array that passed point_array, with velocity xi; mask as in
    p_bal_operator.

    When the factor of its Gram blocks (_gram_front) passes the gate, the
    plan takes the Gram route: Q = perp L^{-T}, R = Q^T xi = L^T, its basis
    is the copy [Y|xi] and basis_map is B = [[I, -c L^{-T}], [0, L^{-T}]],
    so perp, Q and _reorthonormalise are never formed.  No second step
    repairs this Q: Q^T Q - I is about b^2 u, and Y^T Q = -E c L^{-T} has
    norm at most res b (res = ||E||_F), where the explicit route leaves
    about res^2 b.  So the gate asks b (b u + 2 res) < GRAM_MAX_LOSS =
    1e-12: b < 94.9 at an orthonormal Y, less as res grows.  Every other
    xi takes decompose_tangent's explicit route from the same factor.
    """
    xi, c, a, res, factor = _gram_front(y, xi, mask)
    chol, inv, b = factor
    if not b * (b * EPS + 2.0 * res) < GRAM_MAX_LOSS:
        return _plan(_SingleTimePlan, y,
                     _explicit_decomposition(y, xi, c, a, factor), params, mask)
    d = y.shape[1]
    dec = TangentDecomposition(a=a, q=None, r=chol.T, k=d)
    basis_map = np.block([[np.eye(d), -c @ inv.T], [np.zeros((d, d)), inv.T]])
    return _plan(_SingleTimePlan, y, dec, params, mask, hcat(y, xi), basis_map)


def stiefel_geodesic(y, xi, params, t):
    """Geodesic through Y with velocity xi, evaluated at time t: the
    geodesic of a one-t plan (one_shot_plan)."""
    return one_shot_plan(point_array(y), xi, params).geodesic(t)


def stiefel_geodesic_velocity(y, xi, params, t):
    """(gamma(t), dgamma/dt) from a one-t plan (one_shot_plan)."""
    return one_shot_plan(point_array(y), xi, params).geodesic_velocity(t)


def p_bal_operator(decomp, params, mask=None):
    """The balanced operator on stacked F, top block scaled by
    sqrt(alpha), which is Frobenius-antisymmetric on F (no apply_adjoint):
    an apply closure, the cheap 1-norm bound of the Taylor selection
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

    # apply's scalars, folded once: its top block is m - m^T
    a_top, r_top = (0.5 * (4.0 * alpha - 1.0)) * a, (0.5 * salpha) * r.T
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

    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=None,
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
    bottom one sqrt(alpha) r u + alpha a v, with (a, r) =
    decomp.norm_bounds.  So rho is the top eigenvalue of
    [[|4 alpha - 1| a, sqrt(alpha) r], [sqrt(alpha) r, alpha a]]
    (utils.block_norm_bound).  A full (Grassmann) mask clears u and
    the top block, leaving w_r -> alpha w_r A: rho = alpha a, 0 for the
    zero A of a Grassmann plan.  This holds on the whole stacked space.
    """
    alpha = params.alpha
    a, r = decomp.norm_bounds
    if mask is not None and mask.all():
        return block_norm_bound([[alpha * a]])
    off = np.sqrt(alpha) * r
    return block_norm_bound([[abs(4.0 * alpha - 1.0) * a, off],
                             [off, alpha * a]])


def plan_from_decomposition(y, decomp, params, mask=None):
    """Transport plan along the geodesic from Y with velocity Y A + Q R;
    mask clears the operator's top block (see p_bal_operator)."""
    return _plan(StiefelTransportPlan, y, decomp, params, mask)


def _plan(kind, y, decomp, params, mask=None, basis=None, basis_map=None):
    """A plan of class kind on basis: [Y|Q] when None, or [Y|xi] with
    basis_map (the Gram route of one_shot_plan)."""
    a, r, k = decomp.a, decomp.r, decomp.k
    if basis is None:  # Q is held once, as a view of [Y|Q]
        basis = hcat(y, decomp.q)
        decomp = dataclasses.replace(decomp, q=basis[:, decomp.d:])
    return kind(
        decomposition=decomp,
        big_exp_arg=np.block([[2.0 * params.alpha * a, -r.T],
                              [r, np.zeros((k, k))]]),
        alpha=params.alpha,
        basis=basis,
        point=y,
        mask=mask,
        basis_map=basis_map)


def make_transport_plan(y, xi, params):
    """Decompose the geodesic velocity once for the geodesic and many
    transports.

    The plan's first use also factors its two skew exponent arguments,
    O((d+k)^3) once; each later t then costs one real product per
    exponential (StiefelTransportPlan).
    """
    y = point_array(y)
    return plan_from_decomposition(y, decompose_tangent(y, xi), params)


def transport_with_plan(plan, y, eta, t):
    """Transport eta (leading batch axes allowed) along the plan geodesic.

    y must be plan.point, the plan's base point: that object passes at
    once, another array after an entry-wise compare.  eta must be tangent
    at Y, and horizontal for a flag plan (plan.mask): its Y-coefficient,
    the top d rows of basis^T eta, is checked first, t = 0 included.
    Never forms an n x n intermediate; the largest arrays touched are the
    plan's n x (d+k) basis (k = d on the Gram route) and the result.  The out-of-span part
    is folded into the coefficient matrix, so at most three n-sized
    products run per call, and basis @ coeff accumulates into the result
    in place.  A Gram-route plan's basis is [Y|xi] (one_shot_plan): its
    basis^T eta is mapped through basis_map^T, which keeps the top d rows,
    and its coeff through basis_map.  A d x d exponential whose argument
    is zero is skipped with its product.

    The in-span and normal factors come from the plan (in_span and
    normal): one real product per exponential after the factorization a
    plan's first use makes (StiefelTransportPlan), or for a one-shot plan
    (_SingleTimePlan) one Chebyshev action on the coefficients and one on
    I_d, no exponential formed.  t must be a real finite scalar.

    A reused plan keeps the last stack it checked (StiefelTransportPlan).
    A stack of the same shape, strides and bits, compared as int64 views
    (so a NaN or a -0.0 for a 0.0 never matches), takes its kept w0: no
    finiteness or tangency check and no basis^T eta.  From its first hit
    on, the plan also keeps the stack's leading Chebyshev vectors, up to
    3 n // (d+k) past C_0, so expa applies P_AR only for the terms past
    them, at either sign of t.  The result is the same as a fresh plan's,
    bit for bit.  A one-shot plan keeps nothing.
    """
    t = check_scalar(t, "t")
    if y is not plan.point and not np.array_equal(y, plan.point):
        raise ValidationError("y is not the base point of the plan")
    basis, basis_map = plan.basis, plan.basis_map
    d = plan.decomposition.d
    eta = as_real(eta, "eta")
    kept = getattr(plan, "_kept", None)
    if kept is not None and eta.strides == kept[0] \
            and np.array_equal(eta.view(np.int64), kept[1].view(np.int64)):
        w0 = kept[2]
    else:
        eta = check_operand(eta, (basis.shape[0], d), "eta", batched=True)
        w0 = np.swapaxes(basis, -1, -2) @ eta
        check_coefficient(w0[..., :d, :], eta, "eta", plan.mask)
        plan._keep(eta, w0)
        kept = None
    if t == 0.0:
        return eta.copy()
    if basis_map is not None:  # [Y|Q]^T eta
        w0 = basis_map.T @ w0

    w = expaction.expa(*plan._operator(w0, kept), t)
    w[..., :d, :] /= np.sqrt(plan.alpha)

    # [Y|Q] (M) + (eta - [Y|Q] w0) e_n  ==  [Y|Q] (M - w0 e_n) + eta e_n
    coeff = plan.in_span(w, t)
    e_normal = plan.normal(t)
    if e_normal is not None:
        coeff -= w0 @ e_normal
        out = eta @ e_normal
    else:
        coeff -= w0
        out = eta.copy()
    if basis_map is not None:
        coeff = basis_map @ coeff
    # out += basis @ coeff without an n-sized temporary: BLAS on the
    # column-major (transposed) views of the row-major arrays; BLAS
    # rejects the empty operands of d = 0
    for i in np.ndindex(out.shape[:-2] if out.size else (0,)):
        dgemm(1.0, coeff[i].T, basis.T, beta=1.0, c=out[i].T, overwrite_c=True)
    return out


def stiefel_transport(y, xi, eta, params, t):
    """Parallel transport of eta along the geodesic driven by xi, by a
    one-t plan (one_shot_plan): on the Gram route unless its gate
    refuses, and with Chebyshev actions for the small exponential
    factors (_SingleTimePlan), which at one t cost less than the
    factorization a reused plan makes.  Their cost grows with |t|, as
    P_AR's does: for many t, build a plan (make_transport_plan)."""
    plan = one_shot_plan(point_array(y), xi, params)
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
