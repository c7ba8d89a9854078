"""Parallel transport on the Stiefel and flag manifolds in O(n d^2) + O(t d^3).

A tangent vector xi at Y splits as xi = Y A + Q R with A = Y^T xi
antisymmetric and Q an orthonormal basis of the Y-orthogonal column span.
Geodesics and the in-span part of transport live in the (d+k)-column
subspace [Y|Q]; the out-of-span part of a transported vector only picks up
a d x d rotation.  The transport factor in the middle is an exponential
action of the operator P_AR over F = Skew_d x R^{k x d}, applied in its
balanced form (top block scaled by sqrt(alpha)), which is
Frobenius-antisymmetric on F.  Its handle carries two bounds: the cheap
1-norm bound of the Taylor selection, and a 2-norm bound rho, from
||A||_2 and ||R||_2, under which expa sums the Chebyshev-Bessel series
in about |t| rho applies.

A transport plan holds these pieces for one geodesic and is the one
transport engine: canonical flag transport (flag_grassmann) is the plan at
alpha = 1/2 with the operator's top block cleared on the flag diagonal
blocks, a mask that cannot raise either bound.  Per call, the plan skips
each d x d exponential whose argument is zero ((1-2 alpha) A at
alpha = 1/2, (1-alpha) A at alpha = 1), and writes the result into one
n-sized array.

Elements of F are stored stacked: w = [w_a; w_r] of shape (d+k, d).
Operators and transports accept leading batch axes on the vectors.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

from . import expaction
from .errors import DimensionError, ValidationError
from .utils import asym, check_finite, check_operand, hcat, sym

POINT_TOL = 1e-10
TANGENT_RTOL = 1e-9
RANK_RTOL = 1e-12
_EPS = 2.0 ** -53


@dataclass(frozen=True)
class StiefelMetricParams:
    """Metric parameter: <xi, xi> = Tr xi^T xi + (alpha-1) Tr xi^T Y Y^T xi.

    alpha = 1/2 is the canonical metric, alpha = 1 the embedded Euclidean
    one.
    """
    alpha: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class StiefelTransportPlan:
    """Precomputed pieces of the transport along one geodesic, reusable
    for many (eta, t)."""
    decomposition: TangentDecomposition
    big_exp_arg: np.ndarray     # (d+k) x (d+k), antisymmetric
    small_exp_arg: np.ndarray   # (1-2*alpha) A
    normal_exp_arg: np.ndarray  # (1-alpha) A
    p_op: expaction.LinearOperatorHandle  # balanced operator over F
    alpha: float
    basis: np.ndarray           # [Y|Q], cached to avoid per-call copies


def check_point(y):
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] <= y.shape[1]:
        raise DimensionError(f"y must be n x d with n > d, got shape {y.shape}")
    check_finite(y, "y")
    if not np.linalg.norm(y.T @ y - np.eye(y.shape[1])) <= POINT_TOL:
        raise ValidationError("columns are not orthonormal")
    return y


def check_tangent(y, xi):
    coeff = np.swapaxes(y, -1, -2) @ xi
    res = np.linalg.norm(coeff + np.swapaxes(coeff, -1, -2)) / 2.0
    if not res <= TANGENT_RTOL * max(1.0, np.linalg.norm(xi)):
        raise ValidationError(f"vector is not tangent: residual {res:.3e}")


def project_tangent(y, w):
    """Tangent projection W - Y sym(Y^T W)."""
    w = np.asarray(w, dtype=float)
    if w.shape != y.shape:
        raise DimensionError(f"shape mismatch {w.shape} vs {y.shape}")
    return w - y @ sym(y.T @ w)


def metric_inner(y, xi, eta, params):
    """Metric value of two tangent vectors at Y."""
    check_tangent(y, xi)
    check_tangent(y, eta)
    yxi = y.T @ xi
    yeta = y.T @ eta
    return float(np.sum(xi * eta) + (params.alpha - 1.0) * np.sum(yxi * yeta))


def decompose_tangent(y, xi, rank_tol=RANK_RTOL, use_svd=False):
    """Split xi = Y A + Q R with a rank-revealing factorization.

    Pivoted QR by default; use_svd switches to a singular value
    decomposition for ill-conditioned xi.  k = 0 (empty Q, R) when xi has
    no component orthogonal to the columns of Y.  Every plan is built from
    this decomposition, so this is where xi's shape and entries are checked.
    """
    xi = check_operand(xi, y.shape, "xi")
    check_tangent(y, xi)
    n, d = y.shape
    a = asym(y.T @ xi)
    perp = xi - y @ (y.T @ xi)
    if np.linalg.norm(perp) <= rank_tol * max(1.0, np.linalg.norm(xi)):
        return TangentDecomposition(
            a=a, q=np.zeros((n, 0)), r=np.zeros((0, d)), k=0)
    if use_svd:
        u, sv, _ = np.linalg.svd(perp, full_matrices=False)
        k = int(np.sum(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0 else 0
        q = u[:, :k]
    else:
        q, rr, _ = scipy.linalg.qr(perp, mode="economic", pivoting=True)
        diag = np.abs(np.diag(rr))
        k = int(np.sum(diag > rank_tol * diag[0])) if diag.size and diag[0] > 0 else 0
        q = q[:, :k]
    if k > 0:
        # one re-orthogonalization pass keeps Y^T Q at roundoff even for
        # nearly rank-deficient xi
        q = q - y @ (y.T @ q)
        q, _ = np.linalg.qr(q)
    r = q.T @ xi
    return TangentDecomposition(a=a, q=q, r=r, k=k)


def _big_arg(decomp, alpha):
    a, r, k = decomp.a, decomp.r, decomp.k
    return np.block([[2.0 * alpha * a, -r.T],
                     [r, np.zeros((k, k))]])


def stiefel_geodesic(y, xi, params, t):
    """Geodesic through Y with velocity xi, evaluated at time t."""
    y = check_point(y)
    decomp = decompose_tangent(y, xi)
    alpha = params.alpha
    e_big = scipy.linalg.expm(t * _big_arg(decomp, alpha))
    e_small = scipy.linalg.expm(t * (1.0 - 2.0 * alpha) * decomp.a)
    yq = hcat(y, decomp.q)
    return yq @ (e_big[:, :decomp.d] @ e_small)


def stiefel_geodesic_velocity(y, xi, params, t):
    """(gamma(t), dgamma/dt) by product-rule differentiation."""
    y = check_point(y)
    decomp = decompose_tangent(y, xi)
    alpha = params.alpha
    d = decomp.d
    e_big = scipy.linalg.expm(t * _big_arg(decomp, alpha))
    ar = _big_arg(decomp, 0.5)  # [[A, -R^T], [R, 0]]
    e_small = scipy.linalg.expm(t * (1.0 - 2.0 * alpha) * decomp.a)
    yq = hcat(y, decomp.q)
    gam = yq @ (e_big[:, :d] @ e_small)
    dgam = yq @ ((e_big @ ar)[:, :d] @ e_small)
    return gam, dgam


def _p_bal_pair(decomp, params, mask=None):
    """The balanced operator on stacked F: apply/adjoint closures, the
    cheap 1-norm bound and the 2-norm bound rho (p_bal_two_norm_bound).

    mask, a d x d boolean array, clears the top block where it is True;
    canonical flag transport passes its diagonal blocks.  Clearing entries
    is a projection: it raises neither norm, so both bounds hold with or
    without it, and the masked operator stays antisymmetric on the masked
    subspace of F.
    """
    a, r = decomp.a, decomp.r
    d = decomp.d
    alpha = params.alpha
    salpha = np.sqrt(alpha)
    c4 = 4.0 * alpha - 1.0

    def skew_last(m):
        return 0.5 * (m - np.swapaxes(m, -1, -2))

    def apply(w):
        wa = w[..., :d, :]
        wr = w[..., d:, :]
        top = skew_last(c4 * (wa @ a) + salpha * (np.swapaxes(r, -1, -2) @ wr))
        if mask is not None:
            top[..., mask] = 0.0
        bot = alpha * (wr @ a) - salpha * (r @ wa)
        return np.concatenate([top, bot], axis=-2)

    def apply_adjoint(w):
        wa = w[..., :d, :]
        wr = w[..., d:, :]
        ska = skew_last(wa)
        if mask is not None:
            ska[..., mask] = 0.0
        top = -c4 * (ska @ a) - salpha * (np.swapaxes(r, -1, -2) @ wr)
        bot = salpha * (r @ ska) - alpha * (wr @ a)
        return np.concatenate([top, bot], axis=-2)

    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=p_bal_norm_bound(decomp, params),
        domain_shape=(d + decomp.k, d),
        skew_two_norm_bound=p_bal_two_norm_bound(decomp, params))


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


def _two_norm_bound(m):
    """Upper bound on ||m||_2 in O(rows cols min(rows, cols)).

    ||m||_2^8 = ||(m^T m)^4||_2 <= ||(m^T m)^4||_1, with the Gram matrix
    of the shorter side.  m is scaled to unit Frobenius norm first, so the
    products neither overflow nor underflow; each of the three then has
    rounding error below (rows + cols) eps in Frobenius norm, and the added
    slack covers those errors, the scalings and the 1-norm sum.
    """
    if m.shape[0] < m.shape[1]:
        m = m.T
    peak = np.max(np.abs(m), initial=0.0)
    if peak == 0.0:
        return 0.0
    m = m / peak
    fro = np.linalg.norm(m)
    m = m / fro
    h = m.T @ m
    h = h @ h
    g = float(np.max(np.sum(np.abs(h @ h), axis=0)))
    slack = (8.0 * sum(m.shape) * np.sqrt(m.shape[1]) + 16.0) * _EPS
    return peak * fro * (g + slack) ** 0.125


def p_bal_two_norm_bound(decomp, params):
    """rho >= ||P_bal||_2, in O(d^3 + k d^2).

    For ||w_a||_F = u and ||w_r||_F = v, the top block of P_bal w has
    Frobenius norm at most |4 alpha - 1| a u + sqrt(alpha) r v and the
    bottom one sqrt(alpha) r u + alpha a v, with a >= ||A||_2 and
    r >= ||R||_2.  So rho is the top eigenvalue of
    [[|4 alpha - 1| a, sqrt(alpha) r], [sqrt(alpha) r, alpha a]].  This
    holds on the whole stacked space, not only on F.  The last factor
    covers the rounding of a, r and the eigenvalue.
    """
    alpha = params.alpha
    a = _two_norm_bound(decomp.a)
    r = _two_norm_bound(decomp.r)
    top, bot = abs(4.0 * alpha - 1.0) * a, alpha * a
    rho = 0.5 * (top + bot) + np.hypot(0.5 * (top - bot), np.sqrt(alpha) * r)
    return float(rho) * (1.0 + 16.0 * _EPS)


def p_bal_operator(decomp, params):
    """Balanced operator handle with its 1-norm and 2-norm bounds."""
    return _p_bal_pair(decomp, params)


def plan_from_decomposition(y, decomp, params, mask=None):
    """Transport plan along the geodesic from Y with velocity Y A + Q R;
    mask clears the operator's top block (see _p_bal_pair)."""
    alpha = params.alpha
    return StiefelTransportPlan(
        decomposition=decomp,
        big_exp_arg=_big_arg(decomp, alpha),
        small_exp_arg=(1.0 - 2.0 * alpha) * decomp.a,
        normal_exp_arg=(1.0 - alpha) * decomp.a,
        p_op=_p_bal_pair(decomp, params, mask),
        alpha=alpha,
        basis=hcat(y, decomp.q))


def make_transport_plan(y, xi, params):
    """Decompose the geodesic velocity once for many transports."""
    y = check_point(y)
    return plan_from_decomposition(y, decompose_tangent(y, xi), params)


def transport_with_plan(plan, y, eta, t):
    """Transport eta (leading batch axes allowed) along the plan geodesic.

    Never forms an n x n intermediate; the largest arrays touched are the
    cached n x (d+k) basis and the result.  The out-of-span part is folded
    into the coefficient matrix, so at most three n-sized products run per
    call, and [Y|Q] @ coeff accumulates into the result in place.  A d x d
    exponential whose argument is zero is skipped with its product.  y is
    not read: the plan caches [Y|Q].
    """
    yq = plan.basis
    d = plan.decomposition.d
    eta = check_operand(eta, (yq.shape[0], d), "eta", batched=True)
    if t == 0.0:
        return eta.copy()
    salpha = np.sqrt(plan.alpha)

    w0 = np.swapaxes(yq, -1, -2) @ eta

    w0b = w0.copy()
    w0b[..., :d, :] *= salpha
    w = expaction.expa(plan.p_op, w0b, t)
    w[..., :d, :] /= salpha

    # yq (M) + (eta - yq w0) e_n  ==  yq (M - w0 e_n) + eta e_n
    coeff = scipy.linalg.expm(t * plan.big_exp_arg) @ w
    if plan.small_exp_arg.any():
        coeff = coeff @ scipy.linalg.expm(t * plan.small_exp_arg)
    if plan.normal_exp_arg.any():
        e_normal = scipy.linalg.expm(t * plan.normal_exp_arg)
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
    """Parallel transport of eta along the geodesic driven by xi."""
    y = check_point(y)
    eta = check_operand(eta, y.shape, "eta", batched=True)
    check_tangent(y, eta)
    plan = plan_from_decomposition(y, decompose_tangent(y, xi), params)
    return transport_with_plan(plan, y, eta, t)


def stiefel_christoffel(y, xi, eta, params):
    """Christoffel function in Stiefel coordinates; oracle/residual use."""
    if xi.shape != y.shape or eta.shape != y.shape:
        raise DimensionError("shape mismatch among Y, xi, eta")
    alpha = params.alpha
    first = 0.5 * y @ (xi.T @ eta + eta.T @ xi)
    m = xi @ (eta.T @ y) + eta @ (xi.T @ y)
    return first + (1.0 - alpha) * (m - y @ (y.T @ m))


def horizontal_lift(y, y_perp, xi):
    """Lift a tangent vector at Y to a horizontal vector at [Y|Y_perp]."""
    x = hcat(y, y_perp)
    n = x.shape[0]
    if x.shape[1] != n or not np.linalg.norm(x.T @ x - np.eye(n)) <= POINT_TOL:
        raise ValidationError("[Y|Y_perp] is not orthogonal")
    check_tangent(y, xi)
    return hcat(xi, -y @ (xi.T @ y_perp))
