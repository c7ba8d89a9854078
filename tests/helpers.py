"""Shared constructions and reference implementations for the test suite."""
import numpy as np
import scipy.linalg

from manitrans.errors import DimensionError
from manitrans.expaction import LinearOperatorHandle, expa, select_taylor_params
from manitrans.stiefel import (
    RANK_RTOL, TangentDecomposition, check_tangent, p_bal_norm_bound,
    project_tangent)
from manitrans.utils import asym, check_operand


def random_stiefel(rng, n, d):
    return np.linalg.qr(rng.standard_normal((n, d)))[0]


def random_stiefel_tangent(rng, y):
    return project_tangent(y, rng.standard_normal(y.shape))


def random_so(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_so_tangent(rng, x):
    return x @ asym(rng.standard_normal((x.shape[0], x.shape[0])))


def random_glp(rng, n, spread=0.4):
    """A well-conditioned point with positive determinant."""
    x = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    if np.linalg.det(x) < 0:
        x[:, 0] = -x[:, 0]
    return x


def rel_err(got, want):
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / scale


def poisoned(name, value=np.nan, **arrays):
    """The keyword arrays, with one non-finite entry put into `name`."""
    out = dict(arrays)
    out[name] = np.array(out[name], dtype=float)
    out[name][0, -1] = value
    return out


def zero_flag_blocks(sig, m):
    """Zero the flag diagonal blocks of a d x d matrix (batched ok)."""
    out = np.array(m, dtype=float, copy=True)
    out[..., sig.block_mask] = 0.0
    return out


# --- reference forms of the Stiefel transport operator ----------------------

def p_ar_apply(decomp, params, w):
    """The transport operator over F = Skew_d x R^{k x d}, unbalanced.

    w is the stacked matrix [w_a; w_r]; the top block of the result is
    ((4*alpha-1) w_a A + R^T w_r)_skew, the bottom alpha*(w_r A - R w_a).
    """
    a, r = decomp.a, decomp.r
    d = decomp.d
    alpha = params.alpha
    w = np.asarray(w, dtype=float)
    if w.shape[-2:] != (d + decomp.k, d):
        raise DimensionError(f"operand shape {w.shape} does not match F")
    wa = w[..., :d, :]
    wr = w[..., d:, :]
    top = (4.0 * alpha - 1.0) * (wa @ a) + np.swapaxes(r, -1, -2) @ wr
    top = 0.5 * (top - np.swapaxes(top, -1, -2))
    bot = alpha * (wr @ a - np.matmul(r, wa))
    return np.concatenate([top, bot], axis=-2)


def p_ar_operator(decomp, params):
    """Unbalanced operator handle, the reference for the balanced one.

    Its 1-norm bound rescales the balanced bound by the scaling factors.
    """
    alpha = params.alpha
    salpha = np.sqrt(alpha)
    d = decomp.d

    def apply(w):
        return p_ar_apply(decomp, params, w)

    def apply_adjoint(w):
        wa = w[..., :d, :]
        wr = w[..., d:, :]
        ska = 0.5 * (wa - np.swapaxes(wa, -1, -2))
        top = -(4.0 * alpha - 1.0) * (ska @ decomp.a) \
            - alpha * (np.swapaxes(decomp.r, -1, -2) @ wr)
        bot = decomp.r @ ska - alpha * (wr @ decomp.a)
        return np.concatenate([top, bot], axis=-2)

    scale = max(salpha, 1.0 / salpha)
    return LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=scale * p_bal_norm_bound(decomp, params),
        domain_shape=(decomp.d + decomp.k, decomp.d))


def p_bal_norm_bound_display(decomp, params):
    """Literal distributed-sum reading of the published bound (looser);
    kept for the comparison test against stiefel.p_bal_norm_bound."""
    a, r = decomp.a, decomp.r
    d = decomp.d
    alpha = params.alpha
    salpha = np.sqrt(alpha)
    abs_a = np.abs(a)
    abs_r = np.abs(r)
    norm1_a = float(np.max(np.sum(abs_a, axis=0), initial=0.0))
    norminf_r = float(np.max(np.sum(abs_r, axis=1), initial=0.0))
    n_a = salpha * (float(np.max(np.sum(abs_r, axis=0), initial=0.0))
                    + d * abs(4.0 * alpha - 1.0) * norm1_a)
    n_r = alpha * (norm1_a + d * salpha * norminf_r)
    return max(n_a, n_r)


def transport_reference(plan, eta, t):
    """The Stiefel transport formula evaluated term by term from a plan:
    Taylor expa with explicit parameters from the 1-norm bound, all three
    d x d exponentials, and the n-sized products unfused,
    [Y|Q] e_big w e_small + (eta - [Y|Q] w0) e_normal."""
    yq = plan.basis
    d = plan.decomposition.d
    salpha = np.sqrt(plan.alpha)
    w0 = yq.T @ eta
    wb = w0.copy()
    wb[..., :d, :] *= salpha
    params = select_taylor_params(abs(t) * plan.p_op.one_norm_upper_bound)
    w = expa(plan.p_op, wb, t, params=params)
    w[..., :d, :] /= salpha
    e_big, e_small, e_normal = (
        scipy.linalg.expm(t * m) for m in
        (plan.big_exp_arg, plan.small_exp_arg, plan.normal_exp_arg))
    return yq @ (e_big @ w @ e_small) + (eta - yq @ w0) @ e_normal


def decompose_tangent_reference(y, xi, rank_tol=RANK_RTOL, use_svd=False):
    """xi = Y A + Q R by pivoted QR (or an SVD) of xi - Y Y^T xi for every
    xi, then a projection against Y and a Householder QR: the reference for
    stiefel.decompose_tangent's rank decision and its transports."""
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
        q = q - y @ (y.T @ q)
        q, _ = np.linalg.qr(q)
    r = q.T @ xi
    return TangentDecomposition(a=a, q=q, r=r, k=k)
