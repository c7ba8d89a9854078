"""Shared constructions and reference implementations for the test suite."""
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from manitrans import stiefel
from manitrans.errors import DimensionError, ValidationError
from manitrans.expaction import LinearOperatorHandle, expa, select_taylor_params
from manitrans.stiefel import (
    RANK_RTOL, TangentDecomposition, check_coefficient, decompose_tangent,
    p_bal_norm_bound, project_tangent)
from manitrans.utils import (ORTHONORMALITY_TOL, asym, check_operand,
                             check_square, hcat, lie, sym)

SUBSPACE_RANK_RTOL = 1e-10


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


# Operand entries the package refuses, naming the operand: non-finite
# floats, a complex entry and a string entry (held in an object array).
BAD_VALUES = (np.nan, np.inf, 1j, "x")
# the ones a float cast would take in, silently or with a warning
NON_REAL = tuple(v for v in BAD_VALUES if not isinstance(v, float))


def poison_dtype(value):
    """The dtype of an operand that holds value."""
    return {complex: complex, str: object}.get(type(value), float)


def refusal(value):
    """How an operand holding value is refused, after its name."""
    return "has non-finite" if isinstance(value, float) else "must be real"


def poisoned(name, value=np.nan, **arrays):
    """The keyword arrays, with one bad entry (BAD_VALUES) put into
    `name`."""
    out = dict(arrays)
    out[name] = np.array(out[name], dtype=poison_dtype(value))
    out[name][0, -1] = value
    return out


def zero_flag_blocks(sig, m):
    """Zero the flag diagonal blocks of a d x d matrix (batched ok)."""
    out = np.array(m, dtype=float, copy=True)
    out[..., sig.block_mask] = 0.0
    return out


# Velocities of one_shot_velocity, by their Y-orthogonal part perp.
VELOCITY_KINDS = ("full", "ill", "near_span", "deficient", "zero")


def one_shot_velocity(rng, y, kind, decades, mask=None):
    """A unit-norm xi = Y A + perp at Y, with A zero on the flag block
    mask, for the one-shot routes.  perp has min(n - d, d) singular values:
    spread over a factor of 4 ("full"), log-spaced over `decades` decades
    ("ill"), full with ||perp|| / ||Y A|| = 10^-decades ("near_span"), the
    last half of them zero ("deficient"), or all zero ("zero")."""
    n, d = y.shape
    m = min(n - d, d)
    s = {"full": rng.uniform(0.5, 2.0, m), "ill": np.logspace(0.0, -decades, m),
         "near_span": np.ones(m), "deficient": np.ones(m),
         "zero": np.zeros(m)}[kind]
    if kind == "deficient":
        s[m - max(1, m // 2):] = 0.0
    u = rng.standard_normal((n, m))
    u = np.linalg.qr(u - y @ (y.T @ u))[0]
    perp = (u * s) @ np.linalg.qr(rng.standard_normal((d, d)))[0][:m]
    a = asym(rng.standard_normal((d, d)))
    if mask is not None:
        a[mask] = 0.0
    span = y @ a
    if kind == "near_span" and span.any():
        perp *= 10.0 ** -decades * np.linalg.norm(span) / np.linalg.norm(perp)
    xi = span + perp
    norm = np.linalg.norm(xi)
    return xi / norm if norm else xi


def explicit_one_shot_plan(y, xi, params, mask=None):
    """The one-t plan of the explicit route: decompose_tangent's [Y|Q]
    and R, whatever the gate of the one-shot Gram route says."""
    return stiefel._plan(stiefel._SingleTimePlan, y,
                         decompose_tangent(y, xi, mask), params, mask)


def check_tangent(y, xi):
    """Tangency of xi at Y (leading batch axes allowed)."""
    check_coefficient(np.swapaxes(y, -1, -2) @ xi, xi, "xi")


def horizontal_lift(y, y_perp, xi):
    """Lift a tangent vector at Y to a horizontal vector at [Y|Y_perp]."""
    x = np.hstack([y, y_perp])
    n = x.shape[0]
    if x.shape[1] != n or not np.linalg.norm(
            x.T @ x - np.eye(n)) <= ORTHONORMALITY_TOL:
        raise ValidationError("[Y|Y_perp] is not orthogonal")
    check_tangent(y, xi)
    return np.hstack([xi, -y @ (xi.T @ y_perp)])


def zero_operator(domain_shape):
    """The zero operator on the given matrix space."""
    return LinearOperatorHandle(
        apply=np.zeros_like,
        apply_adjoint=np.zeros_like,
        one_norm_upper_bound=0.0,
        domain_shape=tuple(domain_shape))


def identity_operator(domain_shape):
    """The identity operator on the given matrix space."""
    return LinearOperatorHandle(
        apply=lambda m: m.copy(),
        apply_adjoint=lambda m: m.copy(),
        one_norm_upper_bound=1.0,
        domain_shape=tuple(domain_shape))


# --- subspace scans of an algebra split ------------------------------------

@dataclass(frozen=True)
class SplitComponents:
    """Projections onto the complement pieces of g = a + a_join + a_top."""
    proj_a_perp: Callable[[np.ndarray], np.ndarray]
    proj_a_join: Callable[[np.ndarray], np.ndarray]
    proj_a_top: Callable[[np.ndarray], np.ndarray]


def _range_basis(images):
    """Frobenius-orthonormal basis of the span of a list of matrices."""
    mats = [np.asarray(m, dtype=float) for m in images]
    if not mats:
        return []
    shape = mats[0].shape
    cols = np.stack([m.reshape(-1) for m in mats], axis=1)
    colnorms = np.linalg.norm(cols, axis=0)
    if np.max(colnorms, initial=0.0) == 0.0:
        return []
    q, r, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > SUBSPACE_RANK_RTOL * diag[0]))
    return [q[:, i].reshape(shape) for i in range(rank)]


def subspace_basis(split, proj):
    """Orthonormal basis of the range of a projection on n x n matrices."""
    n = split.n
    images = []
    e = np.zeros((n, n))
    for idx in range(n * n):
        e.flat[idx] = 1.0
        images.append(np.array(proj(e), dtype=float))  # proj may return e
        e.flat[idx] = 0.0
    return _range_basis(images)


def derive_split_components(split):
    """Projections onto a_perp, a_join = span [a, a_perp], and a_top, by a
    dense scan: the reference for quotient.check_vertical_algebra's probes
    and for classify_metric_signature.

    a_join is orthonormalized numerically from bracket images of basis
    pairs; a_top is its orthogonal complement inside a_perp, which by the
    transposable-split decomposition is exactly the commutant of a.
    """
    def proj_a_perp(m):
        return split.proj_g(m) - split.proj_a(m)

    basis_a = subspace_basis(split, split.proj_a)
    basis_perp = subspace_basis(split, proj_a_perp)
    brackets = [lie(a, b) for a in basis_a for b in basis_perp]
    basis_join = _range_basis(brackets)

    def proj_a_join(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        for q in basis_join:
            out += np.sum(q * m) * q
        return out

    def proj_a_top(m):
        return proj_a_perp(m) - proj_a_join(m)

    return SplitComponents(proj_a_perp, proj_a_join, proj_a_top)


# --- forms and metric signatures --------------------------------------------

class DegenerateSubspaceError(ValueError):
    """The bilinear form is singular on the requested subspace."""


def frobenius_form(a, b):
    """Tr(a b^T), the positive-definite Frobenius pairing."""
    a = check_square(a, "a")
    b = check_square(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def gram_projection(v_basis, w, form):
    """Project w onto span(v_basis), orthogonally for the given form.

    Solves the Gram system of the basis; a singular Gram matrix means the
    form is degenerate on the subspace and no orthogonal projection exists.
    """
    k = len(v_basis)
    c = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            c[i, j] = c[j, i] = form(v_basis[i], v_basis[j])
    rhs = np.array([form(v, w) for v in v_basis])
    svals = np.linalg.svd(c, compute_uv=False)
    if svals[-1] <= 1e-13 * max(1.0, svals[0]):
        raise DegenerateSubspaceError(
            "Gram matrix is singular: subspace is degenerate for this form")
    coeffs = np.linalg.solve(c, rhs)
    out = np.zeros_like(np.asarray(v_basis[0], dtype=float))
    for ci, vi in zip(coeffs, v_basis):
        out += ci * vi
    return out


@dataclass(frozen=True)
class MetricSignature:
    kind: str  # "riemannian" or "pseudo_riemannian"
    # (eigenvalue, eigenspace dimension) over the four transpose eigenspaces
    eigen_summary: tuple


def classify_metric_signature(split, params):
    """Sign pattern of the metric operator over the transpose eigenspaces.

    The metric form equals the Frobenius pairing against
    (beta0*(I - p_a) - beta1*p_a) composed with transposition, whose
    eigenvalues are beta0 on (a_perp)_sym, -beta0 on (a_perp)_skew,
    -beta1 on a_sym and beta1 on a_skew.  Riemannian iff every eigenvalue
    with a nonzero eigenspace is positive.
    """
    comps = derive_split_components(split)

    def dim_of(proj):
        return len(subspace_basis(split, proj))

    d_perp_sym = dim_of(lambda m: sym(comps.proj_a_perp(m)))
    d_perp_skew = dim_of(lambda m: asym(comps.proj_a_perp(m)))
    d_a_sym = dim_of(lambda m: sym(split.proj_a(m)))
    d_a_skew = dim_of(lambda m: asym(split.proj_a(m)))

    summary = (
        (params.beta0, d_perp_sym),
        (-params.beta0, d_perp_skew),
        (-params.beta1, d_a_sym),
        (params.beta1, d_a_skew),
    )
    riemannian = all(val > 0 for val, dim in summary if dim > 0)
    return MetricSignature(
        kind="riemannian" if riemannian else "pseudo_riemannian",
        eigen_summary=summary)


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
    a = plan.decomposition.a
    e_big, e_small, e_normal = (
        scipy.linalg.expm(t * m) for m in
        (plan.big_exp_arg, (1.0 - 2.0 * plan.alpha) * a, (1.0 - plan.alpha) * a))
    return yq @ (e_big @ w @ e_small) + (eta - yq @ w0) @ e_normal


def stiefel_geodesic_reference(y, xi, alpha, t):
    """(gamma(t), dgamma/dt) by the closed form evaluated directly:
    xi = Y A + Q R with R = Q^T xi, E = expm(t [[2 alpha A, -R^T], [R, 0]]),
    gamma = [Y|Q] E[:, :d] expm(t (1-2 alpha) A), and the product rule,
    E [[A, -R^T], [R, 0]] in place of E.  The reference for the plan's
    geodesic and geodesic velocity."""
    dec = decompose_tangent(y, xi)
    a, q, d, k = dec.a, dec.q, dec.d, dec.k
    r = q.T @ xi
    e_big = scipy.linalg.expm(t * np.block([[2.0 * alpha * a, -r.T],
                                            [r, np.zeros((k, k))]]))
    e_small = scipy.linalg.expm(t * (1.0 - 2.0 * alpha) * a)
    ar = np.block([[a, -r.T], [r, np.zeros((k, k))]])
    yq = hcat(y, q)
    return yq @ (e_big[:, :d] @ e_small), yq @ ((e_big @ ar)[:, :d] @ e_small)


def decompose_tangent_reference(y, xi):
    """xi = Y A + Q R by pivoted QR of xi - Y Y^T xi for every xi, then a
    projection against Y and a Householder QR: the reference for
    stiefel.decompose_tangent's rank decision and its transports."""
    xi = check_operand(xi, y.shape, "xi")
    check_tangent(y, xi)
    n, d = y.shape
    a = asym(y.T @ xi)
    perp = xi - y @ (y.T @ xi)
    if np.linalg.norm(perp) <= RANK_RTOL * max(1.0, np.linalg.norm(xi)):
        return TangentDecomposition(
            a=a, q=np.zeros((n, 0)), r=np.zeros((0, d)), k=0)
    q, rr, _ = scipy.linalg.qr(perp, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    k = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size and diag[0] > 0 else 0
    q = q[:, :k]
    if k > 0:
        q = q - y @ (y.T @ q)
        q, _ = np.linalg.qr(q)
    r = q.T @ xi
    return TangentDecomposition(a=a, q=q, r=r, k=k)


def grassmann_transport_reference(y, xi, eta, t):
    """Closed-form Grassmann transport along the geodesic driven by the
    horizontal xi (Y^T xi = 0), for a horizontal eta (leading batch axes
    allowed): the rotation acts on the compact SVD factors of xi, and the
    part of eta outside their span is carried along unchanged.  Directions
    of xi below RANK_RTOL times its largest singular value are dropped.
    The reference for flag_grassmann.grassmann_transport."""
    u, sv, vt = np.linalg.svd(xi, full_matrices=False)
    k = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    if k == 0:
        return np.array(eta, copy=True)
    q = u[:, :k]
    sig = sv[:k]
    v = vt[:k, :].T
    qe = q.T @ eta
    cos_t = np.cos(t * sig)
    sin_t = np.sin(t * sig)
    return (y @ v) @ (-sin_t[:, None] * qe) + q @ (cos_t[:, None] * qe) \
        + eta - q @ qe
