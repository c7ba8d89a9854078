"""Matrix exponential and exponential action exp(t*op) @ B.

The action is evaluated without forming the operator exponential, by one
of two series chosen from what the operator handle declares:

- Truncated Taylor with scaling (Al-Mohy & Higham 2011), for any
  operator: (T_m(op * t/s))^s applied to B, with the order m and scaling
  s picked from a lookup table of theta constants indexed by the
  operator 1-norm bound.
- Chebyshev-Bessel (Tal-Ezer & Kosloff 1984), for a handle that sets
  skew_two_norm_bound: on a subspace holding B and its images, the
  operator is antisymmetric for the inner product <u, v>_D =
  <D u, D v>_F of some fixed invertible D, and its norm there, the
  2-norm of D op D^{-1}, is at most rho.  Then exp(t*op) B =
  J_0(x) B + 2 sum_{k>=1} J_k(x) C_k with x = |t| rho, C_0 = B,
  C_1 = (sgn t/rho) op B and C_{k+1} = 2 (sgn t/rho) op C_k + C_{k-1}.
  Every ||C_k||_D <= ||B||_D, so the term count follows a priori from the
  Bessel tail: about |t| rho applies, no scaling steps and no per-term
  norms.  The recurrence is linear and never uses D, so the truncation
  error is at most the unit roundoff EPS times ||B||_D, in the D-norm; in
  the Frobenius norm that allows a further factor of at most cond_2(D).
  D is the identity for stiefel.p_bal_operator, which is balanced
  already; for group_core.p_a_operator it is the metric balancing of that
  module's docstring.
"""
from dataclasses import dataclass, field
from math import lgamma, log, log1p
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.special
from scipy.linalg.blas import daxpy

from .errors import CapacityError, DimensionError, NumericalError, ValidationError
from .utils import EPS, as_real, check_finite, check_square, check_time

# Constants theta_m for the truncated-Taylor backward-error criterion of
# Al-Mohy & Higham, "Computing the Action of the Matrix Exponential" (2011),
# at the unit roundoff EPS = 2^-53: m <= 30 from table A.3 of Higham &
# Al-Mohy, "Computing matrix functions" (2010), the rest from table 3.1 of
# the 2011 paper; copied verbatim (same values ship in scipy).
THETA_DOUBLE = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# expa falls back to a dense expm when the domain is tiny and the scaling
# count would be pathologically large for the Taylor loop.
DENSE_FALLBACK_ENTRIES = 64
DENSE_FALLBACK_SCALINGS = 256


@dataclass(frozen=True)
class TaylorParams:
    """Taylor order m_star and scaling count s for one expa evaluation."""
    m_star: int
    s: int

    def __post_init__(self):
        if self.m_star < 1 or self.s < 1:
            raise ValidationError(f"invalid Taylor parameters {self}")


@dataclass(frozen=True)
class LinearOperatorHandle:
    """Matrix-free linear operator on a matrix space.

    apply and apply_adjoint map arrays of shape (..., *domain_shape) to the
    same shape; leading axes are batched.  apply_adjoint is the adjoint in
    the Frobenius pairing.  one_norm_upper_bound bounds the operator 1-norm
    in the vectorized standard basis.

    skew_two_norm_bound, when set, declares that the operator is
    antisymmetric on a subspace that it maps into itself and that holds
    every operand expa gives it, for the inner product <u, v>_D =
    <D u, D v>_F of some fixed invertible D, and bounds the 2-norm of
    D op D^{-1} there; expa then sums the Chebyshev-Bessel series, whose
    tail bound holds in the norm ||u||_D = ||D u||_F (module docstring).
    """
    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]
    one_norm_upper_bound: float
    domain_shape: tuple = field(default=(0, 0))
    skew_two_norm_bound: Optional[float] = None

    def __post_init__(self):
        if self.one_norm_upper_bound < 0:
            raise ValidationError("one_norm_upper_bound must be nonnegative")
        if self.skew_two_norm_bound is not None \
                and not 0 <= self.skew_two_norm_bound < np.inf:
            raise ValidationError(
                "skew_two_norm_bound must be finite and nonnegative")


def matrix_exponential(m):
    """Dense matrix exponential of a square matrix."""
    m = check_square(m, "matrix_exponential input")
    check_finite(m, "matrix_exponential input")
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(m)


def select_taylor_params(one_norm, tolerance_class="double"):
    """Pick (m_star, s) for a truncated-Taylor evaluation of expa.

    m_star minimizes ceil(m * one_norm / theta_m) over the table (ties to
    the smallest m); s = max(1, ceil(one_norm / theta_{m_star})).
    """
    if tolerance_class != "double":
        raise ValidationError(f"unknown tolerance class {tolerance_class!r}")
    if not np.isfinite(one_norm) or one_norm < 0:
        raise ValidationError(f"one_norm must be finite nonnegative, got {one_norm}")
    best_m, best_cost = None, None
    for m, theta in sorted(THETA_DOUBLE.items()):
        cost = int(np.ceil(m * one_norm / theta))
        if best_cost is None or cost < best_cost:
            best_m, best_cost = m, cost
    s = max(1, int(np.ceil(one_norm / THETA_DOUBLE[best_m])))
    return TaylorParams(m_star=best_m, s=s)


def chebyshev_terms(x):
    """Least K > x/2 with 2 sum_{k>K} |J_k(x)| bounded by the unit
    roundoff EPS: the Chebyshev term count of expa at x = |t| rho.

    Uses |J_k(x)| <= (x/2)^k / k! for x >= 0; past k = x/2 these terms fall
    at least geometrically, which bounds the tail by its first term.
    """
    half = 0.5 * x
    if half == 0.0:
        return 1
    log_half, log_tol = log(half), log(0.5 * EPS)
    k = int(half) + 1
    log_term = k * log_half - lgamma(k + 1)  # log of (x/2)^k / k!
    while True:
        log_term += log_half - log(k + 1)    # now the term of order k+1
        if log_term - log1p(-half / (k + 2)) <= log_tol:
            return k
        k += 1


def _chebyshev_expa(op, b, t):
    rho = op.skew_two_norm_bound
    x = abs(t) * rho
    if x == 0.0 or b.size == 0:
        return b.copy()
    n_terms = chebyshev_terms(x)
    coef = 2.0 * scipy.special.jv(np.arange(n_terms + 1), x)
    step = np.copysign(1.0 / rho, t)
    prev, cur = b.flatten(), step * op.apply(b).ravel()
    f = daxpy(cur, (0.5 * coef[0]) * b.ravel(), a=coef[1])
    for c in coef[2:]:
        prev = daxpy(op.apply(cur.reshape(b.shape)).ravel(), prev, a=2.0 * step)
        prev, cur = cur, prev
        f = daxpy(cur, f, a=c)
    if not np.isfinite(f).all():
        raise NumericalError(
            f"expa overflowed with {n_terms} Chebyshev terms, rho={rho}")
    return f.reshape(b.shape)


def expa(op, b, t=1.0, tolerance_class="double", params=None):
    """Exponential action exp(t*op) applied to b.

    b may carry leading batch axes; its trailing shape must match
    op.domain_shape.  Without explicit params, a handle that sets
    skew_two_norm_bound gets the Chebyshev-Bessel series: per term one
    op.apply, one in-place axpy (y += a x) turning C_{k-1} into C_{k+1}
    and one adding the weighted term to the sum.  Otherwise the
    Taylor sum inside each of the s scaling steps stops early once two
    consecutive term norms fall below EPS times the accumulated-result
    norm.  tolerance_class must be "double", the one precision; the
    parameter stays because perfbench/tracer.py passes it by position.
    """
    if tolerance_class != "double":
        raise ValidationError(f"unknown tolerance class {tolerance_class!r}")
    b = as_real(b, "b")
    if b.shape[-2:] != tuple(op.domain_shape):
        raise DimensionError(
            f"operand shape {b.shape} does not match operator domain "
            f"{op.domain_shape}")
    t = check_time(t)
    if params is None:
        if op.skew_two_norm_bound is not None:
            return _chebyshev_expa(op, b, t)
        params = select_taylor_params(abs(t) * op.one_norm_upper_bound)
    m_star, s = params.m_star, params.s

    entries = int(np.prod(op.domain_shape))
    if entries <= DENSE_FALLBACK_ENTRIES and s > DENSE_FALLBACK_SCALINGS:
        dense = dense_operator_matrix(op)
        etp = scipy.linalg.expm(t * dense)
        flat = b.reshape(*b.shape[:-2], entries)
        return (flat @ etp.T).reshape(b.shape)

    f = b.copy()
    v = b
    for _ in range(s):
        c1 = np.linalg.norm(v)
        for j in range(1, m_star + 1):
            v = (t / (s * j)) * op.apply(v)
            c2 = np.linalg.norm(v)
            f = f + v
            nf = np.linalg.norm(f)
            if c1 <= EPS * nf and c2 <= EPS * nf:
                break
            c1 = c2
        if not np.all(np.isfinite(f)):
            raise NumericalError(
                f"expa overflowed with m_star={m_star}, s={s}")
        v = f
    return f


def one_norm_estimate_exhaustive(op, cap=400):
    """Exact operator 1-norm over the vectorized standard basis: the
    largest column sum of dense_operator_matrix(op), so only for small
    domains (at most `cap` entries).
    """
    rows, cols = op.domain_shape
    if rows * cols > cap:
        raise CapacityError(
            f"domain has {rows * cols} entries, above the exhaustive cap "
            f"{cap}; use an analytic bound instead")
    return float(np.max(np.sum(np.abs(dense_operator_matrix(op)), axis=0),
                        initial=0.0))


def dense_operator_matrix(op, adjoint=False):
    """Matrix of the vectorized operator (row-major vec convention)."""
    rows, cols = op.domain_shape
    n = rows * cols
    out = np.zeros((n, n))
    fun = op.apply_adjoint if adjoint else op.apply
    e = np.zeros((rows, cols))
    for idx in range(n):
        e.flat[idx] = 1.0
        out[:, idx] = fun(e).reshape(-1)
        e.flat[idx] = 0.0
    return out
