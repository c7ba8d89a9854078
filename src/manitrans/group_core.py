"""Metric, Christoffel function, geodesics and parallel transport for a
matrix group with a transposable algebra split.

All formulas are phrased in the group-relative velocity a = X^{-1} xi.  The
transport factor in the middle is an exponential action of the operator

    P_a : b -> (pi_m[b, a] + (1+beta)([a_a, b] - [b_a, a])) / 2

which is antisymmetric for the deformed metric form, so transported vectors
keep their metric norms.  pi_m is the identity on a group and the
horizontal projection on a quotient; `p_a_operator` builds P_a for both.

Its 1-norm bound is analytic and costs O(n^2).  With C_x(b) = [b, x],
P_a = (pi_m C_a - (1+beta) C_{a_a} - (1+beta) C_a pi_a) / 2.  C_x sends
E_ij to row j of x put in row i minus column i of x put in column j, so
||C_x||_1 <= c(x) = ||x||_1 + ||x||_inf and
||P_a||_1 <= (nu_m c(a) + |1+beta| (c(a_a) + nu_a c(a))) / 2, where nu is
the vectorized 1-norm of a projection (forms.projection_one_norm).
"""
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expaction
from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams, beta_form, projection_one_norm
from .utils import check_all_finite, coordinate_projection, lie

TANGENCY_RTOL = 1e-9
CONDITION_WARN = 1e12


@dataclass(frozen=True)
class GroupGeometry:
    """A group metric: an algebra split plus deformation parameters.

    `proj_a_norm`, which the transport bound needs, is cached per geometry.
    """
    split: AlgebraSplit
    params: MetricParams

    @cached_property
    def proj_a_norm(self):
        return projection_one_norm(self.split.n, self.split.proj_a)

    @property
    def beta(self):
        return self.params.beta


def to_algebra(geom, x, xi, validate=True):
    """Group-relative velocity a = X^{-1} xi, by linear solve; xi may stack
    vectors at x along a leading axis, which share one condition check.

    Raises if a result is not in the Lie algebra; warns on an
    ill-conditioned base point.  validate=False skips the membership check
    (the ODE oracle probes slightly off-manifold states).
    """
    cond = np.linalg.cond(x)
    if cond > CONDITION_WARN:
        warnings.warn(
            f"base point condition number {cond:.2e} exceeds {CONDITION_WARN:.0e}",
            RuntimeWarning)
    a = np.linalg.solve(x, xi)
    if validate:
        for v in a.reshape(-1, *a.shape[-2:]):
            res = np.linalg.norm(v - geom.split.proj_g(v))
            if not res <= TANGENCY_RTOL * max(1.0, np.linalg.norm(v)):
                raise ValidationError(
                    f"vector is not tangent: algebra residual {res:.3e}")
    return a


def metric(geom, x, xi, eta):
    """Left-invariant metric value <xi, eta> at x."""
    check_all_finite(x=x, xi=xi, eta=eta)
    a, b = to_algebra(geom, x, np.stack([xi, eta]))
    return beta_form(a, b, geom.split, geom.params)


def christoffel(geom, x, xi, eta, validate=True):
    """Christoffel function of the Levi-Civita connection at x."""
    a, b = to_algebra(geom, x, np.stack([xi, eta]), validate=validate)
    bet = geom.beta
    aa = geom.split.proj_a(a)
    ba = geom.split.proj_a(b)
    inner = -0.5 * (a @ b + b @ a) \
        + 0.5 * (1.0 + bet) * (lie(aa, b) + lie(ba, a))
    return x @ inner


def geodesic_factors(geom, a, t):
    """exp(t (a - (1+beta) a_a)) and exp(t (1+beta) a_a): the geodesic from
    X with velocity X a is X times their product."""
    aa = geom.split.proj_a(a)
    bet = geom.beta
    return (expaction.matrix_exponential(t * (a - (1.0 + bet) * aa)),
            expaction.matrix_exponential(t * (1.0 + bet) * aa))


def geodesic(geom, x, xi, t):
    """Geodesic through x with initial velocity xi, evaluated at time t."""
    check_all_finite(x=x, xi=xi, t=t)
    left, right = geodesic_factors(geom, to_algebra(geom, x, xi), t)
    return x @ left @ right


def geodesic_velocity(geom, x, xi, t):
    """The pair (gamma(t), dgamma/dt), by closed-form differentiation."""
    check_all_finite(x=x, xi=xi, t=t)
    a = to_algebra(geom, x, xi)
    left, right = geodesic_factors(geom, a, t)
    gamma = x @ left @ right
    # gamma^{-1} dgamma = right^{-1} a right, so dgamma = X left a right
    dgamma = x @ left @ a @ right
    return gamma, dgamma


def p_a_operator(a, beta, proj_a, proj_m=None, nu_a=None, nu_m=None):
    """P_a with its Frobenius adjoint and the analytic 1-norm bound.

    proj_m is the horizontal projection of a quotient (None on a group).
    nu_a and nu_m, the vectorized 1-norms of proj_a and proj_m, default to
    forms.projection_one_norm: free for coordinate projections, a basis
    scan otherwise.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    aa = proj_a(a)
    at, aat = a.T, aa.T
    c = 1.0 + beta
    proj_m = proj_m or coordinate_projection(lambda m: m)
    nu_a = projection_one_norm(n, proj_a) if nu_a is None else nu_a
    nu_m = projection_one_norm(n, proj_m) if nu_m is None else nu_m

    def apply(b):
        return 0.5 * (proj_m(lie(b, a)) + c * (lie(aa, b) - lie(proj_a(b), a)))

    def apply_adjoint(b):
        # adjoint of b -> proj_m([b, a]) is b -> [proj_m(b), a^T]
        return 0.5 * (lie(proj_m(b), at)
                      + c * (lie(aat, b) - proj_a(lie(b, at))))

    ca = _bracket_norm(a)
    bound = 0.5 * (nu_m * ca + abs(c) * (_bracket_norm(aa) + nu_a * ca))
    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=bound, domain_shape=(n, n))


def _bracket_norm(x):
    """c(x) = ||x||_1 + ||x||_inf, which bounds the 1-norm of b -> [b, x]."""
    return float(np.linalg.norm(x, 1) + np.linalg.norm(x, np.inf))


def transport_operator(geom, a):
    """P_a for the geometry's split, by p_a_operator.

    Its 1-norm bound ||P_a||_1 <= (c(a) + |1+beta| (c(a_a) + nu_a c(a))) / 2
    takes O(n^2) work and no operator applies; nu_a, the 1-norm of proj_a,
    is one for the coordinate splits and cached per geometry otherwise.
    """
    a = np.asarray(a, dtype=float)
    split = geom.split
    if not np.allclose(a, split.proj_g(a),
                       atol=TANGENCY_RTOL * max(1.0, np.linalg.norm(a))):
        raise ValidationError("operator coefficient is not in the Lie algebra")
    return p_a_operator(a, geom.beta, split.proj_a, nu_a=geom.proj_a_norm)


def transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the geodesic driven by xi."""
    check_all_finite(x=x, xi=xi, eta=eta, t=t)
    a, w0 = to_algebra(geom, x, np.stack([xi, eta]))
    left, right = geodesic_factors(geom, a, t)
    w = expaction.expa(transport_operator(geom, a), w0, t)
    return x @ left @ w @ right
