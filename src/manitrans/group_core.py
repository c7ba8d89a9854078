"""Metric, Christoffel function, geodesics and parallel transport for a
matrix group with a transposable algebra split.

All formulas are phrased in the group-relative velocity a = X^{-1} xi.  The
transport factor in the middle is an exponential action of the operator

    P_a : b -> (pi_m[b, a] + (1+beta)([a_a, b] - [b_a, a])) / 2

which is antisymmetric for the deformed metric form, so transported vectors
keep their metric norms.  pi_m is the identity on a group and the
horizontal projection on a quotient; `p_a_operator(geom, a, quotient=None)`
builds P_a for both, reading beta, proj_a, the projection norms and
definiteness from the geometry (and pi_m from the quotient).  GLGeometry
and SOGeometry (gl_so.py) are GroupGeometrys, so every function here
takes them too.  On a group, [b, a] + c [a_a, b] = [b, a - c a_a] with
c = 1+beta, so P_a applies as ([b, a - c a_a] - c [b_a, a]) / 2: four
products, not six.  Operands b may carry leading batch axes.

Its 1-norm bound is analytic and costs O(n^2).  With C_x(b) = [b, x],
P_a = (pi_m C_a - c C_{a_a} - c C_a pi_a) / 2.  C_x sends E_ij to row j
of x put in row i minus column i of x put in column j, so
||C_x||_1 <= kappa(x) = ||x||_1 + ||x||_inf and ||P_a||_1 <=
(nu_m kappa(a) + |c| (kappa(a_a) + nu_a kappa(a))) / 2, where nu is the
vectorized 1-norm of a projection (forms.projection_one_norm).

Where the metric form is definite, which GroupGeometry.definite alone
decides, P_a also carries a 2-norm bound and expa sums the Chebyshev
series.  The form is then |beta1| <g_a, h_a>_F + |beta0| <g_p, h_p>_F up to
sign, with p the complement of a, and P_a is antisymmetric for it: D P_a
D^{-1} is Frobenius-antisymmetric for D = sqrt|beta1| on a and sqrt|beta0|
on p.  Split b and a into their a and p parts.  Then 2 P_a b has a-part
(1-2c)[b_a, a_a] + [b_p, a_p]_a and p-part -beta([b_a, a_p] + [b_p, a_a]) +
[b_p, a_p]_p, and ||[x, y]||_F <= 2 ||x||_F ||y||_2.  So with A >=
||a_a||_2, B >= ||a_p||_2 and r = sqrt|beta|, the D-balanced 2-norm of P_a
is at most the top eigenvalue of [[|1-2c| A, r B], [r B, |beta| A + B]]
(_p_a_two_norm_bound).  It holds on a quotient that meets the simplified
condition (quotient.py) too.  There pi_m leaves [b_a, a_p] + [b_p, a_a]
alone: it lies in [a, p], which misses the vertical algebra.  Unless c = 0,
the vertical algebra misses a, so pi_m only shrinks the a-part and p-part
of [b_p, a_p].  At c = 0 the form is a multiple of the Frobenius one, and
||P_a||_2 <= ||a||_2 <= A + B, below that eigenvalue.  expa's recurrence
runs on the unbalanced P_a; only the bound uses D (expaction's docstring
gives the norm of its tail bound).
"""
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expaction
from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams, beta_form, projection_one_norm
from .utils import (check_square_operands, check_time, lie,
                    two_block_norm_bound, two_norm_bound)

TANGENCY_RTOL = 1e-9
CONDITION_WARN = 1e12
SYMMETRY_RTOL = 1e-10
PROBE_SEED = 0  # random probes of the split and quotient-structure checks


@dataclass(frozen=True)
class GroupGeometry:
    """A group metric: an algebra split plus deformation parameters.

    `proj_a_norm` and `definite`, which the transport bounds need, are
    cached per geometry.
    """
    split: AlgebraSplit
    params: MetricParams

    @property
    def n(self):
        return self.split.n

    @cached_property
    def proj_a_norm(self):
        return projection_one_norm(self.n, self.split.proj_a)

    @cached_property
    def definite(self):
        """Whether the metric form is definite, in O(n^2) work.

        The form is beta0 Tr(g_p h_p) - beta1 Tr(g_a h_a), with p the
        complement of a, and Tr(g h) is <g, h>_F on symmetric matrices and
        -<g, h>_F on antisymmetric ones.  So the form is definite when a
        and p each hold one kind only and the two weights share a sign.  A
        transposable subspace is the sum of its symmetric and antisymmetric
        parts, so (almost surely) the projections of one random probe
        show which kinds each holds.
        """
        split = self.split
        probe = split.proj_g(np.random.default_rng(PROBE_SEED).standard_normal(
            (split.n, split.n)))
        part_a = split.proj_a(probe)
        kinds = _symmetry(part_a), _symmetry(probe - part_a)
        if None in kinds:
            return False
        # the form is w_a ||g_a||_F^2 + w_p ||g_p||_F^2; an empty part has 0
        w_a, w_p = -self.params.beta1 * kinds[0], self.params.beta0 * kinds[1]
        return w_a * w_p >= 0 and w_a + w_p != 0

    @property
    def beta(self):
        return self.params.beta


def _symmetry(m):
    """1 if m is symmetric, -1 if antisymmetric, 0 if zero, else None."""
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return 0
    if np.linalg.norm(m - m.T) <= SYMMETRY_RTOL * scale:
        return 1
    return -1 if np.linalg.norm(m + m.T) <= SYMMETRY_RTOL * scale else None


def solve_at(x, v):
    """X^{-1} v by one LU solve; a singular x raises ValidationError."""
    try:
        return np.linalg.solve(x, v)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"x is singular: {exc}") from exc


def _check_in_algebra(split, v, message):
    """Raise message, formatted with the residual res, unless v is in the
    Lie algebra to TANGENCY_RTOL relative to max(1, ||v||_F)."""
    res = np.linalg.norm(v - split.proj_g(v))
    if not res <= TANGENCY_RTOL * max(1.0, np.linalg.norm(v)):
        raise ValidationError(message.format(res=res))


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
    a = solve_at(x, xi)
    if validate:
        for v in a.reshape(-1, *a.shape[-2:]):
            _check_in_algebra(geom.split, v,
                              "vector is not tangent: algebra residual {res:.3e}")
    return a


def metric(geom, x, xi, eta):
    """Left-invariant metric value <xi, eta> at x."""
    x, xi, eta = check_square_operands(geom.n, x=x, xi=xi, eta=eta)
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
    t = check_time(t)
    x, xi = check_square_operands(geom.n, x=x, xi=xi)
    left, right = geodesic_factors(geom, to_algebra(geom, x, xi), t)
    return x @ left @ right


def geodesic_velocity(geom, x, xi, t):
    """The pair (gamma(t), dgamma/dt), by closed-form differentiation."""
    t = check_time(t)
    x, xi = check_square_operands(geom.n, x=x, xi=xi)
    a = to_algebra(geom, x, xi)
    left, right = geodesic_factors(geom, a, t)
    gamma = x @ left @ right
    # gamma^{-1} dgamma = right^{-1} a right, so dgamma = X left a right
    dgamma = x @ left @ a @ right
    return gamma, dgamma


def p_a_operator(geom, a, quotient=None):
    """P_a for geom with its Frobenius adjoint, the analytic 1-norm bound
    and, when geom.definite, the 2-norm bound of its balanced form (then
    expa sums the Chebyshev series).

    On a quotient (a quotient.QuotientGeometry over geom), pi_m is its
    horizontal projection proj_m.  The vectorized 1-norms of proj_a and
    proj_m are cached on the geometries.
    """
    a = np.asarray(a, dtype=float)
    proj_a = geom.split.proj_a
    aa = proj_a(a)
    at = a.T
    c = 1.0 + geom.beta
    if quotient is None:
        nu_m = 1.0
        e = a - c * aa
        et = e.T

        def apply(b):
            return 0.5 * (lie(b, e) - c * lie(proj_a(b), a))

        def apply_adjoint(b):
            return 0.5 * (lie(b, et) - c * proj_a(lie(b, at)))
    else:
        proj_m, nu_m = quotient.proj_m, quotient.proj_m_norm
        aat = aa.T

        def apply(b):
            return 0.5 * (proj_m(lie(b, a))
                          + c * (lie(aa, b) - lie(proj_a(b), a)))

        def apply_adjoint(b):
            # adjoint of b -> proj_m([b, a]) is b -> [proj_m(b), a^T]
            return 0.5 * (lie(proj_m(b), at)
                          + c * (lie(aat, b) - proj_a(lie(b, at))))

    ca = _bracket_norm(a)
    bound = 0.5 * (nu_m * ca
                   + abs(c) * (_bracket_norm(aa) + geom.proj_a_norm * ca))
    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=bound, domain_shape=a.shape,
        skew_two_norm_bound=_p_a_two_norm_bound(aa, a - aa, geom.beta)
        if geom.definite else None)


def _p_a_two_norm_bound(aa, ap, beta):
    """rho >= the D-balanced 2-norm of P_a (module docstring), in O(n^3)."""
    big_a, big_b = two_norm_bound(aa), two_norm_bound(ap)
    mag = abs(beta)
    return two_block_norm_bound(abs(1.0 + 2.0 * beta) * big_a,
                                np.sqrt(mag) * big_b, mag * big_a + big_b)


def _bracket_norm(x):
    """kappa(x) = ||x||_1 + ||x||_inf, which bounds the 1-norm of
    b -> [b, x]."""
    return float(np.linalg.norm(x, 1) + np.linalg.norm(x, np.inf))


def transport_operator(geom, a):
    """P_a for the geometry's split, by p_a_operator.

    Its 1-norm bound
    ||P_a||_1 <= (kappa(a) + |1+beta| (kappa(a_a) + nu_a kappa(a))) / 2
    takes O(n^2) work and no operator applies; nu_a, the 1-norm of proj_a,
    is one for the coordinate splits and cached per geometry otherwise.
    Its 2-norm bound, set when geom.definite, takes O(n^3).
    """
    a = np.asarray(a, dtype=float)
    _check_in_algebra(geom.split, a,
                      "operator coefficient is not in the Lie algebra")
    return p_a_operator(geom, a)


def transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the geodesic driven by xi."""
    t = check_time(t)
    x, xi, eta = check_square_operands(geom.n, x=x, xi=xi, eta=eta)
    a, w0 = to_algebra(geom, x, np.stack([xi, eta]))
    left, right = geodesic_factors(geom, a, t)
    w = expaction.expa(transport_operator(geom, a), w0, t)
    return x @ left @ w @ right
