"""Fast paths for the generalized linear group (skew subalgebra) and the
special orthogonal group (top-block skew subalgebra).

GLGeometry and SOGeometry are GroupGeometrys, built once, so every
group_core function takes them as they are.  The explicit formulas here
skip group_core.to_algebra's condition estimate on GL+(n), and on SO(n)
use the transpose as the inverse and a d x d exponential.  P_a comes from
group_core.p_a_operator, shared with the generic and quotient paths, which
reads the metric's definiteness from GroupGeometry.definite.  They are
cross-checked against the generic path in the tests.
"""
from dataclasses import dataclass

import numpy as np

from . import expaction
from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams
from .group_core import (TANGENCY_RTOL, GroupGeometry, geodesic_factors,
                         p_a_operator, solve_at)
from .utils import (asym, check_finite, check_operand, check_square_operands,
                    coordinate_projection, hcat)

ORTHOGONALITY_TOL = 1e-10


def gl_split(n):
    """gl(n) with the antisymmetric matrices as the subalgebra."""
    return AlgebraSplit(n=n, proj_g=coordinate_projection(lambda m: m), proj_a=asym)


def so_split(n, d):
    """so(n) with the top d x d antisymmetric block as the subalgebra.

    proj_k projects onto the bottom (n-d) x (n-d) block, the vertical
    algebra of the Stiefel quotient.
    """
    @coordinate_projection
    def proj_a(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        out[..., :d, :d] = asym(m[..., :d, :d])
        return out

    @coordinate_projection
    def proj_k(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        out[..., d:, d:] = asym(m[..., d:, d:])
        return out

    return AlgebraSplit(n=n, proj_g=asym, proj_a=proj_a, proj_k=proj_k)


@dataclass(frozen=True, init=False)
class GLGeometry(GroupGeometry):
    """GL+(n) with the deformed trace metric, beta0 = 1, beta1 = beta."""

    def __init__(self, n, beta):
        if beta == 0:
            raise ValidationError("beta must be nonzero")
        super().__init__(gl_split(n), MetricParams(beta0=1.0, beta1=beta))


@dataclass(frozen=True, init=False)
class SOGeometry(GroupGeometry):
    """SO(n) with the alpha-deformed bi-invariant metric,
    beta0 = -1/2, beta1 = alpha (so beta = -2*alpha)."""
    d: int

    def __init__(self, n, d, alpha):
        if not 1 <= d < n:
            raise ValidationError(f"need 1 <= d < n, got d={d}, n={n}")
        if alpha <= 0:
            raise ValidationError("alpha must be positive")
        super().__init__(so_split(n, d), MetricParams(beta0=-0.5, beta1=alpha))
        object.__setattr__(self, "d", d)

    @property
    def alpha(self):
        return self.params.beta1


def gl_metric(geom, g, h):
    """<g, h> = Tr(g_sym h_sym) + beta * Tr(g_skew^T h_skew) on gl(n)."""
    gs, hs = asym(g), asym(h)
    return float(np.sum(g * h.T) + (1.0 + geom.beta) * np.sum(gs * hs))


def gl_geodesic(geom, x, xi, t):
    """Geodesic on GL+(n): two exponential factors in a = X^{-1} xi."""
    check_finite(t, "t")
    x, xi = check_square_operands(geom.n, x=x, xi=xi)
    left, right = geodesic_factors(geom, solve_at(x, xi), t)
    return x @ left @ right


def gl_transport_operator(geom, a):
    """P_a on gl(n): b -> ([b,a] + (1+beta)*([a_skew,b] - [b_skew,a]))/2."""
    return p_a_operator(geom, a)


def gl_transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the GL+(n) geodesic driven by xi."""
    check_finite(t, "t")
    x, xi, eta = check_square_operands(geom.n, x=x, xi=xi, eta=eta)
    a = solve_at(x, xi)
    left, right = geodesic_factors(geom, a, t)
    w = expaction.expa(gl_transport_operator(geom, a), solve_at(x, eta), t)
    return x @ left @ w @ right


def _check_so_point(geom, x):
    x = check_operand(x, (geom.n, geom.n), "x")
    if not np.linalg.norm(x.T @ x - np.eye(x.shape[0])) <= ORTHOGONALITY_TOL:
        raise ValidationError("base point is not orthogonal")
    sign, _ = np.linalg.slogdet(x)
    if sign <= 0:
        raise ValidationError("base point has nonpositive determinant")
    return x


def _so_algebra(x, v, name):
    """X^T v, checked to be antisymmetric: v tangent at X."""
    a = x.T @ check_operand(v, x.shape, name)
    scale = max(1.0, np.linalg.norm(a))
    if not np.linalg.norm(a + a.T) <= TANGENCY_RTOL * scale:
        raise ValidationError(f"{name} is not tangent to SO(n)")
    return a


def so_metric(geom, a, b):
    """<a, b> = Tr(a^T b)/2 + (alpha - 1/2) Tr(A_a^T A_b) on so(n)."""
    d = geom.d
    return float(0.5 * np.sum(a * b)
                 + (geom.alpha - 0.5) * np.sum(a[:d, :d] * b[:d, :d]))


def _so_setup(geom, x, xi, t):
    """The checks and exponentials shared by the SO(n) geodesic paths:
    the checked x, a = X^T xi, X exp(t a_alpha) with a_alpha = a but
    2 alpha a_a on the top block, and the map that right-multiplies the
    first d columns of its argument by exp(t (1 - 2 alpha) a_a)."""
    check_finite(t, "t")
    x = _check_so_point(geom, x)
    a = _so_algebra(x, xi, "xi")
    d, alp = geom.d, geom.alpha
    a_alp = a.copy()
    a_alp[:d, :d] = 2.0 * alp * a[:d, :d]
    big = expaction.matrix_exponential(t * a_alp)
    small = expaction.matrix_exponential(t * (1.0 - 2.0 * alp) * a[:d, :d])
    return x, a, x @ big, lambda m: hcat(m[:, :d] @ small, m[:, d:])


def so_geodesic(geom, x, xi, t):
    """Geodesic on SO(n); stays orthogonal with determinant one."""
    _, _, gam, finish = _so_setup(geom, x, xi, t)
    return finish(gam)


def so_geodesic_velocity(geom, x, xi, t):
    """(gamma(t), dgamma/dt) by product-rule differentiation."""
    _, a, gam, finish = _so_setup(geom, x, xi, t)
    return finish(gam), finish(gam @ a)


def so_transport_operator(geom, a):
    """P_a for the SO(n) split at beta = -2*alpha."""
    return p_a_operator(geom, a)


def so_transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the SO(n) geodesic driven by xi;
    eta must be tangent at x, like xi."""
    x, a, gam, finish = _so_setup(geom, x, xi, t)
    b = _so_algebra(x, eta, "eta")
    w = expaction.expa(so_transport_operator(geom, a), b, t)
    return finish(gam @ w)
