"""Fast paths for the generalized linear group (skew subalgebra) and the
special orthogonal group (top-block skew subalgebra).

Both are specializations of the group machinery; the explicit formulas
here use the transpose as the inverse on SO(n), and P_a comes from the
shared builder group_core.p_a_operator.  They are cross-checked against the
generic path in the tests.
"""
from dataclasses import dataclass

import numpy as np

from . import expaction
from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams
from .group_core import p_a_operator
from .utils import (asym, check_all_finite, check_finite,
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
        out[:d, :d] = asym(m[:d, :d])
        return out

    @coordinate_projection
    def proj_k(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        out[d:, d:] = asym(m[d:, d:])
        return out

    return AlgebraSplit(n=n, proj_g=asym, proj_a=proj_a, proj_k=proj_k)


@dataclass(frozen=True)
class GLGeometry:
    """GL+(n) with the deformed trace metric, beta0 = 1, beta1 = beta."""
    n: int
    beta: float

    def __post_init__(self):
        if self.beta == 0:
            raise ValidationError("beta must be nonzero")

    @property
    def params(self):
        return MetricParams(beta0=1.0, beta1=self.beta)

    @property
    def split(self):
        return gl_split(self.n)


@dataclass(frozen=True)
class SOGeometry:
    """SO(n) with the alpha-deformed bi-invariant metric,
    beta0 = -1/2, beta1 = alpha (so beta = -2*alpha)."""
    n: int
    d: int
    alpha: float

    def __post_init__(self):
        if not 1 <= self.d < self.n:
            raise ValidationError(f"need 1 <= d < n, got d={self.d}, n={self.n}")
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")

    @property
    def params(self):
        return MetricParams(beta0=-0.5, beta1=self.alpha)

    @property
    def split(self):
        return so_split(self.n, self.d)


def gl_metric(geom, g, h):
    """<g, h> = Tr(g_sym h_sym) + beta * Tr(g_skew^T h_skew) on gl(n)."""
    gs, hs = asym(g), asym(h)
    return float(np.sum(g * h.T) + (1.0 + geom.beta) * np.sum(gs * hs))


def _gl_factors(geom, a, t):
    bet = geom.beta
    left = expaction.matrix_exponential(
        0.5 * t * ((1.0 - bet) * a + (1.0 + bet) * a.T))
    return left, expaction.matrix_exponential(t * (1.0 + bet) * asym(a))


def gl_geodesic(geom, x, xi, t):
    """Geodesic on GL+(n): two exponential factors in a = X^{-1} xi."""
    check_all_finite(x=x, xi=xi)
    left, right = _gl_factors(geom, np.linalg.solve(x, xi), t)
    return x @ left @ right


def gl_transport_operator(geom, a):
    """P_a on gl(n): b -> ([b,a] + (1+beta)*([a_skew,b] - [b_skew,a]))/2."""
    return p_a_operator(a, geom.beta, geom.split.proj_a)


def gl_transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the GL+(n) geodesic driven by xi."""
    check_all_finite(x=x, xi=xi, eta=eta)
    a = np.linalg.solve(x, xi)
    left, right = _gl_factors(geom, a, t)
    w = expaction.expa(gl_transport_operator(geom, a), np.linalg.solve(x, eta), t)
    return x @ left @ w @ right


def _check_so_point(x):
    x = check_finite(np.asarray(x, dtype=float), "x")
    if not np.linalg.norm(x.T @ x - np.eye(x.shape[0])) <= ORTHOGONALITY_TOL:
        raise ValidationError("base point is not orthogonal")
    sign, _ = np.linalg.slogdet(x)
    if sign <= 0:
        raise ValidationError("base point has nonpositive determinant")
    return x


def _so_velocity(geom, x, xi):
    a = x.T @ check_finite(xi, "xi")
    if not np.linalg.norm(a + a.T) <= 1e-9 * max(1.0, np.linalg.norm(a)):
        raise ValidationError("vector is not tangent to SO(n)")
    return a


def so_metric(geom, a, b):
    """<a, b> = Tr(a^T b)/2 + (alpha - 1/2) Tr(A_a^T A_b) on so(n)."""
    d = geom.d
    return float(0.5 * np.sum(a * b)
                 + (geom.alpha - 0.5) * np.sum(a[:d, :d] * b[:d, :d]))


def _so_factors(geom, a, t):
    d, alp = geom.d, geom.alpha
    a_alp = a.copy()
    a_alp[:d, :d] = 2.0 * alp * a[:d, :d]
    big = expaction.matrix_exponential(t * a_alp)
    small = expaction.matrix_exponential(t * (1.0 - 2.0 * alp) * a[:d, :d])
    return big, small


def so_geodesic(geom, x, xi, t):
    """Geodesic on SO(n); stays orthogonal with determinant one."""
    x = _check_so_point(x)
    a = _so_velocity(geom, x, xi)
    big, small = _so_factors(geom, a, t)
    out = x @ big
    return hcat(out[:, :geom.d] @ small, out[:, geom.d:])


def so_geodesic_velocity(geom, x, xi, t):
    """(gamma(t), dgamma/dt) by product-rule differentiation."""
    x = _check_so_point(x)
    a = _so_velocity(geom, x, xi)
    big, small = _so_factors(geom, a, t)
    gam = x @ big
    dgam = gam @ a
    return (hcat(gam[:, :geom.d] @ small, gam[:, geom.d:]),
            hcat(dgam[:, :geom.d] @ small, dgam[:, geom.d:]))


def so_transport_operator(geom, a):
    """P_a for the SO(n) split at beta = -2*alpha."""
    return p_a_operator(a, -2.0 * geom.alpha, geom.split.proj_a)


def so_transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the SO(n) geodesic driven by xi."""
    check_all_finite(x=x, xi=xi, eta=eta)
    x = _check_so_point(x)
    a = _so_velocity(geom, x, xi)
    b = x.T @ eta
    big, small = _so_factors(geom, a, t)
    w = expaction.expa(so_transport_operator(geom, a), b, t)
    out = x @ big @ w
    return hcat(out[:, :geom.d] @ small, out[:, geom.d:])
