"""The generalized linear group GL+(n), with the skew subalgebra, and the
special orthogonal group SO(n), with the top-block skew subalgebra.

GLGeometry and SOGeometry are GroupGeometrys, built once, and their
geodesics and transports are group_core's, bound here under their own
names; P_a is group_core.p_a_operator.  What differs is read from the
geometry.  SOGeometry.checked_algebra refuses a base point that is not
orthogonal with determinant one and inverts it by transposing;
GLGeometry converts by group_core's LU with its condition estimate.
so_split declares its so_block, so the right geodesic factor is a d x d
exponential on the first d columns (group_core.geodesic_factors).
"""
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams
from .group_core import (ORTHOGONALITY_TOL, TANGENCY_RTOL, GroupGeometry,
                         geodesic, geodesic_velocity, p_a_operator, transport)
from .utils import (asym, check_finite, check_operand, check_size,
                    coordinate_projection, orthonormality_residual)


def gl_split(n):
    """gl(n) with the antisymmetric matrices as the subalgebra."""
    return AlgebraSplit(n=n, proj_g=coordinate_projection(lambda m: m), proj_a=asym)


def so_split(n, d):
    """so(n) with the top d x d antisymmetric block as the subalgebra."""
    check_size(d, "d")  # n is checked by AlgebraSplit
    if not d < n:
        raise ValidationError(f"need 1 <= d < n, got d={d}, n={n}")

    @coordinate_projection
    def proj_a(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        out[..., :d, :d] = asym(m[..., :d, :d])
        return out

    split = AlgebraSplit(n=n, proj_g=asym, proj_a=proj_a)
    object.__setattr__(split, "so_block", d)
    return split


@dataclass(frozen=True, init=False)
class GLGeometry(GroupGeometry):
    """GL+(n) with the deformed trace metric, beta0 = 1, beta1 = beta."""

    def __init__(self, n, beta):
        check_finite(beta, "beta")
        if beta == 0:
            raise ValidationError("beta must be nonzero")
        super().__init__(gl_split(n), MetricParams(beta0=1.0, beta1=beta))


@dataclass(frozen=True, init=False)
class SOGeometry(GroupGeometry):
    """SO(n) with the alpha-deformed bi-invariant metric,
    beta0 = -1/2, beta1 = alpha (so beta = -2*alpha)."""
    d: int

    def __init__(self, n, d, alpha):
        check_finite(alpha, "alpha")
        if alpha <= 0:
            raise ValidationError("alpha must be positive")
        super().__init__(so_split(n, d), MetricParams(beta0=-0.5, beta1=alpha))
        object.__setattr__(self, "d", d)

    @property
    def alpha(self):
        return self.params.beta1

    def checked_algebra(self, x, **named):
        """x, checked orthogonal with determinant one, then X^T v for each
        named vector v, each refused by name unless antisymmetric."""
        x = check_operand(x, (self.n, self.n), "x")
        res = orthonormality_residual(x)
        if not res <= ORTHOGONALITY_TOL:
            raise ValidationError(f"x is not orthogonal: residual {res:.3e}")
        if np.linalg.slogdet(x)[0] <= 0:
            raise ValidationError("x has nonpositive determinant")
        out = [x]
        for name, v in named.items():
            a = x.T @ check_operand(v, x.shape, name)
            if not np.linalg.norm(a + a.T) <= TANGENCY_RTOL * max(
                    1.0, np.linalg.norm(a)):
                raise ValidationError(f"{name} is not tangent to SO(n)")
            out.append(a)
        return out


def gl_metric(geom, g, h):
    """<g, h> = Tr(g_sym h_sym) + beta * Tr(g_skew^T h_skew) on gl(n)."""
    gs, hs = asym(g), asym(h)
    return float(np.sum(g * h.T) + (1.0 + geom.beta) * np.sum(gs * hs))


def so_metric(geom, a, b):
    """<a, b> = Tr(a^T b)/2 + (alpha - 1/2) Tr(A_a^T A_b) on so(n)."""
    d = geom.d
    return float(0.5 * np.sum(a * b)
                 + (geom.alpha - 0.5) * np.sum(a[:d, :d] * b[:d, :d]))


gl_geodesic = so_geodesic = geodesic
so_geodesic_velocity = geodesic_velocity
gl_transport = so_transport = transport
gl_transport_operator = so_transport_operator = p_a_operator
