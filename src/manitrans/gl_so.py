"""The generalized linear group GL+(n), with the skew subalgebra, and the
special orthogonal group SO(n), with the top-block skew subalgebra.

GLGeometry and SOGeometry are GroupGeometrys, built once; their geodesics,
transports and P_a are group_core's, bound here under their own names.
group_core.check_point converts a GL point by one LU, and an SO point,
refused unless in SO(n) (special_orthogonal), by transposing.
gl_metric and so_metric are forms.beta_form on the geometry's split.
"""
from dataclasses import dataclass

from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams, beta_form
from .group_core import (GroupGeometry, geodesic, geodesic_velocity,
                         transport, transport_operator)
from .utils import (asym, block_diagonal_asym, check_scalar, check_size,
                    check_square_operands, identity)


def gl_split(n):
    """gl(n) with the antisymmetric matrices as the subalgebra."""
    return AlgebraSplit(n=n, proj_g=identity, proj_a=asym)


def so_split(n, d):
    """so(n) with the top d x d antisymmetric block as the subalgebra."""
    check_size(n, "n")
    check_size(d, "d")
    if not d < n:
        raise ValidationError(f"need 1 <= d < n, got d={d}, n={n}")

    split = AlgebraSplit(n=n, proj_g=asym, proj_a=block_diagonal_asym((0, d)))
    object.__setattr__(split, "so_block", d)
    return split


@dataclass(frozen=True, init=False)
class GLGeometry(GroupGeometry):
    """GL+(n) with the deformed trace metric, beta0 = 1, beta1 = beta."""

    def __init__(self, n, beta):
        beta = check_scalar(beta, "beta")
        if beta == 0:
            raise ValidationError("beta must be nonzero")
        super().__init__(gl_split(n), MetricParams(beta0=1.0, beta1=beta))


@dataclass(frozen=True, init=False)
class SOGeometry(GroupGeometry):
    """SO(n) with the alpha-deformed bi-invariant metric,
    beta0 = -1/2, beta1 = alpha (so beta = -2*alpha)."""
    d: int
    special_orthogonal = True

    def __init__(self, n, d, alpha):
        alpha = check_scalar(alpha, "alpha")
        if alpha <= 0:
            raise ValidationError("alpha must be positive")
        super().__init__(so_split(n, d), MetricParams(beta0=-0.5, beta1=alpha))
        object.__setattr__(self, "d", d)

    @property
    def alpha(self):
        return self.params.beta1


def gl_metric(geom, g, h):
    """<g, h> = Tr(g_sym h_sym) + beta * Tr(g_skew^T h_skew) on gl(n)."""
    return beta_form(g, h, geom.split, geom.params)


def so_metric(geom, a, b):
    """<a, b> = Tr(a^T b)/2 + (alpha - 1/2) Tr(A_a^T A_b) on so(n); a and
    b must be antisymmetric."""
    return beta_form(*check_square_operands(geom.n, a=a, b=b), geom.split,
                     geom.params)


gl_geodesic = so_geodesic = geodesic
so_geodesic_velocity = geodesic_velocity
gl_transport = so_transport = transport
gl_transport_operator = so_transport_operator = transport_operator
