"""Flag-manifold transport in Stiefel coordinates (canonical metric), the
Grassmann manifold included as the flag with one block.

Horizontal vectors of the flag quotient are Stiefel tangents whose
Y-coefficient is antisymmetric with zero flag diagonal blocks.  For the
canonical metric the transport is the Stiefel one: flag_transport_plan
returns a Stiefel transport plan at alpha = 1/2 whose operator has its top
block masked on the flag diagonal, and stiefel.transport_with_plan runs it.
The flag geodesic is that plan's geodesic.  Gr(n, d) is the flag with the
one block (d,) (grassmann_transport).
"""
from dataclasses import dataclass

import numpy as np

from . import stiefel
from .errors import DimensionError, ValidationError
from .stiefel import StiefelMetricParams, check_point, decompose_tangent
from .utils import as_real, asym, check_operand, check_size, sym

CANONICAL_ALPHA = 0.5


@dataclass(frozen=True)
class FlagSignature:
    """Column block sizes (d_1, ..., d_p) inside an ambient size n."""
    d_list: tuple
    n: int

    def __post_init__(self):
        check_size(self.n, "n")
        if not self.d_list:
            raise ValidationError(
                f"d_list must hold one or more blocks, got {self.d_list}")
        for di in self.d_list:
            check_size(di, "d_list block")
        if self.d >= self.n:
            raise ValidationError(
                f"d_list must leave n - d >= 1, got d={self.d}, n={self.n}")

    @property
    def d(self):
        return int(sum(self.d_list))

    @property
    def offsets(self):
        return tuple(np.concatenate([[0], np.cumsum(self.d_list)]).astype(int))

    @property
    def block_mask(self):
        """d x d boolean array, True on the flag diagonal blocks."""
        block = np.repeat(np.arange(len(self.d_list)), self.d_list)
        return block[:, None] == block[None, :]


def symf(sig, m):
    """Symmetrize, leaving the flag diagonal blocks unchanged."""
    m = as_real(m, "m")
    if m.shape != (sig.d, sig.d):
        raise DimensionError(f"expected {sig.d} x {sig.d}, got {m.shape}")
    return np.where(sig.block_mask, m, sym(m))


def flag_horizontal_project(sig, y, w):
    """Project an ambient n x d matrix onto the horizontal space at Y."""
    y = check_point(check_operand(y, (sig.n, sig.d), "y"))
    w = check_operand(w, y.shape, "w")
    return w - y @ symf(sig, y.T @ w)


def check_horizontal(sig, y, xi, name="xi"):
    """Horizontality of xi at Y, batch axes allowed; refused as name."""
    stiefel.check_coefficient(np.swapaxes(y, -1, -2) @ xi, xi, name, sig.block_mask)


def flag_christoffel(sig, y, xi, eta, params, validate=True):
    """Christoffel function of the flag connection in Stiefel coordinates:
    stiefel.stiefel_christoffel (operands refused by name) plus Y times the
    flag diagonal blocks of asym(xi^T eta), as symf(c) = sym(c) + asym(c)
    there.  First argument xi is the differentiation direction.  The ODE
    oracle passes validate=False, for every alpha, at off-horizontal states.
    """
    y = _point(sig, as_real(y, "y"))
    out = stiefel.stiefel_christoffel(y, xi, eta, params)
    xi, eta = as_real(xi, "xi"), as_real(eta, "eta")
    if validate:
        check_horizontal(sig, y, xi)
        check_horizontal(sig, y, eta, "eta")
    return out + y @ np.where(sig.block_mask, asym(xi.T @ eta), 0.0)


def flag_transport_plan(sig, y, xi):
    """Stiefel transport plan for the canonical flag geodesic driven by
    the horizontal xi; reusable for its geodesic and many (eta, t), as
    stiefel.make_transport_plan's is."""
    y = _point(sig, stiefel.point_array(y))
    return stiefel.plan_from_decomposition(
        y, decompose_tangent(y, xi, sig.block_mask),
        StiefelMetricParams(CANONICAL_ALPHA), mask=sig.block_mask)


def _point(sig, y):
    """y, refused unless of sig's shape."""
    if y.shape != (sig.n, sig.d):
        raise DimensionError(f"y has shape {y.shape}, expected {(sig.n, sig.d)}")
    return y


def _one_shot_plan(sig, y, xi):
    """stiefel.one_shot_plan of the canonical flag geodesic at y (a
    stiefel.point_array): the Gram route unless its gate refuses."""
    return stiefel.one_shot_plan(_point(sig, y), xi,
                                 StiefelMetricParams(CANONICAL_ALPHA),
                                 sig.block_mask)


def flag_transport_canonical(sig, y, xi, eta, t):
    """Parallel transport of a horizontal eta, canonical metric only; one
    transport, so by a one-t plan (stiefel.one_shot_plan)."""
    plan = _one_shot_plan(sig, stiefel.point_array(y), xi)
    return stiefel.transport_with_plan(plan, plan.point, eta, t)


def flag_geodesic(sig, y, xi, t):
    """Geodesic of the canonical flag metric: the geodesic of a one-t flag
    plan, whose masked Y^T xi refuses a non-horizontal xi."""
    return _one_shot_plan(sig, stiefel.point_array(y), xi).geodesic(t)


def grassmann_transport(y, xi, eta, t):
    """Grassmann transport: the canonical flag transport with the one
    block (d,).  Its mask is the whole top block, so horizontality is
    Y^T v = 0 and A is zero: the operator and the small exponentials
    vanish, leaving one exponential of [[0, -R^T], [R, 0]] on [Y|Q].
    """
    y = stiefel.point_array(y)
    plan = _one_shot_plan(FlagSignature(d_list=(y.shape[1],), n=y.shape[0]),
                          y, xi)
    return stiefel.transport_with_plan(plan, y, eta, t)
