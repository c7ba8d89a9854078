"""Flag-manifold transport in Stiefel coordinates (canonical metric) and
the closed-form Grassmann transport.

Horizontal vectors of the flag quotient are Stiefel tangents whose
Y-coefficient is antisymmetric with zero flag diagonal blocks.  For the
canonical metric the transport is the Stiefel one: flag_transport_plan
returns a Stiefel transport plan at alpha = 1/2 whose operator has its top
block masked on the flag diagonal, and stiefel.transport_with_plan runs it.
"""
from dataclasses import dataclass

import numpy as np

from . import stiefel
from .errors import DimensionError, ValidationError
from .stiefel import (
    RANK_RTOL, StiefelMetricParams, check_point, decompose_tangent,
    stiefel_geodesic)
from .utils import check_operand, check_size, check_time, matrix_norms, sym

HORIZONTAL_TOL = 1e-9  # Grassmann; flag horizontality uses stiefel.TANGENT_RTOL
CANONICAL_ALPHA = 0.5


@dataclass(frozen=True)
class FlagSignature:
    """Column block sizes (d_1, ..., d_p) inside an ambient size n."""
    d_list: tuple
    n: int

    def __post_init__(self):
        check_size(self.n, "n")
        if not self.d_list or not all(
                isinstance(di, (int, np.integer)) for di in self.d_list):
            raise ValidationError(
                f"d_list must hold one or more integers, got {self.d_list}")
        if any(di < 1 for di in self.d_list):
            raise ValidationError(f"d_list blocks must be at least 1, got {self.d_list}")
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
    m = np.asarray(m, dtype=float)
    if m.shape != (sig.d, sig.d):
        raise DimensionError(f"expected {sig.d} x {sig.d}, got {m.shape}")
    return np.where(sig.block_mask, m, sym(m))


def flag_horizontal_project(sig, y, w):
    """Project an ambient n x d matrix onto the horizontal space at Y."""
    w = np.asarray(w, dtype=float)
    if w.shape != (sig.n, sig.d) or y.shape != (sig.n, sig.d):
        raise DimensionError("signature/shape mismatch")
    return w - y @ symf(sig, y.T @ w)


def check_horizontal(sig, y, xi):
    stiefel.check_coefficient(np.swapaxes(y, -1, -2) @ xi, matrix_norms(xi),
                              sig.block_mask)


def flag_christoffel(sig, y, xi, eta, params, validate=True):
    """Christoffel function of the flag connection in Stiefel coordinates.

    First argument xi is the differentiation direction.  Used by the ODE
    oracle for every alpha (validate=False there: integration probes
    slightly off-horizontal states).
    """
    if validate:
        check_horizontal(sig, y, xi)
        check_horizontal(sig, y, eta)
    alpha = params.alpha
    first = y @ symf(sig, xi.T @ eta)
    m = xi @ (eta.T @ y) + eta @ (xi.T @ y)
    return first + (1.0 - alpha) * (m - y @ (y.T @ m))


def flag_transport_plan(sig, y, xi):
    """Stiefel transport plan for the canonical flag transport along the
    geodesic driven by the horizontal xi; reusable for many (eta, t).

    Like stiefel.make_transport_plan's, its first transport factors the
    skew exponent arguments once, and each later t costs one real product
    per exponential.
    """
    y = check_point(y)
    if y.shape != (sig.n, sig.d):
        raise DimensionError(f"y has shape {y.shape}, expected {(sig.n, sig.d)}")
    decomp = decompose_tangent(y, xi)
    # tangency is checked; horizontality needs the masked blocks of A too
    stiefel.check_coefficient(decomp.a, np.linalg.norm(xi), sig.block_mask)
    return stiefel.plan_from_decomposition(
        y, decomp, StiefelMetricParams(CANONICAL_ALPHA), mask=sig.block_mask)


def flag_transport_canonical(sig, y, xi, eta, t):
    """Parallel transport of a horizontal eta, canonical metric only; one
    transport, so its plan takes scipy.linalg.expm (stiefel.single_time)."""
    return stiefel.transport_with_plan(
        stiefel.single_time(flag_transport_plan(sig, y, xi)), y, eta, t)


def flag_geodesic(sig, y, xi, t):
    """Geodesic of the canonical flag metric, identical to the Stiefel
    formula."""
    check_horizontal(sig, y, xi)
    return stiefel_geodesic(y, xi, StiefelMetricParams(CANONICAL_ALPHA), t)


def grassmann_transport(y, xi, eta, t):
    """Closed-form Grassmann transport along the geodesic driven by xi.

    Horizontality here means Y^T xi = 0 and Y^T eta = 0; the rotation acts
    on the compact SVD factors of xi, everything else is carried along
    unchanged.  Directions of xi below RANK_RTOL times its largest
    singular value are dropped.
    """
    t = check_time(t)
    y = check_point(y)
    xi = check_operand(xi, y.shape, "xi")
    eta = check_operand(eta, y.shape, "eta", batched=True)
    for name, v in (("xi", xi), ("eta", eta)):
        # each vector of a batch against its own norm
        tol = HORIZONTAL_TOL * np.maximum(1.0, matrix_norms(v))
        if not np.all(matrix_norms(y.T @ v) <= tol):
            raise ValidationError(f"{name} is not Grassmann-horizontal")
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
