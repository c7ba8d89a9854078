"""The trace form, the deformed metric form, and transposable subspace
machinery.

A split is described by projection callables rather than stored matrices,
so block-structured cases stay cheap; dense basis scans appear only in the
generic subspace derivation used for small verification instances.
"""
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DimensionError, ValidationError
from .utils import check_square, lie

MEMBERSHIP_RTOL = 1e-10
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class MetricParams:
    """Deformation parameters (beta0, beta1) of the metric family."""
    beta0: float
    beta1: float

    def __post_init__(self):
        if self.beta0 == 0 or self.beta1 == 0:
            raise ValidationError("beta0 and beta1 must both be nonzero")

    @property
    def beta(self):
        return self.beta1 / self.beta0


@dataclass(frozen=True)
class AlgebraSplit:
    """A transposable matrix Lie algebra with a chosen transposable
    subalgebra, both given by projection maps from the ambient n x n space.

    proj_g and proj_a must be idempotent, Frobenius-orthogonal and commute
    with transposition; proj_k (optional) marks a vertical subalgebra for
    quotient use.
    """
    n: int
    proj_g: Callable[[np.ndarray], np.ndarray]
    proj_a: Callable[[np.ndarray], np.ndarray]
    proj_k: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class SplitComponents:
    """Projections onto the complement pieces of g = a + a_join + a_top."""
    proj_a_perp: Callable[[np.ndarray], np.ndarray]
    proj_a_join: Callable[[np.ndarray], np.ndarray]
    proj_a_top: Callable[[np.ndarray], np.ndarray]


def projection_one_norm(n, proj):
    """Vectorized 1-norm of a projection on n x n matrices: one if it is
    marked by utils.coordinate_projection, else measured on all n^2 basis
    matrices."""
    if getattr(proj, "coordinate", False):
        return 1.0
    best = 0.0
    e = np.zeros((n, n))
    for idx in range(n * n):
        e.flat[idx] = 1.0
        best = max(best, float(np.sum(np.abs(proj(e)))))
        e.flat[idx] = 0.0
    return best


def trace_form(a, b):
    """Tr(ab), the cyclic-invariant bilinear form."""
    a = check_square(a, "a")
    b = check_square(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch {a.shape} vs {b.shape}")
    return float(np.sum(a * b.T))


def beta_form(g, h, split, params):
    """The deformed form beta0*(Tr(hg) - Tr(h_a g_a)) - beta1*Tr(h_a g_a)."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    for name, m in (("g", g), ("h", h)):
        res = np.linalg.norm(m - split.proj_g(m))
        if not res <= MEMBERSHIP_RTOL * max(1.0, np.linalg.norm(m)):
            raise ValidationError(f"{name} is not in the Lie algebra")
    ga, ha = split.proj_a(g), split.proj_a(h)
    return params.beta0 * (trace_form(h, g) - trace_form(ha, ga)) \
        - params.beta1 * trace_form(ha, ga)


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
    rank = int(np.sum(diag > RANK_RTOL * diag[0]))
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
    """Projections onto a_perp, a_join = span [a, a_perp], and a_top.

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
