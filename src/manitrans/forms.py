"""The trace form and the deformed metric form, between two stacks of
matrices (a float for two matrices), and the algebra splits they are
taken over.

A split is described by projection callables rather than stored matrices,
so block-structured cases stay cheap.  The dense subspace scans that
check a split against its definition are reference code in the tests.
"""
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .utils import (check_operand, check_scalar, check_size, matrix_norms,
                    pair_products, refuse_residual)

# beta_form's algebra check; at utils.TANGENT_RTOL, as the others run, it
# would refuse less in beta_form, gl_metric and so_metric
MEMBERSHIP_RTOL = 1e-10


@dataclass(frozen=True)
class MetricParams:
    """Deformation parameters (beta0, beta1) of the metric family, each
    stored as a float (utils.check_scalar)."""
    beta0: float
    beta1: float

    def __post_init__(self):
        for name in ("beta0", "beta1"):
            value = check_scalar(getattr(self, name), name)
            object.__setattr__(self, name, value)
            if value == 0:
                raise ValidationError(f"{name} must be nonzero")

    @property
    def beta(self):
        return self.beta1 / self.beta0


@dataclass(frozen=True)
class AlgebraSplit:
    """A transposable matrix Lie algebra with a chosen transposable
    subalgebra, both given by projection maps from the ambient n x n space.

    proj_g and proj_a must be idempotent, Frobenius-orthogonal and commute
    with transposition.  A quotient's vertical projection belongs to its
    quotient.QuotientGeometry.

    so_block is d for gl_so.so_split(n, d) (a = so(d), top left in so(n))
    and None on any other split: only so_split can set it, not __init__.
    """
    n: int
    proj_g: Callable[[np.ndarray], np.ndarray]
    proj_a: Callable[[np.ndarray], np.ndarray]
    so_block: Optional[int] = field(default=None, init=False)

    def __post_init__(self):
        check_size(self.n, "n")


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
    """Tr(a_i b_j), the cyclic-invariant bilinear form, between stacks of
    n x n matrices, shaped as utils.pair_products' values."""
    n = np.shape(a)[-1] if np.ndim(a) else 0
    a, b = (check_operand(m, (n, n), name, batched=True)
            for name, m in (("a", a), ("b", b)))
    return pair_products(a, np.swapaxes(b, -1, -2))


def beta_form(g, h, split, params):
    """The deformed form beta0*(Tr(hg) - Tr(h_a g_a)) - beta1*Tr(h_a g_a)
    between stacks of algebra elements, each checked once, shaped as
    trace_form's values."""
    g, h = (check_operand(m, (split.n, split.n), name, batched=True)
            for name, m in (("g", g), ("h", h)))
    for name, m in (("g", g), ("h", h)):
        refuse_residual(matrix_norms(m - split.proj_g(m)), m,
                        MEMBERSHIP_RTOL, f"{name} is not in the Lie algebra: residual")
    return _beta_values(g, h, split, params)


def _beta_values(g, h, split, params):
    """beta_form's values on checked stacks; proj_a commutes with transpose."""
    ht = np.swapaxes(h, -1, -2)
    t_a = pair_products(split.proj_a(g), split.proj_a(ht))
    return params.beta0 * (pair_products(g, ht) - t_a) - params.beta1 * t_a
