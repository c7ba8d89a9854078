"""Small matrix helpers used throughout the package."""
import numpy as np

from .errors import DimensionError, ValidationError


def coordinate_projection(proj):
    """Mark proj as keeping, for each index pair (i, j), both of m_ij and
    m_ji, neither, or their symmetric or antisymmetric part.  Its 1-norm,
    and that of the difference of two nested such projections, is one."""
    proj.coordinate = True
    return proj


@coordinate_projection
def sym(m):
    """Symmetric part (m + m^T)/2."""
    return 0.5 * (m + m.T)


@coordinate_projection
def asym(m):
    """Antisymmetric part (m - m^T)/2."""
    return 0.5 * (m - m.T)


def lie(a, b):
    """Matrix commutator [a, b] = ab - ba."""
    return a @ b - b @ a


def hcat(a, b):
    """Stack two blocks horizontally."""
    return np.concatenate([a, b], axis=1)


def matrix_norms(m):
    """Frobenius norm of each trailing matrix of m (leading batch axes
    allowed), by one dot product per matrix."""
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])


def check_square(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def check_finite(m, name="matrix"):
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    return m


def check_operand(m, shape, name, batched=False):
    """m as a finite float array of the given shape; batched allows
    leading axes in front of it."""
    m = np.asarray(m, dtype=float)
    if (m.shape[m.ndim - len(shape):] if batched else m.shape) != tuple(shape):
        raise DimensionError(f"{name} has shape {m.shape}, expected {tuple(shape)}")
    return check_finite(m, name)


def check_all_finite(**named):
    for name, m in named.items():
        check_finite(m, name)
