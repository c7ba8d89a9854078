"""Small matrix helpers used throughout the package."""
import numpy as np

from .errors import DimensionError, ValidationError

EPS = 2.0 ** -53


def coordinate_projection(proj):
    """Mark proj as keeping, for each index pair (i, j), both of m_ij and
    m_ji, neither, or their symmetric or antisymmetric part.  Its 1-norm,
    and that of the difference of two nested such projections, is one."""
    proj.coordinate = True
    return proj


@coordinate_projection
def sym(m):
    """Symmetric part (m + m^T)/2 of each trailing matrix."""
    return 0.5 * (m + m.swapaxes(-1, -2))


@coordinate_projection
def asym(m):
    """Antisymmetric part (m - m^T)/2 of each trailing matrix."""
    return 0.5 * (m - m.swapaxes(-1, -2))


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


def check_square_operands(n, **named):
    """The named arrays as finite n x n float arrays, in order."""
    return [check_operand(m, (n, n), name) for name, m in named.items()]


def two_norm_bound(m):
    """Upper bound on ||m||_2 in O(rows cols min(rows, cols)).

    ||m||_2^8 = ||(m^T m)^4||_2 <= ||(m^T m)^4||_1, with the Gram matrix
    of the shorter side.  m is scaled to unit Frobenius norm first, so the
    products neither overflow nor underflow; each of the three then has
    rounding error below (rows + cols) eps in Frobenius norm, and the added
    slack covers those errors, the scalings and the 1-norm sum.
    """
    if m.shape[0] < m.shape[1]:
        m = m.T
    peak = np.max(np.abs(m), initial=0.0)
    if peak == 0.0:
        return 0.0
    m = m / peak
    fro = np.linalg.norm(m)
    m = m / fro
    h = m.T @ m
    h = h @ h
    g = float(np.max(np.sum(np.abs(h @ h), axis=0)))
    slack = (8.0 * sum(m.shape) * np.sqrt(m.shape[1]) + 16.0) * EPS
    return peak * fro * (g + slack) ** 0.125


def two_block_norm_bound(top, off, bot):
    """Top eigenvalue of the nonnegative [[top, off], [off, bot]], which
    bounds an operator whose blocks, in two orthogonal parts of its
    domain, have 2-norms at most these; the last factor covers the
    rounding of the inputs and of the eigenvalue."""
    rho = 0.5 * (top + bot) + np.hypot(0.5 * (top - bot), off)
    return float(rho) * (1.0 + 16.0 * EPS)
