"""Small matrix helpers used throughout the package."""
import math

import numpy as np

from .errors import DimensionError, NumericalError, ValidationError

EPS = 2.0 ** -53
TANGENT_RTOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
# Right-hand-side evaluations one solve_ode may spend (about 3,300 RK45
# steps), 20x the 1,022 of the largest solve of tests, scripts and bench.
MAX_RHS_EVALS = 20_000


def coordinate_projection(proj):
    """Mark proj as keeping, for each index pair (i, j), both of m_ij and
    m_ji, neither, or their symmetric or antisymmetric part.  Its 1-norm,
    and that of the difference of two nested such projections, is one."""
    proj.coordinate = True
    return proj


@coordinate_projection
def identity(m):
    """m itself: the projection onto every matrix (gl(n))."""
    return m


@coordinate_projection
def sym(m):
    """Symmetric part (m + m^T)/2 of each trailing matrix."""
    return 0.5 * (m + m.swapaxes(-1, -2))


@coordinate_projection
def asym(m):
    """Antisymmetric part (m - m^T)/2 of each trailing matrix."""
    return 0.5 * (m - m.swapaxes(-1, -2))


def block_diagonal_asym(offsets):
    """Projection onto the antisymmetric diagonal blocks [lo:hi, lo:hi]
    between consecutive offsets."""
    blocks = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]

    @coordinate_projection
    def proj(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        for b in blocks:
            out[..., b, b] = asym(m[..., b, b])
        return out
    return proj


def lie(a, b):
    """Matrix commutator [a, b] = ab - ba."""
    return a @ b - b @ a


def hcat(a, b):
    """Stack two blocks (or stacks of them) horizontally."""
    return np.concatenate([a, b], axis=-1)


def matrix_norms(m):
    """Frobenius norm of each trailing matrix of m (leading batch axes
    allowed), by one dot product per matrix."""
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])


def pair_products(a, b):
    """Frobenius products <a_i, b_j> between the stacks a and b of
    matrices: shape a.shape[:-2] + b.shape[:-2], a float for two matrices."""
    out = np.tensordot(a, b, axes=([-2, -1], [-2, -1]))
    return float(out) if out.ndim == 0 else out


def orthonormality_residual(m):
    """||m^T m - I||_F: how far m's columns are from orthonormal."""
    return np.linalg.norm(m.T @ m - np.eye(m.shape[1]))


def as_real(m, name):
    """m as a float array; a complex or non-numeric m is refused by name,
    not cast (a cast would drop an imaginary part with only a warning)."""
    m = np.asarray(m)
    if m.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be real and numeric, got dtype {m.dtype}")
    return m.astype(float, copy=False)


def check_square(m, name="matrix"):
    m = as_real(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def check_finite(m, name="matrix"):
    finite = math.isfinite(m) if np.ndim(m) == 0 else np.isfinite(m).all()
    if not finite:
        raise ValidationError(f"{name} has non-finite entries")
    return m


def check_scalar(value, name):
    """value as a float, refused by name unless it is a real finite scalar
    (0-d and not a bool): a complex value or an array would broadcast
    through what it scales."""
    array = np.asarray(value)
    if array.ndim != 0 or array.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be a real scalar, got {value!r}")
    value = float(array)
    if not math.isfinite(value):  # check_finite's message, without its array pass
        raise ValidationError(f"{name} has non-finite entries")
    return value


def check_size(value, name):
    """Refuse a size, by name, unless it is an integer (not a bool) of at
    least 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, np.integer)) or value < 1:
        raise ValidationError(
            f"{name} must be an integer of at least 1, got {name}={value!r}")


def check_operand(m, shape, name, batched=False):
    """m as a finite float array of the given shape; batched allows
    leading axes in front of it."""
    m = as_real(m, name)
    if (m.shape[m.ndim - len(shape):] if batched else m.shape) != tuple(shape):
        raise DimensionError(f"{name} has shape {m.shape}, expected {tuple(shape)}")
    return check_finite(m, name)


def refuse_residual(res, v, rtol, message):
    """Raise ValidationError(f"{message} {r:.3e}") for the first residual
    r of res, one per matrix v_i of the stack v, above rtol max(1,
    ||v_i||_F), NaN included; ||v_i|| is formed only if ||res||_2 > rtol."""
    if not np.linalg.norm(res) <= rtol:  # else every v_i passes
        bad = np.flatnonzero(~(res <= rtol * np.maximum(1.0, matrix_norms(v))))
        if bad.size:
            raise ValidationError(f"{message} {np.ravel(res)[bad[0]]:.3e}")


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
    peak = np.abs(m).max(initial=0.0)
    if peak == 0.0:
        return 0.0
    m = m / peak
    fro = math.sqrt(np.vdot(m, m))
    m = m / fro
    h = m.T @ m
    h = h @ h
    g = float(np.abs(h @ h).sum(axis=0).max())
    slack = (8.0 * sum(m.shape) * math.sqrt(m.shape[1]) + 16.0) * EPS
    return peak * fro * (g + slack) ** 0.125


def block_norm_bound(blocks):
    """Top eigenvalue of the symmetric nonnegative `blocks`, which bounds an
    operator whose blocks, between orthogonal parts of its domain and
    range, have 2-norms at most these; the last factor covers the rounding
    of the entries and of the (backward stable) eigensolver."""
    rho = np.linalg.eigvalsh(np.array(blocks, dtype=float))[-1]
    return float(rho) * (1.0 + 64.0 * EPS)


def solve_ode(rhs, t_end, y0, rtol, atol, t_eval=None):
    """RK45 by scipy.integrate.solve_ivp, imported on the first solve and
    looked up at each call, on y' = rhs(t, y) from 0 to t_end; NumericalError
    naming the time reached if it fails or once rhs ran MAX_RHS_EVALS times."""
    import scipy.integrate
    times = []

    def counted(t, y):
        if len(times) == MAX_RHS_EVALS:
            raise NumericalError(
                f"ODE integration spent its {MAX_RHS_EVALS} right-hand-side "
                f"evaluations at t={times[-1]:.6g} of {t_end:.6g}")
        times.append(t)
        return rhs(t, y)

    sol = scipy.integrate.solve_ivp(counted, (0.0, t_end), y0, method="RK45",
                                    rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise NumericalError(
            f"ODE integration failed at t={sol.t[-1]:.6g}: {sol.message}")
    return sol
