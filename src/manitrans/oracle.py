"""Brute-force verification: adaptive integration of the transport ODE
from a dense Christoffel function, finite-difference residuals, and
Gram-matrix drift, one metric call per Gram matrix.

These paths are the independent ground truth for the closed forms; they
share nothing with the fast formulas beyond basic matrix products.  The
curve and its velocity come from closed-form differentiation of the
geodesic factors so the oracle's own error budget stays clean.

scipy.integrate (which loads scipy.optimize) is imported on the first
integration (utils.solve_ode, whose work is bounded), not with the
package: the closed forms never need it.
"""
import numpy as np

from .errors import ValidationError
from .utils import as_real, check_finite, check_scalar, solve_ode

DEFAULT_TOL = 1e-10


def integrate_transport(christoffel, geodesic, eta0, t_grid,
                        rel_tol=DEFAULT_TOL, abs_tol=DEFAULT_TOL):
    """Integrate dDelta/dt = -Gamma(gamma(t); dgamma, Delta) on a grid.

    christoffel(point, direction, vector) evaluates the Christoffel
    function; geodesic(t) returns the pair (gamma(t), dgamma/dt).
    Returns the transported matrices at each grid time (the grid must be
    finite, nondecreasing, starting at or after 0, where Delta = eta0).
    A complex or non-finite eta0 and a negative or non-finite tolerance
    are refused by name; NumericalError if utils.solve_ode stops.
    """
    t_grid = check_finite(as_real(t_grid, "t_grid"), "t_grid")
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) < 0):
        raise ValidationError("t_grid must be a nondecreasing 1-d grid")
    if t_grid[0] < 0:
        raise ValidationError(
            f"t_grid must start at t >= 0, where Delta = eta0; got {t_grid[0]}")
    eta0 = check_finite(as_real(eta0, "eta0"), "eta0")
    rel_tol = _nonnegative(rel_tol, "rel_tol")
    abs_tol = _nonnegative(abs_tol, "abs_tol")
    shape = eta0.shape

    def rhs(t, flat):
        gam, dgam = geodesic(t)
        delta = flat.reshape(shape)
        return -christoffel(gam, dgam, delta).reshape(-1)

    sol = solve_ode(rhs, float(t_grid[-1]) if t_grid[-1] > 0 else 1e-30,
                    eta0.reshape(-1), rel_tol, abs_tol, t_eval=t_grid)
    return [sol.y[:, i].reshape(shape) for i in range(sol.y.shape[1])]


def _nonnegative(value, name):
    value = check_scalar(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be nonnegative, got {value}")
    return value


def transport_residual(delta_samples, gamma_samples, christoffel, dt):
    """Max norm of (centered-difference dDelta/dt + Gamma(gamma; dgamma,
    Delta)) over interior grid points of a uniform grid of step dt > 0."""
    dt = check_scalar(dt, "dt")
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if len(delta_samples) < 3:
        raise ValidationError("need at least 3 samples for a residual")
    if len(delta_samples) != len(gamma_samples):
        raise ValidationError("sample count mismatch")
    worst = 0.0
    for i in range(1, len(delta_samples) - 1):
        ddelta = (delta_samples[i + 1] - delta_samples[i - 1]) / (2.0 * dt)
        dgamma = (gamma_samples[i + 1] - gamma_samples[i - 1]) / (2.0 * dt)
        res = ddelta + christoffel(gamma_samples[i], dgamma, delta_samples[i])
        worst = max(worst, float(np.linalg.norm(res)))
    return worst


def gram_drift(vectors, transported, metric, points, initial_point=None):
    """Per-time max absolute drift of the Gram matrix of a vector set.

    transported holds one stack of len(vectors) matrices per base point in
    points.  metric(point, xi, eta) gives the values between two stacks, so
    each Gram matrix is one call; the reference one, of vectors, is taken
    at initial_point (default: the first base point).
    """
    if len(points) != len(transported) or any(
            len(vs) != len(vectors) for vs in transported):
        raise ValidationError("transported needs len(vectors) vectors per base point")
    g0 = metric(points[0] if initial_point is None else initial_point,
                vectors, vectors)
    return [float(np.max(np.abs(metric(point, vs, vs) - g0)))
            for point, vs in zip(points, transported)]
