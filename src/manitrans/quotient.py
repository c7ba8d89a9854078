"""Horizontal geodesics and parallel transport on quotients G/K.

When the vertical algebra sits inside the commutant of the subalgebra (or
beta = -1), the transport factor is a constant-coefficient exponential
action of the horizontal operator

    P_a : b -> ([b, a]_m + (1+beta)([a_a, b] - [b_a, a])) / 2 ,

built by group_core.p_a_operator with the horizontal projection.

Otherwise the middle factor solves a linear ODE with variable coefficients,
integrated adaptively.
"""
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.integrate

from . import expaction, group_core
from .errors import NumericalError, ValidationError
from .forms import MetricParams, derive_split_components, projection_one_norm
from .gl_so import so_split
from .group_core import PROBE_SEED, GroupGeometry, p_a_operator, to_algebra
from .utils import (asym, check_finite, check_square_operands,
                    coordinate_projection, lie)

HORIZONTALITY_RTOL = 1e-9
ODE_TOL = 1e-10
PROBES = 8


@dataclass(frozen=True)
class QuotientGeometry:
    """A group geometry plus the vertical projection of a quotient by a
    subgroup whose algebra splits into parts inside a and a_top."""
    geom: GroupGeometry
    proj_k: Callable[[np.ndarray], np.ndarray]
    simplified_ok: bool

    def proj_m(self, m):
        return self.geom.split.proj_g(m) - self.proj_k(m)

    @cached_property
    def proj_m_norm(self):
        """1-norm of proj_m, once per geometry; one when proj_g and proj_k
        are both coordinate projections."""
        split = self.geom.split
        if all(getattr(p, "coordinate", False) for p in (split.proj_g, self.proj_k)):
            return 1.0
        return projection_one_norm(split.n, self.proj_m)


def make_quotient_geometry(geom, proj_k, validate=True):
    """Build a QuotientGeometry, checking the vertical-algebra structure.

    Validation probes idempotence and transposability of proj_k and that
    proj_k lands inside a + a_top (no a_join component); it scans a dense
    subspace basis, so skip it for large n.
    """
    if validate:
        rng = np.random.default_rng(PROBE_SEED)
        n = geom.split.n
        comps = derive_split_components(geom.split)
        for _ in range(4):
            w = geom.split.proj_g(rng.standard_normal((n, n)))
            kw = proj_k(w)
            if np.linalg.norm(proj_k(kw) - kw) > 1e-10 * max(1.0, np.linalg.norm(kw)):
                raise ValidationError("proj_k is not idempotent")
            if np.linalg.norm(proj_k(w.T) - kw.T) > 1e-10 * max(1.0, np.linalg.norm(kw)):
                raise ValidationError("proj_k does not commute with transpose")
            split_res = kw - geom.split.proj_a(kw) - comps.proj_a_top(kw)
            if np.linalg.norm(split_res) > 1e-9 * max(1.0, np.linalg.norm(kw)):
                raise ValidationError(
                    "vertical algebra does not split into a and a_top parts")
    q = QuotientGeometry(geom=geom, proj_k=proj_k, simplified_ok=False)
    ok = check_simplified_condition(q)
    return QuotientGeometry(geom=geom, proj_k=proj_k, simplified_ok=ok)


def check_simplified_condition(q):
    """Whether the transport ODE has constant coefficients.

    Structurally true when beta = -1 or the vertical algebra misses the
    subalgebra entirely; the structural answer is then confirmed on random
    probes of (U^{-1}[W,a]U)_k = U^{-1}[W,a]_k U, which guards against a
    mis-specified split.
    """
    geom = q.geom
    split = geom.split
    bet = geom.beta
    rng = np.random.default_rng(PROBE_SEED)
    n = split.n

    structural = abs(bet + 1.0) < 1e-14 or max(
        np.linalg.norm(split.proj_a(q.proj_k(rng.standard_normal((n, n)))))
        for _ in range(PROBES)) <= 1e-12
    if not structural:
        return False

    for t in (0.3, 1.1):
        for _ in range(PROBES):
            w = split.proj_g(rng.standard_normal((n, n)))
            a = q.proj_m(split.proj_g(rng.standard_normal((n, n))))
            u = expaction.matrix_exponential(t * (1.0 + bet) * split.proj_a(a))
            uinv = np.linalg.inv(u)
            br = lie(w, a)
            lhs = q.proj_k(uinv @ br @ u)
            rhs = uinv @ q.proj_k(br) @ u
            if np.linalg.norm(lhs - rhs) > 1e-9 * max(1.0, np.linalg.norm(br)):
                return False
    return True


def _check_horizontal(q, a, name):
    res = np.linalg.norm(q.proj_k(a))
    if res > HORIZONTALITY_RTOL * max(1.0, np.linalg.norm(a)):
        raise ValidationError(f"{name} is not horizontal: residual {res:.3e}")


def horizontal_christoffel(q, x, xi, eta, validate=True):
    """Group Christoffel minus the vertical correction X [a, b]_k / 2."""
    a, b = to_algebra(q.geom, x, np.stack([xi, eta]), validate=validate)
    if validate:
        _check_horizontal(q, a, "xi")
        _check_horizontal(q, b, "eta")
    return group_core.christoffel(q.geom, x, xi, eta, validate=validate) \
        - 0.5 * x @ q.proj_k(lie(a, b))


def horizontal_transport_operator(q, a):
    """The constant-coefficient operator of the simplified transport, with
    a 2-norm bound when the metric form is definite."""
    geom = q.geom
    return p_a_operator(a, geom.beta, geom.split.proj_a, q.proj_m,
                        nu_a=geom.proj_a_norm, nu_m=q.proj_m_norm,
                        definite=geom.definite)


def _solve_w_ode(q, a, w0, t):
    """Adaptive Runge-Kutta solution of the variable-coefficient W ODE."""
    geom = q.geom
    split = geom.split
    bet = geom.beta
    aa = split.proj_a(a)
    n = a.shape[0]

    def rhs(s, wflat):
        w = wflat.reshape(n, n)
        u = expaction.matrix_exponential(s * (1.0 + bet) * aa)
        uinv = np.linalg.inv(u)
        br = lie(w, a)
        dw = 0.5 * (br - u @ q.proj_k(uinv @ br @ u) @ uinv
                    + (1.0 + bet) * (lie(aa, w) - lie(split.proj_a(w), a)))
        return dw.reshape(-1)

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t), w0.reshape(-1), method="RK45", rtol=ODE_TOL,
        atol=ODE_TOL, dense_output=False)
    if not sol.success:
        raise NumericalError(f"transport ODE integration failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)


def quotient_transport(q, x, xi, eta, t):
    """Parallel transport of a horizontal vector along the horizontal
    geodesic, closed form when the simplified condition holds."""
    geom = q.geom
    check_finite(t, "t")
    x, xi, eta = check_square_operands(geom.split.n, x=x, xi=xi, eta=eta)
    a, w0 = to_algebra(geom, x, np.stack([xi, eta]))
    _check_horizontal(q, a, "xi")
    _check_horizontal(q, w0, "eta")
    if q.simplified_ok:
        w = expaction.expa(horizontal_transport_operator(q, a), w0, t)
    elif t == 0.0:
        w = w0
    else:
        w = _solve_w_ode(q, a, w0, t)
    left, right = group_core.geodesic_factors(geom, a, t)
    return x @ left @ w @ right


def stiefel_quotient(n, d, alpha, validate=True):
    """SO(n)/SO(n-d) with the alpha metric: the Stiefel quotient."""
    split = so_split(n, d)
    geom = GroupGeometry(split=split, params=MetricParams(beta0=-0.5, beta1=alpha))
    return make_quotient_geometry(geom, split.proj_k, validate=validate)


def flag_quotient(n, d_list, alpha, validate=True):
    """SO(n)/S(O(d_1) x ... x O(d_p) x O(n-d)): the flag quotient."""
    d = int(sum(d_list))
    if d >= n:
        raise ValidationError("flag blocks must leave n - d >= 1")
    split = so_split(n, d)
    offsets = np.concatenate([[0], np.cumsum(list(d_list) + [n - d])])

    @coordinate_projection
    def proj_k(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            out[lo:hi, lo:hi] = asym(m[lo:hi, lo:hi])
        return out

    geom = GroupGeometry(split=split, params=MetricParams(beta0=-0.5, beta1=alpha))
    return make_quotient_geometry(geom, proj_k, validate=validate)
