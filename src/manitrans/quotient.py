"""Horizontal geodesics and parallel transport on quotients G/K.

When the vertical algebra sits inside the commutant of the subalgebra (or
beta = -1), the transport factor is a constant-coefficient exponential
action of the horizontal operator

    P_a : b -> ([b, a]_m + (1+beta)([a_a, b] - [b_a, a])) / 2 ,

built by group_core.p_a_operator(q.geom, a, q), which reads the
horizontal projection from the quotient and the metric's definiteness from
the group geometry.  QuotientGeometry(geom, proj_k) is the one way to
build a quotient: construction probes that proj_k is a transposable
projection onto a subalgebra inside a + a_top (check_vertical_algebra), in
O(n^3) work per probe, then derives whether the condition holds (its
simplified_ok), which cannot be set.  stiefel_quotient and flag_quotient
give it the block-diagonal vertical projections of their subgroups.

Otherwise the middle factor solves a linear ODE with variable coefficients,
integrated adaptively.

Geodesics and transports run on a group_core plan built with the
quotient, group_core.make_transport_plan(q.geom, x, xi, q): it refuses a
non-horizontal xi or eta by name (check_horizontal) and, where the
condition fails, solves the ODE one vector of the stack at a time
(solve_transport_ode); quotient_transport is its one-t wrapper.
"""
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.integrate

from . import expaction, group_core
from .errors import NumericalError, ValidationError
from .flag_grassmann import FlagSignature
from .forms import MetricParams, projection_one_norm
from .gl_so import so_split
from .group_core import (PROBE_SEED, GroupGeometry, _check_in_algebra,
                         _christoffel, p_a_operator, to_algebra)
from .utils import (block_diagonal_asym, check_operand, check_time, lie,
                    matrix_norms, refuse_residual)

HORIZONTALITY_RTOL = 1e-9
ODE_TOL = 1e-10
PROBES = 8


@dataclass(frozen=True)
class QuotientGeometry:
    """A group geometry plus the vertical projection of a quotient by a
    subgroup whose algebra splits into parts inside a and a_top.

    Construction checks proj_k on PROBES fixed-seed random probes
    (check_vertical_algebra) and derives simplified_ok, whether the
    transport has constant coefficients, by check_simplified_condition.
    """
    geom: GroupGeometry
    proj_k: Callable[[np.ndarray], np.ndarray]
    simplified_ok: bool = field(init=False)

    def __post_init__(self):
        check_vertical_algebra(self.geom.split, self.proj_k)
        object.__setattr__(self, "simplified_ok",
                           check_simplified_condition(self))

    def proj_m(self, m):
        return self.geom.split.proj_g(m) - self.proj_k(m)

    def check_horizontal(self, **named):
        """Refuse each named algebra element or stack, by name, if one of
        its matrices is not horizontal."""
        for name, a in named.items():
            vertical = self.proj_k(a)
            # below the tolerance every matrix passes (_check_in_algebra)
            if not np.linalg.norm(vertical) <= HORIZONTALITY_RTOL:
                refuse_residual(matrix_norms(vertical), matrix_norms(a),
                                HORIZONTALITY_RTOL, f"{name} is not horizontal: residual")

    def solve_transport_ode(self, a, w0, t):
        """The middle transport factor where simplified_ok fails, by adaptive
        Runge-Kutta, for each matrix of the stack w0 on its own."""
        split, bet = self.geom.split, self.geom.beta
        aa = split.proj_a(a)
        n = a.shape[0]

        def rhs(s, wflat):
            w = wflat.reshape(n, n)
            u = expaction.matrix_exponential(s * (1.0 + bet) * aa)
            uinv = np.linalg.inv(u)
            br = lie(w, a)
            dw = 0.5 * (br - u @ self.proj_k(uinv @ br @ u) @ uinv
                        + (1.0 + bet) * (lie(aa, w) - lie(split.proj_a(w), a)))
            return dw.reshape(-1)

        def solve(w):
            sol = scipy.integrate.solve_ivp(
                rhs, (0.0, t), w, method="RK45", rtol=ODE_TOL, atol=ODE_TOL,
                dense_output=False)
            if not sol.success:
                raise NumericalError(f"transport ODE integration failed: {sol.message}")
            return sol.y[:, -1]
        return np.stack([solve(w) for w in w0.reshape(-1, n * n)]).reshape(w0.shape)

    @cached_property
    def proj_m_norm(self):
        """1-norm of proj_m, once per geometry; one when proj_g and proj_k
        are both coordinate projections."""
        split = self.geom.split
        if all(getattr(p, "coordinate", False) for p in (split.proj_g, self.proj_k)):
            return 1.0
        return projection_one_norm(split.n, self.proj_m)


def check_vertical_algebra(split, proj_k):
    """Probe that proj_k is an idempotent, transposable projection into g
    whose range k lies in a + a_top, in O(n^3) work per probe.

    With g = a + a_join + a_top orthogonally and a_join = span [a, a_perp],
    k lies in a + a_top exactly when k is orthogonal to every [a', p].  As
    <k, [a', p]>_F = <[a'^T, k], p>_F and a is transposable, that holds
    when [a', k] has no a_perp part for every a' in a, which one random
    pair (a', k) per probe tests.
    """
    rng = np.random.default_rng(PROBE_SEED)
    n = split.n
    for _ in range(PROBES):
        w = split.proj_g(rng.standard_normal((n, n)))
        kw = proj_k(w)
        scale = max(1.0, np.linalg.norm(kw))
        if np.linalg.norm(proj_k(kw) - kw) > 1e-10 * scale:
            raise ValidationError("proj_k is not idempotent")
        if np.linalg.norm(proj_k(w.T) - kw.T) > 1e-10 * scale:
            raise ValidationError("proj_k does not commute with transpose")
        a = split.proj_a(rng.standard_normal((n, n)))
        br = lie(a / max(1.0, np.linalg.norm(a)), kw)
        res = max(np.linalg.norm(split.proj_g(kw) - kw),
                  np.linalg.norm(split.proj_g(br) - split.proj_a(br)))
        if res > 1e-9 * scale:
            raise ValidationError(
                "vertical algebra does not split into a and a_top parts")


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


def horizontal_christoffel(q, x, xi, eta, validate=True):
    """Group Christoffel minus the vertical correction X [a, b]_k / 2; by
    to_algebra's LU, as the oracle calls it at off-manifold states."""
    a, b = to_algebra(q.geom, x, np.stack([xi, eta]), validate=False)
    if validate:
        _check_in_algebra(q.geom.split, xi=a, eta=b)
        q.check_horizontal(xi=a, eta=b)
    return _christoffel(q.geom, x, a, b) - 0.5 * x @ q.proj_k(lie(a, b))


def horizontal_transport_operator(q, a):
    """The constant-coefficient operator of the simplified transport, with
    a 2-norm bound when the metric form is definite; a is refused as by
    group_core.transport_operator, and if not horizontal."""
    a = check_operand(a, (q.geom.n, q.geom.n), "a")
    _check_in_algebra(q.geom.split, "a is not in the Lie algebra: residual", a=a)
    q.check_horizontal(a=a)
    return p_a_operator(q.geom, a, q)


def quotient_transport(q, x, xi, eta, t):
    """Parallel transport of a horizontal vector along the horizontal
    geodesic: one transport of a one-t group_core plan built with q."""
    t = check_time(t)
    plan = group_core.make_transport_plan(q.geom, x, xi, q)
    return group_core.transport_with_plan(plan, plan.point, eta, t)


def stiefel_quotient(n, d, alpha):
    """SO(n)/SO(n-d) with the alpha metric: the Stiefel quotient."""
    geom = GroupGeometry(split=so_split(n, d),
                         params=MetricParams(beta0=-0.5, beta1=alpha))
    return QuotientGeometry(geom, block_diagonal_asym((d, n)))


def flag_quotient(n, d_list, alpha):
    """SO(n)/S(O(d_1) x ... x O(d_p) x O(n-d)): the flag quotient."""
    sig = FlagSignature(tuple(d_list), n)
    geom = GroupGeometry(split=so_split(n, sig.d),
                         params=MetricParams(beta0=-0.5, beta1=alpha))
    return QuotientGeometry(geom, block_diagonal_asym(sig.offsets + (n,)))
