"""Metric, Christoffel function, geodesics and parallel transport for a
matrix group with a transposable algebra split.

All formulas are phrased in the group-relative velocity a = X^{-1} xi.  The
transport factor in the middle is an exponential action of the operator

    P_a : b -> (pi_m[b, a] + (1+beta)([a_a, b] - [b_a, a])) / 2

which is antisymmetric for the deformed metric form, so transported vectors
keep their metric norms.  pi_m is the identity on a group and the
horizontal projection on a quotient; `p_a_operator(geom, a, quotient=None)`
builds P_a for both, reading beta, proj_a, the projection norms and
definiteness from the geometry (and pi_m from the quotient).  GLGeometry
and SOGeometry (gl_so.py) are GroupGeometrys, so every function here
takes them too.

A GroupTransportPlan (make_transport_plan) is the one group and quotient
geodesic and transport engine; the one-shot entry points here, in gl_so
and in quotient run a plan at one t.  Two steps read the geometry:
check_point, which checks x once and keeps its map v -> X^{-1} v (x^T or
an LU), and geodesic_factors, whose right factor on an so_block split is
a d x d exponential applied to the first d columns.

On a group, [b, a] + c [a_a, b] = [b, a - c a_a] with
c = 1+beta, so P_a applies as ([b, a - c a_a] - c [b_a, a]) / 2, with its
1/2 and c folded into matrices made once.  Operands may be batched.  On a
split with an so_block d (SO(n), a GroupGeometry on so_split, and their
Stiefel and flag quotients) the handle is P_a o proj_g instead, in skew
form: for antisymmetric u and x, [u, x] = m - m^T with m = u x.  With
s = b - b^T = 2 proj_g(b), it takes m = s (a - c a_a)/4, subtracts
s[:d, :d] (c/4) a[:d] from its first d rows (b_a lives in the top
block) and returns m - m^T: one n x n and one d x n product where the
four-product form takes four n x n, an output that is exactly
antisymmetric, and exactly zero on sym(n).  On a quotient m = s a/4
loses proj_k(m), which leaves pi_m(m - m^T) as proj_k commutes with
transposes, and c ([a_a, b] - [b_a, a]) / 2 is Z - Z^T for the d x n
block Z = (c/4) (a_a s[:d] - s[:d, :d] a[:d]), added to m's first d rows:
one more d x n product.  The adjoint is proj_g o the adjoint of the
four-product form.

Its 1-norm bound is analytic and costs O(n^2).  With C_x(b) = [b, x],
P_a = (pi_m C_a - c C_{a_a} - c C_a pi_a) / 2.  C_x sends E_ij to row j
of x put in row i minus column i of x put in column j, so
||C_x||_1 <= kappa(x) = ||x||_1 + ||x||_inf and ||P_a||_1 <=
(nu_m kappa(a) + |c| (kappa(a_a) + nu_a kappa(a))) / 2, where nu is the
vectorized 1-norm of a projection (forms.projection_one_norm).

Where the metric form is definite (GroupGeometry.definite alone decides),
P_a carries a 2-norm bound rho and expa sums the Chebyshev series.  The
form is then |beta1| <g_a, h_a>_F + |beta0| <g_p, h_p>_F up to sign, p the
complement of a, and M = D P_a D^{-1} is Frobenius-antisymmetric for
D = sqrt|beta1| on a, sqrt|beta0| on p.  With r = sqrt|beta| and u = D b,
2 M u has a-part (1-2c)[u_a, a_a] + r [u_p, a_p]_a and p-part
-r [u_a, a_p] - beta [u_p, a_a] + [u_p, a_p]_p.  ||[x, y]||_F <=
2 ||x||_F ||y||_2 bounds each block of M between orthogonal parts, and
the top eigenvalue of the matrix of block bounds bounds ||M||_2
(utils.block_norm_bound).  With A >= ||a_a||_2, B >= ||a_p||_2 it is
[[|1-2c| A, r B], [r B, |beta| A + B]], less the + B where proj_a is
utils.asym (a all antisymmetric, p symmetric, as on gl(n)): [p, p] lies
in a.  On so_split(n, d), p = o + q with o the off-diagonal blocks,
q = so(n-d), [a, q] = 0, [a, o] + [q, o] in o, [o, o] in a + q, and an o
element with top-right block Y has norm sqrt2 ||Y||_F.  For
a = [[A, P], [-P^T, K]], M sends u_a = X (top block) to (1-2c)[X, A]/2 in
a and -r X P/2 in o; u_o to r (P Y^T - Y P^T)/2 in a, (beta A Y + Y K)/2
in o, (P^T Y - Y^T P)/2 in q; u_q = Z to -P Z/2 in o, [Z, K]/2 in q.  So
with al, pi, ka bounding ||A||_2, ||P||_2, ||K||_2 the matrix is
[[|1-2c| al, r pi/sqrt2, 0], [r pi/sqrt2, (|beta| al + ka)/2, pi/sqrt2],
[0, pi/sqrt2, ka]].  rho is also at least the norm of the four-product
P_a on sym(n), where it is b -> [b, e] with e = (a - c a_a)/2,
Frobenius-antisymmetric of norm ||a - c a_a||_2 <= the top eigenvalue of
[[|beta| al, pi], [pi, ka]], and on a quotient, whose pi_m drops the
symmetric [b, a], b -> c [a_a, b]/2 of norm <= |c| al: rounding left
eps-sized symmetric parts in a and in the iterates, and below that norm
the series amplified them (by 1e6 at t = 20, alpha = 1e-3 on SO(3)).
The skew form makes every iterate past the operand exactly
antisymmetric and is zero on sym(n), so that term now bounds nothing the
apply produces; dropping it would tighten rho, and change it, at small
alpha.

These hold on a quotient that meets the simplified condition (quotient.py)
too.  Where the c terms vanish (c = 0 or a = 0), P_a = pi_m P_a^group on
m and pi_m commutes with D.  Otherwise the vertical algebra misses a, so
lies in the part of p orthogonal to [a, p] (q on so_split, d > 1), and
pi_m changes only [u_p, a_p]_p (the q-row on so_split), which it shrinks.
expa runs on the unbalanced P_a; only the bound uses D (expaction's
docstring gives the norm of its tail bound).
"""
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from . import expaction
from .errors import ValidationError
from .forms import (AlgebraSplit, MetricParams, _beta_values,
                    projection_one_norm)
from .utils import (ORTHONORMALITY_TOL, TANGENT_RTOL, as_real, asym,
                    block_norm_bound, check_finite, check_operand, check_scalar,
                    check_square_operands, hcat, identity, lie, matrix_norms,
                    orthonormality_residual, refuse_residual, two_norm_bound)

# to_algebra warns above this 1-norm condition number ||x||_1 ||x^{-1}||_1,
# as LAPACK's gecon estimates it from x's LU (from below, mostly within 3x)
CONDITION_WARN = 1e12
SYMMETRY_RTOL = 1e-10
PROBE_SEED = 0  # random probes of the split and quotient-structure checks


@dataclass(frozen=True)
class GroupGeometry:
    """A group metric: an algebra split plus deformation parameters.

    `proj_a_norm` and `definite`, which the transport bounds need, are
    cached per geometry.
    """
    split: AlgebraSplit
    params: MetricParams
    special_orthogonal = False  # SOGeometry: points lie in SO(n) (check_point)

    @property
    def n(self):
        return self.split.n

    @cached_property
    def proj_a_norm(self):
        return projection_one_norm(self.n, self.split.proj_a)

    @cached_property
    def definite(self):
        """Whether the metric form is definite, in O(n^2) work.

        The form is beta0 Tr(g_p h_p) - beta1 Tr(g_a h_a), with p the
        complement of a, and Tr(g h) is <g, h>_F on symmetric matrices and
        -<g, h>_F on antisymmetric ones.  So the form is definite when a
        and p each hold one kind only and the two weights share a sign.  A
        transposable subspace is the sum of its symmetric and antisymmetric
        parts, so (almost surely) the projections of one random probe
        show which kinds each holds.
        """
        split = self.split
        probe = split.proj_g(np.random.default_rng(PROBE_SEED).standard_normal(
            (split.n, split.n)))
        part_a = split.proj_a(probe)
        kinds = _symmetry(part_a), _symmetry(probe - part_a)
        if None in kinds:
            return False
        # the form is w_a ||g_a||_F^2 + w_p ||g_p||_F^2; an empty part has 0
        w_a, w_p = -self.params.beta1 * kinds[0], self.params.beta0 * kinds[1]
        return w_a * w_p >= 0 and w_a + w_p != 0

    @property
    def beta(self):
        return self.params.beta


def _symmetry(m):
    """1 if m is symmetric, -1 if antisymmetric, 0 if zero, else None."""
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return 0
    if np.linalg.norm(m - m.T) <= SYMMETRY_RTOL * scale:
        return 1
    return -1 if np.linalg.norm(m + m.T) <= SYMMETRY_RTOL * scale else None


def _check_in_algebra(split, message=None, **named):
    """Refuse each named matrix or stack, by name unless message is given,
    if one of its matrices is off the Lie algebra by more than
    utils.TANGENT_RTOL max(1, its norm); on gl(n) if one is not finite."""
    for name, v in named.items():
        if split.proj_g is identity:
            # gl(n): the residual v - proj_g(v) is zero on finite input
            check_finite(v, name)
            continue
        refuse_residual(matrix_norms(v - split.proj_g(v)), v, TANGENT_RTOL,
                        message or f"{name} is not tangent: algebra residual")


def _lu_solver(x):
    """v -> X^{-1} v on stacks, by one LU of x, which also gives its
    condition estimate (CONDITION_WARN)."""
    lu, piv, info = dgetrf(x)
    if info > 0:
        raise ValidationError("x is singular: its LU factorization has a zero pivot")
    rcond, _ = dgecon(lu, np.linalg.norm(x, 1))
    if rcond * CONDITION_WARN < 1.0:
        cond = 1.0 / rcond if rcond else np.inf
        warnings.warn(f"base point condition number {cond:.2e} (1-norm "
                      f"estimate) exceeds {CONDITION_WARN:.0e}", RuntimeWarning)

    def solve(v, n=x.shape[0]):
        a, _ = dgetrs(lu, piv, np.moveaxis(v, -2, 0).reshape(n, -1))
        return np.moveaxis(a.reshape(n, *v.shape[:-2], n), 0, -2)
    return solve


def to_algebra(geom, x, xi, validate=True):
    """Group-relative velocity a = X^{-1} xi by one LU of x (_lu_solver);
    xi may stack vectors.  Raises, naming xi, if a result is not in the
    Lie algebra, unless validate=False: the ODE oracle probes off-manifold
    states, and callers that stack xi and eta check each by name
    (_check_in_algebra)."""
    a = _lu_solver(x)(xi)
    if validate:
        _check_in_algebra(geom.split, xi=a)
    return a


def check_point(geom, x):
    """x as a checked n x n float array and its map v -> X^{-1} v on
    stacks: x^T where the split has an so_block and x is orthogonal to
    utils.ORTHONORMALITY_TOL (SOGeometry refuses any other x, and
    det x = -1), else one LU (_lu_solver)."""
    x = check_operand(x, (geom.n, geom.n), "x")
    if geom.split.so_block is not None:
        res = orthonormality_residual(x)
        if res <= ORTHONORMALITY_TOL:
            if geom.special_orthogonal and np.linalg.slogdet(x)[0] <= 0:
                raise ValidationError("x has nonpositive determinant")
            return x, lambda v: x.T @ v
        if geom.special_orthogonal:
            raise ValidationError(f"x is not orthogonal: residual {res:.3e}")
    return x, _lu_solver(x)


def _algebra(geom, quotient, solve, v, name, batched=True):
    """solve(v) = X^{-1} v for a finite v of trailing shape n x n, refused
    by name off the Lie algebra or, on a quotient, not horizontal."""
    b = solve(check_operand(v, (geom.n, geom.n), name, batched))
    _check_in_algebra(geom.split, **{name: b})
    if quotient is not None:
        quotient.check_horizontal(**{name: b})
    return b


def metric(geom, x, xi, eta):
    """Left-invariant metric values <xi_i, eta_j> at x between two stacks,
    shaped as forms.beta_form's; x and each stack are checked once."""
    x, solve = check_point(geom, x)
    a = _algebra(geom, None, solve, xi, "xi")
    b = a if eta is xi else _algebra(geom, None, solve, eta, "eta")
    return _beta_values(a, b, geom.split, geom.params)


def christoffel(geom, x, xi, eta, validate=True):
    """Christoffel function of the Levi-Civita connection at x; operands
    are refused by name (check_operand) whatever validate is."""
    x, xi, eta = check_square_operands(geom.n, x=x, xi=xi, eta=eta)
    a, b = to_algebra(geom, x, np.stack([xi, eta]), validate=False)
    if validate:
        _check_in_algebra(geom.split, xi=a, eta=b)
    return _christoffel(geom, x, a, b)


def _christoffel(geom, x, a, b):
    """christoffel from a = X^{-1} xi and b = X^{-1} eta."""
    aa = geom.split.proj_a(a)
    ba = geom.split.proj_a(b)
    inner = -0.5 * (a @ b + b @ a) \
        + 0.5 * (1.0 + geom.beta) * (lie(aa, b) + lie(ba, a))
    return x @ inner


def geodesic_factors(geom, a, t):
    """exp(t (a - c a_a)) and the map m -> m exp(t c a_a), c = 1+beta, on
    m or a stack of them: the geodesic from X with velocity X a is the map
    applied to X times the first factor.  On a split with an so_block d,
    a_a lives in the top d x d block, so the map right-multiplies the
    first d columns by a d x d exponential."""
    aa = geom.split.proj_a(a)
    c = 1.0 + geom.beta
    left = expaction.matrix_exponential(t * (a - c * aa))
    d = geom.split.so_block
    if d is None:
        right = expaction.matrix_exponential(t * c * aa)
        return left, lambda m: m @ right
    small = expaction.matrix_exponential(t * c * aa[:d, :d])
    return left, lambda m: hcat(m[..., :d] @ small, m[..., d:])


@dataclass(frozen=True)
class GroupTransportPlan:
    """One group or quotient geodesic from the checked x = point, whose map
    v -> X^{-1} v is solve (check_point), with velocity X a; reusable for
    its geodesic, velocity and transports at many (eta, t).  P_a is built
    on the first transport at t != 0 without a quotient ODE."""
    geom: GroupGeometry
    point: np.ndarray
    a: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]
    quotient: object = None     # a quotient.QuotientGeometry over geom

    @cached_property
    def p_op(self):
        return p_a_operator(self.geom, self.a, self.quotient)

    def geodesic(self, t):
        left, finish = geodesic_factors(self.geom, self.a,
                                        check_scalar(t, "t"))
        return finish(self.point @ left)

    def geodesic_velocity(self, t):
        """(gamma(t), dgamma/dt), by closed-form differentiation."""
        left, finish = geodesic_factors(self.geom, self.a,
                                        check_scalar(t, "t"))
        # gamma^{-1} dgamma = right^{-1} a right, so dgamma = X left a right
        return finish(self.point @ left), finish(self.point @ left @ self.a)


def make_transport_plan(geom, x, xi, quotient=None):
    """The plan of the geodesic from x with velocity xi, each checked by
    name; on a quotient (a quotient.QuotientGeometry over geom) xi must be
    horizontal."""
    x, solve = check_point(geom, x)
    a = _algebra(geom, quotient, solve, xi, "xi", batched=False)
    return GroupTransportPlan(geom, x, a, solve, quotient)


def transport_with_plan(plan, x, eta, t):
    """Transport eta (leading batch axes allowed) along the plan geodesic.

    x must be plan.point: that object passes at once, another array after
    an entry-wise compare.  eta is checked by name first, t = 0 included;
    one expa runs over the whole stack, a quotient ODE per vector.
    """
    t = check_scalar(t, "t")
    if x is not plan.point and not np.array_equal(x, plan.point):
        raise ValidationError("x is not the base point of the plan")
    q = plan.quotient
    w = _algebra(plan.geom, q, plan.solve, eta, "eta")
    if q is not None and not q.simplified_ok:
        if t != 0.0:
            w = q.solve_transport_ode(plan.a, w, t)
    else:  # at t = 0 expa returns a copy; making it here spares P_a
        w = expaction.expa(plan.p_op, w, t) if t != 0.0 else w.copy()
    left, finish = geodesic_factors(plan.geom, plan.a, t)
    return finish(plan.point @ left @ w)


def geodesic(geom, x, xi, t):
    """Geodesic through x with initial velocity xi, evaluated at time t."""
    t = check_scalar(t, "t")
    return make_transport_plan(geom, x, xi).geodesic(t)


def geodesic_velocity(geom, x, xi, t):
    """The pair (gamma(t), dgamma/dt), by closed-form differentiation."""
    t = check_scalar(t, "t")
    return make_transport_plan(geom, x, xi).geodesic_velocity(t)


def p_a_operator(geom, a, quotient=None):
    """P_a for geom with its Frobenius adjoint, the analytic 1-norm bound
    and, when geom.definite, the 2-norm bound of its balanced form (then
    expa sums the Chebyshev series).

    On a quotient (a quotient.QuotientGeometry over geom), pi_m is its
    horizontal projection proj_m.  The vectorized 1-norms of proj_a and
    proj_m are cached on the geometries.
    """
    a = as_real(a, "a")
    proj_a = geom.split.proj_a
    aa = proj_a(a)
    at, aat = a.T, aa.T
    c = 1.0 + geom.beta
    d = geom.split.so_block
    proj_m, nu_m = (identity, 1.0) if quotient is None else \
        (quotient.proj_m, quotient.proj_m_norm)

    def adjoint(b):
        # adjoint of b -> proj_m([b, a]) is b -> [proj_m(b), a^T]
        return 0.5 * (lie(proj_m(b), at)
                      + c * (lie(aat, b) - proj_a(lie(b, at))))

    if d is None:
        apply, apply_adjoint = _folded_apply(a, aa, c, proj_a, quotient), adjoint
    else:  # P_a o proj_g, so the adjoint is proj_g o adjoint
        apply, apply_adjoint = (_skew_apply(a, aa, c, d, quotient),
                                lambda b: asym(adjoint(b)))

    kappa = _bracket_norm(a)
    bound = 0.5 * (nu_m * kappa
                   + abs(c) * (_bracket_norm(aa) + geom.proj_a_norm * kappa))
    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=bound, domain_shape=a.shape,
        skew_two_norm_bound=_p_a_two_norm_bound(geom, a, aa, quotient)
        if geom.definite else None)


def _folded_apply(a, aa, c, proj_a, quotient):
    """P_a on any split, its 1/2 and c folded into matrices made once."""
    e, ca = 0.5 * (a - c * aa), (0.5 * c) * a
    half, half_aa = 0.5 * a, (0.5 * c) * aa

    def apply(b):
        if quotient is None:  # ([b, a] + c [a_a, b]) / 2 = [b, e]
            out = b @ e
            out -= e @ b
        else:  # (pi_m[b, a] + c [a_a, b]) / 2
            out = quotient.proj_m(b @ half - half @ b) + lie(half_aa, b)
        ba = proj_a(b)
        out -= ba @ ca
        out += ca @ ba
        return out
    return apply


def _skew_apply(a, aa, c, d, quotient):
    """P_a o proj_g on an so_block split, for a in so(n), in skew form
    (module docstring): per operand one n x n product and one d x n
    product (two on a quotient), the 1/2 factors folded into matrices made
    once, and an output that is exactly antisymmetric."""
    rows = (0.25 * c) * a[:d]
    if quotient is None:
        e, top, proj_k = 0.25 * (a - c * aa), None, None
    else:
        e, top, proj_k = 0.25 * a, (0.25 * c) * aa[:d, :d], quotient.proj_k

    def apply(b):
        s = b - b.swapaxes(-1, -2)
        m = s @ e
        if proj_k is not None:  # M - M^T = pi_m(m - m^T) for M = m - proj_k(m)
            m -= proj_k(m)
            m[..., :d, :] += top @ s[..., :d, :]
        m[..., :d, :] -= s[..., :d, :d] @ rows
        return m - m.swapaxes(-1, -2)
    return apply


def _p_a_two_norm_bound(geom, a, aa, quotient=None):
    """rho >= the D-balanced 2-norm of P_a (module docstring), in O(n^3);
    on so_split also >= its norm on sym(n)."""
    beta, d = geom.beta, geom.split.so_block
    mag, diag = abs(beta), abs(1.0 + 2.0 * beta)
    if d is not None:
        al, ka = two_norm_bound(aa[:d, :d]), two_norm_bound(a[d:, d:])
        pi = two_norm_bound(a[:d, d:]) / np.sqrt(2.0)  # the docstring's pi/sqrt2
        off = np.sqrt(mag) * pi
        rho = block_norm_bound([[diag * al, off, 0.0],
                                [off, 0.5 * (mag * al + ka), pi], [0.0, pi, ka]])
        if quotient is not None:
            return max(rho, abs(1.0 + beta) * al)
        return max(rho, block_norm_bound([[mag * al, np.sqrt(2.0) * pi],
                                          [np.sqrt(2.0) * pi, ka]]))
    big_a, big_b = two_norm_bound(aa), two_norm_bound(a - aa)
    off, cartan = np.sqrt(mag) * big_b, geom.split.proj_a is asym
    return block_norm_bound([[diag * big_a, off],
                             [off, mag * big_a + (0.0 if cartan else big_b)]])


def _bracket_norm(x):
    """kappa(x) = ||x||_1 + ||x||_inf, which bounds the 1-norm of
    b -> [b, x]."""
    mag = np.abs(x)
    return float(mag.sum(axis=0).max() + mag.sum(axis=1).max())


def transport_operator(geom, a):
    """P_a for the geometry's split, by p_a_operator, after refusing by
    name an a that is not finite n x n or not in the Lie algebra: its
    1-norm bound takes O(n^2) work and its 2-norm bound, set when
    geom.definite, O(n^3) (module docstring)."""
    a = check_operand(a, (geom.n, geom.n), "a")
    _check_in_algebra(geom.split, "a is not in the Lie algebra: residual", a=a)
    return p_a_operator(geom, a)


def transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the geodesic driven by xi."""
    t = check_scalar(t, "t")
    plan = make_transport_plan(geom, x, xi)
    return transport_with_plan(plan, plan.point, eta, t)
