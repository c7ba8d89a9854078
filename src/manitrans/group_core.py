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

geodesic, geodesic_velocity and transport are the one group engine; gl_so
binds its entry points to them.  Two steps read the geometry.
GroupGeometry.checked_algebra turns x and the named vectors into checked
algebra elements: one LU of x with its condition estimate (to_algebra),
or x^T as the inverse where the split declares an so_block and x is
orthogonal; SOGeometry overrides it to refuse any other x.
geodesic_factors gives exp(t (a - c a_a)) and the map m -> m exp(t c a_a),
c = 1+beta; on an so_block split a_a lives in the top d x d block, so the
map is a d x d exponential applied to the first d columns, for SO, its
generic geometry and the Stiefel and flag quotients alike.

On a group, [b, a] + c [a_a, b] = [b, a - c a_a] with
c = 1+beta, so P_a applies as ([b, a - c a_a] - c [b_a, a]) / 2, with its
1/2 and c folded into matrices made once; on so_split [b_a, a] is one
product of d rows and one of d columns.  Operands may be batched.

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
[0, pi/sqrt2, ka]].

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

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from . import expaction
from .errors import ValidationError
from .forms import AlgebraSplit, MetricParams, beta_form, projection_one_norm
from .utils import (as_real, asym, block_norm_bound, check_square_operands,
                    check_time, hcat, lie, orthonormality_residual,
                    two_norm_bound)

TANGENCY_RTOL = 1e-9
# to_algebra warns above this 1-norm condition number ||x||_1 ||x^{-1}||_1,
# as LAPACK's gecon estimates it from x's LU (from below, mostly within 3x)
CONDITION_WARN = 1e12
ORTHOGONALITY_TOL = 1e-10
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

    def checked_algebra(self, x, **named):
        """x as a checked n x n float array, then X^{-1} v for each named
        vector v, each refused by name if it is off the Lie algebra.

        On a split with an so_block, an x within ORTHOGONALITY_TOL of
        orthogonal has x^T as its inverse; otherwise one LU of x solves for
        all of them and estimates its condition (to_algebra).
        """
        x, *vs = check_square_operands(self.n, x=x, **named)
        if self.split.so_block is not None and \
                orthonormality_residual(x) <= ORTHOGONALITY_TOL:
            out = [x.T @ v for v in vs]
        else:
            out = to_algebra(self, x, np.stack(vs), validate=False)
        _check_in_algebra(self.split, **dict(zip(named, out)))
        return (x, *out)


def _symmetry(m):
    """1 if m is symmetric, -1 if antisymmetric, 0 if zero, else None."""
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return 0
    if np.linalg.norm(m - m.T) <= SYMMETRY_RTOL * scale:
        return 1
    return -1 if np.linalg.norm(m + m.T) <= SYMMETRY_RTOL * scale else None


def _check_in_algebra(split, message=None, **named):
    """Refuse each named matrix, by name unless message is given, if it is
    off the Lie algebra by more than TANGENCY_RTOL max(1, its norm)."""
    for name, v in named.items():
        res = np.linalg.norm(v - split.proj_g(v))
        if not res <= TANGENCY_RTOL * max(1.0, np.linalg.norm(v)):
            raise ValidationError(message or f"{name} is not tangent: "
                                  f"algebra residual {res:.3e}")


def to_algebra(geom, x, xi, validate=True):
    """Group-relative velocity a = X^{-1} xi by one LU of x, which also
    gives its condition estimate (CONDITION_WARN); xi may stack vectors.
    Raises, naming xi, if a result is not in the Lie algebra, unless
    validate=False: the ODE oracle probes off-manifold states, and callers
    that stack xi and eta check each by name (_check_in_algebra)."""
    lu, piv, info = dgetrf(x)
    if info > 0:
        raise ValidationError("x is singular: its LU factorization has a zero pivot")
    rcond, _ = dgecon(lu, np.linalg.norm(x, 1))
    if rcond * CONDITION_WARN < 1.0:
        cond = 1.0 / rcond if rcond else np.inf
        warnings.warn(f"base point condition number {cond:.2e} (1-norm "
                      f"estimate) exceeds {CONDITION_WARN:.0e}", RuntimeWarning)
    n = x.shape[0]
    a, _ = dgetrs(lu, piv, np.moveaxis(xi, -2, 0).reshape(n, -1))
    a = np.moveaxis(a.reshape(n, *xi.shape[:-2], n), 0, -2)
    if validate:
        for v in a.reshape(-1, n, n):
            _check_in_algebra(geom.split, xi=v)
    return a


def metric(geom, x, xi, eta):
    """Left-invariant metric value <xi, eta> at x."""
    x, xi, eta = check_square_operands(geom.n, x=x, xi=xi, eta=eta)
    a, b = to_algebra(geom, x, np.stack([xi, eta]), validate=False)
    _check_in_algebra(geom.split, xi=a, eta=b)
    return beta_form(a, b, geom.split, geom.params)


def christoffel(geom, x, xi, eta, validate=True):
    """Christoffel function of the Levi-Civita connection at x."""
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
    """exp(t (a - c a_a)) and the map m -> m exp(t c a_a), c = 1+beta: the
    geodesic from X with velocity X a is the map applied to X times the
    first factor.  On a split with an so_block d, a_a lives in the top
    d x d block, so the map right-multiplies the first d columns by a
    d x d exponential."""
    aa = geom.split.proj_a(a)
    c = 1.0 + geom.beta
    left = expaction.matrix_exponential(t * (a - c * aa))
    d = geom.split.so_block
    if d is None:
        right = expaction.matrix_exponential(t * c * aa)
        return left, lambda m: m @ right
    small = expaction.matrix_exponential(t * c * aa[:d, :d])
    return left, lambda m: hcat(m[:, :d] @ small, m[:, d:])


def geodesic(geom, x, xi, t):
    """Geodesic through x with initial velocity xi, evaluated at time t."""
    t = check_time(t)
    x, a = geom.checked_algebra(x, xi=xi)
    left, finish = geodesic_factors(geom, a, t)
    return finish(x @ left)


def geodesic_velocity(geom, x, xi, t):
    """The pair (gamma(t), dgamma/dt), by closed-form differentiation."""
    t = check_time(t)
    x, a = geom.checked_algebra(x, xi=xi)
    left, finish = geodesic_factors(geom, a, t)
    # gamma^{-1} dgamma = right^{-1} a right, so dgamma = X left a right
    return finish(x @ left), finish(x @ left @ a)


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
    if quotient is None:
        proj_m, nu_m = (lambda m: m), 1.0
        e = 0.5 * (a - c * aa)

        def bracket(b):  # ([b, a] + c [a_a, b]) / 2 = [b, e]
            out = b @ e
            out -= e @ b
            return out
    else:
        proj_m, nu_m = quotient.proj_m, quotient.proj_m_norm
        half, half_aa = 0.5 * a, (0.5 * c) * aa

        def bracket(b):  # (pi_m[b, a] + c [a_a, b]) / 2
            return proj_m(b @ half - half @ b) + lie(half_aa, b)

    def apply_adjoint(b):
        # adjoint of b -> proj_m([b, a]) is b -> [proj_m(b), a^T]
        return 0.5 * (lie(proj_m(b), at)
                      + c * (lie(aat, b) - proj_a(lie(b, at))))

    if d is None:
        ca = (0.5 * c) * a

        def apply(b):
            out, ba = bracket(b), proj_a(b)
            out -= ba @ ca
            out += ca @ ba
            return out
    else:  # b_a is asym(b[:d, :d]) in the top block; its 1/2 goes in here
        rows, cols = (0.25 * c) * a[:d], (0.25 * c) * a[:, :d]

        def apply(b):
            out = bracket(b)
            top = b[..., :d, :d]
            top = top - top.swapaxes(-1, -2)
            out[..., :d, :] -= top @ rows
            out[..., :, :d] += cols @ top
            return out

    kappa = _bracket_norm(a)
    bound = 0.5 * (nu_m * kappa
                   + abs(c) * (_bracket_norm(aa) + geom.proj_a_norm * kappa))
    return expaction.LinearOperatorHandle(
        apply=apply, apply_adjoint=apply_adjoint,
        one_norm_upper_bound=bound, domain_shape=a.shape,
        skew_two_norm_bound=_p_a_two_norm_bound(geom, a, aa)
        if geom.definite else None)


def _p_a_two_norm_bound(geom, a, aa):
    """rho >= the D-balanced 2-norm of P_a (module docstring), in O(n^3)."""
    beta, d = geom.beta, geom.split.so_block
    mag, diag = abs(beta), abs(1.0 + 2.0 * beta)
    if d is not None:
        al, ka = two_norm_bound(aa[:d, :d]), two_norm_bound(a[d:, d:])
        pi = two_norm_bound(a[:d, d:]) / np.sqrt(2.0)  # the docstring's pi/sqrt2
        off = np.sqrt(mag) * pi
        return block_norm_bound([[diag * al, off, 0.0],
                                 [off, 0.5 * (mag * al + ka), pi], [0.0, pi, ka]])
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
    """P_a for the geometry's split, by p_a_operator, after checking that
    a is in the Lie algebra: its 1-norm bound takes O(n^2) work and its
    2-norm bound, set when geom.definite, O(n^3) (module docstring)."""
    a = as_real(a, "a")
    _check_in_algebra(geom.split, "operator coefficient is not in the Lie "
                      "algebra", a=a)
    return p_a_operator(geom, a)


def transport(geom, x, xi, eta, t):
    """Parallel transport of eta along the geodesic driven by xi."""
    t = check_time(t)
    x, a, w0 = geom.checked_algebra(x, xi=xi, eta=eta)
    left, finish = geodesic_factors(geom, a, t)
    return finish(x @ left @ expaction.expa(p_a_operator(geom, a), w0, t))
