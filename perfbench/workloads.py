"""Seeded inputs, timed public calls and output checks for each workload.

A workload is one pass: an ordered list of calls into the library's
numerical functions.  The harness repeats the pass, so every pass makes
the same calls on the same inputs and per-pass counts repeat exactly.
Every velocity has unit metric speed and every transported vector unit
metric norm.  Inputs are generated here, before any timing; references
for the output checks (geodesic endpoints) are computed on first use,
outside the timer.
"""
import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from manitrans import (flag_grassmann, forms, gl_so, group_core, oracle,
                       quotient, stiefel)
from manitrans.utils import asym

# Relative tolerance of the per-call output check: tangency or
# horizontality residual at the geodesic endpoint, and drift of the metric
# norm.  Observed values are at roundoff (below 1e-12).
CHECK_RTOL = 1e-8
# Closed form against the RK oracle, the gate of acceptance criterion 1.
ORACLE_TOL = 1e-6
ORACLE_GRID = (0.0, 0.5, 1.0)

# Which module owns each family's entry point; spans of a call are
# attributed to this module when no deeper span is open.
FAMILY_MODULE = {
    "stiefel": "stiefel", "plan": "stiefel", "flag": "flag_grassmann",
    "grassmann": "flag_grassmann", "so": "gl_so", "gl": "gl_so",
    "group": "group_core", "quotient": "quotient",
}

@dataclass
class Call:
    """One timed public call and the check of its output."""
    family: str
    geometry: str
    vectors: int                              # tangent vectors transported
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output passes


@dataclass
class Workload:
    calls: list            # one pass, in order
    oracle_checks: list    # (family, callable returning the max error)


def digest(out):
    """Hash of a call's output, to compare outputs bit for bit."""
    if isinstance(out, stiefel.StiefelTransportPlan):
        parts = (out.basis, out.big_exp_arg,
                 np.array([out.p_op.one_norm_upper_bound]))
    else:
        parts = (np.asarray(out),)
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _verdict(residual, norm_got, norm_want):
    """Failure message, or None.  Written so that NaN fails."""
    residual = np.max(residual)
    drift = np.max(np.abs(norm_got - norm_want) / np.maximum(1.0, norm_want))
    if not residual <= CHECK_RTOL:
        return f"tangency/horizontality residual {residual:.3e}"
    if not drift <= CHECK_RTOL:
        return f"metric norm drift {drift:.3e}"
    return None


def _fro(m):
    return np.linalg.norm(m, axis=(-2, -1))


def _skew_residual(c, scale):
    return _fro(c + np.swapaxes(c, -1, -2)) / 2.0 / np.maximum(1.0, scale)


# --- Stiefel, flag and Grassmann -------------------------------------------

def _stiefel_point(rng, n, d):
    return np.linalg.qr(rng.standard_normal((n, d)))[0]


def _stiefel_norm(y, v, alpha, c=None):
    """Metric norm at y; c = y^T v when the caller already has it."""
    if c is None:
        c = np.swapaxes(y, -1, -2) @ v
    sq = np.sum(v * v, axis=(-2, -1)) + (alpha - 1.0) * np.sum(c * c, axis=(-2, -1))
    return np.sqrt(sq)


def _stiefel_vector(rng, y, alpha, rank=None):
    """Unit tangent at y; rank, if given, limits the Y-orthogonal part."""
    n, d = y.shape
    if rank is None:
        v = stiefel.project_tangent(y, rng.standard_normal((n, d)))
    else:
        g = rng.standard_normal((n, rank))
        g -= y @ (y.T @ g)
        v = y @ asym(rng.standard_normal((d, d))) + g @ rng.standard_normal((rank, d))
    return v / _stiefel_norm(y, v, alpha)


def _stiefel_check(y, xi, eta, alpha, t):
    endpoint = functools.cache(lambda: stiefel.stiefel_geodesic(
        y, xi, stiefel.StiefelMetricParams(alpha), t))
    want = _stiefel_norm(y, eta, alpha)

    def check(v):
        g = endpoint()
        c = np.swapaxes(g, -1, -2) @ v
        return _verdict(_skew_residual(c, _fro(v)), _stiefel_norm(g, v, alpha, c), want)
    return check


def _plan_check(y, xi):
    def check(plan):
        dec = plan.decomposition
        rebuilt = y @ dec.a + dec.q @ dec.r
        res = max(np.linalg.norm(rebuilt - xi),
                  np.linalg.norm(dec.q.T @ dec.q - np.eye(dec.k)),
                  np.linalg.norm(y.T @ dec.q))
        if not res <= CHECK_RTOL:
            return f"plan does not reproduce the velocity: residual {res:.3e}"
        return None
    return check


def _flag_vector(rng, sig, y):
    v = flag_grassmann.flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
    return v / _stiefel_norm(y, v, flag_grassmann.CANONICAL_ALPHA)


def _flag_check(sig, y, xi, eta, t):
    endpoint = functools.cache(lambda: flag_grassmann.flag_geodesic(sig, y, xi, t))
    alpha = flag_grassmann.CANONICAL_ALPHA
    want = _stiefel_norm(y, eta, alpha)

    def check(v):
        g = endpoint()
        c = g.T @ v
        res = _skew_residual(c, _fro(v))
        offs = sig.offsets
        for lo, hi in zip(offs[:-1], offs[1:]):
            res = max(res, _fro(c[lo:hi, lo:hi]) / max(1.0, _fro(v)))
        return _verdict(res, _stiefel_norm(g, v, alpha, c), want)
    return check


def _grassmann_vector(rng, y):
    v = rng.standard_normal(y.shape)
    v -= y @ (y.T @ v)
    return v / np.linalg.norm(v)


def _grassmann_check(y, xi, eta, t):
    # for Y^T xi = 0 the canonical Stiefel geodesic is the Grassmann one
    endpoint = functools.cache(lambda: stiefel.stiefel_geodesic(
        y, xi, stiefel.StiefelMetricParams(0.5), t))
    want = _fro(eta)

    def check(v):
        g = endpoint()
        res = _fro(g.T @ v) / max(1.0, _fro(v))
        return _verdict(res, _fro(v), want)
    return check


def oneshot(seed, smoke=False):
    """One full public transport of one vector per call, on a fresh
    geodesic each: Stiefel (a quarter rank-deficient), flag, Grassmann."""
    rng = np.random.default_rng([seed, 1])
    n, d = (40, 6) if smoke else (2000, 50)
    sig = flag_grassmann.FlagSignature(d_list=(2, 2, 2) if smoke else (20, 15, 15), n=n)
    geo_st, geo_fl, geo_gr = (f"St({n},{d})", f"Flag({n};{','.join(map(str, sig.d_list))})",
                              f"Gr({n},{d})")
    calls = []
    for i in range(4):
        for alpha in (0.5, 1.0):
            params = stiefel.StiefelMetricParams(alpha)
            y = _stiefel_point(rng, n, d)
            xi = _stiefel_vector(rng, y, alpha, rank=d // 2 if i == 0 else None)
            eta = _stiefel_vector(rng, y, alpha)
            t = float(rng.uniform(0.05, 1.0))
            calls.append(Call(
                "stiefel", f"{geo_st} a={alpha}", 1,
                lambda y=y, xi=xi, eta=eta, p=params, t=t:
                    stiefel.stiefel_transport(y, xi, eta, p, t),
                _stiefel_check(y, xi, eta, alpha, t)))
        y = _stiefel_point(rng, n, d)
        xi, eta = _flag_vector(rng, sig, y), _flag_vector(rng, sig, y)
        t = float(rng.uniform(0.05, 1.0))
        calls.append(Call(
            "flag", geo_fl, 1,
            lambda y=y, xi=xi, eta=eta, t=t:
                flag_grassmann.flag_transport_canonical(sig, y, xi, eta, t),
            _flag_check(sig, y, xi, eta, t)))
        y = _stiefel_point(rng, n, d)
        xi, eta = _grassmann_vector(rng, y), _grassmann_vector(rng, y)
        t = float(rng.uniform(0.05, 1.0))
        calls.append(Call(
            "grassmann", geo_gr, 1,
            lambda y=y, xi=xi, eta=eta, t=t:
                flag_grassmann.grassmann_transport(y, xi, eta, t),
            _grassmann_check(y, xi, eta, t)))
    return Workload(calls, [
        ("stiefel", lambda: _oracle_stiefel(rng, 1.0, via_plan=False)),
        ("flag", lambda: _oracle_flag(rng, (2, 2), 10)),
        ("grassmann", lambda: _oracle_flag(rng, (4,), 10, grassmann=True)),
    ])


def sweep(seed, smoke=False):
    """One geodesic per geometry: its plan, then a batch of 4 vectors
    transported to 16 log-spaced times in [0.5, 50]."""
    rng = np.random.default_rng([seed, 2])
    shapes = ((30, 6, 0.5), (40, 4, 1.0)) if smoke else ((1000, 100, 0.5), (2000, 50, 1.0))
    times = np.geomspace(0.5, 50.0, 4 if smoke else 16)
    calls = []
    for n, d, alpha in shapes:
        params = stiefel.StiefelMetricParams(alpha)
        geo = f"St({n},{d}) a={alpha}"
        y = _stiefel_point(rng, n, d)
        xi = _stiefel_vector(rng, y, alpha)
        etas = np.stack([_stiefel_vector(rng, y, alpha) for _ in range(4)])
        holder = []

        def make_plan(y=y, xi=xi, params=params, holder=holder):
            holder[:] = [stiefel.make_transport_plan(y, xi, params)]
            return holder[0]

        calls.append(Call("plan", geo, 0, make_plan, _plan_check(y, xi)))
        for t in times:
            t = float(t)
            calls.append(Call(
                "stiefel", geo, len(etas),
                lambda y=y, etas=etas, t=t, holder=holder:
                    stiefel.transport_with_plan(holder[0], y, etas, t),
                _stiefel_check(y, xi, etas, alpha, t)))
    return Workload(calls, [
        ("stiefel", lambda: _oracle_stiefel(rng, 0.5, via_plan=True)),
    ])


# --- groups and the quotient ------------------------------------------------

def _so_point(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _gl_point(rng, n):
    x = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
    if np.linalg.det(x) < 0:
        x[:, 0] = -x[:, 0]
    return x


def _form_norm(a, split, params):
    return np.sqrt(forms.beta_form(a, a, split, params))


def _orthogonal_check(geodesic, x, xi, eta, t, split, params, proj_k=None):
    """Check for SO(n) and its quotient: X^T v in the (horizontal) algebra
    and its metric norm kept."""
    endpoint = functools.cache(lambda: geodesic(x, xi, t))
    want = _form_norm(x.T @ eta, split, params)

    def check(v):
        a = endpoint().T @ v
        res = _skew_residual(a, _fro(a))
        if proj_k is not None:
            res = max(res, _fro(proj_k(a)) / max(1.0, _fro(a)))
        return _verdict(res, _form_norm(asym(a), split, params), want)
    return check


def _gl_check(geom, x, xi, eta, t):
    endpoint = functools.cache(lambda: gl_so.gl_geodesic(geom, x, xi, t))
    a0 = np.linalg.solve(x, eta)
    want = np.sqrt(gl_so.gl_metric(geom, a0, a0))

    def check(v):
        a = np.linalg.solve(endpoint(), v)
        # every matrix is tangent to GL(n): only finiteness is checked
        res = 0.0 if np.all(np.isfinite(a)) else np.inf
        return _verdict(res, np.sqrt(gl_so.gl_metric(geom, a, a)), want)
    return check


def group(seed, smoke=False):
    """Small groups and a quotient at t in {1, 5}, with sizes on both sides
    of the exhaustive 1-norm cap."""
    rng = np.random.default_rng([seed, 3])
    so_shapes = ((6, 2), (8, 3)) if smoke else ((16, 4), (40, 10))
    gl_sizes = (4, 6) if smoke else (16, 32)
    qn, qd = (6, 2) if smoke else (12, 4)
    alpha, beta = 0.8, 0.5
    q = quotient.stiefel_quotient(qn, qd, alpha)
    calls = []
    for _ in range(2):
        for n, d in so_shapes:
            geom = gl_so.SOGeometry(n=n, d=d, alpha=alpha)
            ggeom = group_core.GroupGeometry(split=geom.split, params=geom.params)
            x = _so_point(rng, n)
            a, b = asym(rng.standard_normal((n, n))), asym(rng.standard_normal((n, n)))
            xi = x @ a / np.sqrt(gl_so.so_metric(geom, a, a))
            eta = x @ b / np.sqrt(gl_so.so_metric(geom, b, b))
            for t in (1.0, 5.0):
                check = _orthogonal_check(
                    lambda x, xi, t, geom=geom: gl_so.so_geodesic(geom, x, xi, t),
                    x, xi, eta, t, ggeom.split, ggeom.params)
                calls.append(Call(
                    "so", f"SO({n},{d})", 1,
                    lambda geom=geom, x=x, xi=xi, eta=eta, t=t:
                        gl_so.so_transport(geom, x, xi, eta, t), check))
                calls.append(Call(
                    "group", f"SO({n},{d})", 1,
                    lambda g=ggeom, x=x, xi=xi, eta=eta, t=t:
                        group_core.transport(g, x, xi, eta, t), check))
        for n in gl_sizes:
            geom = gl_so.GLGeometry(n=n, beta=beta)
            x = _gl_point(rng, n)
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            xi = x @ a / np.sqrt(gl_so.gl_metric(geom, a, a))
            eta = x @ b / np.sqrt(gl_so.gl_metric(geom, b, b))
            for t in (1.0, 5.0):
                calls.append(Call(
                    "gl", f"GL({n})", 1,
                    lambda geom=geom, x=x, xi=xi, eta=eta, t=t:
                        gl_so.gl_transport(geom, x, xi, eta, t),
                    _gl_check(geom, x, xi, eta, t)))
        x = _so_point(rng, qn)
        a = q.proj_m(asym(rng.standard_normal((qn, qn))))
        b = q.proj_m(asym(rng.standard_normal((qn, qn))))
        split, params = q.geom.split, q.geom.params
        xi = x @ a / _form_norm(a, split, params)
        eta = x @ b / _form_norm(b, split, params)
        for t in (1.0, 5.0):
            calls.append(Call(
                "quotient", f"St({qn},{qd}) quotient", 1,
                lambda x=x, xi=xi, eta=eta, t=t:
                    quotient.quotient_transport(q, x, xi, eta, t),
                _orthogonal_check(
                    lambda x, xi, t: group_core.geodesic(q.geom, x, xi, t),
                    x, xi, eta, t, split, params, proj_k=q.proj_k)))
    return Workload(calls, [
        ("so", lambda: _oracle_so(rng, generic=False)),
        ("group", lambda: _oracle_so(rng, generic=True)),
        ("gl", lambda: _oracle_gl(rng)),
        ("quotient", lambda: _oracle_quotient(rng)),
    ])


BUILDERS = {"oneshot": oneshot, "sweep": sweep, "group": group}


# --- closed form against the RK oracle, at small sizes ----------------------

def _oracle_error(transport, christoffel, geodesic_velocity, eta):
    refs = oracle.integrate_transport(christoffel, geodesic_velocity, eta, ORACLE_GRID)
    return max(float(np.linalg.norm(transport(t) - r)) for t, r in zip(ORACLE_GRID, refs))


def _oracle_stiefel(rng, alpha, via_plan):
    params = stiefel.StiefelMetricParams(alpha)
    y = _stiefel_point(rng, 8, 3)
    xi, eta = _stiefel_vector(rng, y, alpha), _stiefel_vector(rng, y, alpha)
    if via_plan:
        plan = stiefel.make_transport_plan(y, xi, params)

        def transport(t):
            return stiefel.transport_with_plan(plan, y, eta[None], t)[0]
    else:
        def transport(t):
            return stiefel.stiefel_transport(y, xi, eta, params, t)
    return _oracle_error(
        transport,
        lambda p, v, w: stiefel.stiefel_christoffel(p, v, w, params),
        lambda t: stiefel.stiefel_geodesic_velocity(y, xi, params, t), eta)


def _oracle_flag(rng, d_list, n, grassmann=False):
    """Flag transport, or Grassmann transport as the one-block flag."""
    sig = flag_grassmann.FlagSignature(d_list=d_list, n=n)
    params = stiefel.StiefelMetricParams(flag_grassmann.CANONICAL_ALPHA)
    y = _stiefel_point(rng, n, sig.d)
    xi, eta = _flag_vector(rng, sig, y), _flag_vector(rng, sig, y)
    if grassmann:
        def transport(t):
            return flag_grassmann.grassmann_transport(y, xi, eta, t)
    else:
        def transport(t):
            return flag_grassmann.flag_transport_canonical(sig, y, xi, eta, t)
    return _oracle_error(
        transport,
        lambda p, v, w: flag_grassmann.flag_christoffel(sig, p, v, w, params, validate=False),
        lambda t: stiefel.stiefel_geodesic_velocity(y, xi, params, t), eta)


def _oracle_so(rng, generic):
    geom = gl_so.SOGeometry(n=6, d=2, alpha=0.8)
    ggeom = group_core.GroupGeometry(split=geom.split, params=geom.params)
    x = _so_point(rng, 6)
    xi = x @ asym(rng.standard_normal((6, 6)))
    eta = x @ asym(rng.standard_normal((6, 6)))
    if generic:
        def transport(t):
            return group_core.transport(ggeom, x, xi, eta, t)
    else:
        def transport(t):
            return gl_so.so_transport(geom, x, xi, eta, t)
    return _oracle_error(
        transport,
        lambda p, v, w: group_core.christoffel(ggeom, p, v, w, validate=False),
        lambda t: gl_so.so_geodesic_velocity(geom, x, xi, t), eta)


def _oracle_gl(rng):
    geom = gl_so.GLGeometry(n=4, beta=0.5)
    ggeom = group_core.GroupGeometry(split=geom.split, params=geom.params)
    x = _gl_point(rng, 4)
    xi = x @ rng.standard_normal((4, 4)) / 4.0
    eta = x @ rng.standard_normal((4, 4)) / 4.0
    return _oracle_error(
        lambda t: gl_so.gl_transport(geom, x, xi, eta, t),
        lambda p, v, w: group_core.christoffel(ggeom, p, v, w, validate=False),
        lambda t: group_core.geodesic_velocity(ggeom, x, xi, t), eta)


def _oracle_quotient(rng):
    q = quotient.stiefel_quotient(6, 2, 0.8)
    x = _so_point(rng, 6)
    xi = x @ q.proj_m(asym(rng.standard_normal((6, 6))))
    eta = x @ q.proj_m(asym(rng.standard_normal((6, 6))))
    return _oracle_error(
        lambda t: quotient.quotient_transport(q, x, xi, eta, t),
        lambda p, v, w: quotient.horizontal_christoffel(q, p, v, w, validate=False),
        lambda t: group_core.geodesic_velocity(q.geom, x, xi, t), eta)
