"""Acceptance suite: one test per criterion, each printing a pass line
with the measured statistic once its gate holds.

Criteria 2 and 3 run at publication scale and dominate the suite's wall
time (a couple of minutes together).
"""
import time

import numpy as np
import scipy.linalg

from manitrans import oracle
from manitrans.bench_cli import BenchConfig, run_isometry, run_timing
from manitrans.expaction import (dense_operator_matrix, expa,
                                 one_norm_estimate_exhaustive)
from manitrans.flag_grassmann import (FlagSignature, flag_christoffel,
                                      flag_horizontal_project,
                                      flag_transport_canonical,
                                      grassmann_transport)
from manitrans.forms import beta_form
from manitrans.gl_so import (GLGeometry, SOGeometry, gl_geodesic,
                             gl_transport, gl_transport_operator, so_geodesic,
                             so_geodesic_velocity, so_transport,
                             so_transport_operator)
from manitrans.group_core import (GroupGeometry, christoffel, geodesic,
                                  geodesic_velocity, transport,
                                  transport_operator)
from manitrans.quotient import quotient_transport, stiefel_quotient, flag_quotient
from manitrans.stiefel import (StiefelMetricParams, TangentDecomposition,
                               p_bal_norm_bound, p_bal_operator,
                               stiefel_christoffel, stiefel_geodesic,
                               stiefel_geodesic_velocity, stiefel_transport)
from manitrans.utils import asym

from helpers import (horizontal_lift, random_glp, random_so,
                     random_so_tangent, random_stiefel, random_stiefel_tangent)

ORACLE_GRID = np.linspace(0.0, 2.0, 9)
FD_DT = 1e-3


def _case_stiefel(rng, alpha):
    y = random_stiefel(rng, 8, 3)
    xi = random_stiefel_tangent(rng, y)
    eta = random_stiefel_tangent(rng, y)
    xi /= np.linalg.norm(xi)
    eta /= np.linalg.norm(eta)
    params = StiefelMetricParams(alpha)
    return dict(
        name=f"stiefel(8,3) alpha={alpha}",
        transport=lambda t: stiefel_transport(y, xi, eta, params, t),
        geodesic=lambda t: stiefel_geodesic(y, xi, params, t),
        geodesic_velocity=lambda t: stiefel_geodesic_velocity(y, xi, params, t),
        christoffel=lambda p, v, w: stiefel_christoffel(p, v, w, params),
        eta=eta)


def _case_so(rng):
    geom = SOGeometry(n=6, d=2, alpha=0.8)
    ggeom = GroupGeometry(split=geom.split, params=geom.params)
    x = random_so(rng, 6)
    xi = random_so_tangent(rng, x)
    eta = random_so_tangent(rng, x)
    xi /= np.linalg.norm(xi)
    eta /= np.linalg.norm(eta)
    return dict(
        name="so(6) d=2 alpha=0.8",
        transport=lambda t: so_transport(geom, x, xi, eta, t),
        geodesic=lambda t: so_geodesic(geom, x, xi, t),
        geodesic_velocity=lambda t: so_geodesic_velocity(geom, x, xi, t),
        christoffel=lambda p, v, w: christoffel(ggeom, p, v, w, validate=False),
        eta=eta)


def _case_gl(rng):
    geom = GLGeometry(n=4, beta=0.7)
    ggeom = GroupGeometry(split=geom.split, params=geom.params)
    x = random_glp(rng, 4)
    xi = x @ rng.standard_normal((4, 4))
    eta = x @ rng.standard_normal((4, 4))
    xi /= np.linalg.norm(xi)
    eta /= np.linalg.norm(eta)
    return dict(
        name="gl(4) beta=0.7",
        transport=lambda t: gl_transport(geom, x, xi, eta, t),
        geodesic=lambda t: gl_geodesic(geom, x, xi, t),
        geodesic_velocity=lambda t: geodesic_velocity(ggeom, x, xi, t),
        christoffel=lambda p, v, w: christoffel(ggeom, p, v, w, validate=False),
        eta=eta)


def _case_flag(rng):
    sig = FlagSignature(d_list=(2, 2), n=10)
    params = StiefelMetricParams(0.5)
    y = random_stiefel(rng, 10, 4)
    xi = flag_horizontal_project(sig, y, rng.standard_normal((10, 4)))
    eta = flag_horizontal_project(sig, y, rng.standard_normal((10, 4)))
    xi /= np.linalg.norm(xi)
    eta /= np.linalg.norm(eta)
    return dict(
        name="flag(2,2,6) alpha=1/2",
        transport=lambda t: flag_transport_canonical(sig, y, xi, eta, t),
        geodesic=lambda t: stiefel_geodesic(y, xi, params, t),
        geodesic_velocity=lambda t: stiefel_geodesic_velocity(y, xi, params, t),
        christoffel=lambda p, v, w: flag_christoffel(sig, p, v, w, params,
                                                     validate=False),
        eta=eta)


def test_criterion_1_transport_residuals():
    """Closed form vs RK oracle <= 1e-6 on [0, 2]; FD residual <= 1e-5."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cases = [_case_stiefel(rng, 0.5), _case_stiefel(rng, 1.0),
             _case_so(rng), _case_gl(rng), _case_flag(rng)]
    for case in cases:
        ref = oracle.integrate_transport(
            case["christoffel"], case["geodesic_velocity"], case["eta"],
            ORACLE_GRID)
        oracle_err = max(
            np.linalg.norm(case["transport"](t) - r)
            for t, r in zip(ORACLE_GRID, ref))
        assert oracle_err <= 1e-6, f"{case['name']}: oracle error {oracle_err:.2e}"

        grid = np.arange(0.0, 2.0 + FD_DT / 2, FD_DT)
        deltas = [case["transport"](t) for t in grid]
        gammas = [case["geodesic"](t) for t in grid]
        fd_res = oracle.transport_residual(
            deltas, gammas, case["christoffel"], FD_DT)
        assert fd_res <= 1e-5, f"{case['name']}: FD residual {fd_res:.2e}"
        print(f"criterion 1 [{case['name']}]: PASS "
              f"(oracle {oracle_err:.2e}, fd {fd_res:.2e})")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (gate 30s)"
    print(f"criterion 1: PASS in {elapsed:.1f}s")


def test_criterion_2_isometry_drift():
    """Gram drift <= 1e-9 at every grid time, St(2000,100) and the flag."""
    start = time.perf_counter()
    grid = (0.1, 0.3, 0.5, 0.7, 1.2, 1.5, 1.7, 2.1, 3.0, 15.0)
    stiefel_rows = run_isometry(BenchConfig(
        manifold="stiefel", n=2000, d=100, alpha=1.0, t_grid=grid,
        num_vectors=20, seed=42))
    worst_st = max(row["max_gram_drift"] for row in stiefel_rows)
    assert worst_st <= 1e-9, f"Stiefel drift {worst_st:.2e}"
    flag_rows = run_isometry(BenchConfig(
        manifold="flag", n=2000, d_list=(50, 20, 30), alpha=0.5, t_grid=grid,
        num_vectors=20, seed=42))
    worst_fl = max(row["max_gram_drift"] for row in flag_rows)
    assert worst_fl <= 1e-9, f"flag drift {worst_fl:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"criterion 2 took {elapsed:.1f}s (gate 180s)"
    print(f"criterion 2: PASS (drift stiefel {worst_st:.2e}, "
          f"flag {worst_fl:.2e}; {elapsed:.1f}s)")


def _loglog_slope(xs, ys):
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def test_criterion_3_complexity_shape():
    """Log-log slopes of time vs n and time vs t stay <= 1.3.

    Each sweep runs three times with the per-cell minimum of the median
    timings, which strips additive scheduler noise on shared machines.
    """
    start = time.perf_counter()
    sweeps = 3
    n_values = (100, 200, 1000, 2000)
    times_by_n = np.full(len(n_values), np.inf)
    for _ in range(sweeps):
        for i, n in enumerate(n_values):
            rows = run_timing(BenchConfig(
                manifold="stiefel", n=n, d=50, alpha=0.5, t_grid=(0.5,),
                repeats=5, seed=42))
            times_by_n[i] = min(times_by_n[i], rows[0]["median_seconds"])
    slope_n = _loglog_slope(n_values, times_by_n)
    assert slope_n <= 1.3, f"time-vs-n slope {slope_n:.2f} ({times_by_n})"

    t_values = (0.5, 1.0, 2.0, 5.0, 20.0)
    times_by_t = np.full(len(t_values), np.inf)
    for _ in range(sweeps):
        rows = run_timing(BenchConfig(
            manifold="stiefel", n=200, d=50, alpha=0.5, t_grid=t_values,
            repeats=5, seed=42))
        times_by_t = np.minimum(times_by_t,
                                [r["median_seconds"] for r in rows])
    slope_t = _loglog_slope(t_values, times_by_t)
    assert slope_t <= 1.3, f"time-vs-t slope {slope_t:.2f} ({times_by_t})"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s (gate 300s)"
    print(f"criterion 3: PASS (slope_n {slope_n:.2f}, slope_t {slope_t:.2f}; "
          f"{elapsed:.1f}s; published reference timings, e.g. 0.04s at "
          f"n=100/t=0.5 on other hardware, are metadata only, not asserted)")


def test_criterion_4_norm_bound_soundness():
    """Exhaustive 1-norm never exceeds max(n_A, n_R); zero violations."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    violations = 0
    checked = 0
    for d in range(1, 5):
        for k in range(1, 5):
            for alpha in (0.25, 0.5, 1.0, 2.0):
                params = StiefelMetricParams(alpha)
                for _ in range(50):
                    decomp = TangentDecomposition(
                        a=asym(rng.standard_normal((d, d))),
                        q=np.zeros((d + k, k)),
                        r=rng.standard_normal((k, d)), k=k)
                    op = p_bal_operator(decomp, params)
                    exact = one_norm_estimate_exhaustive(op)
                    checked += 1
                    if exact > p_bal_norm_bound(decomp, params) + 1e-12:
                        violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} norm-bound violations"
    assert elapsed < 20.0, f"criterion 4 took {elapsed:.1f}s (gate 20s)"
    print(f"criterion 4: PASS ({checked} instances, 0 violations, "
          f"{elapsed:.1f}s)")


def test_criterion_5_antisymmetry_suites():
    """Metric antisymmetry of P_a, Frobenius antisymmetry of the balanced
    operator, and the adjoint formula vs transposed vectorization."""
    rng = np.random.default_rng(7)

    gl = GLGeometry(n=4, beta=0.7)
    so = SOGeometry(n=5, d=2, alpha=0.8)
    worst_pairing = 0.0
    for _ in range(500):
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        op = gl_transport_operator(gl, a)
        lhs = beta_form(op.apply(b), c, gl.split, gl.params)
        rhs = beta_form(op.apply(c), b, gl.split, gl.params)
        worst_pairing = max(worst_pairing,
                            abs(lhs + rhs) / max(1.0, abs(lhs)))
    for _ in range(500):
        a, b, c = (asym(rng.standard_normal((5, 5))) for _ in range(3))
        op = so_transport_operator(so, a)
        lhs = beta_form(op.apply(b), c, so.split, so.params)
        rhs = beta_form(op.apply(c), b, so.split, so.params)
        worst_pairing = max(worst_pairing,
                            abs(lhs + rhs) / max(1.0, abs(lhs)))
    assert worst_pairing <= 1e-10

    worst_frob = 0.0
    for _ in range(100):
        d, k = rng.integers(1, 5), rng.integers(1, 5)
        decomp = TangentDecomposition(
            a=asym(rng.standard_normal((d, d))), q=np.zeros((d + k, k)),
            r=rng.standard_normal((k, d)), k=int(k))
        op = p_bal_operator(decomp, StiefelMetricParams(0.8))
        w = np.concatenate([asym(rng.standard_normal((d, d))),
                            rng.standard_normal((k, d))])
        v = np.concatenate([asym(rng.standard_normal((d, d))),
                            rng.standard_normal((k, d))])
        pairing = abs(float(np.sum(op.apply(w) * v) + np.sum(op.apply(v) * w)))
        worst_frob = max(worst_frob, pairing / max(
            1.0, np.linalg.norm(w) * np.linalg.norm(v)))
    assert worst_frob <= 1e-12

    worst_adj = 0.0
    gl5 = GLGeometry(n=5, beta=0.7)
    so5 = SOGeometry(n=5, d=2, alpha=0.8)
    ggl = GroupGeometry(split=gl5.split, params=gl5.params)
    gso = GroupGeometry(split=so5.split, params=so5.params)
    for geom, coeff in ((ggl, rng.standard_normal((5, 5))),
                        (gso, asym(rng.standard_normal((5, 5))))):
        op = transport_operator(geom, coeff)
        dense = dense_operator_matrix(op)
        dense_adj = dense_operator_matrix(op, adjoint=True)
        worst_adj = max(worst_adj, float(np.linalg.norm(dense_adj - dense.T)))
    assert worst_adj <= 1e-10
    print(f"criterion 5: PASS (pairing {worst_pairing:.2e}, "
          f"frobenius {worst_frob:.2e}, adjoint {worst_adj:.2e})")


def test_criterion_6_structural_equivalences():
    rng = np.random.default_rng(31)

    # (a) beta = -1 closed forms match the general formulas
    geom = GLGeometry(n=4, beta=-1.0)
    ggeom = GroupGeometry(split=geom.split, params=geom.params)
    x = random_glp(rng, 4)
    xi = x @ rng.standard_normal((4, 4))
    eta = x @ rng.standard_normal((4, 4))
    t = 1.3
    a = np.linalg.solve(x, xi)
    geo_want = x @ scipy.linalg.expm(t * a)
    err_a = np.linalg.norm(geodesic(ggeom, x, xi, t) - geo_want) \
        / np.linalg.norm(geo_want)
    half = scipy.linalg.expm(0.5 * t * a)
    tr_want = x @ half @ np.linalg.solve(x, eta) @ half
    err_a = max(err_a, np.linalg.norm(transport(ggeom, x, xi, eta, t) - tr_want)
                / np.linalg.norm(tr_want))
    gamma_want = -0.5 * (xi @ np.linalg.solve(x, eta)
                         + eta @ np.linalg.solve(x, xi))
    err_a = max(err_a, np.linalg.norm(
        christoffel(ggeom, x, xi, eta) - gamma_want) / np.linalg.norm(gamma_want))
    assert err_a <= 1e-10

    # (b) specialized GL/SO paths match group_core
    err_b = 0.0
    glg = GLGeometry(n=4, beta=0.7)
    gglg = GroupGeometry(split=glg.split, params=glg.params)
    err_b = max(err_b, np.linalg.norm(
        gl_geodesic(glg, x, xi, t) - geodesic(gglg, x, xi, t)))
    err_b = max(err_b, np.linalg.norm(
        gl_transport(glg, x, xi, eta, t) - transport(gglg, x, xi, eta, t)))
    sog = SOGeometry(n=6, d=2, alpha=0.8)
    gsog = GroupGeometry(split=sog.split, params=sog.params)
    q6 = random_so(rng, 6)
    xi6 = random_so_tangent(rng, q6)
    eta6 = random_so_tangent(rng, q6)
    err_b = max(err_b, np.linalg.norm(
        so_geodesic(sog, q6, xi6, t) - geodesic(gsog, q6, xi6, t)))
    err_b = max(err_b, np.linalg.norm(
        so_transport(sog, q6, xi6, eta6, t) - transport(gsog, q6, xi6, eta6, t)))
    assert err_b <= 1e-10

    # (c) stiefel_transport matches quotient_transport after projection
    n, d, alpha = 9, 3, 0.8
    quo = stiefel_quotient(n, d, alpha)
    xbar = random_so(rng, n)
    y, yperp = xbar[:, :d], xbar[:, d:]
    sxi = random_stiefel_tangent(rng, y)
    seta = random_stiefel_tangent(rng, y)
    moved = quotient_transport(
        quo, xbar, horizontal_lift(y, yperp, sxi),
        horizontal_lift(y, yperp, seta), t)
    err_c = np.linalg.norm(
        moved[:, :d] - stiefel_transport(y, sxi, seta,
                                         StiefelMetricParams(alpha), t))
    assert err_c <= 1e-8

    # (d) grassmann = flag p=1 = quotient machinery on the Grassmann split
    gy = random_stiefel(rng, 9, 3)
    gxi = rng.standard_normal((9, 3))
    gxi -= gy @ (gy.T @ gxi)
    geta = rng.standard_normal((9, 3))
    geta -= gy @ (gy.T @ geta)
    got_g = grassmann_transport(gy, gxi, geta, t)
    got_f = flag_transport_canonical(
        FlagSignature(d_list=(3,), n=9), gy, gxi, geta, t)
    err_d = np.linalg.norm(got_g - got_f)
    xbar9 = np.linalg.qr(
        np.concatenate([gy, rng.standard_normal((9, 6))], axis=1))[0]
    xbar9[:, :3] = gy
    if np.linalg.det(xbar9) < 0:
        xbar9[:, -1] = -xbar9[:, -1]
    gq = flag_quotient(9, (3,), 0.5)
    lifted = quotient_transport(
        gq, xbar9, horizontal_lift(gy, xbar9[:, 3:], gxi),
        horizontal_lift(gy, xbar9[:, 3:], geta), t)
    err_d = max(err_d, np.linalg.norm(lifted[:, :3] - got_g))
    assert err_d <= 1e-10

    # (e) expa matches dense vectorized expm on small dimensions
    err_e = 0.0
    for d_, k_ in ((2, 1), (3, 2), (3, 3)):
        decomp = TangentDecomposition(
            a=asym(rng.standard_normal((d_, d_))), q=np.zeros((d_ + k_, k_)),
            r=rng.standard_normal((k_, d_)), k=k_)
        op = p_bal_operator(decomp, StiefelMetricParams(0.5))
        dense = dense_operator_matrix(op)
        b = rng.standard_normal((d_ + k_, d_))
        want = (scipy.linalg.expm(1.7 * dense) @ b.reshape(-1)).reshape(b.shape)
        err_e = max(err_e, np.linalg.norm(expa(op, b, 1.7) - want)
                    / np.linalg.norm(want))
    assert err_e <= 1e-10
    print(f"criterion 6: PASS (a {err_a:.2e}, b {err_b:.2e}, c {err_c:.2e}, "
          f"d {err_d:.2e}, e {err_e:.2e})")


def test_criterion_7_geodesic_contracts():
    rng = np.random.default_rng(63)
    h = 1e-5

    # Stiefel
    y = random_stiefel(rng, 8, 3)
    xi = random_stiefel_tangent(rng, y)
    params = StiefelMetricParams(0.8)
    assert np.array_equal(stiefel_geodesic(y, xi, params, 0.0), y)
    fd = (stiefel_geodesic(y, xi, params, h)
          - stiefel_geodesic(y, xi, params, -h)) / (2 * h)
    assert np.linalg.norm(fd - xi) <= 1e-6
    gam = stiefel_geodesic(y, xi, params, 1.7)
    orth = np.linalg.norm(gam.T @ gam - np.eye(3))
    assert orth <= 1e-10

    # SO
    sog = SOGeometry(n=6, d=2, alpha=0.8)
    q6 = random_so(rng, 6)
    xi6 = random_so_tangent(rng, q6)
    assert np.array_equal(so_geodesic(sog, q6, xi6, 0.0), q6)
    gam6 = so_geodesic(sog, q6, xi6, 1.7)
    assert np.linalg.norm(gam6.T @ gam6 - np.eye(6)) <= 1e-10
    fd6 = (so_geodesic(sog, q6, xi6, h) - so_geodesic(sog, q6, xi6, -h)) / (2 * h)
    assert np.linalg.norm(fd6 - xi6) <= 1e-6

    # GL
    glg = GLGeometry(n=4, beta=0.7)
    gglg = GroupGeometry(split=glg.split, params=glg.params)
    x4 = random_glp(rng, 4)
    xi4 = x4 @ rng.standard_normal((4, 4))
    assert np.array_equal(gl_geodesic(glg, x4, xi4, 0.0), x4)
    fd4 = (gl_geodesic(glg, x4, xi4, h) - gl_geodesic(glg, x4, xi4, -h)) / (2 * h)
    assert np.linalg.norm(fd4 - xi4) <= 1e-6

    # geodesic-equation residuals, second-order finite differences
    worst_res = 0.0
    step = 1e-4

    def residual(gfun, cfun, t):
        gm, g0, gp = gfun(t - step), gfun(t), gfun(t + step)
        acc = (gp - 2 * g0 + gm) / step ** 2
        vel = (gp - gm) / (2 * step)
        return float(np.linalg.norm(acc + cfun(g0, vel, vel))
                     / max(1.0, np.linalg.norm(acc)))

    worst_res = max(worst_res, residual(
        lambda t: stiefel_geodesic(y, xi, params, t),
        lambda p, v, w: stiefel_christoffel(p, v, w, params), 0.9))
    gso = GroupGeometry(split=sog.split, params=sog.params)
    worst_res = max(worst_res, residual(
        lambda t: so_geodesic(sog, q6, xi6, t),
        lambda p, v, w: christoffel(gso, p, v, w, validate=False), 0.9))
    worst_res = max(worst_res, residual(
        lambda t: gl_geodesic(glg, x4, xi4, t),
        lambda p, v, w: christoffel(gglg, p, v, w, validate=False), 0.9))
    sig = FlagSignature(d_list=(2, 2), n=8)
    fy = random_stiefel(rng, 8, 4)
    fxi = flag_horizontal_project(sig, fy, rng.standard_normal((8, 4)))
    fparams = StiefelMetricParams(0.5)
    worst_res = max(worst_res, residual(
        lambda t: stiefel_geodesic(fy, fxi, fparams, t),
        lambda p, v, w: flag_christoffel(sig, p, v, w, fparams,
                                         validate=False), 0.9))
    assert worst_res <= 1e-6
    print(f"criterion 7: PASS (orthogonality {orth:.2e}, "
          f"geodesic residual {worst_res:.2e})")
