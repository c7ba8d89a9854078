import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from manitrans import oracle, stiefel
from manitrans.errors import DimensionError, NumericalError, ValidationError
from manitrans.expaction import (dense_operator_matrix, expa,
                                 one_norm_estimate_exhaustive,
                                 select_taylor_params)
from manitrans.flag_grassmann import (FlagSignature, flag_horizontal_project,
                                      flag_transport_canonical,
                                      flag_transport_plan)
from manitrans.forms import MetricParams, beta_form
from manitrans.gl_so import so_split
from manitrans.stiefel import (
    CHOLQR_MAX_COND, RANK_RTOL, StiefelMetricParams, TangentDecomposition,
    check_point, decompose_tangent, make_transport_plan, metric_inner,
    p_bal_norm_bound, p_bal_operator, plan_from_decomposition,
    project_tangent, single_time, stiefel_christoffel, stiefel_geodesic,
    stiefel_geodesic_velocity, stiefel_transport, transport_with_plan)
from manitrans.utils import asym, sym, two_norm_bound

from helpers import (
    BAD_VALUES, NON_REAL, check_tangent, decompose_tangent_reference,
    horizontal_lift, p_ar_apply, p_ar_operator, p_bal_norm_bound_display,
    poison_dtype, poisoned, random_so, random_stiefel, random_stiefel_tangent,
    refusal, rel_err, stiefel_geodesic_reference, transport_reference,
    zero_flag_blocks)


def random_decomp(rng, d, k):
    a = asym(rng.standard_normal((d, d)))
    r = rng.standard_normal((k, d))
    return TangentDecomposition(a=a, q=np.zeros((d + k + 3, k)), r=r, k=k)


def balanced_operator(decomp, params, mask=None):
    """The plan's balanced operator, with an optional top-block mask."""
    y = np.zeros((decomp.q.shape[0], decomp.d))
    return plan_from_decomposition(y, decomp, params, mask).p_op


def counting(op):
    """op with a counter of its applies."""
    count = [0]

    def apply(w):
        count[0] += 1
        return op.apply(w)
    return dataclasses.replace(op, apply=apply), count


def prescribed_velocity(rng, y, sig, log_cond, zeros):
    """Horizontal xi = Y A + U diag(s) V at Y for the flag signature sig.

    U is orthonormal and Y-orthogonal with m = min(n - d, d) columns and V
    has orthonormal rows, so s are the singular values of xi's
    Y-orthogonal part: log-spaced over log_cond decades, the last `zeros`
    of them exactly zero.
    """
    n, d = y.shape
    m = min(n - d, d)
    s = np.logspace(0.0, -log_cond, m)
    s[m - min(zeros, m):] = 0.0
    u = rng.standard_normal((n, m))
    u = np.linalg.qr(u - y @ (y.T @ u))[0]
    v = np.linalg.qr(rng.standard_normal((d, d)))[0][:m]
    a = zero_flag_blocks(sig, asym(rng.standard_normal((d, d))))
    return y @ a + (u * s) @ v


def velocity_of_rank(rng, y, rank, sig=None):
    """Tangent xi = Y A + U V at Y whose Y-orthogonal part U V has the
    given rank (horizontal for the flag signature sig)."""
    n, d = y.shape
    a = asym(rng.standard_normal((d, d)))
    if sig is not None:
        a = zero_flag_blocks(sig, a)
    u = rng.standard_normal((n, rank))
    return y @ a + (u - y @ (y.T @ u)) @ rng.standard_normal((rank, d))


def pair_signature(n, d):
    """Flag blocks of sizes 2, ..., 2 (and a last 1 for odd d)."""
    return FlagSignature(d_list=(2,) * (d // 2) + (1,) * (d % 2), n=n)


class TestPointAndTangent:
    def test_point_validation(self, rng):
        with pytest.raises(ValidationError):
            check_point(rng.standard_normal((6, 2)))
        with pytest.raises(DimensionError):
            check_point(np.eye(3))

    def test_project_tangent_idempotent(self, rng):
        y = random_stiefel(rng, 7, 3)
        w = rng.standard_normal((7, 3))
        p1 = project_tangent(y, w)
        assert np.linalg.norm(sym(y.T @ p1)) <= 1e-12
        assert np.allclose(project_tangent(y, p1), p1)

    @pytest.mark.parametrize("value", NON_REAL)
    def test_project_tangent_refuses_non_real_by_name(self, rng, value):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError, match=f"^w {refusal(value)}"):
            project_tangent(y, **poisoned("w", value, w=rng.standard_normal((7, 3))))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_project_tangent_refuses_nonfinite_by_name(self, rng, value):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError, match="^w has non-finite"):
            project_tangent(y, **poisoned("w", value, w=rng.standard_normal((7, 3))))

    def test_project_tangent_refuses_wrong_shape_by_name(self, rng):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(DimensionError, match="^w has shape"):
            project_tangent(y, rng.standard_normal((7, 2)))

    def test_project_tangent_refuses_non_orthonormal_y_by_name(self, rng):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError, match="^y is not orthonormal"):
            project_tangent(2.0 * y, rng.standard_normal((7, 3)))

    def test_pure_normal_direction_projects_to_zero(self, rng):
        y = random_stiefel(rng, 7, 3)
        s = sym(rng.standard_normal((3, 3)))
        assert np.linalg.norm(project_tangent(y, y @ s)) <= 1e-13

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            StiefelMetricParams(0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValidationError, match="^alpha has non-finite"):
            StiefelMetricParams(alpha)


class TestMetricInner:
    def test_alpha_one_is_frobenius(self, rng):
        y = random_stiefel(rng, 7, 3)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        got = metric_inner(y, xi, eta, StiefelMetricParams(1.0))
        assert got == pytest.approx(float(np.sum(xi * eta)), rel=1e-13)

    def test_span_part_scales_with_alpha(self, rng):
        y = random_stiefel(rng, 7, 3)
        a = asym(rng.standard_normal((3, 3)))
        got = metric_inner(y, y @ a, y @ a, StiefelMetricParams(0.8))
        assert got == pytest.approx(0.8 * float(np.sum(a * a)), rel=1e-12)

    def test_equals_beta_form_of_horizontal_lifts(self, rng):
        n, d, alpha = 6, 2, 0.8
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        split = so_split(n, d)
        params = MetricParams(beta0=-0.5, beta1=alpha)
        lift_xi = xbar.T @ horizontal_lift(y, yperp, xi)
        lift_eta = xbar.T @ horizontal_lift(y, yperp, eta)
        want = beta_form(lift_xi, lift_eta, split, params)
        got = metric_inner(y, xi, eta, StiefelMetricParams(alpha))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_nontangent(self, rng):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError):
            metric_inner(y, rng.standard_normal((7, 3)),
                         random_stiefel_tangent(rng, y),
                         StiefelMetricParams(1.0))

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["xi", "eta", "y"])
    def test_rejects_nonfinite_by_name(self, rng, arg, value):
        y = random_stiefel(rng, 7, 3)
        args = poisoned(arg, value, y=y, xi=random_stiefel_tangent(rng, y),
                        eta=random_stiefel_tangent(rng, y))
        with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
            metric_inner(params=StiefelMetricParams(0.8), **args)

    def test_rejects_scaled_y_by_name(self, rng):
        y = random_stiefel(rng, 7, 3)
        xi = random_stiefel_tangent(rng, y)
        with pytest.raises(ValidationError, match="^y is not orthonormal"):
            metric_inner(2.0 * y, xi, xi, StiefelMetricParams(0.8))

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_rejects_wrong_shape_by_name(self, rng, arg):
        y = random_stiefel(rng, 7, 3)
        args = dict(xi=random_stiefel_tangent(rng, y),
                    eta=random_stiefel_tangent(rng, y))
        args[arg] = args[arg][:, :2]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            metric_inner(y, params=StiefelMetricParams(0.8), **args)

    def test_rejects_nontangent_eta(self, rng):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError, match="not tangent"):
            metric_inner(y, random_stiefel_tangent(rng, y),
                         rng.standard_normal((7, 3)), StiefelMetricParams(1.0))


class TestCheckNames:
    """A vector that is not tangent is refused under its argument name."""

    def test_each_entry_point_names_its_argument(self, rng):
        y = random_stiefel(rng, 7, 3)
        xi, eta = (random_stiefel_tangent(rng, y) for _ in range(2))
        bad = rng.standard_normal((7, 3))
        params = StiefelMetricParams(0.8)
        plan = make_transport_plan(y, xi, params)
        for name, call in (
                ("xi", lambda: metric_inner(y, bad, eta, params)),
                ("eta", lambda: metric_inner(y, xi, bad, params)),
                ("xi", lambda: decompose_tangent(y, bad)),
                ("xi", lambda: make_transport_plan(y, bad, params)),
                ("eta", lambda: transport_with_plan(plan, y, bad, 1.0)),
                ("eta", lambda: stiefel_transport(y, xi, bad, params, 1.0))):
            with pytest.raises(ValidationError,
                               match=f"^{name} is not tangent: residual"):
                call()


class TestDecomposeTangent:
    def test_span_only_velocity_has_empty_q(self, rng):
        y = random_stiefel(rng, 7, 3)
        a0 = asym(rng.standard_normal((3, 3)))
        decomp = decompose_tangent(y, y @ a0)
        assert decomp.k == 0
        assert np.allclose(decomp.a, a0)

    def test_perp_only_velocity(self, rng):
        y = random_stiefel(rng, 8, 3)
        q0 = np.linalg.qr(
            rng.standard_normal((8, 2)) - y @ (y.T @ rng.standard_normal((8, 2))))[0]
        q0 = q0 - y @ (y.T @ q0)
        q0, _ = np.linalg.qr(q0)
        r0 = rng.standard_normal((2, 3))
        xi = q0 @ r0
        decomp = decompose_tangent(y, xi)
        assert np.linalg.norm(decomp.a) <= 1e-12
        got_span = decomp.q @ (decomp.q.T @ q0)
        assert np.linalg.norm(got_span - q0) <= 1e-10

    @pytest.mark.parametrize("pivoted", [False, True])
    def test_reconstruction(self, rng, pivoted):
        # the Cholesky route, and the pivoted route of a rank-deficient xi
        y = random_stiefel(rng, 50, 7)
        xi = random_stiefel_tangent(rng, y)
        if pivoted:
            xi = project_tangent(y, xi[:, :3] @ rng.standard_normal((3, 7)))
        decomp = decompose_tangent(y, xi)
        assert (decomp.k < 7) == pivoted
        recon = y @ decomp.a + decomp.q @ decomp.r
        assert np.linalg.norm(recon - xi) <= 1e-12 * max(1.0, np.linalg.norm(xi))
        assert np.linalg.norm(decomp.q.T @ decomp.q - np.eye(decomp.k)) <= 1e-10
        assert np.linalg.norm(y.T @ decomp.q) <= 1e-10
        assert np.linalg.norm(decomp.a + decomp.a.T) <= 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 25),
           d=st.integers(1, 6))
    def test_reconstruction_property(self, seed, n, d):
        if n <= d:
            n = d + 1
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi = random_stiefel_tangent(rng, y)
        decomp = decompose_tangent(y, xi)
        recon = y @ decomp.a + decomp.q @ decomp.r
        assert np.linalg.norm(recon - xi) <= 1e-9 * max(1.0, np.linalg.norm(xi))
        assert decomp.k <= min(n - d, d)


    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
           d=st.integers(1, 8), log_cond=st.floats(0.0, 14.0),
           zeros=st.integers(0, 8), span_only=st.booleans())
    @example(seed=1, n=9, d=8, log_cond=0.0, zeros=0, span_only=False)
    @example(seed=2, n=40, d=8, log_cond=3.0, zeros=4, span_only=False)
    @example(seed=3, n=12, d=4, log_cond=0.0, zeros=0, span_only=True)
    def test_r_from_triangular_factors(self, seed, n, d, log_cond, zeros,
                                       span_only):
        # R = L_2^T T from the factors of both routes is Q^T xi: k = 0,
        # rank-deficient and ill-conditioned parts, and d = n - 1
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi = prescribed_velocity(rng, y, pair_signature(n, d), log_cond, zeros)
        if span_only:
            xi = y @ (y.T @ xi)
        dec = decompose_tangent(y, xi)
        want = dec.q.T @ xi
        assert dec.r.shape == want.shape
        assert np.linalg.norm(dec.r - want) <= 1e-14 * np.linalg.norm(want)


class TestCholeskyQR2:
    """decompose_tangent against the pivoted-QR reference: same rank k,
    an orthonormal Y-orthogonal Q, and the same transports."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        """Calls of scipy.linalg.qr, which only the pivoted route makes."""
        calls = []
        real = scipy.linalg.qr
        monkeypatch.setattr(scipy.linalg, "qr",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
           d=st.integers(1, 8), log_cond=st.floats(0.0, 14.0),
           zeros=st.integers(0, 8))
    def test_matches_reference(self, seed, n, d, log_cond, zeros):
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        sig = pair_signature(n, d)
        xi = prescribed_velocity(rng, y, sig, log_cond, zeros)
        got = decompose_tangent(y, xi)
        want = decompose_tangent_reference(y, xi)
        assert got.k == want.k
        assert np.linalg.norm(got.q.T @ got.q - np.eye(got.k)) <= 1e-12
        assert np.linalg.norm(y.T @ got.q) <= 1e-12
        eta = random_stiefel_tangent(rng, y)
        for alpha in (0.5, 1.0):
            params = StiefelMetricParams(alpha)
            moved, ref = (transport_with_plan(plan_from_decomposition(y, dec, params),
                                              y, eta, 1.3) for dec in (got, want))
            assert rel_err(moved, ref) <= 1e-12
        eta = flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
        params = StiefelMetricParams(0.5)
        moved, ref = (transport_with_plan(
            plan_from_decomposition(y, dec, params, mask=sig.block_mask), y, eta, 1.3)
            for dec in (got, want))
        assert rel_err(moved, ref) <= 1e-12

    @pytest.mark.parametrize("log_cond, rank_tol, pivoted", [
        (0.0, RANK_RTOL, False), (5.0, RANK_RTOL, False), (7.0, RANK_RTOL, True),
        (13.0, RANK_RTOL, True)])
    def test_route_follows_conditioning(self, rng, qr_calls, log_cond,
                                        rank_tol, pivoted):
        # well conditioned: no pivoted QR; past the gate: the reference
        # route; rank_tol is the threshold of its rank decision
        y = random_stiefel(rng, 300, 30)
        xi = prescribed_velocity(rng, y, pair_signature(300, 30), log_cond, 0)
        got = decompose_tangent(y, xi)
        assert bool(qr_calls) == pivoted
        want = decompose_tangent_reference(y, xi)
        assert got.k == want.k
        assert (got.k < 30) == (log_cond > -np.log10(rank_tol))
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        moved, ref = (transport_with_plan(plan_from_decomposition(y, dec, params),
                                          y, eta, 2.0) for dec in (got, want))
        assert rel_err(moved, ref) <= 1e-12

    def test_gate_keeps_pivoted_rank_decision(self):
        # a part the Cholesky route accepts has sigma_min / sigma_max above
        # 1 / CHOLQR_MAX_COND, so pivoted QR would keep all its columns too
        assert CHOLQR_MAX_COND * RANK_RTOL < 1.0

    @pytest.mark.parametrize("n, d", [(9, 5), (12, 4)])
    def test_rank_deficient_and_short_codimension_pivot(self, rng, qr_calls, n, d):
        # n - d < d, or an exactly rank-deficient Y-orthogonal part
        y = random_stiefel(rng, n, d)
        xi = prescribed_velocity(rng, y, pair_signature(n, d), 1.0, 1)
        assert decompose_tangent(y, xi).k == min(n - d, d) - 1
        assert qr_calls

    def test_lost_orthogonal_part_raises(self, rng):
        # a basis column inside span(Y) has nothing left after projection
        y = random_stiefel(rng, 20, 3)
        w = rng.standard_normal((20, 1))
        w = np.linalg.qr(w - y @ (y.T @ w))[0]
        with pytest.raises(NumericalError, match="re-orthogonalisation"):
            stiefel._reorthonormalise(y, np.hstack([w, y[:, :1]]))


class TestGeodesic:
    def test_time_zero(self, rng):
        y = random_stiefel(rng, 7, 3)
        xi = random_stiefel_tangent(rng, y)
        got = stiefel_geodesic(y, xi, StiefelMetricParams(0.8), 0.0)
        assert np.allclose(got, y)

    def test_unit_sphere_great_circle(self, rng):
        # d = 1: cos/sin closed form, any alpha
        y = random_stiefel(rng, 6, 1)
        v = rng.standard_normal((6, 1))
        v -= y * (y.T @ v)[0, 0]
        v /= np.linalg.norm(v)
        for alpha in (0.3, 0.5, 1.0):
            got = stiefel_geodesic(y, v, StiefelMetricParams(alpha), 1.1)
            want = np.cos(1.1) * y + np.sin(1.1) * v
            assert rel_err(got, want) <= 1e-12

    def test_output_on_manifold(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        gam = stiefel_geodesic(y, xi, StiefelMetricParams(0.8), 1.7)
        assert np.linalg.norm(gam.T @ gam - np.eye(4)) <= 1e-10

    def test_initial_velocity(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        h = 1e-5
        fd = (stiefel_geodesic(y, xi, params, h)
              - stiefel_geodesic(y, xi, params, -h)) / (2 * h)
        assert np.linalg.norm(fd - xi) <= 1e-6 * max(1.0, np.linalg.norm(xi))

    def test_velocity_closed_form(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        t, h = 1.3, 1e-5
        _, vel = stiefel_geodesic_velocity(y, xi, params, t)
        fd = (stiefel_geodesic(y, xi, params, t + h)
              - stiefel_geodesic(y, xi, params, t - h)) / (2 * h)
        assert np.linalg.norm(fd - vel) <= 1e-7

    def test_matches_quotient_horizontal_geodesic(self, rng):
        # the quotient map X -> X I_{n,d} carries the horizontal geodesic
        # of the SO(n) picture onto the reduced formula
        from manitrans.group_core import GroupGeometry, geodesic
        from manitrans.forms import MetricParams
        from manitrans.gl_so import so_split
        n, d, alpha, t = 7, 3, 0.5, 1.3
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = random_stiefel_tangent(rng, y)
        ggeom = GroupGeometry(split=so_split(n, d),
                              params=MetricParams(-0.5, alpha))
        upstairs = geodesic(ggeom, xbar, horizontal_lift(y, yperp, xi), t)
        got = stiefel_geodesic(y, xi, StiefelMetricParams(alpha), t)
        assert np.linalg.norm(upstairs[:, :d] - got) <= 1e-10

    def test_rank_capped_by_codimension(self, rng):
        # n - d < d: the perpendicular part has rank at most n - d
        y = random_stiefel(rng, 5, 3)
        xi = random_stiefel_tangent(rng, y)
        decomp = decompose_tangent(y, xi)
        assert decomp.k <= 2
        recon = y @ decomp.a + decomp.q @ decomp.r
        assert np.linalg.norm(recon - xi) <= 1e-12 * max(1.0, np.linalg.norm(xi))

    @pytest.mark.parametrize("t", [50.0, 500.0])
    def test_long_geodesic_endpoint_passes_check_point(self, t):
        # check_point's tolerance is absolute (POINT_TOL); at St(2000, 100)
        # a unit-speed geodesic endpoint keeps ||Y^T Y - I||_F near 1e-13
        # even at t = 500, so the next geodesic can start there: transport
        # by t, then by 1 from the endpoint, is transport by t + 1
        rng = np.random.default_rng(6)
        y = random_stiefel(rng, 2000, 100)
        xi = random_stiefel_tangent(rng, y)
        xi /= np.linalg.norm(xi)
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.5)
        gam, vel = stiefel_geodesic_velocity(y, xi, params, t)
        assert np.array_equal(check_point(gam), gam)
        plan = make_transport_plan(y, xi, params)
        onward = make_transport_plan(gam, vel, params)
        chained = transport_with_plan(
            onward, gam, transport_with_plan(plan, y, eta, t), 1.0)
        assert rel_err(chained, transport_with_plan(plan, y, eta, t + 1.0)) <= 1e-10

    def test_plan_shared_across_threads(self, rng):
        from concurrent.futures import ThreadPoolExecutor
        y = random_stiefel(rng, 30, 4)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.5)
        plan = make_transport_plan(y, xi, params)
        etas = [random_stiefel_tangent(rng, y) for _ in range(8)]
        serial = [transport_with_plan(plan, y, e, 1.1) for e in etas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda e: transport_with_plan(plan, y, e, 1.1), etas))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_first_use_shared_across_threads(self, rng):
        # threads race to factor a fresh plan's exponent arguments; every
        # one must see the complete factorization
        import sys
        from concurrent.futures import ThreadPoolExecutor
        y = random_stiefel(rng, 30, 6)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        etas = [random_stiefel_tangent(rng, y) for _ in range(16)]
        want = [transport_with_plan(make_transport_plan(y, xi, params), y, e, 2.3)
                for e in etas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                plan = make_transport_plan(y, xi, params)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(transport_with_plan, plan, y, e, 2.3)
                               for e in etas]
                    got = [f.result(timeout=60) for f in futures]
                for a, b in zip(want, got):
                    assert np.array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)


def unit_velocity(rng, y, rank):
    """A unit tangent at Y whose Y-orthogonal part has rank `full`,
    `deficient` (about half of that) or `zero` (k = 0)."""
    n, d = y.shape
    m = min(n - d, d)
    xi = velocity_of_rank(rng, y, {"full": m, "deficient": (m + 1) // 2,
                                   "zero": 0}[rank])
    norm = np.linalg.norm(xi)
    return xi / norm if norm else xi  # d = 1 has no A, so xi = 0 at k = 0


class TestPlanGeodesic:
    """The plan is the geodesic: its geodesic and velocity, one-shot and
    reused, against the closed form evaluated directly."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
           d=st.integers(1, 8),
           rank=st.sampled_from(["full", "deficient", "zero"]),
           alpha=st.sampled_from([1e-3, 0.5, 1.0, 5.0]),
           t=st.floats(-20.0, 50.0))
    @example(seed=1, n=9, d=8, rank="full", alpha=5.0, t=50.0)
    @example(seed=2, n=30, d=8, rank="deficient", alpha=1e-3, t=-20.0)
    @example(seed=3, n=12, d=4, rank="zero", alpha=1.0, t=50.0)
    @example(seed=0, n=3, d=2, rank="zero", alpha=1e-3, t=22.0)
    def test_matches_closed_form(self, seed, n, d, rank, alpha, t):
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi = unit_velocity(rng, y, rank)
        # one-shot calls take expm, as the reference does.  A reused plan
        # takes SkewExponential, which stays near eps at any t; expm's
        # error grows with |t| ||S||_2 (to 5.5e-12 against a 40-digit
        # evaluation at |t| ||S||_2 = 264, where the plan's was 1.4e-13)
        params = StiefelMetricParams(alpha)
        gam, vel = stiefel_geodesic_reference(y, xi, alpha, t)
        got_gam, got_vel = stiefel_geodesic_velocity(y, xi, params, t)
        assert rel_err(got_gam, gam) <= 1e-13
        assert rel_err(got_vel, vel) <= 1e-13
        assert rel_err(stiefel_geodesic(y, xi, params, t), gam) <= 1e-13
        plan = make_transport_plan(y, xi, params)
        plan.geodesic(0.1)  # factored: later times take no expm
        # the reference's expm error grows with both of its exponents
        tol = 1e-13 * max(1.0, abs(t) * (
            np.linalg.norm(plan.big_exp_arg, 2)
            + abs(1.0 - 2.0 * alpha) * np.linalg.norm(plan.decomposition.a, 2)))
        got_gam, got_vel = plan.geodesic_velocity(t)
        assert rel_err(got_gam, gam) <= tol
        assert rel_err(got_vel, vel) <= tol
        assert np.array_equal(plan.geodesic(t), got_gam)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
           d=st.integers(1, 8),
           rank=st.sampled_from(["full", "deficient", "zero"]),
           alpha=st.sampled_from([1e-3, 0.5, 1.0, 5.0]),
           t=st.floats(-20.0, 50.0), batch=st.sampled_from([(), (2,)]))
    @example(seed=1, n=9, d=8, rank="full", alpha=5.0, t=50.0, batch=())
    @example(seed=2, n=30, d=8, rank="deficient", alpha=1e-3, t=-20.0,
             batch=(2,))
    def test_transports_match_r_by_product(self, seed, n, d, rank, alpha, t,
                                           batch):
        # the same plans with R = Q^T xi: one rounding of R moves a
        # transport by about |t| eps, so the bound grows past |t| = 5
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi = unit_velocity(rng, y, rank)
        eta = np.reshape([random_stiefel_tangent(rng, y)
                          for _ in range(int(np.prod(batch)))], batch + y.shape)
        params = StiefelMetricParams(alpha)
        dec = decompose_tangent(y, xi)
        ref = plan_from_decomposition(y, dataclasses.replace(dec, r=dec.q.T @ xi),
                                      params)
        tol = 1e-14 * max(1.0, abs(t) / 5.0)
        assert rel_err(transport_with_plan(make_transport_plan(y, xi, params),
                                           y, eta, t),
                       transport_with_plan(ref, y, eta, t)) <= tol
        if not batch:
            assert rel_err(stiefel_transport(y, xi, eta, params, t),
                           transport_with_plan(single_time(ref), y, eta, t)) <= tol

    def test_velocity_is_the_derivative_at_a_reused_plan(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        plan = make_transport_plan(y, xi, StiefelMetricParams(0.8))
        plan.geodesic(0.1)
        t, h = 1.3, 1e-5
        _, vel = plan.geodesic_velocity(t)
        fd = (plan.geodesic(t + h) - plan.geodesic(t - h)) / (2 * h)
        assert np.linalg.norm(fd - vel) <= 1e-7

    def test_starts_at_y_with_velocity_xi(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        plan = make_transport_plan(y, xi, StiefelMetricParams(0.8))
        plan.geodesic(1.0)
        gam, vel = plan.geodesic_velocity(0.0)
        assert np.array_equal(gam, y)
        assert rel_err(vel, xi) <= 1e-14

    @pytest.mark.parametrize("alpha, one_shot", [(0.8, 2), (1.0, 2), (0.5, 1)])
    def test_expm_calls(self, rng, monkeypatch, alpha, one_shot):
        # one-shot: exp(t big_exp_arg) and exp(t (1-2 alpha) A), the latter
        # skipped when zero (alpha = 1/2); never the transport's third.
        # A reused plan: none.
        calls = []
        real = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda m: calls.append(1) or real(m))
        y = random_stiefel(rng, 9, 4)
        xi, eta = random_stiefel_tangent(rng, y), random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(alpha)
        for fn in (stiefel_geodesic, stiefel_geodesic_velocity):
            calls.clear()
            fn(y, xi, params, 0.7)
            assert len(calls) == one_shot
        plan = make_transport_plan(y, xi, params)
        calls.clear()
        for t in (0.5, 3.0):
            plan.geodesic(t)
            plan.geodesic_velocity(t)
            transport_with_plan(plan, y, eta, t)
        assert calls == []

    def test_transport_refuses_another_base_point(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi, eta = random_stiefel_tangent(rng, y), random_stiefel_tangent(rng, y)
        plan = make_transport_plan(y, xi, StiefelMetricParams(0.8))
        for other in (random_stiefel(rng, 8, 3), None):
            with pytest.raises(ValidationError,
                               match="^y is not the base point of the plan"):
                transport_with_plan(plan, other, eta, 1.0)
        assert np.array_equal(transport_with_plan(plan, y.copy(), eta, 1.0),
                              transport_with_plan(plan, y, eta, 1.0))


class TestPOperator:
    def test_zero_input(self, rng):
        decomp = random_decomp(rng, 3, 2)
        params = StiefelMetricParams(0.5)
        w = np.zeros((5, 3))
        assert np.allclose(p_ar_apply(decomp, params, w), 0.0)

    def test_zero_a_block_form(self, rng):
        d, k = 3, 2
        decomp = TangentDecomposition(
            a=np.zeros((d, d)), q=np.zeros((d + k, k)),
            r=rng.standard_normal((k, d)), k=k)
        params = StiefelMetricParams(0.7)
        w = rng.standard_normal((d + k, d))
        got = p_ar_apply(decomp, params, w)
        want_top = asym(decomp.r.T @ w[d:])
        want_bot = -0.7 * decomp.r @ w[:d]
        assert np.allclose(got[:d], want_top)
        assert np.allclose(got[d:], want_bot)

    def test_top_block_stays_antisymmetric(self, rng):
        decomp = random_decomp(rng, 4, 2)
        params = StiefelMetricParams(0.9)
        w = rng.standard_normal((6, 4))
        got = p_ar_apply(decomp, params, w)
        assert np.linalg.norm(got[:4] + got[:4].T) <= 1e-13

    def test_matches_quotient_operator_under_block_map(self, rng):
        # P_AR on F corresponds to the horizontal operator of the SO
        # quotient under b = [[b_a, -b_r^T], [b_r, 0]]
        from manitrans.quotient import (horizontal_transport_operator,
                                        stiefel_quotient)
        n, d, alpha = 7, 3, 0.8
        k = n - d
        q = stiefel_quotient(n, d, alpha)
        a_blk = asym(rng.standard_normal((d, d)))
        r_blk = rng.standard_normal((k, d))

        def embed(top, bottom):
            out = np.zeros((n, n))
            out[:d, :d] = top
            out[d:, :d] = bottom
            out[:d, d:] = -bottom.T
            return out

        a_full = embed(a_blk, r_blk)
        op_quot = horizontal_transport_operator(q, a_full)
        decomp = TangentDecomposition(
            a=a_blk, q=np.zeros((n, k)), r=r_blk, k=k)
        params = StiefelMetricParams(alpha)
        for _ in range(4):
            w_top = asym(rng.standard_normal((d, d)))
            w_bot = rng.standard_normal((k, d))
            got = p_ar_apply(decomp, params, np.concatenate([w_top, w_bot]))
            full = op_quot.apply(embed(w_top, w_bot))
            assert np.linalg.norm(got[:d] - full[:d, :d]) <= 1e-12
            assert np.linalg.norm(got[d:] - full[d:, :d]) <= 1e-12

    def test_balanced_conjugation_identity(self, rng):
        # P_bal = s_c P s_{1/c} with c = sqrt(alpha)
        decomp = random_decomp(rng, 3, 2)
        alpha = 0.7
        params = StiefelMetricParams(alpha)
        op_bal = p_bal_operator(decomp, params)
        w = rng.standard_normal((5, 3))
        scaled = w.copy()
        scaled[:3] /= np.sqrt(alpha)
        want = p_ar_apply(decomp, params, scaled)
        want[:3] *= np.sqrt(alpha)
        assert np.allclose(op_bal.apply(w), want)

    @given(seed=st.integers(0, 10_000))
    def test_balanced_frobenius_antisymmetry_on_f(self, seed):
        rng = np.random.default_rng(seed)
        d, k = 3, 2
        decomp = random_decomp(rng, d, k)
        op = p_bal_operator(decomp, StiefelMetricParams(0.8))
        w = np.concatenate([asym(rng.standard_normal((d, d))),
                            rng.standard_normal((k, d))])
        v = np.concatenate([asym(rng.standard_normal((d, d))),
                            rng.standard_normal((k, d))])
        pairing = float(np.sum(op.apply(w) * v) + np.sum(op.apply(v) * w))
        assert abs(pairing) <= 1e-12 * max(1.0, np.linalg.norm(w) * np.linalg.norm(v))

    def test_adjoint_pairing_full_space(self, rng):
        decomp = random_decomp(rng, 3, 2)
        for op in (p_bal_operator(decomp, StiefelMetricParams(0.8)),
                   p_ar_operator(decomp, StiefelMetricParams(0.8))):
            x = rng.standard_normal((5, 3))
            y = rng.standard_normal((5, 3))
            lhs = float(np.sum(op.apply(x) * y))
            rhs = float(np.sum(x * op.apply_adjoint(y)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("full", [False, True])
    def test_adjoint_pairing_full_space_masked(self, rng, full):
        # the mask clears the top block of operand and result, in both maps
        d, k = 4, 2
        mask = np.ones((d, d), dtype=bool) if full else \
            np.kron(np.eye(2), np.ones((2, 2))).astype(bool)
        op = p_bal_operator(random_decomp(rng, d, k), StiefelMetricParams(0.8), mask)
        x, y = (rng.standard_normal((d + k, d)) for _ in range(2))
        lhs = float(np.sum(op.apply(x) * y))
        rhs = float(np.sum(x * op.apply_adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert not op.apply(x)[:d][mask].any()
        assert not op.apply_adjoint(y)[:d][mask].any()
        bumped = x.copy()
        bumped[:d][mask] += 1.0
        assert np.array_equal(op.apply(x), op.apply(bumped))


class TestNormBound:
    def test_zero_decomposition(self, rng):
        decomp = TangentDecomposition(
            a=np.zeros((3, 3)), q=np.zeros((5, 2)), r=np.zeros((2, 3)), k=2)
        assert p_bal_norm_bound(decomp, StiefelMetricParams(0.5)) == 0.0

    def test_quarter_alpha_drops_a_term(self, rng):
        d, k = 3, 2
        decomp = random_decomp(rng, d, k)
        got = p_bal_norm_bound(decomp, StiefelMetricParams(0.25))
        n_a = 0.5 * np.max(np.sum(np.abs(decomp.r), axis=0))
        n_r = 0.25 * np.max(np.sum(np.abs(decomp.a), axis=0)) \
            + 0.5 * np.max(np.sum(np.abs(decomp.r), axis=1))
        assert got == pytest.approx(max(n_a, n_r))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dk", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_bound_dominates_exhaustive_norm(self, rng, alpha, dk):
        d, k = dk
        params = StiefelMetricParams(alpha)
        for _ in range(10):
            decomp = random_decomp(rng, d, k)
            op = p_bal_operator(decomp, params)
            exact = one_norm_estimate_exhaustive(op)
            assert exact <= p_bal_norm_bound(decomp, params) + 1e-12

    def test_display_variant_comparison(self, rng):
        # the distributed-sum reading of the published bound is neither
        # uniformly sound nor uniformly tighter; the per-column bound is
        # sound everywhere (test above) and usually tighter
        sound = tighter = total = 0
        for _ in range(20):
            for alpha in (0.25, 0.5, 1.0, 2.0):
                decomp = random_decomp(rng, 3, 2)
                params = StiefelMetricParams(alpha)
                op = p_bal_operator(decomp, params)
                exact = one_norm_estimate_exhaustive(op)
                per_col = p_bal_norm_bound(decomp, params)
                display = p_bal_norm_bound_display(decomp, params)
                total += 1
                sound += exact <= display + 1e-12
                tighter += per_col <= display + 1e-15
        print(f"\ndisplay variant sound on {sound}/{total}, "
              f"per-column tighter on {tighter}/{total}")
        assert sound < total  # documents why the per-column bound is used
        assert tighter >= total // 2


class TestTwoNormBound:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 5), k=st.integers(1, 5),
           alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0]), masked=st.booleans(),
           zero=st.sampled_from([None, "a", "r"]),
           scale=st.sampled_from([1e-150, 1.0, 1e150]))
    def test_bound_dominates_two_norm(self, seed, d, k, alpha, masked, zero, scale):
        # on the whole stacked space, so on F and on any masked subspace
        rng = np.random.default_rng(seed)
        decomp = random_decomp(rng, d, k)
        a = np.zeros_like(decomp.a) if zero == "a" else scale * decomp.a
        r = np.zeros_like(decomp.r) if zero == "r" else scale * decomp.r
        decomp = dataclasses.replace(decomp, a=a, r=r)
        mask = None
        if masked:
            mask = rng.random((d, d)) < 0.5
            mask |= mask.T
        op = balanced_operator(decomp, StiefelMetricParams(alpha), mask)
        exact = np.linalg.norm(dense_operator_matrix(op), 2)
        assert np.isfinite(op.skew_two_norm_bound)
        assert op.skew_two_norm_bound >= exact

    @given(seed=st.integers(0, 10_000), d=st.integers(1, 5), k=st.integers(0, 5),
           alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @example(seed=7, d=4, k=3, alpha=0.5)
    def test_full_mask_leaves_alpha_a(self, seed, d, k, alpha):
        # a full mask clears the top block of operand and result, so only
        # w_r -> alpha w_r A is left, and rho is alpha ||A||_2 (bounded)
        decomp = random_decomp(np.random.default_rng(seed), d, k)
        mask = np.ones((d, d), dtype=bool)
        op = balanced_operator(decomp, StiefelMetricParams(alpha), mask)
        exact = np.linalg.norm(dense_operator_matrix(op), 2)
        assert exact <= op.skew_two_norm_bound
        assert op.skew_two_norm_bound <= alpha * two_norm_bound(decomp.a) * (1 + 1e-14)
        no_a = dataclasses.replace(decomp, a=np.zeros((d, d)))
        assert balanced_operator(no_a, StiefelMetricParams(alpha),
                                 mask).skew_two_norm_bound == 0.0

    def test_bound_is_tight_within_a_third(self, rng):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            for _ in range(5):
                op = p_bal_operator(random_decomp(rng, 5, 4), StiefelMetricParams(alpha))
                exact = np.linalg.norm(dense_operator_matrix(op), 2)
                assert op.skew_two_norm_bound <= 1.35 * exact

    def test_zero_decomposition(self):
        decomp = TangentDecomposition(
            a=np.zeros((3, 3)), q=np.zeros((5, 2)), r=np.zeros((2, 3)), k=2)
        assert p_bal_operator(decomp, StiefelMetricParams(0.5)).skew_two_norm_bound == 0.0


def f_element(rng, d, k, mask=None, batch=()):
    """A random element of F (top block antisymmetric), zero where the
    top-block mask is True."""
    m = rng.standard_normal((*batch, d, d))
    w = np.concatenate([m - np.swapaxes(m, -1, -2),
                        rng.standard_normal((*batch, k, d))], axis=-2)
    if mask is not None:
        w[..., :d, :][..., mask] = 0.0
    return w


def f_basis(d, k, mask=None):
    """Orthonormal basis of F, or of its masked subspace, as the columns
    of a matrix over the flattened stacked space."""
    cols = []
    for i in range(d):
        for j in range(i + 1, d):
            if mask is None or not mask[i, j]:
                e = np.zeros((d + k, d))
                e[i, j], e[j, i] = np.sqrt(0.5), -np.sqrt(0.5)
                cols.append(e.ravel())
    cols += list(np.eye((d + k) * d)[d * d:])
    return np.array(cols).T


class TestChebyshevAction:
    @pytest.mark.parametrize("t", [-3.0, 0.7, 50.0, 200.0])
    @pytest.mark.parametrize("alpha, masked", [(0.25, False), (0.5, True),
                                               (0.8, False), (2.0, False)])
    def test_matches_dense_expm(self, rng, t, alpha, masked):
        # a unit 2-norm operator, so that |t| ||P|| eps stays below the
        # tolerance; the dense reference is taken in an orthonormal basis
        # of the (masked) F, where it is antisymmetric and expm accurate
        d, k = 4, 3
        mask = np.kron(np.eye(2), np.ones((2, 2))).astype(bool) if masked else None
        decomp = random_decomp(rng, d, k)
        params = StiefelMetricParams(alpha)
        size = np.linalg.norm(dense_operator_matrix(balanced_operator(decomp, params)), 2)
        decomp = dataclasses.replace(decomp, a=decomp.a / size, r=decomp.r / size)
        op = balanced_operator(decomp, params, mask)
        basis = f_basis(d, k, mask)
        p_f = basis.T @ dense_operator_matrix(op) @ basis
        b = f_element(rng, d, k, mask, batch=(2,))
        want = (b.reshape(2, -1) @ basis @ scipy.linalg.expm(t * p_f).T
                @ basis.T).reshape(b.shape)
        got = expa(op, b, t)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_time_zero_and_zero_operator(self, rng):
        decomp = random_decomp(rng, 3, 2)
        b = f_element(rng, 3, 2)
        assert np.array_equal(expa(p_bal_operator(decomp, StiefelMetricParams(0.8)), b, 0.0), b)
        zero = dataclasses.replace(decomp, a=0 * decomp.a, r=0 * decomp.r)
        assert np.array_equal(expa(p_bal_operator(zero, StiefelMetricParams(0.8)), b, 5.0), b)

    @pytest.mark.parametrize("x", [5.0, 20.0, 100.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_fewer_applies_than_taylor(self, rng, x, alpha):
        d, k = 4, 3
        op, count = counting(p_bal_operator(random_decomp(rng, d, k),
                                            StiefelMetricParams(alpha)))
        t = x / op.skew_two_norm_bound
        b = f_element(rng, d, k)
        expa(op, b, t)
        chebyshev = count[0]
        count[0] = 0
        expa(op, b, t, params=select_taylor_params(t * op.one_norm_upper_bound))
        assert chebyshev < count[0]


def assert_transport_isometric(y, xi, eta, params, t, moved):
    """moved is tangent at gamma(t) and keeps eta's metric norm."""
    gam = stiefel_geodesic(y, xi, params, t)
    scale = np.linalg.norm(moved)
    assert np.linalg.norm(sym(gam.T @ moved)) <= 1e-9 * max(1.0, scale)
    before = metric_inner(y, eta, eta, params)
    after = metric_inner(gam, moved, moved, params)
    assert abs(after - before) <= 1e-9 * max(1.0, before)


class TestTransport:
    def test_time_zero_exact(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        got = stiefel_transport(y, xi, eta, StiefelMetricParams(0.5), 0.0)
        assert np.array_equal(got, eta)

    def test_self_parallel_velocity(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        t = 1.2
        moved = stiefel_transport(y, xi, xi, params, t)
        _, vel = stiefel_geodesic_velocity(y, xi, params, t)
        assert rel_err(moved, vel) <= 1e-10

    def test_normal_part_closed_form(self, rng):
        # eta normal to the subspace S: transport is eta expm(t(1-alpha)A)
        n, d = 9, 3
        y = random_stiefel(rng, n, d)
        xi = random_stiefel_tangent(rng, y)
        decomp = decompose_tangent(y, xi)
        eta = rng.standard_normal((n, d))
        eta -= y @ (y.T @ eta)
        eta -= decomp.q @ (decomp.q.T @ eta)
        params = StiefelMetricParams(0.8)
        t = 1.4
        got = stiefel_transport(y, xi, eta, params, t)
        want = eta @ scipy.linalg.expm(t * (1 - 0.8) * decomp.a)
        assert rel_err(got, want) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_matches_rk_oracle(self, rng, alpha):
        n, d = 8, 3
        y = random_stiefel(rng, n, d)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(alpha)
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: stiefel_christoffel(p, v, w, params),
            lambda s: stiefel_geodesic_velocity(y, xi, params, s), eta, grid)
        worst = max(
            np.linalg.norm(stiefel_transport(y, xi, eta, params, s) - r)
            for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_unbalanced_path_agrees(self, rng):
        # the transport formula with expa of the unbalanced operator
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        alpha, t = 0.8, 1.1
        params = StiefelMetricParams(alpha)
        decomp = decompose_tangent(y, xi)
        a, r, k = decomp.a, decomp.r, decomp.k
        yq = np.hstack([y, decomp.q])
        w0 = yq.T @ eta
        w = expa(p_ar_operator(decomp, params), w0, t)
        big = np.block([[2 * alpha * a, -r.T], [r, np.zeros((k, k))]])
        unbal = yq @ (scipy.linalg.expm(t * big) @ w
                      @ scipy.linalg.expm(t * (1 - 2 * alpha) * a)) \
            + (eta - yq @ w0) @ scipy.linalg.expm(t * (1 - alpha) * a)
        bal = stiefel_transport(y, xi, eta, params, t)
        assert rel_err(bal, unbal) <= 1e-11

    def test_k_zero_branch(self, rng):
        y = random_stiefel(rng, 8, 3)
        a0 = asym(rng.standard_normal((3, 3)))
        xi = y @ a0  # stays inside the span of Y
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        t = 1.3
        moved = stiefel_transport(y, xi, eta, params, t)
        gam = stiefel_geodesic(y, xi, params, t)
        assert np.linalg.norm(sym(gam.T @ moved)) <= 1e-9
        before = metric_inner(y, eta, eta, params)
        after = metric_inner(gam, moved, moved, params)
        assert abs(after - before) <= 1e-9 * (1 + abs(before))

    def test_k_zero_closed_expression(self, rng):
        # with Q empty the formula collapses to
        # Y expm(2 a t A) expa(t P, Y^T eta) expm((1-2a) t A)
        #   + (eta - Y Y^T eta) expm((1-a) t A)
        n, d, alpha, t = 8, 3, 0.8, 1.3
        y = random_stiefel(rng, n, d)
        a0 = asym(rng.standard_normal((d, d)))
        xi = y @ a0
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(alpha)
        decomp = decompose_tangent(y, xi)
        assert decomp.k == 0
        op = p_ar_operator(decomp, params)
        w = expa(op, y.T @ eta, t)
        want = y @ scipy.linalg.expm(2 * alpha * t * a0) @ w \
            @ scipy.linalg.expm((1 - 2 * alpha) * t * a0) \
            + (eta - y @ (y.T @ eta)) @ scipy.linalg.expm((1 - alpha) * t * a0)
        got = stiefel_transport(y, xi, eta, params, t)
        assert rel_err(got, want) <= 1e-12

    def test_transport_stays_tangent(self, rng):
        y = random_stiefel(rng, 9, 4)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(1.0)
        t = 1.9
        moved = stiefel_transport(y, xi, eta, params, t)
        gam = stiefel_geodesic(y, xi, params, t)
        assert np.linalg.norm(sym(gam.T @ moved)) <= 1e-9

    def test_gram_matrix_constant_along_transport(self, rng):
        n, d, count = 40, 6, 5
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(1.0)
        xi = random_stiefel_tangent(rng, y)
        xi /= np.sqrt(metric_inner(y, xi, xi, params))
        vectors = [random_stiefel_tangent(rng, y) for _ in range(count)]
        plan = make_transport_plan(y, xi, params)
        times = (0.5, 2.0, 7.0)
        transported = [
            [transport_with_plan(plan, y, v, t) for v in vectors]
            for t in times]
        points = [stiefel_geodesic(y, xi, params, t) for t in times]
        drifts = oracle.gram_drift(
            vectors, transported,
            metric=lambda p, a, b: metric_inner(p, a, b, params),
            points=points, initial_point=y)
        assert max(drifts) <= 1e-9

    def test_batched_transport_matches_loop(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.5)
        etas = np.stack([random_stiefel_tangent(rng, y) for _ in range(4)])
        plan = make_transport_plan(y, xi, params)
        batch = transport_with_plan(plan, y, etas, 1.2)
        for i in range(4):
            single = transport_with_plan(plan, y, etas[i], 1.2)
            assert np.allclose(batch[i], single)

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_plan_matches_unfused_reference(self, rng, alpha, batch):
        # Chebyshev expa, the spectral exponentials, the skipped zero
        # exponentials and the in-place accumulation against the expm
        # formula term by term, for a full-rank, a k = 0, a rank-deficient
        # and a d = n-1 velocity
        for (n, d), rank in (((12, 4), 4), ((12, 4), 0), ((12, 4), 2), ((5, 4), 1)):
            y = random_stiefel(rng, n, d)
            plan = make_transport_plan(y, velocity_of_rank(rng, y, rank),
                                       StiefelMetricParams(alpha))
            assert plan.decomposition.k == rank
            eta = np.stack([random_stiefel_tangent(rng, y) for _ in range(3)])
            eta = eta[0] if batch == () else eta
            kept = eta.copy()
            for t in (-2.0, 0.6, 30.0):
                got = transport_with_plan(plan, y, eta, t)
                assert rel_err(got, transport_reference(plan, eta, t)) <= 1e-12
            assert np.array_equal(eta, kept)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_flag_plan_matches_unfused_reference(self, rng, batch):
        # as above, with a full-rank, k = 0, rank-deficient and d = n-1
        # horizontal velocity
        for n, rank in ((11, 5), (11, 0), (11, 2), (6, 1)):
            sig = FlagSignature(d_list=(2, 1, 2), n=n)
            y = random_stiefel(rng, n, 5)
            xi = velocity_of_rank(rng, y, rank, sig)
            plan = flag_transport_plan(sig, y, xi)
            assert plan.decomposition.k == rank
            eta = np.stack([flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
                            for _ in range(3)])
            eta = eta[0] if batch == () else eta
            for t in (-2.0, 0.6, 30.0):
                got = transport_with_plan(plan, y, eta, t)
                assert rel_err(got, transport_reference(plan, eta, t)) <= 1e-12

    def test_reused_plan_never_calls_expm(self, rng, monkeypatch):
        # one-shot calls run expm and no factorization; a reused plan
        # factors its two skew arguments once and then runs no expm
        calls = {"eigh": 0, "hessenberg": 0, "expm": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(np.linalg, "eigh")
        counted(scipy.linalg, "hessenberg")
        counted(scipy.linalg, "expm")
        sig = FlagSignature(d_list=(2, 1, 2), n=11)
        y = random_stiefel(rng, 11, 5)
        xi, eta = (flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
                   for _ in range(2))
        params = StiefelMetricParams(0.8)
        stiefel_transport(y, xi, eta, params, 0.7)
        flag_transport_canonical(sig, y, xi, eta, 0.7)
        assert calls == {"eigh": 0, "hessenberg": 0, "expm": 5}
        for plan in (make_transport_plan(y, xi, params),
                     flag_transport_plan(sig, y, xi)):
            calls.update(eigh=0, hessenberg=0, expm=0)
            for t in (0.5, 3.0, 40.0):
                transport_with_plan(plan, y, eta, t)
            assert calls["eigh"] + calls["hessenberg"] <= 2 and calls["expm"] == 0

    def test_reused_plan_output_ignores_call_history(self, rng):
        y = random_stiefel(rng, 12, 4)
        xi, eta = random_stiefel_tangent(rng, y), random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.8)
        used = make_transport_plan(y, xi, params)
        transport_with_plan(used, y, eta, 5.0)
        assert np.array_equal(transport_with_plan(used, y, eta, 0.3),
                              transport_with_plan(make_transport_plan(y, xi, params),
                                                  y, eta, 0.3))

    def test_zero_columns(self, rng):
        y = np.zeros((5, 0))
        plan = make_transport_plan(y, np.zeros((5, 0)), StiefelMetricParams(0.8))
        for eta in (np.zeros((5, 0)), np.zeros((2, 5, 0))):
            assert transport_with_plan(plan, y, eta, 1.3).shape == eta.shape

    def test_one_point_check_per_call(self, rng, monkeypatch):
        y = random_stiefel(rng, 8, 3)
        xi, eta = random_stiefel_tangent(rng, y), random_stiefel_tangent(rng, y)
        seen = []
        real = stiefel.check_point
        monkeypatch.setattr(stiefel, "check_point", lambda y: seen.append(1) or real(y))
        stiefel_transport(y, xi, eta, StiefelMetricParams(0.8), 1.0)
        assert len(seen) == 1

    def test_rejects_nontangent_eta(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        with pytest.raises(ValidationError):
            stiefel_transport(y, xi, rng.standard_normal((8, 3)),
                              StiefelMetricParams(0.5), 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_plan_rejects_nontangent_eta(self, rng, t, batch):
        y = random_stiefel(rng, 8, 3)
        plan = make_transport_plan(y, random_stiefel_tangent(rng, y),
                                   StiefelMetricParams(0.8))
        eta = rng.standard_normal(batch + (8, 3))
        with pytest.raises(ValidationError, match="not tangent"):
            transport_with_plan(plan, y, eta, t)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_flag_plan_rejects_nonhorizontal_eta(self, rng, t):
        # tangent, but with a nonzero flag diagonal block
        sig = FlagSignature(d_list=(2, 1, 2), n=11)
        y = random_stiefel(rng, 11, 5)
        plan = flag_transport_plan(
            sig, y, flag_horizontal_project(sig, y, rng.standard_normal(y.shape)))
        eta = flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
        eta = eta + y @ asym(rng.standard_normal((5, 5)))
        check_tangent(y, eta)
        with pytest.raises(ValidationError, match="not horizontal"):
            transport_with_plan(plan, y, eta, t)
        with pytest.raises(ValidationError, match="not horizontal"):
            transport_with_plan(plan, y, np.stack([eta] * 2), t)

    @pytest.mark.parametrize("flag", [False, True])
    def test_batch_checks_each_vector(self, rng, flag):
        # a large tangent vector in the batch must not let a small
        # non-tangent one through
        y = random_stiefel(rng, 8, 3)
        if flag:
            sig = FlagSignature(d_list=(1, 2), n=8)
            xi, v = (flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
                     for _ in range(2))
            plan = flag_transport_plan(sig, y, xi)
        else:
            plan = make_transport_plan(y, random_stiefel_tangent(rng, y),
                                       StiefelMetricParams(0.8))
            v = random_stiefel_tangent(rng, y)
        bad = v + y @ np.diag([1e-4, 0.0, 0.0])
        for eta in (bad, np.stack([1e6 * v, bad])):
            with pytest.raises(ValidationError, match="residual 1.000e-04"):
                transport_with_plan(plan, y, eta, 1.0)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12),
           alpha=st.sampled_from([0.5, 1.0]), t=st.floats(-5.0, 20.0))
    def test_codimension_one(self, seed, n, alpha, t):
        # d = n - 1: Y-orthogonal part of rank one, the pivoted route
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, n - 1)
        xi, eta = (random_stiefel_tangent(rng, y) for _ in range(2))
        params = StiefelMetricParams(alpha)
        plan = make_transport_plan(y, xi, params)
        assert plan.decomposition.k <= 1
        assert_transport_isometric(y, xi, eta, params, t,
                                   transport_with_plan(plan, y, eta, t))

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 15),
           d=st.integers(1, 4), alpha=st.sampled_from([1e-3, 50.0]),
           t=st.sampled_from([-1.5, 0.7]))
    def test_alpha_extremes(self, seed, n, d, alpha, t):
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi, eta = (random_stiefel_tangent(rng, y) for _ in range(2))
        params = StiefelMetricParams(alpha)
        assert_transport_isometric(y, xi, eta, params, t,
                                   stiefel_transport(y, xi, eta, params, t))

    def test_no_square_intermediate_at_large_n(self, rng):
        # n^2 doubles here would need ~3 GB; the O(n d^2) path must be
        # cheap and the plan must hold nothing bigger than n x (d+k)
        n, d = 20_000, 2
        y = random_stiefel(rng, n, d)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        params = StiefelMetricParams(0.5)
        plan = make_transport_plan(y, xi, params)
        assert plan.decomposition.q.shape == (n, plan.decomposition.k)
        assert plan.big_exp_arg.shape[0] <= 2 * d
        moved = transport_with_plan(plan, y, eta, 0.7)
        assert moved.shape == (n, d)
        gam = stiefel_geodesic(y, xi, params, 0.7)
        assert np.linalg.norm(sym(gam.T @ moved)) <= 1e-9


class TestSkewExponential:
    """The factored exp(s S) of a reused plan against scipy.linalg.expm."""

    @pytest.mark.parametrize("m, rank", [(0, 0), (1, 0), (6, 0), (7, 2), (9, 9)])
    def test_matches_expm(self, rng, m, rank):
        # rank < m gives a zero eigenvalue of multiplicity m - rank
        g = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, m))
        s = asym(g)
        exp = stiefel.SkewExponential(s)
        for t in (-3.0, 0.0, 0.4, 50.0):
            want = scipy.linalg.expm(t * s)
            assert rel_err(exp(t), want) <= 1e-13 * max(1.0, abs(t) * np.linalg.norm(s, 2))
            assert rel_err(exp(t).T @ exp(t), np.eye(m)) <= 1e-13


class TestChristoffelAndLift:
    def test_zero_direction(self, rng):
        y = random_stiefel(rng, 8, 3)
        eta = random_stiefel_tangent(rng, y)
        got = stiefel_christoffel(y, np.zeros((8, 3)), eta,
                                  StiefelMetricParams(0.5))
        assert np.allclose(got, 0.0)

    def test_alpha_one_perp_inputs_keep_first_term_only(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = rng.standard_normal((8, 3))
        xi -= y @ (y.T @ xi)
        eta = rng.standard_normal((8, 3))
        eta -= y @ (y.T @ eta)
        got = stiefel_christoffel(y, xi, eta, StiefelMetricParams(1.0))
        want = 0.5 * y @ (xi.T @ eta + eta.T @ xi)
        assert rel_err(got, want) <= 1e-12

    def test_metric_compatibility_by_finite_differences(self, rng):
        y = random_stiefel(rng, 7, 3)
        params = StiefelMetricParams(0.8)
        xi = random_stiefel_tangent(rng, y)
        z0 = rng.standard_normal((7, 3))

        def field(p):
            return project_tangent(p, z0)

        h = 1e-5
        gp = stiefel_geodesic(y, xi, params, h)
        gm = stiefel_geodesic(y, xi, params, -h)
        deriv = (metric_inner(gp, field(gp), field(gp), params)
                 - metric_inner(gm, field(gm), field(gm), params)) / (2 * h)
        dot_z = (field(gp) - field(gm)) / (2 * h)
        nabla = dot_z + stiefel_christoffel(y, xi, field(y), params)
        want = 2.0 * metric_inner(y, field(y), project_tangent(y, nabla), params)
        # nabla is tangent up to FD error; project for the pairing
        assert abs(deriv - want) <= 1e-7 * max(1.0, abs(deriv))

    def test_lift_projects_back(self, rng):
        n, d = 7, 3
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = random_stiefel_tangent(rng, y)
        lift = horizontal_lift(y, yperp, xi)
        assert np.array_equal(lift[:, :d], xi)

    def test_lift_zero(self, rng):
        xbar = random_so(rng, 7)
        y, yperp = xbar[:, :3], xbar[:, 3:]
        assert np.allclose(horizontal_lift(y, yperp, np.zeros((7, 3))), 0.0)

    def test_lift_is_horizontal_algebra_element(self, rng):
        n, d = 7, 3
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = random_stiefel_tangent(rng, y)
        coeff = xbar.T @ horizontal_lift(y, yperp, xi)
        assert np.linalg.norm(coeff + coeff.T) <= 1e-12
        assert np.linalg.norm(coeff[d:, d:]) <= 1e-12

    def test_lift_rejects_bad_completion(self, rng):
        y = random_stiefel(rng, 7, 3)
        with pytest.raises(ValidationError):
            horizontal_lift(y, rng.standard_normal((7, 4)),
                            random_stiefel_tangent(rng, y))


class TestBadInput:
    """Non-finite, complex, non-numeric or wrongly shaped y, xi, eta fail
    fast, naming the argument, at every Stiefel entry point."""

    def args(self, rng, n=20, d=4):
        y = random_stiefel(rng, n, d)
        return dict(y=y, xi=random_stiefel_tangent(rng, y),
                    eta=random_stiefel_tangent(rng, y))

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_stiefel_transport_nonfinite(self, rng, arg, value):
        args = poisoned(arg, value, **self.args(rng))
        with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
            stiefel_transport(params=StiefelMetricParams(0.5), t=1.0, **args)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_stiefel_christoffel_nonfinite(self, rng, arg, value):
        args = poisoned(arg, value, **self.args(rng))
        with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
            stiefel_christoffel(params=StiefelMetricParams(0.5), **args)

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_stiefel_christoffel_wrong_shape(self, rng, arg):
        args = self.args(rng)
        args[arg] = args[arg][:, :3]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            stiefel_christoffel(params=StiefelMetricParams(0.5), **args)

    @pytest.mark.parametrize("arg", ["y", "xi"])
    def test_make_transport_plan_nonfinite(self, rng, arg):
        args = poisoned(arg, **self.args(rng))
        del args["eta"]
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            make_transport_plan(params=StiefelMetricParams(0.8), **args)

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_transport_with_plan_nonfinite_eta(self, rng, value):
        args = self.args(rng)
        plan = make_transport_plan(args["y"], args["xi"], StiefelMetricParams(0.8))
        eta = np.stack([args["eta"]] * 2).astype(poison_dtype(value))
        eta[1, 3, 2] = value
        with pytest.raises(ValidationError, match=f"^eta {refusal(value)}"):
            transport_with_plan(plan, args["y"], eta, 1.0)

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_stiefel_transport_wrong_shape(self, rng, arg):
        args = self.args(rng)
        args[arg] = args[arg][:, :3]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            stiefel_transport(params=StiefelMetricParams(0.5), t=1.0, **args)

    def test_nonorthonormal_y_is_named(self, rng):
        args = self.args(rng)
        args["y"] = 1.01 * args["y"]
        with pytest.raises(ValidationError,
                           match="^y is not orthonormal: residual 4.0"):
            stiefel_transport(params=StiefelMetricParams(0.5), t=1.0, **args)

    def test_wrong_shape_y(self, rng):
        args = self.args(rng)
        args["y"] = args["y"][None]
        with pytest.raises(DimensionError, match="^y must be n x d"):
            stiefel_transport(params=StiefelMetricParams(0.5), t=1.0, **args)

    def test_batched_xi_rejected(self, rng):
        args = self.args(rng)
        with pytest.raises(DimensionError, match="^xi has shape"):
            make_transport_plan(args["y"], np.stack([args["xi"]] * 2),
                                StiefelMetricParams(0.5))

    def test_transport_with_plan_wrong_shape_eta(self, rng):
        args = self.args(rng)
        plan = make_transport_plan(args["y"], args["xi"], StiefelMetricParams(0.5))
        with pytest.raises(DimensionError, match="^eta has shape"):
            transport_with_plan(plan, args["y"], args["eta"][:, :3], 1.0)

    def test_validators_reject_nan(self, rng):
        # a NaN residual must fail the tolerance test, not pass it
        args = self.args(rng, 8, 3)
        xi = args["xi"].copy()
        xi[2, 1] = np.nan
        with pytest.raises(ValidationError, match="not tangent"):
            check_tangent(args["y"], xi)
        y = args["y"].copy()
        y[0, 0] = np.nan
        with pytest.raises(ValidationError, match="^y has non-finite"):
            check_point(y)
