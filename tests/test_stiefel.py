import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from manitrans import oracle, stiefel
from manitrans.errors import DimensionError, ValidationError
from manitrans.expaction import (dense_operator_matrix, expa,
                                 one_norm_estimate_exhaustive,
                                 select_taylor_params)
from manitrans.flag_grassmann import (FlagSignature, flag_horizontal_project,
                                      flag_transport_plan)
from manitrans.forms import MetricParams, beta_form
from manitrans.gl_so import so_split
from manitrans.stiefel import (
    StiefelMetricParams, TangentDecomposition, check_point, check_tangent,
    decompose_tangent, horizontal_lift, make_transport_plan, metric_inner,
    p_bal_norm_bound, p_bal_operator, plan_from_decomposition, project_tangent,
    stiefel_christoffel, stiefel_geodesic, stiefel_geodesic_velocity,
    stiefel_transport, transport_with_plan)
from manitrans.utils import asym, sym

from helpers import (
    p_ar_apply, p_ar_operator, p_bal_norm_bound_display, poisoned, random_so,
    random_stiefel, random_stiefel_tangent, rel_err, transport_reference)


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

    def test_pure_normal_direction_projects_to_zero(self, rng):
        y = random_stiefel(rng, 7, 3)
        s = sym(rng.standard_normal((3, 3)))
        assert np.linalg.norm(project_tangent(y, y @ s)) <= 1e-13

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            StiefelMetricParams(0.0)


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

    @pytest.mark.parametrize("use_svd", [False, True])
    def test_reconstruction(self, rng, use_svd):
        y = random_stiefel(rng, 50, 7)
        xi = random_stiefel_tangent(rng, y)
        decomp = decompose_tangent(y, xi, use_svd=use_svd)
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
        # Chebyshev expa, the skipped zero exponentials and the in-place
        # accumulation against the formula term by term
        y = random_stiefel(rng, 12, 4)
        plan = make_transport_plan(y, random_stiefel_tangent(rng, y),
                                   StiefelMetricParams(alpha))
        eta = np.stack([random_stiefel_tangent(rng, y) for _ in range(3)])
        eta = eta[0] if batch == () else eta
        kept = eta.copy()
        for t in (-2.0, 0.6, 30.0):
            got = transport_with_plan(plan, y, eta, t)
            assert rel_err(got, transport_reference(plan, eta, t)) <= 1e-12
        assert np.array_equal(eta, kept)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_flag_plan_matches_unfused_reference(self, rng, batch):
        sig = FlagSignature(d_list=(2, 1, 2), n=11)
        y = random_stiefel(rng, 11, 5)
        plan = flag_transport_plan(
            sig, y, flag_horizontal_project(sig, y, rng.standard_normal(y.shape)))
        eta = np.stack([flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
                        for _ in range(3)])
        eta = eta[0] if batch == () else eta
        for t in (-2.0, 0.6, 30.0):
            got = transport_with_plan(plan, y, eta, t)
            assert rel_err(got, transport_reference(plan, eta, t)) <= 1e-12

    def test_zero_columns(self, rng):
        y = np.zeros((5, 0))
        plan = make_transport_plan(y, np.zeros((5, 0)), StiefelMetricParams(0.8))
        for eta in (np.zeros((5, 0)), np.zeros((2, 5, 0))):
            assert transport_with_plan(plan, y, eta, 1.3).shape == eta.shape

    def test_one_point_check_per_call(self, rng, monkeypatch):
        seen = []
        real = stiefel.check_point
        monkeypatch.setattr(stiefel, "check_point", lambda y: seen.append(1) or real(y))
        y = random_stiefel(rng, 8, 3)
        stiefel_transport(y, random_stiefel_tangent(rng, y),
                          random_stiefel_tangent(rng, y), StiefelMetricParams(0.8), 1.0)
        assert len(seen) == 1

    def test_rejects_nontangent_eta(self, rng):
        y = random_stiefel(rng, 8, 3)
        xi = random_stiefel_tangent(rng, y)
        with pytest.raises(ValidationError):
            stiefel_transport(y, xi, rng.standard_normal((8, 3)),
                              StiefelMetricParams(0.5), 1.0)

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
    """Non-finite or wrongly shaped y, xi, eta fail fast, naming the
    argument, at every Stiefel entry point."""

    def args(self, rng, n=20, d=4):
        y = random_stiefel(rng, n, d)
        return dict(y=y, xi=random_stiefel_tangent(rng, y),
                    eta=random_stiefel_tangent(rng, y))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_stiefel_transport_nonfinite(self, rng, arg, value):
        args = poisoned(arg, value, **self.args(rng))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            stiefel_transport(params=StiefelMetricParams(0.5), t=1.0, **args)

    @pytest.mark.parametrize("arg", ["y", "xi"])
    def test_make_transport_plan_nonfinite(self, rng, arg):
        args = poisoned(arg, **self.args(rng))
        del args["eta"]
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            make_transport_plan(params=StiefelMetricParams(0.8), **args)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_transport_with_plan_nonfinite_eta(self, rng, value):
        args = self.args(rng)
        plan = make_transport_plan(args["y"], args["xi"], StiefelMetricParams(0.8))
        eta = np.stack([args["eta"]] * 2)
        eta[1, 3, 2] = value
        with pytest.raises(ValidationError, match="^eta has non-finite"):
            transport_with_plan(plan, args["y"], eta, 1.0)

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_stiefel_transport_wrong_shape(self, rng, arg):
        args = self.args(rng)
        args[arg] = args[arg][:, :3]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
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
