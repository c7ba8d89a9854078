import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from manitrans import flag_grassmann, oracle, stiefel
from manitrans.errors import DimensionError, NumericalError, ValidationError
from manitrans.flag_grassmann import (
    FlagSignature, check_horizontal, flag_christoffel, flag_geodesic,
    flag_horizontal_project, flag_transport_canonical, flag_transport_plan,
    grassmann_transport, symf)
from manitrans.stiefel import (StiefelMetricParams, metric_inner,
                               stiefel_geodesic, stiefel_geodesic_velocity,
                               stiefel_transport, transport_with_plan)
from manitrans.utils import asym, sym

from helpers import (BAD_VALUES, NON_REAL, VELOCITY_KINDS,
                     explicit_one_shot_plan, grassmann_transport_reference,
                     one_shot_velocity, poisoned, random_stiefel,
                     random_stiefel_tangent, refusal, rel_err,
                     stiefel_geodesic_reference, zero_flag_blocks)


def random_horizontal(rng, sig, y):
    return flag_horizontal_project(sig, y, rng.standard_normal(y.shape))


def grassmann_horizontal(rng, y):
    w = rng.standard_normal(y.shape)
    return w - y @ (y.T @ w)


class TestSignature:
    def test_dimensions(self):
        sig = FlagSignature(d_list=(2, 3), n=9)
        assert sig.d == 5
        assert sig.offsets == (0, 2, 5)

    def test_rejects_overfull(self):
        with pytest.raises(ValidationError):
            FlagSignature(d_list=(3, 3), n=6)

    def test_rejects_empty_block(self):
        with pytest.raises(ValidationError):
            FlagSignature(d_list=(2, 0), n=9)

    @pytest.mark.parametrize("n", [4.5, 0, -1, True, "9"])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValidationError, match="^n must be an integer"):
            FlagSignature(d_list=(2, 2), n=n)

    @pytest.mark.parametrize("d_list", [(True, 2), (2.0, 2), (0, 2)])
    def test_rejects_bad_block(self, d_list):
        with pytest.raises(ValidationError,
                           match="^d_list block must be an integer of at least 1"):
            FlagSignature(d_list=d_list, n=6)


class TestSymf:
    def test_symmetric_fixed(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        m = sym(rng.standard_normal((4, 4)))
        assert np.allclose(symf(sig, m), m)

    def test_single_block_is_identity(self, rng):
        sig = FlagSignature(d_list=(4,), n=9)
        m = rng.standard_normal((4, 4))
        assert np.allclose(symf(sig, m), m)

    def test_skew_with_zero_blocks_killed(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        m = zero_flag_blocks(sig, asym(rng.standard_normal((4, 4))))
        assert np.allclose(symf(sig, m), 0.0)

    def test_blocks_untouched(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        m = rng.standard_normal((4, 4))
        out = symf(sig, m)
        assert np.allclose(out[:2, :2], m[:2, :2])
        assert np.allclose(out[2:, 2:], m[2:, 2:])

    def test_shape_check(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        with pytest.raises(DimensionError):
            symf(sig, np.zeros((3, 3)))

    @pytest.mark.parametrize("value", NON_REAL)
    def test_refuses_non_real_by_name(self, value):
        sig = FlagSignature(d_list=(2, 2), n=9)
        with pytest.raises(ValidationError, match=f"^m {refusal(value)}"):
            symf(sig, **poisoned("m", value, m=np.eye(4)))


class TestHorizontalProjection:
    def test_vertical_direction_killed(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        y = random_stiefel(rng, 9, 4)
        k = np.zeros((4, 4))
        k[:2, :2] = asym(rng.standard_normal((2, 2)))
        k[2:, 2:] = asym(rng.standard_normal((2, 2)))
        assert np.linalg.norm(flag_horizontal_project(sig, y, y @ k)) <= 1e-13

    def test_idempotent(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        y = random_stiefel(rng, 9, 4)
        h = random_horizontal(rng, sig, y)
        assert np.allclose(flag_horizontal_project(sig, y, h), h)

    @pytest.mark.parametrize("value", NON_REAL)
    def test_refuses_non_real_by_name(self, rng, value):
        sig = FlagSignature(d_list=(2, 1), n=8)
        y = random_stiefel(rng, 8, 3)
        with pytest.raises(ValidationError, match=f"^w {refusal(value)}"):
            flag_horizontal_project(
                sig, y, **poisoned("w", value, w=rng.standard_normal((8, 3))))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["y", "w"])
    def test_refuses_nonfinite_by_name(self, rng, arg, value):
        sig = FlagSignature(d_list=(2, 1), n=8)
        args = poisoned(arg, value, y=random_stiefel(rng, 8, 3),
                        w=rng.standard_normal((8, 3)))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            flag_horizontal_project(sig, **args)

    def test_refuses_non_orthonormal_y_by_name(self, rng):
        sig = FlagSignature(d_list=(2, 1), n=8)
        y = random_stiefel(rng, 8, 3)
        with pytest.raises(ValidationError, match="^y is not orthonormal"):
            flag_horizontal_project(sig, 2.0 * y, rng.standard_normal((8, 3)))

    @pytest.mark.parametrize("arg", ["y", "w"])
    def test_refuses_wrong_shape_by_name(self, rng, arg):
        sig = FlagSignature(d_list=(2, 1), n=8)
        args = dict(y=random_stiefel(rng, 8, 3), w=rng.standard_normal((8, 3)))
        args[arg] = args[arg][:, :2]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            flag_horizontal_project(sig, **args)

    def test_output_is_horizontal(self, rng):
        sig = FlagSignature(d_list=(2, 1), n=8)
        y = random_stiefel(rng, 8, 3)
        h = random_horizontal(rng, sig, y)
        coeff = y.T @ h
        assert np.linalg.norm(sym(coeff)) <= 1e-12
        assert np.linalg.norm(coeff[:2, :2]) <= 1e-12
        assert np.linalg.norm(coeff[2:, 2:]) <= 1e-12


def flag_christoffel_reference(sig, y, xi, eta, alpha):
    """The flag Christoffel function as a formula of its own: the first
    term Y symf(xi^T eta), then Stiefel's second."""
    c = xi.T @ eta
    first = y @ np.where(sig.block_mask, c, sym(c))
    m = xi @ (eta.T @ y) + eta @ (xi.T @ y)
    return first + (1.0 - alpha) * (m - y @ (y.T @ m))


class TestFlagChristoffel:
    def test_zero_direction(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=9)
        y = random_stiefel(rng, 9, 4)
        eta = random_horizontal(rng, sig, y)
        got = flag_christoffel(sig, y, np.zeros((9, 4)), eta,
                               StiefelMetricParams(0.5))
        assert np.allclose(got, 0.0)

    def test_grassmann_single_block_reduction(self, rng):
        sig = FlagSignature(d_list=(3,), n=9)
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        params = StiefelMetricParams(0.5)
        got = flag_christoffel(sig, y, xi, eta, params)
        m = xi @ (eta.T @ y) + eta @ (xi.T @ y)
        want = y @ (xi.T @ eta) + 0.5 * (m - y @ (y.T @ m))
        assert rel_err(got, want) <= 1e-12

    @given(seed=st.integers(0, 10_000),
           d_list=st.sampled_from([(3,), (2, 2), (1, 2, 1), (1, 1, 1)]),
           alpha=st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    def test_matches_the_symf_formula(self, seed, d_list, alpha):
        # Stiefel's Christoffel function plus the masked asym term is the
        # symf formula; (3,) is the one-block Grassmann mask
        rng = np.random.default_rng(seed)
        sig = FlagSignature(d_list=d_list, n=9)
        y = random_stiefel(rng, 9, sig.d)
        xi, eta = random_horizontal(rng, sig, y), random_horizontal(rng, sig, y)
        got = flag_christoffel(sig, y, xi, eta, StiefelMetricParams(alpha))
        want = flag_christoffel_reference(sig, y, xi, eta, alpha)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestFlagTransport:
    def test_time_zero(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        eta = random_horizontal(rng, sig, y)
        got = flag_transport_canonical(sig, y, xi, eta, 0.0)
        assert rel_err(got, eta) <= 1e-13

    def test_matches_rk_oracle(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        eta = random_horizontal(rng, sig, y)
        params = StiefelMetricParams(0.5)
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: flag_christoffel(sig, p, v, w, params,
                                             validate=False),
            lambda s: stiefel_geodesic_velocity(y, xi, params, s), eta, grid)
        worst = max(
            np.linalg.norm(flag_transport_canonical(sig, y, xi, eta, s) - r)
            for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_horizontality_transported(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        eta = random_horizontal(rng, sig, y)
        for t in (0.6, 1.8):
            moved = flag_transport_canonical(sig, y, xi, eta, t)
            gam = flag_geodesic(sig, y, xi, t)
            check_horizontal(sig, gam, moved)  # raises on failure

    def test_canonical_metric_preserved(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        params = StiefelMetricParams(0.5)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        vectors = [random_horizontal(rng, sig, y) for _ in range(4)]
        times = (0.5, 1.5, 3.0)
        transported = [
            [flag_transport_canonical(sig, y, xi, v, t) for v in vectors]
            for t in times]
        points = [flag_geodesic(sig, y, xi, t) for t in times]
        drifts = oracle.gram_drift(
            vectors, transported,
            metric=lambda p, a, b: metric_inner(p, a, b, params),
            points=points, initial_point=y)
        assert max(drifts) <= 1e-9

    def test_p_operator_keeps_m_blocks(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        plan = flag_transport_plan(sig, y, xi)
        op = plan.p_op
        w = np.concatenate([
            zero_flag_blocks(sig, asym(rng.standard_normal((4, 4)))),
            rng.standard_normal((plan.decomposition.k, 4))])
        out = op.apply(w)
        assert np.linalg.norm(out[:2, :2]) <= 1e-13
        assert np.linalg.norm(out[2:4, 2:4]) <= 1e-13

    def test_rejects_nonhorizontal(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        with pytest.raises(ValidationError):
            flag_transport_canonical(sig, y, xi, rng.standard_normal((10, 4)),
                                     1.0)

    def test_checks_without_a_second_coefficient(self, rng, monkeypatch):
        # xi is checked on the decomposition's A and eta on the plan's
        # [Y|Q]^T eta, so check_horizontal (another Y^T v) is not called
        def forbidden(*args):
            raise AssertionError("check_horizontal called")
        monkeypatch.setattr(flag_grassmann, "check_horizontal", forbidden)
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        eta = random_horizontal(rng, sig, y)
        flag_transport_canonical(sig, y, xi, eta, 1.0)
        vertical = y @ asym(rng.standard_normal((4, 4)))  # tangent
        for bad_xi, bad_eta in ((xi + vertical, eta), (xi, eta + vertical)):
            with pytest.raises(ValidationError, match="not horizontal"):
                flag_transport_canonical(sig, y, bad_xi, bad_eta, 1.0)


def grassmann_velocity(rng, y, rank):
    """A horizontal xi at Y of unit norm and the given rank (0 is zero)."""
    n, d = y.shape
    xi = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    xi -= y @ (y.T @ xi)
    return xi / np.linalg.norm(xi) if rank else xi


class TestGrassmann:
    def test_time_zero(self, rng):
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        assert rel_err(grassmann_transport(y, xi, eta, 0.0), eta) <= 1e-13

    def test_zero_velocity(self, rng):
        y = random_stiefel(rng, 9, 3)
        eta = grassmann_horizontal(rng, y)
        got = grassmann_transport(y, np.zeros((9, 3)), eta, 2.5)
        assert np.array_equal(got, eta)

    def test_normal_part_untouched(self, rng):
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        u, sv, vt = np.linalg.svd(xi, full_matrices=False)
        q = u[:, sv > 1e-12 * sv[0]]
        eta = grassmann_horizontal(rng, y)
        eta -= q @ (q.T @ eta)  # now Q^T eta = 0
        got = grassmann_transport(y, xi, eta, 1.7)
        assert rel_err(got, eta) <= 1e-12

    def test_matches_flag_single_block(self, rng):
        n, d, t = 9, 3, 1.4
        sig = FlagSignature(d_list=(d,), n=n)
        y = random_stiefel(rng, n, d)
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        got = grassmann_transport(y, xi, eta, t)
        want = flag_transport_canonical(sig, y, xi, eta, t)
        assert np.linalg.norm(got - want) <= 1e-10

    def test_matches_quotient_machinery(self, rng):
        from manitrans.quotient import flag_quotient, quotient_transport
        from helpers import horizontal_lift, random_so
        n, d, t = 7, 2, 1.2
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        fq = flag_quotient(n, (d,), 0.5)
        moved = quotient_transport(
            fq, xbar, horizontal_lift(y, yperp, xi),
            horizontal_lift(y, yperp, eta), t)
        want = grassmann_transport(y, xi, eta, t)
        assert np.linalg.norm(moved[:, :d] - want) <= 1e-10

    def test_normal_eta_agrees_with_stiefel_transport(self, rng):
        # the fragment of the Stiefel/Grassmann comparison that is exact:
        # eta normal to the subspace S transports identically (A = 0)
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        u, sv, vt = np.linalg.svd(xi, full_matrices=False)
        q = u[:, sv > 1e-12 * sv[0]]
        eta = grassmann_horizontal(rng, y)
        eta -= q @ (q.T @ eta)
        t = 1.3
        got_g = grassmann_transport(y, xi, eta, t)
        got_s = stiefel_transport(y, xi, eta, StiefelMetricParams(0.5), t)
        assert np.linalg.norm(got_g - got_s) <= 1e-10

    def test_sphere_rotation(self, rng):
        # d = 1 Grassmann: transport of eta = xi rotates like the velocity
        y = random_stiefel(rng, 6, 1)
        xi = grassmann_horizontal(rng, y)
        t = np.pi / (2 * np.linalg.norm(xi))  # quarter great circle
        got = grassmann_transport(y, xi, xi, t)
        sigma = np.linalg.norm(xi)
        want = -np.sin(t * sigma) * sigma * y + np.cos(t * sigma) * xi
        assert rel_err(got, want) <= 1e-12

    def test_matches_rk_oracle(self, rng):
        n, d = 9, 3
        sig = FlagSignature(d_list=(d,), n=n)
        params = StiefelMetricParams(0.5)
        y = random_stiefel(rng, n, d)
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: flag_christoffel(sig, p, v, w, params,
                                             validate=False),
            lambda s: stiefel_geodesic_velocity(y, xi, params, s), eta, grid)
        worst = max(
            np.linalg.norm(grassmann_transport(y, xi, eta, s) - r)
            for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_rejects_nonhorizontal(self, rng):
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        with pytest.raises(ValidationError):
            grassmann_transport(y, xi, y @ asym(rng.standard_normal((3, 3))),
                                1.0)

    def test_batch_checks_each_vector_against_its_own_norm(self, rng):
        # the large first vector must not widen the tolerance of the second,
        # whose Y-component 1e-4 Y is far above 1e-9 times its own norm
        y = random_stiefel(rng, 8, 3)
        xi = grassmann_horizontal(rng, y)
        h = grassmann_horizontal(rng, y)
        batch = np.stack([1e6 * h, h + 1e-4 * y])
        with pytest.raises(ValidationError, match="^eta is not horizontal"):
            grassmann_transport(y, xi, batch, 1.0)
        ok = np.stack([1e6 * h, h])
        assert rel_err(grassmann_transport(y, xi, ok, 1.0)[1],
                       grassmann_transport(y, xi, h, 1.0)) <= 1e-13

    def test_whole_coefficient_is_checked(self, rng):
        # Y^T xi with a symmetric and an antisymmetric part of 0.9e-9 each,
        # for a unit xi: each part passes 1e-9, the whole (1.27e-9) does not
        n, d = 9, 3
        y = random_stiefel(rng, n, d)
        h = grassmann_velocity(rng, y, d)
        s, k = (m / np.linalg.norm(m) for m in
                (sym(rng.standard_normal((d, d))), asym(rng.standard_normal((d, d)))))
        xi = h + y @ (0.9e-9 * (s + k))
        sig = FlagSignature(d_list=(d,), n=n)
        for call in (lambda: flag_transport_plan(sig, y, xi),
                     lambda: grassmann_transport(y, xi, h, 1.0)):
            with pytest.raises(ValidationError,
                               match="^xi is not horizontal: residual 1.27"):
                call()

    def test_runs_the_flag_plan(self, rng, monkeypatch):
        # no SVD of its own, and y checked once
        y = random_stiefel(rng, 9, 3)
        xi = grassmann_horizontal(rng, y)
        eta = grassmann_horizontal(rng, y)
        want = grassmann_transport_reference(y, xi, eta, 1.3)

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        checked = []
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(scipy.linalg, "svd", no_svd)
        real = stiefel._orthonormality_defect
        monkeypatch.setattr(stiefel, "_orthonormality_defect", lambda gram:
                            checked.append(gram) or real(gram))
        got = grassmann_transport(y, xi, eta, 1.3)
        assert len(checked) == 1
        assert rel_err(got, want) <= 1e-12

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40), d=st.integers(1, 39),
           rank=st.sampled_from(["full", "deficient", "zero"]),
           batch=st.integers(1, 3),
           ts=st.lists(st.floats(-5.0, 50.0), min_size=1, max_size=3))
    @example(seed=1, n=2, d=1, rank="full", batch=1, ts=[50.0])
    @example(seed=2, n=40, d=39, rank="deficient", batch=3, ts=[-5.0, 50.0])
    def test_matches_svd_reference(self, seed, n, d, rank, batch, ts):
        # the one-shot call, and one reused one-block plan at every t
        d = min(d, n - 1)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, d)
        xi = grassmann_velocity(rng, y, {"full": d, "deficient": (d + 1) // 2,
                                         "zero": 0}[rank])
        etas = np.stack([grassmann_horizontal(rng, y) for _ in range(batch)])
        plan = flag_transport_plan(FlagSignature(d_list=(d,), n=n), y, xi)
        for t in (0.0, *ts):
            want = grassmann_transport_reference(y, xi, etas, t)
            assert rel_err(grassmann_transport(y, xi, etas, t), want) <= 1e-12
            assert rel_err(transport_with_plan(plan, y, etas, t), want) <= 1e-12


class TestEngine:
    """Flag transport is the Stiefel plan with a mask on the operator."""

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12),
           d=st.integers(1, 11), t=st.floats(-3.0, 30.0), batch=st.integers(1, 3))
    def test_all_one_blocks_is_canonical_stiefel(self, seed, n, d, t, batch):
        d = min(d, n - 1)
        rng = np.random.default_rng(seed)
        sig = FlagSignature(d_list=(1,) * d, n=n)
        params = StiefelMetricParams(0.5)
        y = random_stiefel(rng, n, d)
        xi = random_stiefel_tangent(rng, y)
        xi /= np.sqrt(metric_inner(y, xi, xi, params))
        etas = np.stack([random_stiefel_tangent(rng, y) for _ in range(batch)])
        got = flag_transport_canonical(sig, y, xi, etas, t)
        want = stiefel_transport(y, xi, etas, params, t)
        assert rel_err(got, want) <= 1e-13

    def test_plan_reuse_matches_serial_calls(self, rng):
        sig = FlagSignature(d_list=(2, 3, 1), n=14)
        y = random_stiefel(rng, 14, 6)
        xi = random_horizontal(rng, sig, y)
        etas = np.stack([random_horizontal(rng, sig, y) for _ in range(3)])
        plan = flag_transport_plan(sig, y, xi)
        for t in (-1.0, 0.4, 2.5, 9.0):
            batch = transport_with_plan(plan, y, etas, t)
            for eta, got in zip(etas, batch):
                want = flag_transport_canonical(sig, y, xi, eta, t)
                assert rel_err(got, want) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
           blocks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           t=st.floats(-20.0, 50.0))
    @example(seed=1, n=7, blocks=[3, 3], t=50.0)
    @example(seed=2, n=9, blocks=[3], t=-20.0)
    def test_geodesic_is_the_plan_geodesic(self, seed, n, blocks, t):
        # flag masks and Grassmann (one block): flag_geodesic against the
        # Stiefel closed form at alpha = 1/2, the plan's geodesic and
        # velocity, and transports against R = Q^T xi
        d = sum(blocks)
        n = max(n, d + 1)
        rng = np.random.default_rng(seed)
        sig = FlagSignature(d_list=tuple(blocks), n=n)
        y = random_stiefel(rng, n, d)
        xi = random_horizontal(rng, sig, y)
        xi /= np.linalg.norm(xi)
        eta = random_horizontal(rng, sig, y)
        gam, vel = stiefel_geodesic_reference(y, xi, 0.5, t)
        plan = flag_transport_plan(sig, y, xi)
        plan.geodesic(0.1)
        # expm's error in the reference grows with |t| ||S||_2; the
        # one-shot geodesic (Chebyshev actions) and the reused plan's
        # stay near eps at any t
        tol = 1e-13 * max(1.0, abs(t) * np.linalg.norm(plan.big_exp_arg, 2))
        got_gam, got_vel = plan.geodesic_velocity(t)
        assert rel_err(got_gam, gam) <= tol
        assert rel_err(got_vel, vel) <= tol
        one_gam = flag_geodesic(sig, y, xi, t)
        assert rel_err(one_gam, got_gam) <= 1e-13 * max(1.0, abs(t) / 5.0)
        assert rel_err(one_gam, gam) <= tol
        dec = plan.decomposition
        ref = stiefel.plan_from_decomposition(
            y, dataclasses.replace(dec, r=dec.q.T @ xi),
            StiefelMetricParams(0.5), mask=sig.block_mask)
        tol = 1e-14 * max(1.0, abs(t) / 5.0)
        assert rel_err(transport_with_plan(plan, y, eta, t),
                       transport_with_plan(ref, y, eta, t)) <= tol
        assert rel_err(flag_transport_canonical(sig, y, xi, eta, t),
                       transport_with_plan(
                           stiefel._plan(stiefel._SingleTimePlan, y,
                                         ref.decomposition, StiefelMetricParams(0.5),
                                         sig.block_mask),
                           y, eta, t)) <= tol

    def test_geodesic_checks_horizontality_in_the_decomposition(
            self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("check_horizontal called")
        monkeypatch.setattr(flag_grassmann, "check_horizontal", forbidden)
        sig = FlagSignature(d_list=(2, 2), n=10)
        y = random_stiefel(rng, 10, 4)
        xi = random_horizontal(rng, sig, y)
        flag_geodesic(sig, y, xi, 1.0)
        with pytest.raises(ValidationError, match="^xi is not horizontal"):
            flag_geodesic(sig, y, xi + y @ asym(rng.standard_normal((4, 4))), 1.0)

    @pytest.mark.parametrize("t", [-2.0, 200.0])
    @pytest.mark.parametrize("manifold", ["stiefel", "flag"])
    def test_isometry_at_extreme_times(self, rng, t, manifold):
        # unit speed and unit vectors, so the drift is relative
        params = StiefelMetricParams(0.5)
        sig = FlagSignature(d_list=(2, 1, 3), n=30)
        y = random_stiefel(rng, 30, 6)

        def unit(v):
            return v / np.sqrt(metric_inner(y, v, v, params))

        if manifold == "stiefel":
            xi, *vectors = (unit(random_stiefel_tangent(rng, y)) for _ in range(5))
            moved = stiefel_transport(y, xi, np.stack(vectors), params, t)
            point = stiefel_geodesic(y, xi, params, t)
        else:
            xi, *vectors = (unit(random_horizontal(rng, sig, y)) for _ in range(5))
            moved = flag_transport_canonical(sig, y, xi, np.stack(vectors), t)
            point = flag_geodesic(sig, y, xi, t)
        drift = oracle.gram_drift(
            vectors, [list(moved)],
            metric=lambda p, a, b: metric_inner(p, a, b, params),
            points=[point], initial_point=y)
        assert max(drift) <= 1e-12


def one_shot_calls(sig, y, xi, eta, t):
    """The flag (and, for one block, Grassmann) one-shot entry points."""
    calls = [lambda: flag_transport_canonical(sig, y, xi, eta, t),
             lambda: flag_geodesic(sig, y, xi, t)]
    if len(sig.d_list) == 1:
        calls.append(lambda: grassmann_transport(y, xi, eta, t))
    return calls


class TestOneShotRoutes:
    """Flag and Grassmann one-shot calls take the Gram route of
    stiefel.one_shot_plan with their masked Y^T xi, and agree with the
    explicit route."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
           blocks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           kind=st.sampled_from(VELOCITY_KINDS + ("codim1",)),
           decades=st.floats(0.0, 8.0), t=st.floats(-20.0, 50.0),
           batch=st.sampled_from([(), (0,), (2, 3)]))
    @example(seed=1, n=30, blocks=[3, 1, 2], kind="full", decades=0.0,
             t=0.0, batch=())
    @example(seed=2, n=30, blocks=[3, 3], kind="ill", decades=1.0, t=50.0,
             batch=(2, 3))
    @example(seed=3, n=30, blocks=[6], kind="full", decades=0.0, t=-20.0,
             batch=(0,))
    def test_agrees_with_explicit_route(self, seed, n, blocks, kind, decades,
                                        t, batch):
        d = sum(blocks)
        n = max(n, d + 1)
        if kind == "codim1":
            kind, blocks = "full", blocks[:-1] + [blocks[-1] + n - 1 - d]
        sig = FlagSignature(d_list=tuple(blocks), n=n)
        rng = np.random.default_rng(seed)
        y = random_stiefel(rng, n, sig.d)
        xi = one_shot_velocity(rng, y, kind, decades, sig.block_mask)
        eta = np.reshape([random_horizontal(rng, sig, y)
                          for _ in range(int(np.prod(batch)))], batch + y.shape)
        try:
            ref = explicit_one_shot_plan(y, xi, StiefelMetricParams(0.5),
                                         sig.block_mask)
        except NumericalError:
            # the explicit route's failure on near-span xi of rank below d
            # (see the Stiefel test of the same name): every call fails
            for call in one_shot_calls(sig, y, xi, eta, t):
                with pytest.raises(NumericalError):
                    call()
            return
        want = transport_with_plan(ref, y, eta, t), ref.geodesic(t)
        wants = want + want[:1]
        for call, want in zip(one_shot_calls(sig, y, xi, eta, t), wants):
            assert rel_err(call(), want) <= 1e-12

    @pytest.mark.parametrize("d_list, kind, decades, gram", [
        ((5, 5, 10), "full", 0.0, True), ((20,), "full", 0.0, True),
        ((5, 5, 10), "near_span", 2.0, False), ((5, 5, 10), "deficient", 0.0, False),
        ((20,), "deficient", 0.0, False), ((20,), "ill", 3.0, False)])
    def test_route_follows_the_gate(self, rng, reorth_calls, d_list, kind,
                                    decades, gram):
        sig = FlagSignature(d_list=d_list, n=200)
        y = random_stiefel(rng, 200, 20)
        xi = one_shot_velocity(rng, y, kind, decades, sig.block_mask)
        eta = random_horizontal(rng, sig, y)
        for call in one_shot_calls(sig, y, xi, eta, 1.3):
            reorth_calls.clear()
            call()
            assert len(reorth_calls) == (0 if gram else 1)

    @pytest.mark.parametrize("d_list", [(10, 11), (21,)])
    def test_codimension_one_takes_the_explicit_route(self, rng, reorth_calls,
                                                      d_list):
        sig = FlagSignature(d_list=d_list, n=22)
        y = random_stiefel(rng, 22, 21)
        xi = one_shot_velocity(rng, y, "full", 0.0, sig.block_mask)
        eta = random_horizontal(rng, sig, y)
        for call in one_shot_calls(sig, y, xi, eta, 1.3):
            reorth_calls.clear()
            call()
            assert len(reorth_calls) == 1

    @pytest.mark.parametrize("d_list", [(5, 5, 10), (20,)])
    def test_gram_route_refuses_by_name(self, rng, reorth_calls, d_list):
        sig = FlagSignature(d_list=d_list, n=200)
        y = random_stiefel(rng, 200, 20)
        xi = one_shot_velocity(rng, y, "full", 0.0, sig.block_mask)
        eta = random_horizontal(rng, sig, y)
        for call in one_shot_calls(sig, y, xi, eta, 1.3):
            call()
        assert not reorth_calls  # these inputs take the Gram route
        off = y @ np.diag(np.r_[1e-4, np.zeros(19)])  # on a flag block
        cases = [(dict(y=1.01 * y), "^y is not orthonormal: residual"),
                 (dict(xi=xi + off), "^xi is not horizontal: residual 1.000e-04"),
                 (dict(eta=eta + off), "^eta is not horizontal: residual 1.000e-04")]
        cases += [(poisoned(arg, y=y, xi=xi, eta=eta), f"^{arg} has non-finite")
                  for arg in ("y", "xi", "eta")]
        for change, message in cases:
            args = dict(dict(y=y, xi=xi, eta=eta), **change)
            calls = one_shot_calls(sig, t=1.3, **args)
            if "eta" in change:  # flag_geodesic takes no eta
                del calls[1]
            for call in calls:
                with pytest.raises(ValidationError, match=message):
                    call()


class TestBadInput:
    """Non-finite, complex, non-numeric or wrongly shaped input fails fast,
    naming the argument."""

    def flag_args(self, rng):
        sig = FlagSignature(d_list=(2, 2), n=20)
        y = random_stiefel(rng, 20, 4)
        return sig, dict(y=y, xi=random_horizontal(rng, sig, y),
                         eta=random_horizontal(rng, sig, y))

    def grassmann_args(self, rng):
        y = random_stiefel(rng, 20, 4)
        return dict(y=y, xi=grassmann_horizontal(rng, y),
                    eta=grassmann_horizontal(rng, y))

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_flag_transport_nonfinite(self, rng, arg, value):
        sig, args = self.flag_args(rng)
        with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
            flag_transport_canonical(sig, t=1.0, **poisoned(arg, value, **args))

    @pytest.mark.parametrize("arg", ["y", "xi"])
    def test_flag_transport_plan_nonfinite(self, rng, arg):
        sig, args = self.flag_args(rng)
        del args["eta"]
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            flag_transport_plan(sig, **poisoned(arg, **args))

    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_flag_transport_wrong_shape(self, rng, arg):
        sig, args = self.flag_args(rng)
        args[arg] = args[arg][:, :3]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            flag_transport_canonical(sig, t=1.0, **args)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("arg", ["y", "xi", "eta"])
    def test_grassmann_transport_nonfinite(self, rng, arg, value):
        args = poisoned(arg, value, **self.grassmann_args(rng))
        with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
            grassmann_transport(t=1.0, **args)

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_grassmann_transport_wrong_shape(self, rng, arg):
        args = self.grassmann_args(rng)
        args[arg] = args[arg][:, :3]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            grassmann_transport(t=1.0, **args)

    def test_checks_name_the_argument(self, rng):
        sig, args = self.flag_args(rng)
        y, xi, eta = args["y"], args["xi"], args["eta"]
        vertical = y @ asym(rng.standard_normal((4, 4)))
        params = StiefelMetricParams(0.5)
        with pytest.raises(ValidationError, match="^eta is not horizontal"):
            check_horizontal(sig, y, eta + vertical, "eta")
        with pytest.raises(ValidationError, match="^eta is not horizontal"):
            flag_christoffel(sig, y, xi, eta + vertical, params)
        with pytest.raises(ValidationError, match="^xi is not horizontal"):
            flag_christoffel(sig, y, xi + vertical, eta, params)
        with pytest.raises(ValidationError, match="^xi is not horizontal"):
            flag_transport_plan(sig, y, xi + vertical)
        with pytest.raises(ValidationError, match="^eta is not horizontal"):
            flag_transport_canonical(sig, y, xi, eta + vertical, 1.0)

    def test_check_horizontal_rejects_nan(self, rng):
        sig, args = self.flag_args(rng)
        eta = args["eta"].copy()
        eta[5, 0] = np.nan
        with pytest.raises(ValidationError, match="not horizontal"):
            check_horizontal(sig, args["y"], eta)
