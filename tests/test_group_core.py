import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from manitrans import oracle
from manitrans.errors import ValidationError
from manitrans.expaction import (dense_operator_matrix, expa,
                                 one_norm_estimate_exhaustive,
                                 select_taylor_params)
from manitrans.forms import AlgebraSplit, MetricParams, beta_form
from manitrans.gl_so import (GLGeometry, SOGeometry, gl_geodesic, gl_metric,
                             gl_split, gl_transport, gl_transport_operator,
                             so_metric, so_split, so_transport_operator)
from manitrans.group_core import (
    GroupGeometry, christoffel, geodesic, geodesic_factors, geodesic_velocity,
    metric, p_a_operator, to_algebra, transport, transport_operator)
from manitrans.quotient import (flag_quotient, horizontal_transport_operator,
                                quotient_transport, stiefel_quotient)
from manitrans.utils import asym, lie, sym

from helpers import (NON_REAL, classify_metric_signature,
                     derive_split_components, poisoned, random_glp, random_so,
                     random_so_tangent, rel_err, subspace_basis)
from test_forms import block_split


def gl_geom(n, beta):
    return GroupGeometry(split=gl_split(n), params=MetricParams(1.0, beta))


def so_geom(n, d, alpha):
    return GroupGeometry(split=so_split(n, d),
                         params=MetricParams(-0.5, alpha))


class TestChristoffel:
    def test_zero_velocity(self, rng):
        geom = gl_geom(4, 0.7)
        x = random_glp(rng, 4)
        eta = x @ rng.standard_normal((4, 4))
        assert np.allclose(christoffel(geom, x, np.zeros((4, 4)), eta), 0.0)

    def test_beta_minus_one_reduction(self, rng):
        geom = gl_geom(4, -1.0)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        want = -0.5 * (xi @ np.linalg.solve(x, eta)
                       + eta @ np.linalg.solve(x, xi))
        assert rel_err(christoffel(geom, x, xi, eta), want) <= 1e-12

    def test_torsion_symmetry(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        assert np.allclose(christoffel(geom, x, xi, eta),
                           christoffel(geom, x, eta, xi), atol=1e-13)

    def test_correction_term_lies_in_x_a_join(self, rng):
        # the non-trace part of the connection must have no a or a_top part
        geom = so_geom(5, 2, 0.8)
        comps = derive_split_components(geom.split)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        full = christoffel(geom, x, xi, eta)
        trace_part = christoffel(
            GroupGeometry(split=geom.split, params=MetricParams(-0.5, 0.5)),
            x, xi, eta)  # alpha = 1/2 makes beta = -1: first terms only
        corr = np.linalg.solve(x, full - trace_part)
        assert np.linalg.norm(geom.split.proj_a(corr)) <= 1e-12
        assert np.linalg.norm(comps.proj_a_top(corr)) <= 1e-10

    def test_metric_compatibility_by_finite_differences(self, rng):
        geom = gl_geom(4, 0.7)
        x = random_glp(rng, 4)
        y_dir = rng.standard_normal((4, 4))
        z0, z1 = rng.standard_normal((2, 4, 4))

        def curve(s):
            return x @ scipy.linalg.expm(s * y_dir)

        def field(c):
            return c @ (z0 + np.trace(c) * z1)

        h = 1e-5
        f = lambda s: metric(geom, curve(s), field(curve(s)), field(curve(s)))
        deriv = (f(h) - f(-h)) / (2 * h)
        dot_z = (field(curve(h)) - field(curve(-h))) / (2 * h)
        czdot = dot_z + christoffel(geom, x, x @ y_dir, field(x))
        want = 2.0 * beta_form(np.linalg.solve(x, field(x)),
                               np.linalg.solve(x, czdot),
                               geom.split, geom.params)
        assert abs(deriv - want) <= 1e-8 * max(1.0, abs(deriv))


class TestGeodesic:
    def test_zero_velocity_is_constant(self, rng):
        geom = gl_geom(4, 0.7)
        x = random_glp(rng, 4)
        assert np.allclose(geodesic(geom, x, np.zeros((4, 4)), 2.0), x)

    def test_starts_at_x(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        assert np.array_equal(geodesic(geom, x, xi, 0.0), x)

    def test_beta_minus_one_single_exponential(self, rng):
        geom = gl_geom(4, -1.0)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        want = x @ scipy.linalg.expm(1.3 * np.linalg.solve(x, xi))
        assert rel_err(geodesic(geom, x, xi, 1.3), want) <= 1e-12

    def test_initial_velocity_by_finite_differences(self, rng):
        geom = gl_geom(4, 0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        h = 1e-5
        fd = (geodesic(geom, x, xi, h) - geodesic(geom, x, xi, -h)) / (2 * h)
        assert np.linalg.norm(fd - xi) <= 1e-6 * max(1.0, np.linalg.norm(xi))

    @pytest.mark.parametrize("make", [
        lambda rng: (gl_geom(4, 0.7), random_glp(rng, 4)),
        lambda rng: (so_geom(6, 2, 0.8), random_so(rng, 6)),
    ])
    def test_geodesic_equation_residual(self, rng, make):
        geom, x = make(rng)
        n = x.shape[0]
        xi = x @ geom.split.proj_g(rng.standard_normal((n, n)))
        h, t = 1e-4, 0.9
        gm, g0, gp = (geodesic(geom, x, xi, t + k * h) for k in (-1, 0, 1))
        acc = (gp - 2 * g0 + gm) / h ** 2
        vel = (gp - gm) / (2 * h)
        res = acc + christoffel(geom, g0, vel, vel, validate=False)
        assert np.linalg.norm(res) <= 1e-6 * max(1.0, np.linalg.norm(acc))

    def test_closed_form_velocity_matches_fd(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        h, t = 1e-5, 1.1
        _, vel = geodesic_velocity(geom, x, xi, t)
        fd = (geodesic(geom, x, xi, t + h) - geodesic(geom, x, xi, t - h))
        assert np.linalg.norm(fd / (2 * h) - vel) <= 1e-7

    @pytest.mark.parametrize("make", [
        lambda: so_geom(7, 3, 0.8), lambda: stiefel_quotient(7, 3, 0.8).geom,
        lambda: flag_quotient(7, (2, 1), 0.8).geom],
        ids=["so_split", "stiefel_quotient", "flag_quotient"])
    def test_block_right_factor_is_the_dense_exponential(self, rng, make):
        geom = make()
        assert geom.split.so_block == 3
        a = geom.split.proj_g(rng.standard_normal((7, 7)))
        m = rng.standard_normal((7, 7))
        for t in (-5.0, 0.7, 5.0):
            _, finish = geodesic_factors(geom, a, t)
            right = scipy.linalg.expm(
                t * (1.0 + geom.beta) * geom.split.proj_a(a))
            assert rel_err(finish(m), m @ right) <= 1e-14


class TestTransportOperator:
    def test_zero_coefficient(self, rng):
        geom = gl_geom(3, 0.7)
        op = transport_operator(geom, np.zeros((3, 3)))
        b = rng.standard_normal((3, 3))
        assert np.allclose(op.apply(b), 0.0)
        assert op.one_norm_upper_bound == 0.0

    def test_beta_minus_one_is_half_ad(self, rng):
        geom = gl_geom(3, -1.0)
        a = rng.standard_normal((3, 3))
        op = transport_operator(geom, a)
        b = rng.standard_normal((3, 3))
        assert np.allclose(op.apply(b), 0.5 * lie(b, a))

    @given(seed=st.integers(0, 10_000))
    def test_beta_form_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        geom = gl_geom(3, 0.7)
        a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
        op = transport_operator(geom, a)
        lhs = beta_form(op.apply(b), c, geom.split, geom.params)
        rhs = beta_form(op.apply(c), b, geom.split, geom.params)
        assert abs(lhs + rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_adjoint_matches_transposed_vectorization(self, rng):
        for geom, algebra in (
                (gl_geom(5, 0.7), rng.standard_normal((5, 5))),
                (so_geom(5, 2, 0.8), asym(rng.standard_normal((5, 5))))):
            op = transport_operator(geom, algebra)
            dense = dense_operator_matrix(op)
            dense_adj = dense_operator_matrix(op, adjoint=True)
            assert np.linalg.norm(dense_adj - dense.T) <= 1e-10

    def test_adjoint_pairing(self, rng):
        geom = so_geom(5, 2, 0.8)
        a = asym(rng.standard_normal((5, 5)))
        op = transport_operator(geom, a)
        x, y = rng.standard_normal((2, 5, 5))
        lhs = float(np.sum(op.apply(x) * y))
        rhs = float(np.sum(x * op.apply_adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_bound_dominates_exhaustive(self, rng):
        from manitrans.expaction import one_norm_estimate_exhaustive
        geom = gl_geom(4, 0.7)
        a = rng.standard_normal((4, 4))
        op = transport_operator(geom, a)
        assert op.one_norm_upper_bound >= one_norm_estimate_exhaustive(op) - 1e-12

    def test_rejects_nonmember(self, rng):
        geom = so_geom(4, 2, 0.8)
        with pytest.raises(ValidationError):
            transport_operator(geom, np.eye(4))
        # every public builder refuses a by name: off the algebra, vertical
        # on a quotient, or not finite
        q = stiefel_quotient(4, 2, 0.8)
        vertical = np.zeros((4, 4))
        vertical[2:, 2:] = asym(rng.standard_normal((2, 2)))
        for build, a, why in (
                (partial(so_transport_operator, SOGeometry(4, 2, 0.8)),
                 np.eye(4), "is not in the Lie algebra"),
                (partial(horizontal_transport_operator, q), np.eye(4),
                 "is not in the Lie algebra"),
                (partial(horizontal_transport_operator, q), vertical,
                 "is not horizontal"),
                (partial(gl_transport_operator, GLGeometry(4, 0.5)),
                 np.full((4, 4), np.nan), "has non-finite")):
            with pytest.raises(ValidationError, match=f"^a {why}"):
                build(a)

    @pytest.mark.parametrize("value", NON_REAL)
    @pytest.mark.parametrize("build", [
        p_a_operator, transport_operator, so_transport_operator,
        lambda _, a: gl_transport_operator(GLGeometry(5, 0.5), a),
        lambda _, a: horizontal_transport_operator(
            stiefel_quotient(5, 2, 0.8), a)],
        ids=["p_a_operator", "transport_operator", "so_transport_operator",
             "gl_transport_operator", "horizontal_transport_operator"])
    def test_refuses_non_real_coefficient(self, rng, build, value):
        # a complex a used to lose its imaginary part with a ComplexWarning
        a = poisoned("a", value, a=asym(rng.standard_normal((5, 5))))["a"]
        with pytest.raises(ValidationError, match="^a must be real"):
            build(so_geom(5, 2, 0.8), a)

    @pytest.mark.parametrize("n", [16, 40])
    def test_rejects_coefficient_off_the_algebra_by_1e8(self, rng, n):
        # to_algebra's criterion: a relative residual of 1.2e-8 is out; off
        # the diagonal, an elementwise relative test would let it in
        a = asym(rng.standard_normal((n, n)))
        off = sym(rng.standard_normal((n, n)))
        np.fill_diagonal(off, 0.0)
        a += 1.2e-8 * np.linalg.norm(a) / np.linalg.norm(off) * off
        with pytest.raises(ValidationError, match="not in the Lie algebra"):
            transport_operator(SOGeometry(n, n // 4, 0.8), a)


def stacked_operator_case(kind, rng):
    """A P_a operator of the given kind and a (3, n, n) stack of operands
    from its operand space."""
    if kind == "gl":
        op = gl_transport_operator(GLGeometry(5, 0.5),
                                   rng.standard_normal((5, 5)))
        return op, rng.standard_normal((3, 5, 5))
    if kind == "so":
        op = so_transport_operator(SOGeometry(5, 2, 0.8),
                                   asym(rng.standard_normal((5, 5))))
        return op, asym(rng.standard_normal((3, 5, 5)))
    q = stiefel_quotient(5, 2, 0.8) if kind == "stiefel-quotient" \
        else flag_quotient(7, (2, 2), 0.5)
    n = q.geom.n
    op = horizontal_transport_operator(
        q, q.proj_m(asym(rng.standard_normal((n, n)))))
    return op, q.proj_m(asym(rng.standard_normal((3, n, n))))


@pytest.mark.parametrize(
    "kind", ["gl", "so", "stiefel-quotient", "flag-quotient"])
def test_stacked_operands_match_slices(rng, kind):
    op, stack = stacked_operator_case(kind, rng)
    for fn, tol in ((op.apply, 1e-15), (op.apply_adjoint, 1e-15),
                    (lambda b: expa(op, b, 2.5), 1e-13)):
        got = fn(stack)
        for b, g in zip(stack, got):
            want = fn(b)
            assert np.linalg.norm(g - want) <= tol * np.linalg.norm(want)


def sl_split(n):
    """gl(n) with the traceless matrices as the subalgebra: proj_a is not a
    coordinate projection, and its 1-norm 2(n-1)/n exceeds one for n > 2."""
    eye = np.eye(n)
    return AlgebraSplit(n=n, proj_g=lambda m: np.asarray(m, dtype=float),
                        proj_a=lambda m: m - np.trace(m) / n * eye)


def bound_case(kind, n, beta, rng):
    """A P_a operator of the given split kind, size and beta."""
    params = MetricParams(1.0, beta)
    if kind == "gl":
        return gl_transport_operator(GLGeometry(n, beta),
                                     rng.standard_normal((n, n)))
    if kind == "quotient":
        q = stiefel_quotient(n, int(rng.integers(1, n)), -0.5 * beta)
        return horizontal_transport_operator(
            q, q.proj_m(asym(rng.standard_normal((n, n)))))
    split = {"so": lambda: so_split(n, int(rng.integers(1, n))),
             "block": lambda: block_split(n, int(rng.integers(1, n))),
             "sl": lambda: sl_split(n)}[kind]()
    geom = GroupGeometry(split=split, params=params)
    if kind == "sl" and n > 2:
        assert geom.proj_a_norm > 1.0
    return transport_operator(geom, split.proj_g(rng.standard_normal((n, n))))


class TestPaBound:
    @pytest.mark.parametrize("beta", [-1.0, 0.5, -1.6, 3.0])
    @pytest.mark.parametrize("kind", ["gl", "so", "quotient", "block", "sl"])
    @given(n=st.sampled_from([2, 3, 4, 5, 6, 21]), seed=st.integers(0, 10_000))
    @example(n=21, seed=0)
    def test_dominates_exhaustive_norm(self, kind, beta, n, seed):
        # n = 21 has 441 entries, above the exhaustive checker's default cap
        op = bound_case(kind, n, beta, np.random.default_rng(seed))
        exact = one_norm_estimate_exhaustive(op, cap=n * n)
        assert op.one_norm_upper_bound >= exact - 1e-12 * max(1.0, exact)

    def test_tight_enough_for_few_scalings(self):
        # unit-metric-norm velocities at t = 5; the triangle bound
        # 2(2 + |1+beta|) sum|a_ij| would need s = 115 on SO(40,10)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            so = SOGeometry(n=40, d=10, alpha=0.8)
            a = asym(rng.standard_normal((40, 40)))
            a /= np.sqrt(so_metric(so, a, a))
            for op in (so_transport_operator(so, a), transport_operator(
                    GroupGeometry(split=so.split, params=so.params), a)):
                assert select_taylor_params(5.0 * op.one_norm_upper_bound).s <= 2
            gl = GLGeometry(n=32, beta=0.5)
            g = rng.standard_normal((32, 32))
            op = gl_transport_operator(gl, g / np.sqrt(gl_metric(gl, g, g)))
            assert select_taylor_params(5.0 * op.one_norm_upper_bound).s <= 3


class TestTransport:
    @pytest.mark.parametrize("arg", ["x", "xi", "eta"])
    def test_rejects_nonfinite(self, rng, arg):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        args = poisoned(arg, x=x, xi=random_so_tangent(rng, x),
                        eta=random_so_tangent(rng, x))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            transport(geom, t=1.0, **args)
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            metric(geom, **args)

    @pytest.mark.parametrize("arg", ["x", "xi"])
    def test_geodesic_rejects_nonfinite(self, rng, arg):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        args = poisoned(arg, x=x, xi=random_so_tangent(rng, x))
        for fn in (geodesic, geodesic_velocity):
            with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
                fn(geom, t=1.0, **args)

    def test_membership_check_rejects_nan(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        xi[1, 2] = np.nan
        with pytest.raises(ValidationError, match="not tangent"):
            to_algebra(geom, x, xi)

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    @pytest.mark.parametrize(
        "call", ["transport", "metric", "christoffel", "quotient_transport"])
    def test_nontangent_vector_is_named(self, rng, call, arg):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        args = {name: x @ q.proj_m(asym(rng.standard_normal((6, 6))))
                for name in ("xi", "eta")}
        args[arg] = x @ rng.standard_normal((6, 6))
        fn = {"transport": partial(transport, q.geom, t=1.0),
              "metric": partial(metric, q.geom),
              "christoffel": partial(christoffel, q.geom),
              "quotient_transport": partial(quotient_transport, q, t=1.0)}
        with pytest.raises(ValidationError,
                           match=f"^{arg} is not tangent: algebra residual"):
            fn[call](x=x, **args)

    def test_to_algebra_solves_a_stack(self, rng):
        x = random_glp(rng, 4)
        xi = rng.standard_normal((2, 3, 4, 4))
        a = to_algebra(gl_geom(4, 0.7), x, xi)
        assert a.shape == xi.shape
        assert np.linalg.norm(x @ a - xi) <= 1e-13 * np.linalg.norm(xi)
        assert np.array_equal(a[1, 2], to_algebra(gl_geom(4, 0.7), x, xi[1, 2]))

    def test_condition_warning_names_its_norm(self):
        with pytest.warns(RuntimeWarning,
                          match=r"condition number 1\.00e\+14 \(1-norm"):
            to_algebra(gl_geom(2, 0.7), np.diag([1.0, 1e-14]), np.eye(2))

    def test_condition_warning_once_per_call(self, rng):
        geom = gl_geom(2, 0.7)
        x = np.diag([1.0, 1e-13])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transport(geom, x, x @ rng.standard_normal((2, 2)),
                      x @ rng.standard_normal((2, 2)), 0.5)
        assert sum("condition number" in str(w.message) for w in caught) == 1

    def test_time_zero(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        assert rel_err(transport(geom, x, xi, eta, 0.0), eta) <= 1e-14

    def test_self_parallel_velocity(self, rng):
        geom = gl_geom(4, 0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        t = 1.2
        moved = transport(geom, x, xi, xi, t)
        _, vel = geodesic_velocity(geom, x, xi, t)
        assert rel_err(moved, vel) <= 1e-10

    def test_beta_minus_one_closed_form(self, rng):
        geom = gl_geom(4, -1.0)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        t = 1.1
        a = np.linalg.solve(x, xi)
        half = scipy.linalg.expm(0.5 * t * a)
        want = x @ half @ np.linalg.solve(x, eta) @ half
        assert rel_err(transport(geom, x, xi, eta, t), want) <= 1e-10

    def test_result_is_tangent(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        t = 1.4
        moved = transport(geom, x, xi, eta, t)
        gam = geodesic(geom, x, xi, t)
        to_algebra(geom, gam, moved)  # raises if not tangent

    def test_isometry(self, rng):
        geom = so_geom(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        before = metric(geom, x, eta, eta)
        for t in (0.5, 1.5, 2.5):
            moved = transport(geom, x, xi, eta, t)
            gam = geodesic(geom, x, xi, t)
            after = metric(geom, gam, moved, moved)
            assert abs(after - before) <= 1e-9 * (1.0 + abs(before))

    @pytest.mark.parametrize("make", [
        lambda rng: (gl_geom(4, 0.7), random_glp(rng, 4)),
        lambda rng: (so_geom(6, 2, 0.8), random_so(rng, 6)),
        lambda rng: (gl_geom(5, -0.4), random_glp(rng, 5)),
    ])
    def test_matches_rk_oracle(self, rng, make):
        geom, x = make(rng)
        n = x.shape[0]
        xi = x @ geom.split.proj_g(rng.standard_normal((n, n)))
        eta = x @ geom.split.proj_g(rng.standard_normal((n, n)))
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: christoffel(geom, p, v, w, validate=False),
            lambda s: geodesic_velocity(geom, x, xi, s), eta, grid)
        worst = max(
            np.linalg.norm(transport(geom, x, xi, eta, s) - r)
            for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_transport_equation_residual(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        dt = 1e-4
        grid = np.arange(0.0, 0.01 + dt / 2, dt)
        deltas = [transport(geom, x, xi, eta, s) for s in grid]
        gammas = [geodesic(geom, x, xi, s) for s in grid]
        res = oracle.transport_residual(
            deltas, gammas,
            lambda p, v, w: christoffel(geom, p, v, w, validate=False), dt)
        assert res <= 1e-6


GL3 = GLGeometry(3, 0.7)
SINGULAR_BASE_CALLS = {
    "geodesic": lambda x, v: geodesic(GL3, x, v, 1.0),
    "geodesic_velocity": lambda x, v: geodesic_velocity(GL3, x, v, 1.0),
    "metric": lambda x, v: metric(GL3, x, v, v),
    "christoffel": lambda x, v: christoffel(GL3, x, v, v),
    "transport": lambda x, v: transport(GL3, x, v, v, 1.0),
    "quotient_transport": lambda x, v: quotient_transport(
        stiefel_quotient(3, 1, 0.8), x, v, v, 1.0),
    "gl_geodesic": lambda x, v: gl_geodesic(GL3, x, v, 1.0),
    "gl_transport": lambda x, v: gl_transport(GL3, x, v, v, 1.0),
}


class TestTangency:
    def test_group_tangent_roundtrip(self, rng):
        geom = so_geom(5, 2, 0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        assert np.allclose(x @ to_algebra(geom, x, xi), xi)

    def test_rejects_nontangent(self, rng):
        geom = so_geom(4, 2, 0.8)
        x = random_so(rng, 4)
        with pytest.raises(ValidationError):
            to_algebra(geom, x, x @ np.eye(4))

    def test_condition_warning(self):
        geom = gl_geom(2, 0.7)
        x = np.diag([1.0, 1e-14])
        with pytest.warns(RuntimeWarning):
            to_algebra(geom, x, x @ np.eye(2))

    @pytest.mark.filterwarnings("ignore:base point condition number")
    @pytest.mark.parametrize("call", list(SINGULAR_BASE_CALLS))
    def test_singular_base_names_x(self, rng, call):
        x = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValidationError, match="^x is singular"):
            SINGULAR_BASE_CALLS[call](x, rng.standard_normal((3, 3)))

    def test_signature_recorded(self):
        geom = so_geom(4, 2, 0.8)
        assert classify_metric_signature(geom.split, geom.params).kind \
            == "riemannian"


# --- the Chebyshev route on definite metrics --------------------------------

LOG_PARAMETER = st.floats(-3.0, np.log10(50.0)).map(lambda e: 10.0 ** e)


def chebyshev_case(kind, n, par, rng):
    """(a -> P_a, its geometry, an orthonormal basis of its operand space)
    for a definite metric: SO and the Stiefel quotient at alpha = par, GL
    at beta = par, a generic SO GroupGeometry at alpha = par, the flag
    quotient at alpha = 1/2 (where its transport has constant
    coefficients), and definite generic geometries with |beta| = par or
    2 par: gl(n), or so_split(n, d) rebuilt by dataclasses.replace, which
    declares no block, under weights of either sign."""
    d = int(rng.integers(1, n))
    if kind == "gl":
        geom = GLGeometry(n, par)
        return (partial(gl_transport_operator, geom), geom,
                subspace_basis(geom.split, geom.split.proj_g))
    if kind in ("quotient", "flag"):
        cuts = sorted(rng.choice(np.arange(1, d), int(rng.integers(0, d)),
                                 replace=False)) if d > 1 else []
        q = stiefel_quotient(n, d, par) if kind == "quotient" else \
            flag_quotient(n, np.diff([0, *cuts, d]), 0.5)
        return (partial(horizontal_transport_operator, q), q.geom,
                subspace_basis(q.geom.split, q.proj_m))
    if kind == "generic":
        sign = rng.choice([-1.0, 1.0])
        split, params = (gl_split(n), MetricParams(sign, sign * par)) \
            if rng.integers(2) else (dataclasses.replace(so_split(n, d)),
                                     MetricParams(-0.5 * sign, sign * par))
        geom = GroupGeometry(split=split, params=params)
        assert geom.definite and split.so_block is None
        return (partial(transport_operator, geom), geom,
                subspace_basis(split, split.proj_g))
    geom = SOGeometry(n, d, par)
    basis = subspace_basis(geom.split, geom.split.proj_g)
    if kind == "so":
        return partial(so_transport_operator, geom), geom, basis
    geom = GroupGeometry(split=geom.split, params=geom.params)
    return partial(transport_operator, geom), geom, basis


def random_element(rng, basis):
    return sum(rng.standard_normal() * v for v in basis)


def block_part(a, d, part):
    """a with only its so_split(n, d) block `part` kept ("all" keeps a):
    the near-tight cases of the three-block bound."""
    top = np.arange(a.shape[0]) < d
    keep = {"all": np.ones(a.shape, dtype=bool), "a_a": np.outer(top, top),
            "o": np.not_equal.outer(top, top), "q": np.outer(~top, ~top)}
    return np.where(keep[part], a, 0.0)


def balanced_matrix(op, geom, basis):
    """D P_a D^{-1} in an orthonormal basis of the operand space, with
    D = sqrt|beta1| on a and sqrt|beta0| on its complement."""
    split, params = geom.split, geom.params

    def scale(m, power):
        ma = split.proj_a(m)
        return abs(params.beta1) ** (power / 2) * ma \
            + abs(params.beta0) ** (power / 2) * (m - ma)
    flat = np.array([b.reshape(-1) for b in basis])
    images = np.array([scale(op.apply(scale(b, -1)), 1).reshape(-1)
                       for b in basis])
    return flat @ images.T


def six_product_apply(a, beta, proj_a, b):
    """P_a b on a group, term by term as in the group_core docstring."""
    aa, c = proj_a(a), 1.0 + beta
    return 0.5 * (lie(b, a) + c * (lie(aa, b) - lie(proj_a(b), a)))


def six_product_adjoint(a, beta, proj_a, b):
    aa, c = proj_a(a), 1.0 + beta
    return 0.5 * (lie(b, a.T) + c * (lie(aa.T, b) - proj_a(lie(b, a.T))))


class TestChebyshevRoute:
    @pytest.mark.parametrize(
        "kind", ["so", "gl", "quotient", "group", "flag", "generic"])
    @given(n=st.integers(2, 12), par=LOG_PARAMETER,
           part=st.sampled_from(["all", "a_a", "o", "q"]),
           seed=st.integers(0, 10_000))
    @example(n=12, par=1e-3, part="all", seed=0)
    @example(n=12, par=50.0, part="all", seed=1)
    @example(n=9, par=1e-3, part="o", seed=2)
    @example(n=9, par=50.0, part="a_a", seed=3)
    @example(n=9, par=0.3, part="q", seed=4)
    def test_rho_dominates_balanced_two_norm(self, kind, n, par, part, seed):
        rng = np.random.default_rng(seed)
        make, geom, basis = chebyshev_case(kind, n, par, rng)
        a = random_element(rng, basis)
        if geom.split.so_block is not None:
            a = block_part(a, geom.split.so_block, part)
        op = make(a)
        mat = balanced_matrix(op, geom, basis)
        # the balancing makes P_a Frobenius-antisymmetric on its operands
        assert np.linalg.norm(mat + mat.T) \
            <= 1e-12 * max(1.0, np.linalg.norm(mat))
        assert op.skew_two_norm_bound >= np.linalg.norm(mat, 2)

    @pytest.mark.parametrize("kind", ["so", "group", "quotient", "flag"])
    @given(n=st.integers(3, 7), par=LOG_PARAMETER, seed=st.integers(0, 10_000))
    @example(n=3, par=1e-3, seed=0)
    @example(n=6, par=0.1, seed=1)
    def test_rho_dominates_the_spectrum_on_all_matrices(self, kind, n, par,
                                                        seed):
        # rounding puts symmetric parts in a and in the iterates, so expa
        # meets P_a on all n x n matrices, sym(n) included
        rng = np.random.default_rng(seed)
        make, _, basis = chebyshev_case(kind, n, par, rng)
        op = make(random_element(rng, basis))
        spectrum = np.abs(np.linalg.eigvals(dense_operator_matrix(op)))
        assert spectrum.max() <= op.skew_two_norm_bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("kind", ["so", "group", "quotient"])
    def test_rho_is_close_to_the_balanced_two_norm(self, kind):
        # the generic two-block bound sits near 2x at n = 12; the
        # so_split blocks bring the median under 1.5x
        ratios = []
        for seed in range(15):
            rng = np.random.default_rng(seed)
            make, geom, basis = chebyshev_case(kind, 12, 0.8, rng)
            op = make(random_element(rng, basis))
            dense = np.linalg.norm(balanced_matrix(op, geom, basis), 2)
            ratios.append(op.skew_two_norm_bound / dense)
        assert np.median(ratios) <= 1.7

    @pytest.mark.parametrize("t", [-5.0, 0.0, 1.0, 20.0])
    @pytest.mark.parametrize("kind", ["so", "gl", "group", "generic"])
    def test_batched_expa_matches_six_product_expm(self, kind, t):
        rng = np.random.default_rng(11)
        make, geom, basis = chebyshev_case(kind, 6, 0.8, rng)
        a = random_element(rng, basis)
        a /= np.sqrt(abs(beta_form(a, a, geom.split, geom.params)))
        stack = np.array([random_element(rng, basis) for _ in range(3)])
        dense = np.column_stack([
            six_product_apply(a, geom.beta, geom.split.proj_a, e).reshape(-1)
            for e in np.eye(36).reshape(36, 6, 6)])
        want = stack.reshape(3, -1) @ scipy.linalg.expm(t * dense).T
        got = expa(make(a), stack, t)
        assert np.linalg.norm(got.reshape(3, -1) - want) \
            <= 1e-12 * np.linalg.norm(want)

    def test_only_so_split_declares_its_block(self, rng):
        split = so_split(6, 2)
        assert split.so_block == 2 and gl_split(6).so_block is None
        with pytest.raises(TypeError):
            AlgebraSplit(n=6, proj_g=asym, proj_a=split.proj_a, so_block=2)
        look_alike = dataclasses.replace(split)
        assert look_alike.so_block is None
        # the look-alike gets the generic bound: still sound, but looser
        params = MetricParams(-0.5, 0.8)
        a = asym(rng.standard_normal((6, 6)))
        rho = [transport_operator(GroupGeometry(split=s, params=params),
                                  a).skew_two_norm_bound
               for s in (split, look_alike)]
        assert rho[0] < rho[1]

    @pytest.mark.parametrize("t", [-5.0, 1.0, 20.0])
    @pytest.mark.parametrize("par", [1e-3, 0.8, 50.0])
    @pytest.mark.parametrize("kind", ["so", "gl", "quotient", "group"])
    def test_expa_matches_dense_expm(self, kind, par, t):
        rng = np.random.default_rng(7)
        make, geom, basis = chebyshev_case(kind, 5, par, rng)
        a = random_element(rng, basis)  # unit metric speed, as in transports
        op = make(a / np.sqrt(beta_form(a, a, geom.split, geom.params)))
        assert op.skew_two_norm_bound is not None
        b = random_element(rng, basis)
        want = (scipy.linalg.expm(t * dense_operator_matrix(op))
                @ b.reshape(-1)).reshape(b.shape)
        assert np.linalg.norm(expa(op, b, t) - want) \
            <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("beta", [-0.5, -1.0])
    def test_negative_gl_beta_keeps_taylor(self, beta):
        rng = np.random.default_rng(3)
        n = 4
        geom = GLGeometry(n, beta)
        a, b = rng.standard_normal((2, n, n)) / n
        op = gl_transport_operator(geom, a)
        assert op.skew_two_norm_bound is None
        assert not GroupGeometry(split=gl_split(n), params=geom.params).definite
        dense = dense_operator_matrix(op)
        for t in (-5.0, 1.0, 20.0):
            want = (scipy.linalg.expm(t * dense) @ b.reshape(-1)).reshape(n, n)
            assert np.linalg.norm(expa(op, b, t) - want) \
                <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("beta0, beta1", [
        (1.0, 0.5), (1.0, -0.5), (-0.5, 0.8), (-0.5, -0.8), (-1.0, -0.5)])
    @pytest.mark.parametrize("split", [
        gl_split(4), so_split(4, 2), so_split(3, 1), block_split(4, 2),
        sl_split(4)], ids=["gl", "so", "so-empty-a", "block", "sl"])
    def test_definite_agrees_with_dense_signature(self, split, beta0, beta1):
        # block and sl have subalgebras of mixed symmetry; so(3) with d = 1
        # has a zero subalgebra, whose weight constrains nothing
        params = MetricParams(beta0, beta1)
        signs = {np.sign(val) for val, dim in
                 classify_metric_signature(split, params).eigen_summary if dim}
        geom = GroupGeometry(split=split, params=params)
        assert geom.definite == (len(signs) == 1)
        rng = np.random.default_rng(0)
        op = transport_operator(
            geom, split.proj_g(rng.standard_normal((split.n, split.n))))
        assert (op.skew_two_norm_bound is not None) == geom.definite

    @pytest.mark.parametrize("beta", [-1.0, -0.5, 0.5, 3.0])
    def test_gl_geometry_is_definite_iff_beta_positive(self, beta):
        for n in range(2, 7):
            assert GLGeometry(n, beta).definite == (beta > 0)

    @pytest.mark.parametrize("alpha", [1e-3, 0.8, 50.0])
    def test_so_geometry_is_definite(self, alpha):
        for n in range(2, 7):
            for d in range(1, n):  # SO(2, 1) has an empty subalgebra
                assert SOGeometry(n, d, alpha).definite

    @pytest.mark.parametrize("beta", [-1.6, -1.0, 0.5, 3.0])
    def test_folded_apply_equals_six_product_form(self, rng, beta):
        for split in (gl_split(5), so_split(5, 2), block_split(5, 2),
                      sl_split(5)):
            a = split.proj_g(rng.standard_normal((5, 5)))
            b = rng.standard_normal((5, 5))
            op = p_a_operator(
                GroupGeometry(split=split, params=MetricParams(1.0, beta)), a)
            for got, want in ((op.apply(b), six_product_apply),
                              (op.apply_adjoint(b), six_product_adjoint)):
                want = want(a, beta, split.proj_a, b)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
