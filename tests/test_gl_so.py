import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from manitrans import oracle
from manitrans.errors import DimensionError, ValidationError
from manitrans.expaction import dense_operator_matrix
from manitrans.gl_so import (
    GLGeometry, SOGeometry, gl_geodesic, gl_metric, gl_transport,
    gl_transport_operator, so_geodesic, so_geodesic_velocity, so_metric,
    so_transport, so_transport_operator)
from manitrans.group_core import (GroupGeometry, christoffel, geodesic,
                                  geodesic_velocity, transport)
from manitrans.quotient import quotient_transport, stiefel_quotient
from manitrans.utils import asym, sym

from helpers import (BAD_VALUES, classify_metric_signature, poisoned,
                     random_glp, random_so, random_so_tangent, refusal, rel_err)


def group_of(geom):
    return GroupGeometry(split=geom.split, params=geom.params)


@pytest.mark.parametrize("make", [lambda: GLGeometry(5, 0.7),
                                  lambda: SOGeometry(5, 2, 0.8)],
                         ids=["gl", "so"])
def test_group_core_takes_the_geometry_directly(rng, make):
    geom = make()
    assert isinstance(geom, GroupGeometry)
    x = random_so(rng, 5)  # in SO(5), inside GL+(5) too
    xi, eta = (x @ geom.split.proj_g(rng.standard_normal((5, 5)))
               for _ in range(2))
    for call in (lambda g: transport(g, x, xi, eta, 1.3),
                 lambda g: geodesic(g, x, xi, 1.3),
                 lambda g: christoffel(g, x, xi, eta)):
        assert np.array_equal(call(geom), call(group_of(geom)))


class TestGLGeometry:
    def test_positive_beta_is_riemannian(self):
        geom = GLGeometry(n=3, beta=0.7)
        assert classify_metric_signature(geom.split, geom.params).kind \
            == "riemannian"

    def test_rejects_zero_beta(self):
        with pytest.raises(ValidationError):
            GLGeometry(n=3, beta=0.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_beta(self, beta):
        with pytest.raises(ValidationError, match="^beta has non-finite"):
            GLGeometry(n=4, beta=beta)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, np.float64(3.0)])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValidationError, match="^n must be an integer"):
            GLGeometry(n=n, beta=0.5)

    @given(seed=st.integers(0, 10_000))
    def test_metric_identity(self, seed):
        # <g,g> = |g|_F^2 + (beta-1)|g_skew|_F^2
        rng = np.random.default_rng(seed)
        geom = GLGeometry(n=4, beta=0.7)
        g = rng.standard_normal((4, 4))
        want = np.sum(g * g) + (geom.beta - 1.0) * np.sum(asym(g) ** 2)
        assert gl_metric(geom, g, g) == pytest.approx(want, rel=1e-13)


class TestGLGeodesic:
    def test_symmetric_velocity_single_factor(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        s = sym(rng.standard_normal((4, 4)))
        got = gl_geodesic(geom, np.eye(4), s, 1.3)
        assert rel_err(got, scipy.linalg.expm(1.3 * s)) <= 1e-13

    def test_euclidean_beta_one_form(self, rng):
        geom = GLGeometry(n=4, beta=1.0)
        xi = rng.standard_normal((4, 4))
        t = 0.9
        want = scipy.linalg.expm(t * xi.T) @ scipy.linalg.expm(t * (xi - xi.T))
        assert rel_err(gl_geodesic(geom, np.eye(4), xi, t), want) <= 1e-12

    def test_matches_generic_path(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        t = 0.9
        got = gl_geodesic(geom, x, xi, t)
        want = geodesic(group_of(geom), x, xi, t)
        assert rel_err(got, want) <= 1e-12


class TestGLTransport:
    def test_time_zero(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        assert rel_err(gl_transport(geom, x, xi, eta, 0.0), eta) <= 1e-14

    def test_khvedelidze_mladenov_case(self, rng):
        geom = GLGeometry(n=4, beta=-1.0)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        t = 1.2
        a = np.linalg.solve(x, xi)
        half = scipy.linalg.expm(0.5 * t * a)
        want = x @ half @ np.linalg.solve(x, eta) @ half
        assert rel_err(gl_transport(geom, x, xi, eta, t), want) <= 1e-10

    def test_matches_generic_transport(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        t = 1.1
        got = gl_transport(geom, x, xi, eta, t)
        want = transport(group_of(geom), x, xi, eta, t)
        assert rel_err(got, want) <= 1e-10

    def test_matches_rk_oracle(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        ggeom = group_of(geom)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: christoffel(ggeom, p, v, w, validate=False),
            lambda s: geodesic_velocity(ggeom, x, xi, s), eta, grid)
        worst = max(np.linalg.norm(gl_transport(geom, x, xi, eta, s) - r)
                    for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_metric_preserved(self, rng):
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        xi = x @ rng.standard_normal((4, 4))
        eta = x @ rng.standard_normal((4, 4))
        t = 1.4
        before = gl_metric(geom, *(np.linalg.solve(x, eta),) * 2)
        gam = gl_geodesic(geom, x, xi, t)
        moved = gl_transport(geom, x, xi, eta, t)
        after = gl_metric(geom, *(np.linalg.solve(gam, moved),) * 2)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


class TestNonFiniteInput:
    @pytest.mark.parametrize("arg", ["x", "xi", "eta"])
    def test_so_transport(self, rng, arg):
        geom = SOGeometry(n=5, d=2, alpha=0.8)
        x = random_so(rng, 5)
        args = poisoned(arg, x=x, xi=random_so_tangent(rng, x),
                        eta=random_so_tangent(rng, x))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            so_transport(geom, t=1.0, **args)

    @pytest.mark.parametrize("arg", ["x", "xi", "eta"])
    def test_gl_transport(self, rng, arg):
        # a complex entry used to be dropped with only a ComplexWarning
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        for value in BAD_VALUES:
            args = poisoned(arg, value, x=x, xi=x @ rng.standard_normal((4, 4)),
                            eta=x @ rng.standard_normal((4, 4)))
            with pytest.raises(ValidationError, match=f"^{arg} {refusal(value)}"):
                gl_transport(geom, t=1.0, **args)

    @pytest.mark.parametrize("arg", ["x", "xi"])
    def test_gl_geodesic(self, rng, arg):
        geom = GLGeometry(n=4, beta=0.7)
        x = random_glp(rng, 4)
        args = poisoned(arg, x=x, xi=x @ rng.standard_normal((4, 4)))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            gl_geodesic(geom, t=1.0, **args)

    @pytest.mark.parametrize("arg", ["x", "xi"])
    def test_so_geodesic(self, rng, arg):
        # a NaN base point used to pass the orthogonality test (NaN > tol
        # is False) and fail later inside the matrix exponential
        geom = SOGeometry(n=5, d=2, alpha=0.8)
        x = random_so(rng, 5)
        args = poisoned(arg, x=x, xi=random_so_tangent(rng, x))
        for fn in (so_geodesic, so_geodesic_velocity):
            with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
                fn(geom, t=1.0, **args)


def misshapen_cases(rng):
    """name -> (call taking x, xi, eta; valid x, xi, eta) for the group
    transports."""
    so = SOGeometry(n=5, d=2, alpha=0.8)
    x = random_so(rng, 5)
    so_args = dict(x=x, xi=random_so_tangent(rng, x),
                   eta=random_so_tangent(rng, x))
    gl = GLGeometry(n=4, beta=0.7)
    g = random_glp(rng, 4)
    q = stiefel_quotient(5, 2, 0.8)
    return {
        "so_transport": (lambda **k: so_transport(so, t=1.0, **k), so_args),
        "gl_transport": (lambda **k: gl_transport(gl, t=1.0, **k),
                         dict(x=g, xi=g @ rng.standard_normal((4, 4)),
                              eta=g @ rng.standard_normal((4, 4)))),
        "group_transport": (lambda **k: transport(group_of(so), t=1.0, **k),
                            dict(so_args)),
        "quotient_transport": (
            lambda **k: quotient_transport(q, t=1.0, **k),
            dict(x=x, xi=x @ q.proj_m(asym(rng.standard_normal((5, 5)))),
                 eta=x @ q.proj_m(asym(rng.standard_normal((5, 5)))))),
    }


class TestArgumentChecks:
    @pytest.mark.parametrize("arg", ["x", "xi", "eta"])
    @pytest.mark.parametrize(
        "name", list(misshapen_cases(np.random.default_rng(0))))
    def test_misshapen_argument_is_named(self, rng, name, arg):
        call, args = misshapen_cases(rng)[name]
        call(**args)  # the valid arguments pass
        args[arg] = args[arg][:, :-1]
        with pytest.raises(DimensionError, match=f"^{arg} has shape"):
            call(**args)

    def test_so_transport_rejects_nontangent_eta(self, rng):
        # the Chebyshev series is exact only on the algebra, so a
        # non-tangent eta must fail before it
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        with pytest.raises(ValidationError, match="^eta is not tangent"):
            so_transport(geom, x, xi, x @ rng.standard_normal((6, 6)), 1.0)
        with pytest.raises(ValidationError, match="^eta is not tangent"):
            so_transport(geom, x, xi, x @ np.eye(6), 0.0)


class TestMetricForms:
    """gl_metric and so_metric are beta_form on the geometry's split."""

    @pytest.mark.parametrize("metric, make", [
        (gl_metric, lambda rng: rng.standard_normal((4, 4))),
        (so_metric, lambda rng: asym(rng.standard_normal((4, 4))))],
        ids=["gl_metric", "so_metric"])
    def test_refuses_bad_input_by_name(self, rng, metric, make):
        geom = GLGeometry(4, 0.7) if metric is gl_metric else SOGeometry(4, 2, 0.8)
        names = ("g", "h") if metric is gl_metric else ("a", "b")
        for name in names:
            for value in (np.nan, np.inf):
                args = poisoned(name, value, **{n: make(rng) for n in names})
                with pytest.raises(ValidationError, match=f"^{name} has non-finite"):
                    metric(geom, **args)
            args = {n: make(rng) for n in names}
            args[name] = args[name][:, :-1]
            with pytest.raises(DimensionError, match=f"^{name} has shape"):
                metric(geom, **args)
        if metric is so_metric:
            with pytest.raises(ValidationError):
                so_metric(geom, make(rng), rng.standard_normal((4, 4)))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 9),
           par=st.floats(0.05, 5.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_values_match_the_closed_forms(self, seed, n, par, sign):
        # the formulas these functions had before they called beta_form
        rng = np.random.default_rng(seed)
        gl = GLGeometry(n, sign * par)
        g, h = rng.standard_normal((2, n, n))
        want = np.sum(g * h.T) + (1.0 + gl.beta) * np.sum(asym(g) * asym(h))
        scale = np.linalg.norm(g) * np.linalg.norm(h) * (2.0 + abs(gl.beta))
        assert abs(gl_metric(gl, g, h) - want) <= 1e-14 * scale
        so = SOGeometry(n, int(rng.integers(1, n)), par)
        a, b = asym(rng.standard_normal((2, n, n)))
        d = so.d
        want = 0.5 * np.sum(a * b) + (so.alpha - 0.5) * np.sum(a[:d, :d] * b[:d, :d])
        scale = np.linalg.norm(a) * np.linalg.norm(b) * (1.0 + so.alpha)
        assert abs(so_metric(so, a, b) - want) <= 1e-14 * scale


class TestSOGeometry:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            SOGeometry(n=4, d=4, alpha=0.5)
        with pytest.raises(ValidationError):
            SOGeometry(n=4, d=2, alpha=-1.0)
        geom = SOGeometry(n=4, d=2, alpha=0.8)
        assert classify_metric_signature(geom.split, geom.params).kind \
            == "riemannian"

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValidationError, match="^alpha has non-finite"):
            SOGeometry(n=5, d=2, alpha=alpha)

    @pytest.mark.parametrize("n, d, name", [
        (4.5, 2, "n"), (5, 2.5, "d"), (5, True, "d"), (5, 0, "d"), (5, -2, "d")])
    def test_rejects_bad_size(self, n, d, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            SOGeometry(n=n, d=d, alpha=0.5)

    def test_rejects_nonorthogonal_base(self, rng):
        geom = SOGeometry(n=4, d=2, alpha=0.8)
        with pytest.raises(ValidationError):
            so_geodesic(geom, 2.0 * np.eye(4), np.zeros((4, 4)), 1.0)

    @pytest.mark.parametrize("name", ["so_transport", "so_geodesic",
                                      "so_geodesic_velocity"])
    def test_base_point_refusals_name_x(self, rng, name):
        geom = SOGeometry(n=5, d=2, alpha=0.8)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        call = {"so_transport": lambda x: so_transport(geom, x, xi, xi, 1.0),
                "so_geodesic": lambda x: so_geodesic(geom, x, xi, 1.0),
                "so_geodesic_velocity":
                    lambda x: so_geodesic_velocity(geom, x, xi, 1.0)}[name]
        reflected = x * np.array([-1.0, 1.0, 1.0, 1.0, 1.0])  # det -1
        with pytest.raises(ValidationError,
                           match="^x has nonpositive determinant"):
            call(reflected)
        with pytest.raises(ValidationError,
                           match="^x is not orthogonal: residual 6.7"):
            call(2.0 * x)

    def test_block_metric_on_lifted_tangents(self, rng):
        n, d = 6, 2
        geom = SOGeometry(n=n, d=d, alpha=0.8)
        a_blk = asym(rng.standard_normal((d, d)))
        b_blk = rng.standard_normal((n - d, d))
        lift = np.zeros((n, n))
        lift[:d, :d] = a_blk
        lift[d:, :d] = b_blk
        lift[:d, d:] = -b_blk.T
        want = 0.8 * np.sum(a_blk ** 2) + np.sum(b_blk ** 2)
        assert so_metric(geom, lift, lift) == pytest.approx(want, abs=1e-12)


class TestSOGeodesic:
    def test_zero_velocity(self, rng):
        geom = SOGeometry(n=5, d=2, alpha=0.8)
        x = random_so(rng, 5)
        assert np.allclose(so_geodesic(geom, x, np.zeros((5, 5)), 1.7), x)

    def test_bi_invariant_alpha_half(self, rng):
        geom = SOGeometry(n=5, d=2, alpha=0.5)
        x = random_so(rng, 5)
        xi = random_so_tangent(rng, x)
        t = 1.3
        want = x @ scipy.linalg.expm(t * (x.T @ xi))
        assert rel_err(so_geodesic(geom, x, xi, t), want) <= 1e-12

    def test_stays_orthogonal(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        gam = so_geodesic(geom, x, xi, 2.1)
        assert np.linalg.norm(gam.T @ gam - np.eye(6)) <= 1e-10

    def test_matches_generic_path(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        t = 1.3
        got = so_geodesic(geom, x, xi, t)
        want = geodesic(group_of(geom), x, xi, t)
        assert rel_err(got, want) <= 1e-10


class TestSOTransport:
    def test_time_zero(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        assert rel_err(so_transport(geom, x, xi, eta, 0.0), eta) <= 1e-14

    def test_self_parallel_velocity(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        t = 1.3
        moved = so_transport(geom, x, xi, xi, t)
        _, vel = so_geodesic_velocity(geom, x, xi, t)
        assert rel_err(moved, vel) <= 1e-10

    def test_matches_generic_transport(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        t = 1.3
        got = so_transport(geom, x, xi, eta, t)
        want = transport(group_of(geom), x, xi, eta, t)
        assert rel_err(got, want) <= 1e-10

    def test_matches_rk_oracle(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        ggeom = group_of(geom)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        grid = np.linspace(0.0, 2.0, 5)
        ref = oracle.integrate_transport(
            lambda p, v, w: christoffel(ggeom, p, v, w, validate=False),
            lambda s: so_geodesic_velocity(geom, x, xi, s), eta, grid)
        worst = max(np.linalg.norm(so_transport(geom, x, xi, eta, s) - r)
                    for s, r in zip(grid, ref))
        assert worst <= 1e-6

    def test_output_stays_in_tangent_bundle(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        t = 1.3
        moved = so_transport(geom, x, xi, eta, t)
        gam = so_geodesic(geom, x, xi, t)
        m = gam.T @ moved
        assert np.linalg.norm(m + m.T) <= 1e-9

    def test_so_metric_preserved(self, rng):
        geom = SOGeometry(n=6, d=2, alpha=0.8)
        x = random_so(rng, 6)
        xi = random_so_tangent(rng, x)
        eta = random_so_tangent(rng, x)
        before = so_metric(geom, x.T @ eta, x.T @ eta)
        for t in (0.7, 1.9):
            gam = so_geodesic(geom, x, xi, t)
            moved = so_transport(geom, x, xi, eta, t)
            after = so_metric(geom, gam.T @ moved, gam.T @ moved)
            assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


class TestOneEngine:
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12), data=st.data(),
           alpha=st.sampled_from([1e-3, 0.8, 5.0]), t=st.floats(-5.0, 50.0))
    def test_so_geometry_matches_generic_geometry(self, seed, n, data, alpha, t):
        d = data.draw(st.integers(1, n - 1), label="d")
        rng = np.random.default_rng(seed)
        geom = SOGeometry(n=n, d=d, alpha=alpha)
        x = random_so(rng, n)
        xi, eta = (random_so_tangent(rng, x) / n for _ in range(2))
        generic = group_of(geom)
        for call in (lambda g, s: geodesic(g, s * x, s * xi, t),
                     lambda g, s: geodesic_velocity(g, s * x, s * xi, t)[1],
                     lambda g, s: transport(g, s * x, s * xi, s * eta, t)):
            want = call(geom, 1.0)
            assert rel_err(call(generic, 1.0), want) <= 1e-12
            # 2x is not orthogonal, so the generic geometry solves by LU
            assert rel_err(call(generic, 2.0) / 2.0, want) <= 1e-12

    @pytest.mark.parametrize("name", ["gl_geodesic", "gl_transport"])
    def test_gl_warns_on_an_ill_conditioned_base(self, rng, name):
        geom = GLGeometry(n=2, beta=0.7)
        x = np.diag([1.0, 1e-14])
        xi, eta = (x @ rng.standard_normal((2, 2)) for _ in range(2))
        call = {"gl_geodesic": lambda: gl_geodesic(geom, x, xi, 0.5),
                "gl_transport": lambda: gl_transport(geom, x, xi, eta, 0.5)}
        with pytest.warns(RuntimeWarning, match="condition number 1.00e"):
            call[name]()


class TestLongAndNegativeTimes:
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 6),
           alpha=st.sampled_from([1e-3, 0.8, 50.0]),
           t=st.sampled_from([-5.0, 20.0]))
    # rho once missed sym(n), where rounding puts parts of a and the
    # iterates: the series grew them to 1e-9 here
    @example(seed=108, n=3, alpha=1e-3, t=20.0)
    def test_so_isometry(self, seed, n, alpha, t):
        rng = np.random.default_rng(seed)
        geom = SOGeometry(n=n, d=2, alpha=alpha)
        x = random_so(rng, n)
        xi, eta = (random_so_tangent(rng, x) for _ in range(2))
        gam = so_geodesic(geom, x, xi, t)
        m = gam.T @ so_transport(geom, x, xi, eta, t)
        assert np.linalg.norm(m + m.T) <= 1e-9 * max(1.0, np.linalg.norm(m))
        before = so_metric(geom, x.T @ eta, x.T @ eta)
        assert abs(so_metric(geom, m, m) - before) <= 1e-9 * max(1.0, before)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5),
           beta=st.sampled_from([-0.6, 0.7, 2.0]),
           t=st.sampled_from([-5.0, 20.0]))
    def test_gl_matches_dense_exponential(self, seed, n, beta, t):
        # gamma(t) can be too ill-conditioned to solve with (cond 1e17 on
        # GL(5) at t = 20), so compare against the dense expm of P_a
        rng = np.random.default_rng(seed)
        geom = GLGeometry(n=n, beta=beta)
        x = random_glp(rng, n)
        a, b = (rng.standard_normal((n, n)) / n for _ in range(2))
        dense = dense_operator_matrix(gl_transport_operator(geom, a))
        w = (scipy.linalg.expm(t * dense) @ b.reshape(-1)).reshape(n, n)
        left = scipy.linalg.expm(0.5 * t * ((1.0 - beta) * a + (1.0 + beta) * a.T))
        right = scipy.linalg.expm(t * (1.0 + beta) * asym(a))
        want = x @ left @ w @ right
        assert rel_err(gl_transport(geom, x, x @ a, x @ b, t), want) <= 1e-9


class TestOperators:
    @given(seed=st.integers(0, 10_000))
    def test_gl_operator_pairing_antisymmetry(self, seed):
        from manitrans.forms import beta_form
        rng = np.random.default_rng(seed)
        geom = GLGeometry(n=3, beta=0.7)
        a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
        op = gl_transport_operator(geom, a)
        lhs = beta_form(op.apply(b), c, geom.split, geom.params)
        rhs = beta_form(op.apply(c), b, geom.split, geom.params)
        assert abs(lhs + rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(seed=st.integers(0, 10_000))
    def test_so_operator_pairing_antisymmetry(self, seed):
        from manitrans.forms import beta_form
        rng = np.random.default_rng(seed)
        geom = SOGeometry(n=4, d=2, alpha=0.8)
        a, b, c = (asym(rng.standard_normal((4, 4))) for _ in range(3))
        op = so_transport_operator(geom, a)
        lhs = beta_form(op.apply(b), c, geom.split, geom.params)
        rhs = beta_form(op.apply(c), b, geom.split, geom.params)
        assert abs(lhs + rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_adjoints_match_transposed_vectorization(self, rng):
        from manitrans.expaction import dense_operator_matrix
        gl = GLGeometry(n=5, beta=0.7)
        so = SOGeometry(n=5, d=2, alpha=0.8)
        for op in (gl_transport_operator(gl, rng.standard_normal((5, 5))),
                   so_transport_operator(so, asym(rng.standard_normal((5, 5))))):
            dense = dense_operator_matrix(op)
            dense_adj = dense_operator_matrix(op, adjoint=True)
            assert np.linalg.norm(dense_adj - dense.T) <= 1e-10
