import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from manitrans import oracle
from manitrans.errors import ValidationError
from manitrans.forms import MetricParams, beta_form
from manitrans.gl_so import so_split
from manitrans.group_core import (GroupGeometry, christoffel, geodesic,
                                  geodesic_velocity, transport)
from manitrans.quotient import (
    QuotientGeometry, check_simplified_condition, flag_quotient,
    horizontal_christoffel, horizontal_transport_operator,
    make_quotient_geometry, quotient_transport, stiefel_quotient)
from manitrans.stiefel import (StiefelMetricParams, project_tangent,
                               stiefel_transport)
from manitrans.utils import asym, lie

from helpers import horizontal_lift, poisoned, random_so, rel_err


def horizontal_vector(rng, q, x):
    n = x.shape[0]
    return x @ q.proj_m(asym(rng.standard_normal((n, n))))


class TestConstruction:
    def test_stiefel_split_is_simplified(self):
        q = stiefel_quotient(6, 2, 0.8)
        assert q.simplified_ok

    def test_flag_canonical_is_simplified(self):
        q = flag_quotient(7, (2, 2), 0.5)
        assert q.simplified_ok

    def test_flag_general_alpha_is_not(self):
        q = flag_quotient(7, (2, 2), 0.8)
        assert not q.simplified_ok

    def test_rejects_bad_vertical_projection(self):
        # a "vertical algebra" leaking into a_join violates the split
        split = so_split(5, 2)

        def bad_proj_k(m):
            out = np.zeros_like(np.asarray(m, dtype=float))
            out[2:, :2] = m[2:, :2] / 2.0 - m[:2, 2:].T / 2.0
            out[:2, 2:] = -out[2:, :2].T
            return out

        geom = GroupGeometry(split=split, params=MetricParams(-0.5, 0.8))
        with pytest.raises(ValidationError):
            make_quotient_geometry(geom, bad_proj_k)

    def test_trivial_vertical_space(self, rng):
        split = so_split(5, 2)
        geom = GroupGeometry(split=split, params=MetricParams(-0.5, 0.8))
        q = make_quotient_geometry(geom, lambda m: np.zeros_like(m))
        x = random_so(rng, 5)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        t = 1.2
        got = quotient_transport(q, x, xi, eta, t)
        want = transport(geom, x, xi, eta, t)
        assert rel_err(got, want) <= 1e-10


    def test_simplified_ok_cannot_be_set(self):
        q = flag_quotient(7, (2, 2), 0.8)
        with pytest.raises(TypeError):
            QuotientGeometry(geom=q.geom, proj_k=q.proj_k, simplified_ok=True)

    @pytest.mark.parametrize("make, want", [
        (lambda: stiefel_quotient(6, 2, 0.8), True),
        (lambda: flag_quotient(7, (2, 2), 0.5), True),
        (lambda: flag_quotient(7, (2, 2), 0.8), False)],
        ids=["stiefel", "flag-canonical", "flag-general"])
    def test_simplified_ok_is_derived_on_construction(self, make, want):
        q = make()
        assert q.simplified_ok == want
        assert QuotientGeometry(q.geom, q.proj_k).simplified_ok == want


class TestHorizontalChristoffel:
    def test_reduces_to_group_christoffel_when_bracket_horizontal(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        got = horizontal_christoffel(q, x, xi, xi)
        want = christoffel(q.geom, x, xi, xi)
        assert rel_err(got, want) <= 1e-12

    def test_vertical_correction_identity(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        diff = horizontal_christoffel(q, x, xi, eta) \
            - christoffel(q.geom, x, xi, eta)
        want = -0.5 * x @ q.proj_k(
            lie(np.linalg.solve(x, xi), np.linalg.solve(x, eta)))
        assert rel_err(diff, want) <= 1e-12

    def test_covariant_derivative_of_horizontal_fields_is_horizontal(self, rng):
        # fields Z(X) = X m0, direction Y(X) = X y0 with constant
        # horizontal coefficients; D_Y Z + Gamma^H must land in X m
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        y0 = q.proj_m(asym(rng.standard_normal((6, 6))))
        m0 = q.proj_m(asym(rng.standard_normal((6, 6))))
        nabla = x @ y0 @ m0 + horizontal_christoffel(q, x, x @ y0, x @ m0)
        coeff = np.linalg.solve(x, nabla)
        res = np.linalg.norm(coeff - q.proj_m(coeff))
        assert res <= 1e-12 * max(1.0, np.linalg.norm(coeff))

    def test_rejects_vertical_input(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        vertical = x @ q.proj_k(asym(rng.standard_normal((6, 6))))
        with pytest.raises(ValidationError):
            horizontal_christoffel(q, x, vertical, vertical)


class TestSimplifiedCondition:
    def test_beta_minus_one_always_simplified(self):
        split = so_split(6, 2)
        geom = GroupGeometry(split=split, params=MetricParams(-0.5, 0.5))
        q = make_quotient_geometry(geom, split.proj_k)
        assert q.simplified_ok  # alpha = 1/2 means beta = -1

    def test_probes_catch_broken_split(self, rng):
        # bypass the factory and force simplified_ok on a flag split at
        # alpha != 1/2: the numeric probes must refuse
        q = flag_quotient(7, (2, 2), 0.8)
        assert not check_simplified_condition(q)


class TestPOperator:
    def test_maps_horizontal_to_horizontal(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        a = q.proj_m(asym(rng.standard_normal((6, 6))))
        op = horizontal_transport_operator(q, a)
        for _ in range(4):
            b = q.proj_m(asym(rng.standard_normal((6, 6))))
            out = op.apply(b)
            assert np.linalg.norm(q.proj_k(out)) <= 1e-12

    def test_antisymmetric_on_horizontal_space(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        geom = q.geom
        a = q.proj_m(asym(rng.standard_normal((6, 6))))
        op = horizontal_transport_operator(q, a)
        for _ in range(4):
            b = q.proj_m(asym(rng.standard_normal((6, 6))))
            c = q.proj_m(asym(rng.standard_normal((6, 6))))
            lhs = beta_form(op.apply(b), c, geom.split, geom.params)
            rhs = beta_form(op.apply(c), b, geom.split, geom.params)
            assert abs(lhs + rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestQuotientTransport:
    @pytest.mark.parametrize("arg", ["x", "xi", "eta"])
    def test_rejects_nonfinite(self, rng, arg):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        args = poisoned(arg, x=x, xi=horizontal_vector(rng, q, x),
                        eta=horizontal_vector(rng, q, x))
        with pytest.raises(ValidationError, match=f"^{arg} has non-finite"):
            quotient_transport(q, t=1.0, **args)

    def test_time_zero(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        assert rel_err(quotient_transport(q, x, xi, eta, 0.0), eta) <= 1e-12

    def test_horizontality_preserved(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        t = 1.3
        moved = quotient_transport(q, x, xi, eta, t)
        gam = geodesic(q.geom, x, xi, t)
        res = q.proj_k(np.linalg.solve(gam, moved))
        assert np.linalg.norm(res) <= 1e-9 * max(1.0, np.linalg.norm(moved))

    def test_matches_stiefel_reduction(self, rng):
        n, d, alpha, t = 7, 3, 0.8, 1.3
        q = stiefel_quotient(n, d, alpha)
        xbar = random_so(rng, n)
        y, yperp = xbar[:, :d], xbar[:, d:]
        xi = project_tangent(y, rng.standard_normal((n, d)))
        eta = project_tangent(y, rng.standard_normal((n, d)))
        moved = quotient_transport(
            q, xbar, horizontal_lift(y, yperp, xi),
            horizontal_lift(y, yperp, eta), t)
        want = stiefel_transport(y, xi, eta,
                                 StiefelMetricParams(alpha), t)
        assert np.linalg.norm(moved[:, :d] - want) <= 1e-8

    def test_variable_coefficient_path_matches_oracle(self, rng):
        # flag at alpha != 1/2 exercises the ODE fallback
        n, blocks, alpha, t = 7, (2, 2), 0.8, 1.1
        q = flag_quotient(n, blocks, alpha)
        assert not q.simplified_ok
        x = random_so(rng, n)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        grid = [0.0, t]
        ref = oracle.integrate_transport(
            lambda p, v, w: horizontal_christoffel(q, p, v, w, validate=False),
            lambda s: geodesic_velocity(q.geom, x, xi, s), eta, grid)
        got = quotient_transport(q, x, xi, eta, t)
        assert np.linalg.norm(got - ref[-1]) <= 1e-6

    def test_horizontal_geodesic_stays_horizontal(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        for t in (0.5, 1.5, 2.5):
            gam, vel = geodesic_velocity(q.geom, x, xi, t)
            res = q.proj_k(np.linalg.solve(gam, vel))
            assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(vel))

    def test_isometry_norm_preserved(self, rng):
        q = flag_quotient(7, (2, 2), 0.8)  # ODE path
        geom = q.geom
        x = random_so(rng, 7)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        before = beta_form(np.linalg.solve(x, eta), np.linalg.solve(x, eta),
                           geom.split, geom.params)
        t = 1.3
        gam = geodesic(geom, x, xi, t)
        moved = quotient_transport(q, x, xi, eta, t)
        w = np.linalg.solve(gam, moved)
        after = beta_form(w, w, geom.split, geom.params)
        assert abs(after - before) <= 1e-8 * (1.0 + abs(before))

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 7),
           t=st.sampled_from([-5.0, 20.0]))
    def test_long_and_negative_times(self, seed, n, t):
        q = stiefel_quotient(n, 2, 0.8)
        geom = q.geom
        rng = np.random.default_rng(seed)
        x = random_so(rng, n)
        xi, eta = (horizontal_vector(rng, q, x) for _ in range(2))
        w = geodesic(geom, x, xi, t).T @ quotient_transport(q, x, xi, eta, t)
        scale = max(1.0, np.linalg.norm(w))
        assert np.linalg.norm(w + w.T) <= 1e-9 * scale
        assert np.linalg.norm(q.proj_k(w)) <= 1e-9 * scale
        b = x.T @ eta
        before = beta_form(b, b, geom.split, geom.params)
        after = beta_form(w, w, geom.split, geom.params)
        assert abs(after - before) <= 1e-9 * max(1.0, before)

    def test_right_multiplication_by_vertical_group_is_isometry(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        geom = q.geom
        x = random_so(rng, 6)
        g = asym(rng.standard_normal((6, 6)))
        eta = x @ g
        k = q.proj_k(asym(rng.standard_normal((6, 6))))
        kexp = scipy.linalg.expm(k)
        before = beta_form(g, g, geom.split, geom.params)
        moved = eta @ kexp
        g2 = np.linalg.solve(x @ kexp, moved)
        after = beta_form(g2, g2, geom.split, geom.params)
        assert abs(after - before) <= 1e-10 * (1.0 + abs(before))

    def test_rejects_nonhorizontal(self, rng):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        vertical = x @ q.proj_k(asym(rng.standard_normal((6, 6))))
        with pytest.raises(ValidationError):
            quotient_transport(q, x, vertical, vertical, 1.0)
