import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from manitrans import group_core, oracle, quotient, utils
from manitrans.errors import NumericalError, ValidationError
from manitrans.forms import MetricParams, beta_form
from manitrans.gl_so import gl_split, so_split
from manitrans.expaction import expa
from manitrans.group_core import (GroupGeometry, christoffel, geodesic,
                                  geodesic_factors, geodesic_velocity,
                                  to_algebra, transport)
from manitrans.quotient import (
    QuotientGeometry, check_simplified_condition, flag_quotient,
    horizontal_christoffel, horizontal_transport_operator, quotient_transport,
    stiefel_quotient)
from manitrans.stiefel import (StiefelMetricParams, project_tangent,
                               stiefel_transport)
from manitrans.utils import asym, lie, sym

from helpers import (derive_split_components, horizontal_lift, poisoned,
                     random_so, rel_err)


def horizontal_vector(rng, q, x):
    n = x.shape[0]
    return x @ q.proj_m(asym(rng.standard_normal((n, n))))


def bad_proj_k(m):
    """A "vertical algebra" of so(5) leaking into a_join = [a, a_perp] of
    so_split(5, 2)."""
    out = np.zeros_like(np.asarray(m, dtype=float))
    out[2:, :2] = m[2:, :2] / 2.0 - m[:2, 2:].T / 2.0
    out[:2, 2:] = -out[2:, :2].T
    return out


def blocks_proj_k(*offsets):
    """The antisymmetric diagonal blocks between consecutive offsets."""
    def proj_k(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            out[lo:hi, lo:hi] = asym(m[lo:hi, lo:hi])
        return out
    return proj_k


def so_case(n, d, proj_k=None):
    """so_split(n, d) at alpha = 0.8 with proj_k, by default its proj_a."""
    geom = GroupGeometry(so_split(n, d), MetricParams(-0.5, 0.8))
    return geom, proj_k or geom.split.proj_a


def gl_case(proj_k):
    return GroupGeometry(gl_split(4), MetricParams(1.0, 0.5)), proj_k


# name: (geometry and proj_k, whether k lies in a + a_top)
SPLIT_CASES = {
    "stiefel-5-2": (lambda: so_case(5, 2, blocks_proj_k(2, 5)), True),
    "stiefel-12-4": (lambda: so_case(12, 4, blocks_proj_k(4, 12)), True),
    "stiefel-21-7": (lambda: so_case(21, 7, blocks_proj_k(7, 21)), True),
    "flag-9-2-3": (lambda: so_case(9, 5, blocks_proj_k(0, 2, 5, 9)), True),
    "k-is-a": (lambda: so_case(5, 2), True),
    "bottom-sub-block": (lambda: so_case(6, 2, blocks_proj_k(4, 6)), True),
    "leaks-into-a-join": (lambda: so_case(5, 2, bad_proj_k), False),
    "k-is-so-n": (lambda: so_case(5, 2, asym), False),
    "gl-sym": (lambda: gl_case(sym), False),
    "gl-skew": (lambda: gl_case(asym), True),
    "gl-scalar": (lambda: gl_case(lambda m: np.trace(m) / 4.0 * np.eye(4)), True),
}


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_structure_probe_agrees_with_subspace_scan(name):
    make, want = SPLIT_CASES[name]
    geom, proj_k = make()
    split = geom.split
    top = derive_split_components(split).proj_a_top
    rng = np.random.default_rng(1)
    scan_ok = True
    for _ in range(4):
        kw = proj_k(split.proj_g(rng.standard_normal((split.n, split.n))))
        res = np.linalg.norm(kw - split.proj_a(kw) - top(kw))
        scan_ok &= bool(res <= 1e-9 * max(1.0, np.linalg.norm(kw)))
    try:
        QuotientGeometry(geom, proj_k)
        probe_ok = True
    except ValidationError as exc:
        assert "does not split" in str(exc)
        probe_ok = False
    assert probe_ok == scan_ok == want


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
        geom = GroupGeometry(split=so_split(5, 2), params=MetricParams(-0.5, 0.8))
        with pytest.raises(ValidationError):
            QuotientGeometry(geom, bad_proj_k)

    @pytest.mark.parametrize("proj_k, message", [
        (lambda m: 2.0 * asym(m), "not idempotent"),
        (lambda m: np.triu(m, 1), "does not commute with transpose")],
        ids=["scaled", "upper"])
    def test_rejects_non_projection(self, proj_k, message):
        geom = GroupGeometry(split=so_split(5, 2), params=MetricParams(-0.5, 0.8))
        with pytest.raises(ValidationError, match=message):
            QuotientGeometry(geom, proj_k)

    @pytest.mark.parametrize("d", [0, 5, 7])
    def test_stiefel_rejects_bad_d(self, d):
        with pytest.raises(ValidationError, match="d="):
            stiefel_quotient(5, d, 0.8)

    @pytest.mark.parametrize("d_list", [(3, -1), (2.5, 2), (4, 3), ()])
    def test_flag_rejects_bad_blocks(self, d_list):
        with pytest.raises(ValidationError, match="^d_list "):
            flag_quotient(7, d_list, 0.8)

    def test_trivial_vertical_space(self, rng):
        split = so_split(5, 2)
        geom = GroupGeometry(split=split, params=MetricParams(-0.5, 0.8))
        q = QuotientGeometry(geom, lambda m: np.zeros_like(m))
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

    @pytest.mark.parametrize("validate", [True, False])
    def test_one_conversion_per_call(self, rng, monkeypatch, validate):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        a, b = to_algebra(q.geom, x, np.stack([xi, eta]))
        want = christoffel(q.geom, x, xi, eta) - 0.5 * x @ q.proj_k(lie(a, b))
        calls = []
        for module in (group_core, quotient):
            monkeypatch.setattr(
                module, "to_algebra", lambda *args, real=module.to_algebra,
                **kwargs: calls.append(1) or real(*args, **kwargs))
        got = horizontal_christoffel(q, x, xi, eta, validate=validate)
        assert len(calls) == 1
        assert rel_err(got, want) <= 1e-15

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
        q = stiefel_quotient(6, 2, 0.5)
        assert q.simplified_ok  # alpha = 1/2 means beta = -1

    def test_probes_catch_broken_split(self, rng):
        # a flag split at alpha != 1/2: the numeric probes must refuse
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
    @pytest.mark.parametrize("t", [-3.0, 1.0, 5.0])
    @pytest.mark.parametrize("shape", [(6, (2,)), (12, (4,)), (7, (2, 2))],
                             ids=["St(6,2)", "St(12,4)", "Flag(7;2,2)-ode"])
    def test_converts_by_transpose(self, rng, monkeypatch, shape, t):
        # an orthogonal x converts by x^T (check_point), no LU; the
        # output matches the LU conversion followed by the same formula
        n, blocks = shape
        q = flag_quotient(n, blocks, 0.8) if len(blocks) > 1 else \
            stiefel_quotient(n, blocks[0], 0.8)
        x = random_so(rng, n)
        xi = horizontal_vector(rng, q, x)
        eta = horizontal_vector(rng, q, x)
        a, w0 = to_algebra(q.geom, x, np.stack([xi, eta]))
        w = (expa(horizontal_transport_operator(q, a), w0, t) if q.simplified_ok
             else q.solve_transport_ode(a, w0, t))
        left, finish = geodesic_factors(q.geom, a, t)
        want = finish(x @ left @ w)
        calls = []
        for module in (group_core, quotient):
            monkeypatch.setattr(
                module, "to_algebra", lambda *args, real=module.to_algebra,
                **kwargs: calls.append(1) or real(*args, **kwargs))
        got = quotient_transport(q, x, xi, eta, t)
        assert calls == []
        assert rel_err(got, want) <= 1e-14

    @pytest.mark.parametrize("arg", ["xi", "eta"])
    def test_rejects_nonhorizontal_by_name(self, rng, arg):
        q = stiefel_quotient(6, 2, 0.8)
        x = random_so(rng, 6)
        args = dict(xi=horizontal_vector(rng, q, x),
                    eta=horizontal_vector(rng, q, x))
        args[arg] = x @ asym(rng.standard_normal((6, 6)))  # tangent
        with pytest.raises(ValidationError, match=f"^{arg} is not horizontal"):
            quotient_transport(q, x, t=1.0, **args)

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

    def test_variable_coefficient_work_is_bounded(self, rng, monkeypatch):
        # the ODE solve stops after its budget of evaluations, at any t
        monkeypatch.setattr(utils, "MAX_RHS_EVALS", 60)
        q = flag_quotient(7, (2, 2), 0.8)
        x = random_so(rng, 7)
        xi, eta = horizontal_vector(rng, q, x), horizontal_vector(rng, q, x)
        with pytest.raises(NumericalError,
                           match=r"its 60 right-hand-side evaluations at t=\S+ of -1e\+06"):
            quotient_transport(q, x, xi, eta, -1e6)

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
