import numpy as np
import pytest

from manitrans import utils
from manitrans.errors import NumericalError, ValidationError
from manitrans.oracle import (gram_drift, integrate_transport,
                              transport_residual)
from manitrans.stiefel import (StiefelMetricParams, stiefel_christoffel,
                               stiefel_geodesic, stiefel_geodesic_velocity,
                               stiefel_transport)

from helpers import random_stiefel, random_stiefel_tangent


def flat_christoffel(point, vel, vec):
    return np.zeros_like(vec)


class TestIntegrateTransport:
    def test_flat_space_is_constant(self, rng):
        eta = rng.standard_normal((3, 2))

        def geodesic(t):
            return np.zeros((3, 2)), np.ones((3, 2))

        grid = np.linspace(0.0, 2.0, 4)
        out = integrate_transport(flat_christoffel, geodesic, eta, grid)
        for mat in out:
            assert np.allclose(mat, eta)

    def test_sphere_quarter_circle_rotation(self, rng):
        # transport of the velocity along a quarter great circle on S^2
        y = random_stiefel(rng, 3, 1)
        xi = rng.standard_normal((3, 1))
        xi -= y @ (y.T @ xi)
        xi /= np.linalg.norm(xi)
        params = StiefelMetricParams(1.0)
        t_end = np.pi / 2
        grid = [0.0, t_end]
        out = integrate_transport(
            lambda p, v, w: stiefel_christoffel(p, v, w, params),
            lambda s: stiefel_geodesic_velocity(y, xi, params, s), xi, grid)
        want = -np.sin(t_end) * y + np.cos(t_end) * xi  # rotated velocity
        assert np.linalg.norm(out[-1] - want) <= 1e-8

    def test_matches_closed_form_stiefel(self, rng):
        n, d = 8, 3
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(1.0)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        grid = np.linspace(0.0, 1.5, 4)
        out = integrate_transport(
            lambda p, v, w: stiefel_christoffel(p, v, w, params),
            lambda s: stiefel_geodesic_velocity(y, xi, params, s), eta, grid)
        for t, ref in zip(grid, out):
            got = stiefel_transport(y, xi, eta, params, t)
            assert np.linalg.norm(got - ref) <= 1e-6

    def test_tolerance_tightening_reduces_error(self, rng):
        n, d = 6, 2
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        t = 1.5
        errors = []
        for tol in (1e-6, 1e-8, 1e-10):
            out = integrate_transport(
                lambda p, v, w: stiefel_christoffel(p, v, w, params),
                lambda s: stiefel_geodesic_velocity(y, xi, params, s),
                eta, [0.0, t], rel_tol=tol, abs_tol=tol)
            closed = stiefel_transport(y, xi, eta, params, t)
            errors.append(np.linalg.norm(out[-1] - closed))
        assert errors[0] >= errors[1] >= errors[2]

    def test_backward_integration_returns_start(self, rng):
        n, d = 6, 2
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        t = 1.2
        moved = stiefel_transport(y, xi, eta, params, t)
        gam = stiefel_geodesic(y, xi, params, t)
        _, vel = stiefel_geodesic_velocity(y, xi, params, t)
        # reversed geodesic from gamma(t) with velocity -vel traces
        # s -> gamma(t - s), with its own velocity supplied directly
        back = integrate_transport(
            lambda p, v, w: stiefel_christoffel(p, v, w, params),
            lambda s: stiefel_geodesic_velocity(gam, -vel, params, s),
            moved, [0.0, t])
        assert np.linalg.norm(back[-1] - eta) <= 1e-6

    @pytest.mark.parametrize("bad", [
        dict(t_grid=[0.0, np.inf]), dict(t_grid=[0.0, np.nan]),
        dict(eta0=1j), dict(eta0=np.nan),
        dict(rel_tol=np.nan), dict(rel_tol=-1e-8),
        dict(abs_tol=np.inf), dict(abs_tol=-1e-8)],
        ids=["t_grid-inf", "t_grid-nan", "eta0-complex", "eta0-nan",
             "rel_tol-nan", "rel_tol-negative", "abs_tol-inf", "abs_tol-negative"])
    def test_refuses_bad_input_by_name(self, rng, bad):
        # an infinite grid used to integrate forever, a NaN one to return
        # a finite result, and a complex eta0 to lose its imaginary part
        y = random_stiefel(rng, 6, 2)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        args = dict(eta0=random_stiefel_tangent(rng, y), t_grid=[0.0, 1.0])
        (name, value), = bad.items()
        # an eta0 entry is added to a tangent eta0, keeping its shape
        args[name] = args[name] + value if name == "eta0" else value
        with pytest.raises(ValidationError, match=f"^{name} "):
            integrate_transport(
                lambda p, v, w: stiefel_christoffel(p, v, w, params),
                lambda s: stiefel_geodesic_velocity(y, xi, params, s), **args)

    def test_work_is_bounded(self, rng, monkeypatch):
        # t = 1e8 would take RK45 days; the solve stops after the budget
        monkeypatch.setattr(utils, "MAX_RHS_EVALS", 60)
        y = random_stiefel(rng, 6, 2)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        calls = []

        def christoffel(p, v, w):
            calls.append(1)
            return stiefel_christoffel(p, v, w, params)

        with pytest.raises(NumericalError,
                           match=r"its 60 right-hand-side evaluations at t=\S+ of 1e\+08"):
            integrate_transport(
                christoffel, lambda s: stiefel_geodesic_velocity(y, xi, params, s),
                random_stiefel_tangent(rng, y), [0.0, 1e8])
        assert len(calls) == 60

    def test_rejects_bad_grid(self):
        # decreasing, and starting before t = 0 where eta0 is given
        for grid in ([1.0, 0.5], [-1.0, 0.0]):
            with pytest.raises(ValidationError, match="t_grid"):
                integrate_transport(flat_christoffel,
                                    lambda t: (np.zeros((2, 2)), np.zeros((2, 2))),
                                    np.zeros((2, 2)), grid)


class TestTransportResidual:
    def test_flat_constant_is_zero(self):
        samples = [np.ones((2, 2))] * 5
        gammas = [np.full((2, 2), float(i)) for i in range(5)]
        assert transport_residual(samples, gammas, flat_christoffel, 0.1) == 0.0

    def test_closed_form_residual_small_and_convergent(self, rng):
        n, d = 6, 2
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        residuals = []
        for dt in (2e-3, 1e-3):
            grid = np.arange(0.0, 0.02 + dt / 2, dt)
            deltas = [stiefel_transport(y, xi, eta, params, s) for s in grid]
            gammas = [stiefel_geodesic(y, xi, params, s) for s in grid]
            residuals.append(transport_residual(
                deltas, gammas,
                lambda p, v, w: stiefel_christoffel(p, v, w, params), dt))
        assert residuals[-1] <= 1e-5
        assert residuals[1] <= residuals[0]  # second-order differencing

    def test_negative_control_frozen_vector(self, rng):
        n, d = 6, 2
        y = random_stiefel(rng, n, d)
        params = StiefelMetricParams(0.5)
        xi = random_stiefel_tangent(rng, y)
        eta = random_stiefel_tangent(rng, y)
        dt = 1e-3
        grid = np.arange(0.0, 0.02 + dt / 2, dt)
        deltas = [eta for _ in grid]  # deliberately wrong: not transported
        gammas = [stiefel_geodesic(y, xi, params, s) for s in grid]
        res = transport_residual(
            deltas, gammas,
            lambda p, v, w: stiefel_christoffel(p, v, w, params), dt)
        assert res > 1e-2

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_refuses_bad_step_by_name(self, rng, dt):
        y = random_stiefel(rng, 6, 2)
        params = StiefelMetricParams(0.5)
        eta = random_stiefel_tangent(rng, y)
        with pytest.raises(ValidationError, match="^dt "):
            transport_residual(
                [eta] * 3, [y] * 3,
                lambda p, v, w: stiefel_christoffel(p, v, w, params), dt)

    def test_needs_three_samples(self):
        with pytest.raises(ValidationError):
            transport_residual([np.eye(2)] * 2, [np.eye(2)] * 2,
                               flat_christoffel, 0.1)


def frobenius_gram(point, xi, eta):
    """The flat metric on stacks, at any point."""
    return np.tensordot(xi, eta, axes=([-2, -1], [-2, -1]))


class TestGramDrift:
    def test_identity_transport_flat(self, rng):
        vectors = [rng.standard_normal((3, 2)) for _ in range(4)]
        transported = [vectors, vectors]
        drifts = gram_drift(vectors, transported, metric=frobenius_gram,
                            points=[None, None])
        assert drifts == [0.0, 0.0]

    def test_single_vector_norm_drift(self, rng):
        v = rng.standard_normal((3, 2))
        transported = [[2.0 * v]]
        drifts = gram_drift([v], transported, metric=frobenius_gram,
                            points=[None])
        want = abs(4.0 * np.sum(v * v) - np.sum(v * v))
        assert drifts[0] == pytest.approx(want)

    def test_count_mismatch(self, rng):
        v = rng.standard_normal((2, 2))
        with pytest.raises(ValidationError):
            gram_drift([v], [[v, v]], metric=lambda p, a, b: 0.0, points=[None])
