import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from manitrans.errors import (CapacityError, DimensionError, NumericalError,
                              ValidationError)
from manitrans.expaction import (
    THETA_DOUBLE, ChebyshevVectors, LinearOperatorHandle, chebyshev_terms,
    dense_operator_matrix, expa, matrix_exponential,
    one_norm_estimate_exhaustive, select_taylor_params)
from manitrans.utils import asym

from helpers import (NON_REAL, identity_operator, poisoned, refusal, rel_err,
                     zero_operator)


def matmul_operator(m, rows, cols):
    """Left multiplication of the vectorized operand by a dense matrix."""
    return LinearOperatorHandle(
        apply=lambda x: (m @ x.reshape(*x.shape[:-2], rows * cols, 1)
                         ).reshape(x.shape),
        apply_adjoint=lambda x: (m.T @ x.reshape(*x.shape[:-2], rows * cols, 1)
                                 ).reshape(x.shape),
        one_norm_upper_bound=float(np.max(np.sum(np.abs(m), axis=0))),
        domain_shape=(rows, cols))


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = matrix_exponential(np.diag([1.0, 2.0]))
        assert np.allclose(got, np.diag([np.e, np.e ** 2]), rtol=1e-14)

    def test_antisymmetric_gives_orthogonal(self, rng):
        m = asym(rng.standard_normal((5, 5)))
        r = matrix_exponential(m)
        assert np.linalg.norm(r.T @ r - np.eye(5)) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    def test_normal_matrix_vs_eigendecomposition(self, rng):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        w = rng.standard_normal(6)
        m = q @ np.diag(w) @ q.T
        want = q @ np.diag(np.exp(w)) @ q.T
        assert rel_err(matrix_exponential(m), want) <= 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSelectTaylorParams:
    def test_zero_norm(self):
        params = select_taylor_params(0.0)
        assert params.s == 1
        assert params.m_star == min(THETA_DOUBLE)

    def test_boundary_norms_give_single_scaling(self):
        for m, theta in THETA_DOUBLE.items():
            assert select_taylor_params(theta).s == 1

    @pytest.mark.parametrize("tolerance_class", ["double"])
    def test_matches_reference_scan(self, tolerance_class):
        # independent scan over the table, recomputing the cost formula
        table = THETA_DOUBLE
        for norm in (1e-3, 0.2, 1.0, 7.0, 100 * table[55], 1e3):
            costs = {m: int(np.ceil(m * norm / th)) for m, th in table.items()}
            best = min(costs.values())
            want_m = min(m for m, c in costs.items() if c == best)
            got = select_taylor_params(norm, tolerance_class)
            assert got.m_star == want_m
            assert got.s == max(1, int(np.ceil(norm / table[want_m])))

    def test_hundredfold_norm_scales_s(self):
        got = select_taylor_params(100 * THETA_DOUBLE[55])
        assert got.m_star == 55 and got.s == 100

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            select_taylor_params(-1.0)

    def test_rejects_unknown_class(self):
        for tolerance_class in ("half", "single"):
            with pytest.raises(ValidationError):
                select_taylor_params(1.0, tolerance_class)


class TestExpa:
    def test_zero_operator(self, rng):
        b = rng.standard_normal((3, 4))
        assert np.array_equal(expa(zero_operator((3, 4)), b, 2.3), b)

    def test_identity_operator(self, rng):
        b = rng.standard_normal((3, 3))
        got = expa(identity_operator((3, 3)), b, 1.5)
        assert rel_err(got, np.exp(1.5) * b) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (2, 6)])
    def test_vectorization_oracle(self, rng, shape):
        dim = shape[0] * shape[1]
        m = rng.standard_normal((dim, dim))
        op = matmul_operator(m, *shape)
        b = rng.standard_normal(shape)
        t = 1.7
        want = (scipy.linalg.expm(t * m) @ b.reshape(-1)).reshape(shape)
        assert rel_err(expa(op, b, t), want) <= 1e-10

    def test_stiefel_operator_vectorization_oracle(self, rng):
        from manitrans.stiefel import (StiefelMetricParams, TangentDecomposition,
                                       p_bal_operator)
        a = asym(rng.standard_normal((3, 3)))
        r = rng.standard_normal((2, 3))
        decomp = TangentDecomposition(a=a, q=np.zeros((9, 2)), r=r, k=2)
        op = p_bal_operator(decomp, StiefelMetricParams(0.5))
        dense = dense_operator_matrix(op)
        b = rng.standard_normal((5, 3))
        t = 1.7
        want = (scipy.linalg.expm(t * dense) @ b.reshape(-1)).reshape(5, 3)
        assert rel_err(expa(op, b, t), want) <= 1e-10

    def test_norm_sweep_against_dense(self, rng):
        for target in (1e-3, 1.0, 10.0, 1e3):
            m = rng.standard_normal((9, 9))
            m *= target / np.max(np.sum(np.abs(m), axis=0))
            op = matmul_operator(m, 3, 3)
            b = rng.standard_normal((3, 3))
            want = (scipy.linalg.expm(m) @ b.reshape(-1)).reshape(3, 3)
            assert rel_err(expa(op, b, 1.0), want) <= 1e-9

    def test_semigroup(self, rng):
        m = rng.standard_normal((9, 9))
        op = matmul_operator(m, 3, 3)
        b = rng.standard_normal((3, 3))
        once = expa(op, expa(op, b, 0.6), 0.9)
        combined = expa(op, b, 1.5)
        assert rel_err(once, combined) <= 1e-9

    def test_adjoint_consistency(self, rng):
        m = rng.standard_normal((9, 9))
        op = matmul_operator(m, 3, 3)
        adj = LinearOperatorHandle(
            apply=op.apply_adjoint, apply_adjoint=op.apply,
            one_norm_upper_bound=float(np.max(np.sum(np.abs(m), axis=1))),
            domain_shape=(3, 3))
        b = rng.standard_normal((3, 3))
        want = (scipy.linalg.expm(m).T @ b.reshape(-1)).reshape(3, 3)
        assert rel_err(expa(adj, b, 1.0), want) <= 1e-10

    def test_batched_operand(self, rng):
        m = rng.standard_normal((6, 6))
        op = matmul_operator(m, 2, 3)
        batch = rng.standard_normal((4, 2, 3))
        got = expa(op, batch, 0.8)
        for i in range(4):
            assert rel_err(got[i], expa(op, batch[i], 0.8)) <= 1e-12

    def test_positional_class_matches_default(self, rng):
        # "double" is the only class; expa and select_taylor_params keep
        # the parameter because perfbench/tracer.py passes it by position
        m = rng.standard_normal((9, 9))
        skew = asym(m) / np.linalg.norm(asym(m), 2)
        b = rng.standard_normal((3, 3))
        for op in (matmul_operator(m, 3, 3), dataclasses.replace(
                matmul_operator(skew, 3, 3), skew_two_norm_bound=1.0)):
            assert np.array_equal(expa(op, b, 1.3, "double", None),
                                  expa(op, b, 1.3))
        for norm in (0.0, 0.7, 1e3):
            assert select_taylor_params(norm, "double") == \
                select_taylor_params(norm)

    def test_explicit_params_override(self, rng):
        m = 0.01 * rng.standard_normal((9, 9))
        op = matmul_operator(m, 3, 3)
        b = rng.standard_normal((3, 3))
        from manitrans.expaction import TaylorParams
        want = (scipy.linalg.expm(m) @ b.reshape(-1)).reshape(3, 3)
        got = expa(op, b, 1.0, params=TaylorParams(m_star=20, s=2))
        assert rel_err(got, want) <= 1e-12

    def test_shape_mismatch(self, rng):
        op = zero_operator((3, 3))
        with pytest.raises(DimensionError):
            expa(op, np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("value", NON_REAL)
    def test_refuses_non_real_operand_by_name(self, value):
        with pytest.raises(ValidationError, match=f"^b {refusal(value)}"):
            expa(identity_operator((2, 2)), **poisoned("b", value, b=np.eye(2)))

    def test_overflow_carries_params(self):
        bad = LinearOperatorHandle(
            apply=lambda x: x * 1e300, apply_adjoint=lambda x: x * 1e300,
            one_norm_upper_bound=1.0, domain_shape=(2, 2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=r"m_star=\d+, s=\d+"):
                expa(bad, np.full((2, 2), 1e300), 1.0)

    def test_dense_fallback_on_pathological_bound(self, rng):
        # tiny domain with a wildly overestimated norm bound
        m = 0.1 * rng.standard_normal((4, 4))
        op = LinearOperatorHandle(
            apply=lambda x: (m @ x.reshape(4)).reshape(2, 2),
            apply_adjoint=lambda x: (m.T @ x.reshape(4)).reshape(2, 2),
            one_norm_upper_bound=1e5, domain_shape=(2, 2))
        b = rng.standard_normal((2, 2))
        want = (scipy.linalg.expm(m) @ b.reshape(-1)).reshape(2, 2)
        assert rel_err(expa(op, b, 1.0), want) <= 1e-10


class TestOneNormExhaustive:
    def test_identity(self):
        assert one_norm_estimate_exhaustive(identity_operator((2, 2))) == 1.0

    def test_left_diagonal_scaling(self):
        d = np.diag([2.0, 3.0])
        op = LinearOperatorHandle(
            apply=lambda x: d @ x, apply_adjoint=lambda x: d @ x,
            one_norm_upper_bound=3.0, domain_shape=(2, 1))
        assert one_norm_estimate_exhaustive(op) == 3.0

    def test_matches_dense_column_sums(self, rng):
        m = rng.standard_normal((12, 12))
        op = matmul_operator(m, 3, 4)
        want = float(np.max(np.sum(np.abs(m), axis=0)))
        assert abs(one_norm_estimate_exhaustive(op) - want) <= 1e-13

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            one_norm_estimate_exhaustive(zero_operator((30, 30)))


class TestHandleInvariants:
    @given(seed=st.integers(0, 10_000))
    def test_linearity_and_adjoint_pairing(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((9, 9))
        op = matmul_operator(m, 3, 3)
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        lin = op.apply(a * x + b * y) - a * op.apply(x) - b * op.apply(y)
        assert np.linalg.norm(lin) <= 1e-12 * (1 + np.linalg.norm(m))
        lhs = float(np.sum(op.apply(x) * y))
        rhs = float(np.sum(x * op.apply_adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_bound_dominates_exhaustive_norm(self, rng):
        m = rng.standard_normal((9, 9))
        op = matmul_operator(m, 3, 3)
        assert op.one_norm_upper_bound >= one_norm_estimate_exhaustive(op) - 1e-12

    def test_rejects_negative_bound(self):
        with pytest.raises(ValidationError):
            LinearOperatorHandle(
                apply=lambda x: x, apply_adjoint=lambda x: x,
                one_norm_upper_bound=-1.0, domain_shape=(2, 2))

    @pytest.mark.parametrize("bound", [-1.0, np.inf, np.nan])
    def test_rejects_bad_skew_bound(self, bound):
        with pytest.raises(ValidationError):
            LinearOperatorHandle(
                apply=lambda x: x, apply_adjoint=lambda x: x,
                one_norm_upper_bound=1.0, domain_shape=(2, 2),
                skew_two_norm_bound=bound)


class TestChebyshev:
    """expa on a handle that declares a skew 2-norm bound."""

    def skew_operator(self, rng, rows=3, cols=4):
        m = asym(rng.standard_normal((rows * cols,) * 2))
        m /= np.linalg.norm(m, 2)
        return m, dataclasses.replace(matmul_operator(m, rows, cols),
                                      skew_two_norm_bound=1.0)

    @pytest.mark.parametrize("t", [-3.0, 0.7, 50.0])
    @pytest.mark.parametrize("tolerance_class, tol", [("double", 1e-12)])
    def test_skew_matrix_against_expm(self, rng, t, tolerance_class, tol):
        m, op = self.skew_operator(rng)
        b = rng.standard_normal((2, 3, 4))
        want = (b.reshape(2, 12) @ scipy.linalg.expm(t * m).T).reshape(b.shape)
        assert rel_err(expa(op, b, t, tolerance_class), want) <= tol

    @pytest.mark.parametrize("t", [-3.0, 0.7, 50.0])
    def test_one_apply_per_term_and_operand_kept(self, rng, t):
        # the loop updates its own buffers in place: a strided b stays
        # as it was, and every term goes through op.apply once
        _, op = self.skew_operator(rng)
        calls = []
        counted = dataclasses.replace(
            op, apply=lambda v: calls.append(1) or op.apply(v))
        b = rng.standard_normal((2, 4, 3)).swapaxes(-1, -2)
        kept = b.copy()
        got = expa(counted, b, t)
        assert len(calls) == chebyshev_terms(abs(t))
        assert np.array_equal(b, kept)
        assert np.array_equal(got, expa(op, kept, t))
        assert expa(op, np.zeros((0, 3, 4)), t).shape == (0, 3, 4)

    def test_kept_vectors_serve_both_signs(self, rng):
        # one kept sequence, made at t > 0, for every t of either sign:
        # the same bits as without it, and applies only past it
        _, op = self.skew_operator(rng)
        b = rng.standard_normal((2, 3, 4))
        kept = ChebyshevVectors(b.copy(), limit=6)
        calls = []
        counted = dataclasses.replace(
            op, apply=lambda v: calls.append(1) or op.apply(v),
            chebyshev_vectors=kept)
        want, known = 0, 0
        for t in (-3.0, 0.7, 50.0, -50.0, 2.0):
            assert np.array_equal(expa(counted, kept.operand, t), expa(op, b, t))
            want += max(chebyshev_terms(abs(t)) - known, 0)
            known = min(max(known, chebyshev_terms(abs(t))), 6)
            assert len(calls) == want and len(kept.vectors) == known + 1
        assert not any(v.flags.writeable for v in kept.vectors)
        # an equal operand that is not the kept one takes every term
        calls.clear()
        assert np.array_equal(expa(counted, b, -3.0), expa(op, b, -3.0))
        assert len(calls) == chebyshev_terms(3.0)

    def test_rejects_unknown_class(self, rng):
        _, op = self.skew_operator(rng)
        for tolerance_class in ("quad", "single"):
            with pytest.raises(ValidationError):
                expa(op, np.ones((3, 4)), 1.0, tolerance_class)
