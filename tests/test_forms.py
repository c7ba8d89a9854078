import numpy as np
import pytest
from hypothesis import given, strategies as st

from manitrans.errors import DimensionError, ValidationError
from manitrans.forms import AlgebraSplit, MetricParams, beta_form, trace_form
from manitrans.gl_so import GLGeometry, SOGeometry, gl_split, so_split
from manitrans.quotient import flag_quotient, stiefel_quotient
from manitrans.stiefel import StiefelMetricParams
from manitrans.utils import asym, lie

from helpers import (DegenerateSubspaceError, classify_metric_signature,
                     derive_split_components, frobenius_form, gram_projection,
                     subspace_basis)


def block_split(n, k):
    """g = all n x n matrices, a = the top k x k block."""
    def proj_a(m):
        out = np.zeros_like(np.asarray(m, dtype=float))
        out[:k, :k] = m[:k, :k]
        return out
    return AlgebraSplit(n=n, proj_g=lambda m: np.asarray(m, dtype=float),
                        proj_a=proj_a)


def e_mat(n, i, j):
    out = np.zeros((n, n))
    out[i, j] = 1.0
    return out


class TestTraceAndFrobenius:
    def test_identity(self):
        assert trace_form(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_strictly_upper_triangular_is_null(self, rng):
        a = np.triu(rng.standard_normal((4, 4)), k=1)
        assert trace_form(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_cyclic_invariance(self, rng):
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        assert trace_form(lie(a, b), c) == pytest.approx(
            trace_form(b, lie(c, a)), rel=1e-12, abs=1e-12)

    def test_frobenius_unit(self):
        e12 = e_mat(2, 0, 1)
        assert frobenius_form(e12, e12) == pytest.approx(1.0)

    def test_frobenius_is_squared_norm(self, rng):
        a = rng.standard_normal((4, 4))
        assert frobenius_form(a, a) == pytest.approx(np.linalg.norm(a) ** 2)

    def test_frobenius_is_trace_of_transpose(self, rng):
        a, b = rng.standard_normal((2, 4, 4))
        assert frobenius_form(a, b) == pytest.approx(trace_form(a, b.T))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            trace_form(np.eye(2), np.eye(3))


class TestMetricParams:
    def test_beta_ratio(self):
        assert MetricParams(beta0=-0.5, beta1=1.0).beta == pytest.approx(-2.0)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            MetricParams(beta0=0.0, beta1=1.0)

    @pytest.mark.parametrize("name", ["beta0", "beta1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite(self, name, value):
        kwargs = {"beta0": 1.0, "beta1": 1.0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} has non-finite"):
            MetricParams(**kwargs)


# Scalar metric parameters, each refused by name (utils.check_scalar):
# a bool, one- and two-element arrays, a string and a complex number
BAD_SCALARS = [(True, "must be a real scalar, got True"),
               (np.array([0.5]), r"must be a real scalar, got array\(\[0.5\]\)"),
               (np.array([0.5, 0.5]), "must be a real scalar, got array"),
               ("0.5", "must be a real scalar, got '0.5'"),
               (0.5 + 0j, r"must be a real scalar, got \(0.5\+0j\)"),
               (np.nan, "has non-finite entries")]
SCALAR_PARAMETERS = {
    "alpha": [StiefelMetricParams,
              lambda v: SOGeometry(n=4, d=2, alpha=v),
              lambda v: stiefel_quotient(4, 2, v),
              lambda v: flag_quotient(5, (1, 2), v)],
    "beta": [lambda v: GLGeometry(n=4, beta=v)],
    "beta0": [lambda v: MetricParams(beta0=v, beta1=1.0)],
    "beta1": [lambda v: MetricParams(beta0=1.0, beta1=v)],
}


class TestScalarParameters:
    @pytest.mark.parametrize("value, message", BAD_SCALARS)
    @pytest.mark.parametrize("name", sorted(SCALAR_PARAMETERS))
    def test_refused_by_name(self, name, value, message):
        for build in SCALAR_PARAMETERS[name]:
            with pytest.raises(ValidationError, match=f"^{name} {message}"):
                build(value)

    def test_stored_as_floats(self):
        # valid parameters of any real type give the same float
        for value in (2, np.float32(2.0), np.array(2.0), np.int64(2)):
            for params in (StiefelMetricParams(value),
                           MetricParams(beta0=value, beta1=value),
                           GLGeometry(n=3, beta=value).params,
                           SOGeometry(n=4, d=2, alpha=value).params,
                           stiefel_quotient(4, 2, value).geom.params):
                for field in vars(params).values():
                    assert type(field) is float and field in (2.0, -0.5, 1.0)

    def test_so_split_checks_n_first(self):
        with pytest.raises(ValidationError, match="^n must be an integer"):
            stiefel_quotient(True, 1, 0.5)
        with pytest.raises(ValidationError, match="^n must be an integer"):
            so_split(True, 1)


class TestBetaForm:
    def test_subalgebra_only(self, rng):
        split = gl_split(4)
        params = MetricParams(beta0=1.0, beta1=0.7)
        g = asym(rng.standard_normal((4, 4)))
        want = -params.beta1 * trace_form(g, g)
        assert beta_form(g, g, split, params) == pytest.approx(want)

    def test_beta_minus_one_is_trace_form(self, rng):
        split = gl_split(4)
        params = MetricParams(beta0=2.0, beta1=-2.0)
        g, h = rng.standard_normal((2, 4, 4))
        assert beta_form(g, h, split, params) == pytest.approx(
            2.0 * trace_form(g, h), rel=1e-12)

    def test_so_split_on_lifted_stiefel_tangent(self, rng):
        n, d, alpha = 6, 2, 0.8
        split = so_split(n, d)
        params = MetricParams(beta0=-0.5, beta1=alpha)
        a_blk = asym(rng.standard_normal((d, d)))
        b_blk = rng.standard_normal((n - d, d))
        lift = np.zeros((n, n))
        lift[:d, :d] = a_blk
        lift[d:, :d] = b_blk
        lift[:d, d:] = -b_blk.T
        want = alpha * np.sum(a_blk * a_blk) + np.sum(b_blk * b_blk)
        assert beta_form(lift, lift, split, params) == pytest.approx(want)

    def test_rejects_nonmember(self, rng):
        split = so_split(4, 2)
        params = MetricParams(beta0=-0.5, beta1=1.0)
        with pytest.raises(ValidationError):
            beta_form(np.eye(4), np.eye(4), split, params)


class TestGramProjection:
    def test_orthonormal_basis_is_orthogonal_projection(self, rng):
        basis = [e_mat(3, 0, 0), e_mat(3, 1, 2)]
        w = rng.standard_normal((3, 3))
        got = gram_projection(basis, w, frobenius_form)
        want = w[0, 0] * basis[0] + w[1, 2] * basis[1]
        assert np.allclose(got, want)

    def test_fixes_subspace(self, rng):
        basis = [rng.standard_normal((3, 3)) for _ in range(4)]
        coeffs = rng.standard_normal(4)
        w = sum(c * b for c, b in zip(coeffs, basis))
        got = gram_projection(basis, w, frobenius_form)
        assert np.linalg.norm(got - w) <= 1e-12 * max(1.0, np.linalg.norm(w))

    def test_indefinite_trace_form_off_diagonal_pair(self):
        # trace form on span{E12, E21} has Gram [[0,1],[1,0]]
        basis = [e_mat(2, 0, 1), e_mat(2, 1, 0)]
        w = e_mat(2, 0, 1) + e_mat(2, 0, 0)
        got = gram_projection(basis, w, trace_form)
        assert np.allclose(got, e_mat(2, 0, 1))

    def test_reproduces_pairings(self, rng):
        basis = [rng.standard_normal((3, 3)) for _ in range(3)]
        w = rng.standard_normal((3, 3))
        got = gram_projection(basis, w, trace_form)
        for v in basis:
            assert trace_form(got, v) == pytest.approx(
                trace_form(w, v), rel=1e-10, abs=1e-10)

    def test_degenerate_subspace(self):
        # E12 is trace-isotropic: Gram matrix is singular
        with pytest.raises(DegenerateSubspaceError):
            gram_projection([e_mat(2, 0, 1)], np.eye(2), trace_form)


class TestDeriveSplitComponents:
    def test_block_example(self, rng):
        n, k = 5, 2
        split = block_split(n, k)
        comps = derive_split_components(split)
        m = rng.standard_normal((n, n))
        top = comps.proj_a_top(m)
        want_top = np.zeros_like(m)
        want_top[k:, k:] = m[k:, k:]
        assert np.allclose(top, want_top, atol=1e-10)
        join = comps.proj_a_join(m)
        want_join = m.copy()
        want_join[:k, :k] = 0.0
        want_join[k:, k:] = 0.0
        assert np.allclose(join, want_join, atol=1e-10)

    def test_so_block_example(self, rng):
        n, d = 5, 2
        split = so_split(n, d)
        comps = derive_split_components(split)
        m = asym(rng.standard_normal((n, n)))
        top = comps.proj_a_top(m)
        want = np.zeros_like(m)
        want[d:, d:] = m[d:, d:]
        assert np.allclose(top, want, atol=1e-10)

    def test_involution_on_block_example(self, rng):
        n, k = 5, 2
        split = block_split(n, k)
        comps = derive_split_components(split)
        # a_top as the new subalgebra: its top must be the original a
        second = AlgebraSplit(n=n, proj_g=split.proj_g,
                              proj_a=comps.proj_a_top)
        comps2 = derive_split_components(second)
        m = rng.standard_normal((n, n))
        assert np.allclose(comps2.proj_a_top(m), split.proj_a(m), atol=1e-9)

    def test_three_projections_sum_to_identity_on_g(self, rng):
        split = so_split(6, 2)
        comps = derive_split_components(split)
        m = asym(rng.standard_normal((6, 6)))
        recon = split.proj_a(m) + comps.proj_a_join(m) + comps.proj_a_top(m)
        assert np.allclose(recon, m, atol=1e-10)


class TestClassifySignature:
    def test_so_split_riemannian(self):
        sig = classify_metric_signature(
            so_split(5, 2), MetricParams(beta0=-0.5, beta1=0.7))
        assert sig.kind == "riemannian"

    def test_gl_with_skew_subalgebra_riemannian(self):
        sig = classify_metric_signature(
            gl_split(3), MetricParams(beta0=1.0, beta1=0.5))
        assert sig.kind == "riemannian"

    def test_gl_negative_beta1_pseudo(self):
        sig = classify_metric_signature(
            gl_split(3), MetricParams(beta0=1.0, beta1=-0.5))
        assert sig.kind == "pseudo_riemannian"
        negative = [val for val, dim in sig.eigen_summary if dim > 0 and val < 0]
        assert negative


class TestSplitInvariants:
    def test_trace_form_nondegenerate_on_so(self):
        split = so_split(4, 2)
        basis = subspace_basis(split, split.proj_g)
        gram = np.array([[trace_form(a, b) for b in basis] for a in basis])
        assert np.linalg.matrix_rank(gram) == len(basis)

    def test_basis_of_a_projection_returning_its_input(self):
        # gl_split's proj_g returns its argument itself, not a copy
        split = gl_split(3)
        assert len(subspace_basis(split, split.proj_g)) == 9

    @given(seed=st.integers(0, 10_000))
    def test_projection_agreement_trace_vs_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        split = so_split(4, 2)
        basis = subspace_basis(split, split.proj_a)
        w = asym(rng.standard_normal((4, 4)))
        p_frob = gram_projection(basis, w, frobenius_form)
        p_trace = gram_projection(basis, w, trace_form)
        assert np.linalg.norm(p_frob - p_trace) <= 1e-12
        assert np.linalg.norm(p_frob - split.proj_a(w)) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    def test_bracket_of_a_and_perp_leaves_a(self, seed):
        rng = np.random.default_rng(seed)
        split = so_split(5, 2)
        a = split.proj_a(rng.standard_normal((5, 5)))
        g = asym(rng.standard_normal((5, 5)))
        b = g - split.proj_a(g)
        assert np.linalg.norm(split.proj_a(lie(a, b))) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    def test_mixed_bracket_lands_in_a_join(self, seed):
        rng = np.random.default_rng(seed)
        split = so_split(5, 2)
        comps = derive_split_components(split)
        a = asym(rng.standard_normal((5, 5)))
        b = asym(rng.standard_normal((5, 5)))
        mixed = lie(split.proj_a(a), b) + lie(split.proj_a(b), a)
        assert np.linalg.norm(split.proj_a(mixed)) <= 1e-10
        assert np.linalg.norm(comps.proj_a_top(mixed)) <= 1e-10

    def test_closure_under_bracket(self, rng):
        split = so_split(5, 2)
        for proj in (split.proj_g, split.proj_a):
            x = proj(rng.standard_normal((5, 5)))
            y = proj(rng.standard_normal((5, 5)))
            br = lie(x, y)
            assert np.linalg.norm(br - proj(br)) <= 1e-12

    def test_idempotence_and_transposability(self, rng):
        split = so_split(5, 2)
        m = rng.standard_normal((5, 5))
        for proj in (split.proj_g, split.proj_a,
                     stiefel_quotient(5, 2, 0.8).proj_k):
            assert np.linalg.norm(proj(proj(m)) - proj(m)) <= 1e-13
            assert np.linalg.norm(proj(m.T) - proj(m).T) <= 1e-13

    def test_subalgebra_contained_in_algebra(self, rng):
        split = so_split(5, 2)
        m = rng.standard_normal((5, 5))
        assert np.linalg.norm(split.proj_a(split.proj_g(m))
                              - split.proj_a(m)) <= 1e-13
