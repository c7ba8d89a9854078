"""Metrics on vector stacks: the values between two stacks are those of the
pairwise loop over their matrices, and a bad vector anywhere in a stack is
refused by its argument's name."""
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from manitrans import group_core, stiefel
from manitrans.errors import ValidationError
from manitrans.flag_grassmann import FlagSignature, flag_horizontal_project
from manitrans.forms import MetricParams, beta_form, trace_form
from manitrans.gl_so import GLGeometry, SOGeometry, so_split
from manitrans.group_core import GroupGeometry, metric
from manitrans.quotient import stiefel_quotient
from manitrans.stiefel import StiefelMetricParams, metric_inner
from manitrans.utils import asym, sym

from helpers import (random_glp, random_so, random_stiefel,
                     random_stiefel_tangent)


@dataclass
class Case:
    metric: Callable            # (point, xi, eta) -> values between stacks
    point: object
    vector: Callable            # rng -> one admissible vector
    off: Optional[Callable]     # rng -> one vector the metric refuses
    names: tuple = ("xi", "eta")


def stiefel_case(alpha):
    def build(rng, n):
        y = random_stiefel(rng, n, int(rng.integers(1, n)))
        params = StiefelMetricParams(alpha)
        return Case(lambda p, a, b: metric_inner(p, a, b, params), y,
                    lambda rng: random_stiefel_tangent(rng, y),
                    lambda rng: y @ sym(rng.standard_normal((y.shape[1],) * 2)))
    return build


def flag_case(rng, n):
    sig = FlagSignature(d_list=(2, 1), n=n + 1)
    y = random_stiefel(rng, sig.n, sig.d)
    params = StiefelMetricParams(0.5)
    return Case(lambda p, a, b: metric_inner(p, a, b, params), y,
                lambda rng: flag_horizontal_project(
                    sig, y, rng.standard_normal(y.shape)),
                lambda rng: y @ sym(rng.standard_normal((sig.d, sig.d))))


def group_case(geom, x, tangent, off):
    return Case(lambda p, a, b: metric(geom, p, a, b), x,
                lambda rng: x @ tangent(rng), off and (lambda rng: x @ off(rng)))


def so_case(rng, n):
    geom = SOGeometry(n, int(rng.integers(1, n)), 0.8)
    return group_case(geom, random_so(rng, n),
                      lambda rng: asym(rng.standard_normal((n, n))),
                      lambda rng: sym(rng.standard_normal((n, n))))


def gl_case(beta):
    def build(rng, n):  # every matrix is tangent to GL+(n)
        return group_case(GLGeometry(n, beta), random_glp(rng, n),
                          lambda rng: rng.standard_normal((n, n)), None)
    return build


def generic_case(rng, n):
    # a non-orthogonal x: converted by its LU
    geom = GroupGeometry(so_split(n, int(rng.integers(1, n))),
                         MetricParams(beta0=0.7, beta1=-1.9))
    return group_case(geom, random_glp(rng, n),
                      lambda rng: asym(rng.standard_normal((n, n))),
                      lambda rng: sym(rng.standard_normal((n, n))))


def quotient_case(rng, n):
    q = stiefel_quotient(n, int(rng.integers(1, n)), 0.8)
    return group_case(q.geom, random_so(rng, n),
                      lambda rng: q.proj_m(asym(rng.standard_normal((n, n)))),
                      lambda rng: sym(rng.standard_normal((n, n))))


def beta_form_case(rng, n):
    split = so_split(n, int(rng.integers(1, n)))
    params = MetricParams(beta0=-0.5, beta1=0.8)
    return Case(lambda p, a, b: beta_form(a, b, split, params), None,
                lambda rng: asym(rng.standard_normal((n, n))),
                lambda rng: sym(rng.standard_normal((n, n))), ("g", "h"))


def trace_form_case(rng, n):
    return Case(lambda p, a, b: trace_form(a, b), None,
                lambda rng: rng.standard_normal((n, n)), None, ("a", "b"))


CASES = {
    "stiefel-0.5": stiefel_case(0.5), "stiefel-0.8": stiefel_case(0.8),
    "stiefel-1": stiefel_case(1.0), "flag": flag_case, "so": so_case,
    "gl-0.5": gl_case(0.5), "gl--0.5": gl_case(-0.5),
    "generic-so_split": generic_case, "stiefel_quotient": quotient_case,
    "beta_form": beta_form_case, "trace_form": trace_form_case,
}
LEADS = st.sampled_from([(), (1,), (3,)]), st.sampled_from([(), (2,), (3,)])


def stack(case, rng, lead):
    return np.reshape([case.vector(rng) for _ in range(int(np.prod(lead)))],
                      lead + case.vector(rng).shape)


@pytest.mark.parametrize("name", CASES)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 8),
       lead_xi=LEADS[0], lead_eta=LEADS[1])
@example(seed=758, n=3, lead_xi=(), lead_eta=(2,))
def test_stack_equals_the_pairwise_loop(name, seed, n, lead_xi, lead_eta):
    rng = np.random.default_rng(seed)
    case = CASES[name](rng, n)
    xi, eta = stack(case, rng, lead_xi), stack(case, rng, lead_eta)
    got = case.metric(case.point, xi, eta)
    pairs = [[case.metric(case.point, u, v) for v in eta.reshape(-1, *eta.shape[-2:])]
             for u in xi.reshape(-1, *xi.shape[-2:])]
    assert all(isinstance(value, float) for row in pairs for value in row)
    if lead_xi == lead_eta == ():
        assert isinstance(got, float)
    want = np.reshape(pairs, lead_xi + lead_eta)
    assert np.shape(got) == want.shape
    # scaled by the operands, not by values that cancel: a sum of n^2 <= 64
    # products rounds by below 64 u times the largest ||xi_i|| ||eta_j||
    scale = np.max(np.multiply.outer(np.linalg.norm(xi, axis=(-2, -1)),
                                     np.linalg.norm(eta, axis=(-2, -1))))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


BAD = [(name, kind) for name in CASES for kind in ("nan", "off")
       if kind == "nan" or CASES[name](np.random.default_rng(0), 4).off]


@pytest.mark.parametrize("name, kind", BAD)
@pytest.mark.parametrize("arg", [0, 1])
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4), data=st.data())
def test_bad_vector_anywhere_is_refused_by_name(name, kind, arg, seed, k, data):
    rng = np.random.default_rng(seed)
    case = CASES[name](rng, 5)
    stacks = [stack(case, rng, (k,)) for _ in range(2)]
    pos = data.draw(st.integers(0, k - 1))
    if kind == "nan":
        stacks[arg][pos].flat[data.draw(st.integers(0, stacks[arg][pos].size - 1))] = np.nan
        message = "has non-finite"
    else:
        stacks[arg][pos] = case.off(rng)
        message = "is not"
    with pytest.raises(ValidationError, match=f"^{case.names[arg]} {message}"):
        case.metric(case.point, *stacks)


# the metrics and what checks one stack: a check_coefficient call, or an
# _algebra call, which also converts it to X^{-1} xi
CHECKERS = {name: (stiefel, "check_coefficient")
            if name.startswith(("stiefel-", "flag")) else (group_core, "_algebra")
            for name in CASES if not name.endswith("_form")}


@pytest.mark.parametrize("name", CHECKERS)
def test_a_stack_with_itself_is_checked_once(monkeypatch, name):
    # the two-stack call takes a view of xi's data; at n = 24 the Stiefel
    # cases have d = 19, where numpy's product of a matrix with its own
    # transpose (BLAS syrk) no longer rounds as the general one does
    rng = np.random.default_rng(3)
    case = CASES[name](rng, 24)
    xi = stack(case, rng, (4,))
    want = case.metric(case.point, xi, xi[...])
    module, attr = CHECKERS[name]
    calls, real = [], getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: calls.append(1) or real(*args))
    assert np.array_equal(case.metric(case.point, xi, xi), want)
    assert len(calls) == 1
    xi[2] = case.off(rng) if case.off else np.nan
    with pytest.raises(ValidationError,
                       match="^xi is not" if case.off else "^xi has non-finite"):
        case.metric(case.point, xi, xi)
