"""The group transport plan: stacked transports against the per-vector
loop of the one-shot entry points, its geodesic against theirs, and its
refusals of eta by name inside a stack."""
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manitrans import group_core
from manitrans.errors import ValidationError
from manitrans.expaction import select_taylor_params
from manitrans.forms import MetricParams
from manitrans.gl_so import GLGeometry, SOGeometry, so_split
from manitrans.group_core import (GroupGeometry, make_transport_plan,
                                  transport_with_plan)
from manitrans.quotient import (flag_quotient, quotient_transport,
                                stiefel_quotient)
from manitrans.utils import EPS, asym

from helpers import random_glp, random_so

# kind -> its group geometry, or its quotient
CASES = {
    "so": lambda: SOGeometry(6, 2, 0.8),
    "generic-so": lambda: GroupGeometry(so_split(6, 2), MetricParams(-0.5, 0.8)),
    "gl-chebyshev": lambda: GLGeometry(5, 0.5),
    "gl-taylor": lambda: GLGeometry(5, -0.5),
    "stiefel-quotient": lambda: stiefel_quotient(6, 2, 0.8),
    "flag-quotient-ode": lambda: flag_quotient(7, (2, 2), 0.8),
}
# a velocity of this Frobenius norm keeps the flag quotient's RK solves
# short at |t| = 50
SPEED = {"flag-quotient-ode": 0.05}
TIMES = st.one_of(st.just(0.0), st.floats(-5.0, 50.0))
BATCHES = st.one_of(st.just(()), st.integers(1, 3).map(lambda k: (k,)),
                    st.just((2, 3)))


def instance(kind, seed, batch):
    """(geom, quotient or None, x, xi, etas of shape batch + (n, n), the
    one-shot transport (x, xi, eta, t) -> delta)."""
    geom = CASES[kind]()
    q = None
    if not isinstance(geom, GroupGeometry):
        geom, q = geom.geom, geom
    rng = np.random.default_rng(seed)
    n = geom.n
    if geom.split.so_block is None:  # GL
        x = random_glp(rng, n)

        def tangent(shape):
            return x @ rng.standard_normal(shape + (n, n))
    else:
        x = random_so(rng, n)
        proj = geom.split.proj_g if q is None else q.proj_m

        def tangent(shape):
            return x @ proj(asym(rng.standard_normal(shape + (n, n))))

    xi = tangent(())
    xi *= SPEED.get(kind, 1.0) / np.linalg.norm(xi)
    one_shot = partial(group_core.transport, geom) if q is None \
        else partial(quotient_transport, q)
    return geom, q, x, xi, tangent(batch), one_shot


@settings(max_examples=40)
@given(kind=st.sampled_from(sorted(CASES)), t=TIMES, batch=BATCHES,
       seed=st.integers(0, 2 ** 16))
# one vector of the stack 1.02e-15 from its one-shot transport, relative
@example(kind="gl-taylor", t=46.576819235406816, batch=(2, 3), seed=2)
def test_stacked_transport_matches_the_loop(kind, t, batch, seed):
    geom, q, x, xi, etas, one_shot = instance(kind, seed, batch)
    plan = make_transport_plan(geom, x, xi, q)
    got = transport_with_plan(plan, x, etas, t)
    assert got.shape == etas.shape
    if kind == "gl-taylor":
        # Each of expa's s Taylor scaling steps stops once two consecutive
        # terms are at most EPS times the norm of the sum, read on the
        # whole stack here and on one vector in the one-shot call, whose
        # applies are the same.  So in each step the two sums of a vector
        # differ by the terms one keeps and the other drops: each at most
        # EPS times the stack's sum and, past the stop (at a term index
        # well above |t| ||op||_1 / s), falling by at least half per term,
        # 2 EPS ||stack|| in all; over the s steps 2 s EPS ||stack||.
        s = select_taylor_params(abs(t) * plan.p_op.one_norm_upper_bound).s
        tol = 2 * s * EPS * np.linalg.norm(got)
    for i in np.ndindex(batch):
        want = one_shot(x, xi, etas[i], t)
        if kind == "gl-taylor":
            assert np.linalg.norm(got[i] - want) <= tol
        else:
            assert np.array_equal(got[i], want)


@given(kind=st.sampled_from(sorted(CASES)), t=TIMES, seed=st.integers(0, 2 ** 16))
def test_plan_geodesic_matches_the_one_shot_functions(kind, t, seed):
    geom, q, x, xi, _, _ = instance(kind, seed, ())
    plan = make_transport_plan(geom, x, xi, q)
    assert np.array_equal(plan.geodesic(t), group_core.geodesic(geom, x, xi, t))
    for got, want in zip(plan.geodesic_velocity(t),
                         group_core.geodesic_velocity(geom, x, xi, t)):
        assert np.array_equal(got, want)


# every matrix is tangent to GL, and a group has no vertical vectors
FAULTS = [(kind, fault) for kind in sorted(CASES)
          for fault in ("nan", "off-algebra", "vertical")
          if not (fault == "off-algebra" and kind.startswith("gl"))
          and not (fault == "vertical" and "quotient" not in kind)]


@pytest.mark.parametrize("t", [0.0, 1.5])
@pytest.mark.parametrize("kind, fault", FAULTS)
def test_bad_eta_inside_a_stack_is_named(rng, kind, fault, t):
    geom, q, x, xi, etas, _ = instance(kind, int(rng.integers(2 ** 16)), (2, 3))
    n = geom.n
    if fault == "nan":
        etas[1, 2, 0, -1] = np.nan
        message = "^eta has non-finite"
    elif fault == "off-algebra":
        etas[1, 2] = x @ rng.standard_normal((n, n))
        message = "^eta is not tangent: algebra residual"
    else:
        etas[1, 2] = x @ q.proj_k(asym(rng.standard_normal((n, n))))
        message = "^eta is not horizontal: residual"
    plan = make_transport_plan(geom, x, xi, q)
    with pytest.raises(ValidationError, match=message):
        transport_with_plan(plan, x, etas, t)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_refuses_another_point(kind):
    geom, q, x, xi, etas, _ = instance(kind, 7, (2,))
    plan = make_transport_plan(geom, x, xi, q)
    assert np.array_equal(transport_with_plan(plan, x.copy(), etas, 1.0),
                          transport_with_plan(plan, x, etas, 1.0))
    other = x.copy()
    other[0, 0] += 1e-15
    with pytest.raises(ValidationError, match="^x is not the base point"):
        transport_with_plan(plan, other, etas, 1.0)


def test_p_a_is_built_once_per_plan(monkeypatch):
    geom, q, x, xi, etas, _ = instance("so", 3, (3,))
    builds = []
    real = group_core.p_a_operator
    monkeypatch.setattr(group_core, "p_a_operator", lambda *args: builds.append(1)
                        or real(*args))
    plan = make_transport_plan(geom, x, xi)
    transport_with_plan(plan, x, etas, 0.0)
    assert builds == []
    for t in (1.0, -2.0, 5.0):
        transport_with_plan(plan, x, etas, t)
    assert len(builds) == 1
