"""scipy.integrate, and the scipy.optimize it loads, are imported only
when the RK oracle or the quotient ODE fallback first runs, and solve_ivp
is looked up on scipy.integrate at each call, so a wrapper set there with
setattr (as the benchmark's tracer sets one) sees every call."""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

from manitrans import group_core, oracle
from manitrans.quotient import flag_quotient

from helpers import random_so
from test_quotient import horizontal_vector

SRC = pathlib.Path(__file__).parent.parent / "src"
LAZY = ("scipy.integrate", "scipy.optimize")

# One closed-form call per family, in a fresh interpreter, then `trigger`;
# prints which LAZY modules were loaded before and after the trigger.
SCRIPT = """
import json, sys
import numpy as np
import manitrans
from manitrans import flag_grassmann, gl_so, group_core, oracle, quotient, stiefel
from manitrans.utils import asym

LAZY = {lazy!r}
rng = np.random.default_rng(0)

def frame(n, d):
    return np.linalg.qr(rng.standard_normal((n, d)))[0]

def rotation(n):
    x = frame(n, n)
    x[:, 0] *= np.sign(np.linalg.det(x))
    return x

y = frame(9, 3)
xi, eta = (stiefel.project_tangent(y, rng.standard_normal((9, 3))) for _ in range(2))
stiefel.stiefel_transport(y, xi, eta, stiefel.StiefelMetricParams(0.8), 1.0)
sig = flag_grassmann.FlagSignature((2, 1), 9)
xi, eta = (flag_grassmann.flag_horizontal_project(sig, y, rng.standard_normal((9, 3)))
           for _ in range(2))
flag_grassmann.flag_transport_canonical(sig, y, xi, eta, 1.0)
xi, eta = (w - y @ (y.T @ w) for w in rng.standard_normal((2, 9, 3)))
flag_grassmann.grassmann_transport(y, xi, eta, 1.0)
x = rotation(6)
so = gl_so.SOGeometry(6, 2, 0.8)
gl_so.so_transport(so, x, *(x @ asym(w) for w in rng.standard_normal((2, 6, 6))), 1.0)
gl = gl_so.GLGeometry(6, 0.5)
x = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
gl_so.gl_transport(gl, x, *rng.standard_normal((2, 6, 6)), 1.0)
generic = group_core.GroupGeometry(split=gl.split, params=gl.params)
group_core.transport(generic, x, *rng.standard_normal((2, 6, 6)), 1.0)
q = quotient.stiefel_quotient(12, 4, 0.8)
x = rotation(12)
quotient.quotient_transport(
    q, x, *(x @ q.proj_m(asym(w)) for w in rng.standard_normal((2, 12, 12))), 1.0)
before = [m for m in LAZY if m in sys.modules]
{trigger}
print(json.dumps([before, [m for m in LAZY if m in sys.modules]]))
"""

TRIGGERS = {
    "quotient-ode": """
q = quotient.flag_quotient(7, (2, 2), 0.8)
assert not q.simplified_ok
x = rotation(7)
quotient.quotient_transport(
    q, x, *(x @ q.proj_m(asym(w)) for w in rng.standard_normal((2, 7, 7))), 1.0)
""",
    "oracle": """
oracle.integrate_transport(lambda p, v, w: np.zeros_like(w),
                           lambda t: (np.eye(2), np.eye(2)), np.eye(2), [0.0, 1.0])
""",
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_closed_forms_leave_integrate_unloaded(trigger):
    # a clean interpreter: this one has loaded scipy.integrate already
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(lazy=LAZY, trigger=TRIGGERS[trigger])],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.splitlines()[-1])
    assert before == []
    assert after == list(LAZY)


@pytest.fixture
def solve_ivp_calls(monkeypatch):
    """Calls of scipy.integrate.solve_ivp through a wrapper set by setattr."""
    calls = []
    real = scipy.integrate.solve_ivp
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_quotient_ode_calls_solve_ivp_once_per_vector(rng, solve_ivp_calls):
    q = flag_quotient(7, (2, 2), 0.8)
    x = random_so(rng, 7)
    plan = group_core.make_transport_plan(q.geom, x, horizontal_vector(rng, q, x), q)
    eta = np.stack([horizontal_vector(rng, q, x) for _ in range(3)])
    group_core.transport_with_plan(plan, plan.point, eta, 1.0)
    assert len(solve_ivp_calls) == 3


def test_oracle_calls_solve_ivp_once(solve_ivp_calls):
    oracle.integrate_transport(lambda p, v, w: np.zeros_like(w),
                               lambda t: (np.eye(2), np.eye(2)), np.eye(2), [0.0, 0.5, 1.0])
    assert len(solve_ivp_calls) == 1
