"""Shared constructions for the test suite."""
import numpy as np

from manitrans.stiefel import project_tangent
from manitrans.utils import asym


def random_stiefel(rng, n, d):
    return np.linalg.qr(rng.standard_normal((n, d)))[0]


def random_stiefel_tangent(rng, y):
    return project_tangent(y, rng.standard_normal(y.shape))


def random_so(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_so_tangent(rng, x):
    return x @ asym(rng.standard_normal((x.shape[0], x.shape[0])))


def random_glp(rng, n, spread=0.4):
    """A well-conditioned point with positive determinant."""
    x = np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    if np.linalg.det(x) < 0:
        x[:, 0] = -x[:, 0]
    return x


def rel_err(got, want):
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / scale


def poisoned(name, value=np.nan, **arrays):
    """The keyword arrays, with one non-finite entry put into `name`."""
    out = dict(arrays)
    out[name] = np.array(out[name], dtype=float)
    out[name][0, -1] = value
    return out
