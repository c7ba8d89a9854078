"""Benchmark and verification harness.

Subcommands:
  bench     -- median wall time of one transport evaluation per grid time
  isometry  -- Gram-matrix drift of a transported vector set per grid time
  verify    -- closed-form transport vs the dense ODE oracle (small sizes)

All results go to CSV (stdout by default).  Exit code 0 on success, 2 on a
configuration error, 3 on a verification failure.
"""
import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import flag_grassmann as fg
from . import gl_so, group_core, oracle, stiefel
from .errors import ConfigError
from .stiefel import StiefelMetricParams
from .utils import asym, sym

CSV_SCHEMA_COMMENT = "# manitrans-bench v1"
TANGENCY_GATE = 1e-9
ORACLE_SIZE_CAP = 64

MANIFOLDS = ("stiefel", "flag", "grassmann", "so", "gl")


@dataclass(frozen=True)
class BenchConfig:
    manifold: str
    n: int = 0
    d: int = 0
    d_list: tuple = ()
    alpha: float = 0.5
    beta: float = 0.5
    t_grid: tuple = (0.5, 1.0, 2.0, 5.0, 20.0)
    num_vectors: int = 20
    seed: int = 42
    repeats: int = 5
    output_path: str = ""

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ConfigError(f"unknown manifold {self.manifold!r}")
        if len(self.t_grid) == 0 or any(
                b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.num_vectors < 1:
            raise ConfigError("num_vectors must be at least 1")


class _Unplanned:
    """For geometries without a transport plan: the plan is the velocity
    and each timed call is the full transport."""

    def make_plan(self, y, xi):
        return xi

    def transport_with_plan(self, plan, y, eta, t):
        return self.transport(y, plan, eta, t)


class _StiefelAdapter:
    """Bench adapter: point/tangent sampling, transport, metric, checks."""

    name = "stiefel"

    def __init__(self, config):
        if not (0 < config.d < config.n):
            raise ConfigError("stiefel needs 0 < d < n")
        self.n, self.d = config.n, config.d
        self.params = StiefelMetricParams(config.alpha)
        self.alpha = config.alpha

    def random_point(self, rng):
        return np.linalg.qr(rng.standard_normal((self.n, self.d)))[0]

    def random_tangent(self, rng, y):
        return stiefel.project_tangent(y, rng.standard_normal(y.shape))

    def metric(self, y, xi, eta):
        return stiefel.metric_inner(y, xi, eta, self.params)

    def geodesic(self, y, xi, t):
        return stiefel.stiefel_geodesic(y, xi, self.params, t)

    def geodesic_velocity(self, y, xi, t):
        return stiefel.stiefel_geodesic_velocity(y, xi, self.params, t)

    def make_plan(self, y, xi):
        return stiefel.make_transport_plan(y, xi, self.params)

    def transport_with_plan(self, plan, y, eta, t):
        return stiefel.transport_with_plan(plan, y, eta, t)

    def transport(self, y, xi, eta, t):
        return stiefel.stiefel_transport(y, xi, eta, self.params, t)

    def christoffel(self, y, xi, eta):
        return stiefel.stiefel_christoffel(y, xi, eta, self.params)

    def tangency_residual(self, point, delta):
        return float(np.linalg.norm(sym(point.T @ delta)))

    def describe(self):
        return {"n": self.n, "d": self.d, "alpha": self.alpha, "beta": ""}


class _FlagAdapter(_StiefelAdapter):

    name = "flag"

    def __init__(self, config):
        if not config.d_list:
            raise ConfigError("flag needs --d-list")
        self.sig = fg.FlagSignature(d_list=tuple(config.d_list), n=config.n)
        self.n, self.d = config.n, self.sig.d
        if config.alpha != fg.CANONICAL_ALPHA:
            raise ConfigError("closed-form flag transport needs alpha = 1/2")
        self.alpha = config.alpha
        self.params = StiefelMetricParams(config.alpha)

    def random_tangent(self, rng, y):
        return fg.flag_horizontal_project(self.sig, y, rng.standard_normal(y.shape))

    def make_plan(self, y, xi):
        return fg.flag_transport_plan(self.sig, y, xi)

    def transport(self, y, xi, eta, t):
        return fg.flag_transport_canonical(self.sig, y, xi, eta, t)

    def christoffel(self, y, xi, eta):
        return fg.flag_christoffel(self.sig, y, xi, eta, self.params,
                                   validate=False)

    def tangency_residual(self, point, delta):
        coeff = point.T @ delta
        return float(max(np.linalg.norm(sym(coeff)),
                         np.linalg.norm(asym(coeff)[self.sig.block_mask])))

    def describe(self):
        return {"n": self.n, "d": "+".join(str(x) for x in self.sig.d_list),
                "alpha": self.alpha, "beta": ""}


class _GrassmannAdapter(_Unplanned, _FlagAdapter):
    """Gr(n, d) as the one-block flag, with its closed-form transport."""

    name = "grassmann"

    def __init__(self, config):
        if not (0 < config.d < config.n):
            raise ConfigError("grassmann needs 0 < d < n")
        self.n, self.d = config.n, config.d
        self.alpha = 0.5
        self.params = StiefelMetricParams(0.5)
        self.sig = fg.FlagSignature(d_list=(self.d,), n=self.n)

    def random_tangent(self, rng, y):
        w = rng.standard_normal(y.shape)
        return w - y @ (y.T @ w)

    def transport(self, y, xi, eta, t):
        return fg.grassmann_transport(y, xi, eta, t)

    def tangency_residual(self, point, delta):
        return float(np.linalg.norm(point.T @ delta))


class _SOAdapter(_Unplanned):

    name = "so"

    def __init__(self, config):
        if not (0 < config.d < config.n):
            raise ConfigError("so needs 0 < d < n")
        self.geom = gl_so.SOGeometry(n=config.n, d=config.d, alpha=config.alpha)
        self.n, self.d = config.n, config.d
        self.alpha = config.alpha

    def random_point(self, rng):
        q = np.linalg.qr(rng.standard_normal((self.n, self.n)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    def random_tangent(self, rng, x):
        return x @ asym(rng.standard_normal((self.n, self.n)))

    def metric(self, x, xi, eta):
        return gl_so.so_metric(self.geom, x.T @ xi, x.T @ eta)

    def geodesic(self, x, xi, t):
        return gl_so.so_geodesic(self.geom, x, xi, t)

    def geodesic_velocity(self, x, xi, t):
        return gl_so.so_geodesic_velocity(self.geom, x, xi, t)

    def transport(self, x, xi, eta, t):
        return gl_so.so_transport(self.geom, x, xi, eta, t)

    def christoffel(self, x, xi, eta):
        return group_core.christoffel(self.geom, x, xi, eta, validate=False)

    def tangency_residual(self, point, delta):
        m = point.T @ delta
        return float(np.linalg.norm(m + m.T))

    def describe(self):
        return {"n": self.n, "d": self.d, "alpha": self.alpha, "beta": ""}


class _GLAdapter(_Unplanned):

    name = "gl"

    def __init__(self, config):
        if config.n < 1:
            raise ConfigError("gl needs n >= 1")
        self.geom = gl_so.GLGeometry(n=config.n, beta=config.beta)
        self.n, self.d = config.n, config.n
        self.beta = config.beta

    def random_point(self, rng):
        x = rng.standard_normal((self.n, self.n)) / np.sqrt(self.n)
        x = x + 2.0 * np.eye(self.n)  # comfortably inside GL+
        if np.linalg.det(x) < 0:
            x[:, 0] = -x[:, 0]
        return x

    def random_tangent(self, rng, x):
        return x @ rng.standard_normal((self.n, self.n))

    def metric(self, x, xi, eta):
        return gl_so.gl_metric(self.geom, np.linalg.solve(x, xi),
                               np.linalg.solve(x, eta))

    def geodesic(self, x, xi, t):
        return gl_so.gl_geodesic(self.geom, x, xi, t)

    def geodesic_velocity(self, x, xi, t):
        return group_core.geodesic_velocity(self.geom, x, xi, t)

    def transport(self, x, xi, eta, t):
        return gl_so.gl_transport(self.geom, x, xi, eta, t)

    def christoffel(self, x, xi, eta):
        return group_core.christoffel(self.geom, x, xi, eta, validate=False)

    def tangency_residual(self, point, delta):
        # every ambient matrix is tangent on GL+; check finiteness only
        return 0.0 if np.all(np.isfinite(delta)) else np.inf

    def describe(self):
        return {"n": self.n, "d": "", "alpha": "", "beta": self.beta}


_ADAPTERS = {
    "stiefel": _StiefelAdapter,
    "flag": _FlagAdapter,
    "grassmann": _GrassmannAdapter,
    "so": _SOAdapter,
    "gl": _GLAdapter,
}


def make_adapter(config):
    return _ADAPTERS[config.manifold](config)


def _unit_tangent(adapter, rng, y):
    xi = adapter.random_tangent(rng, y)
    return xi / np.sqrt(adapter.metric(y, xi, xi))


def _scaled_tangents(adapter, rng, y, count, lengths):
    out = []
    for i in range(count):
        v = _unit_tangent(adapter, rng, y)
        out.append(lengths[i] * v)
    return out


def run_timing(config):
    """Median transport wall time per grid time; one warm-up call first.

    Every row's residual_check must pass; a failing residual aborts with a
    verification error rather than reporting the timing.
    """
    adapter = make_adapter(config)
    rng = np.random.default_rng(config.seed)
    y = adapter.random_point(rng)
    xi = _unit_tangent(adapter, rng, y)
    eta = _unit_tangent(adapter, rng, y)

    rows = []
    desc = adapter.describe()
    plan = adapter.make_plan(y, xi)
    adapter.transport_with_plan(plan, y, eta, config.t_grid[0])  # warm-up
    for t in config.t_grid:
        times = []
        delta = None
        for _ in range(config.repeats):
            start = time.perf_counter()
            delta = adapter.transport_with_plan(plan, y, eta, t)
            times.append(time.perf_counter() - start)
        gam = adapter.geodesic(y, xi, t)
        residual = adapter.tangency_residual(gam, delta)
        ok = residual <= TANGENCY_GATE * max(1.0, float(np.linalg.norm(delta)))
        if not ok:
            raise VerificationFailure(
                f"tangency residual {residual:.3e} at t={t} fails the gate")
        rows.append({
            "manifold": adapter.name, **desc, "t": t,
            "median_seconds": float(np.median(times)),
            "residual_check": "pass",
        })
    return rows


def run_isometry(config):
    """Gram drift of a transported vector set along the geodesic.

    Vector lengths are integers in [1, 60] (Gaussian directions); the
    geodesic velocity has unit length.  Emits log10 of the max drift.
    """
    adapter = make_adapter(config)
    rng = np.random.default_rng(config.seed)
    y = adapter.random_point(rng)
    xi = _unit_tangent(adapter, rng, y)
    lengths = rng.integers(1, 61, size=config.num_vectors)
    vectors = _scaled_tangents(adapter, rng, y, config.num_vectors, lengths)

    plan = adapter.make_plan(y, xi)
    stacked = np.stack(vectors)
    transported = []
    points = []
    for t in config.t_grid:
        points.append(adapter.geodesic(y, xi, t))
        if adapter.name in ("stiefel", "flag"):
            moved = adapter.transport_with_plan(plan, y, stacked, t)
            transported.append([moved[i] for i in range(len(vectors))])
        else:
            transported.append(
                [adapter.transport_with_plan(plan, y, v, t) for v in vectors])
    drifts = oracle.gram_drift(
        vectors, transported, metric=adapter.metric,
        points=points, initial_point=y)

    rows = []
    desc = adapter.describe()
    for t, drift in zip(config.t_grid, drifts):
        rows.append({
            "manifold": adapter.name, **desc, "t": t,
            "max_gram_drift": drift,
            "log10_gram_drift": float(np.log10(drift)) if drift > 0 else -np.inf,
        })
    return rows


def run_verify(config):
    """Closed-form transport vs the dense ODE oracle on one instance."""
    if config.n > ORACLE_SIZE_CAP:
        raise ConfigError(
            f"verify caps n at {ORACLE_SIZE_CAP} for the dense oracle; "
            f"got n={config.n}")
    adapter = make_adapter(config)
    rng = np.random.default_rng(config.seed)
    y = adapter.random_point(rng)
    xi = _unit_tangent(adapter, rng, y)
    eta = _unit_tangent(adapter, rng, y)

    t_grid = np.array([t for t in config.t_grid])
    grid = np.concatenate([[0.0], t_grid])
    reference = oracle.integrate_transport(
        adapter.christoffel, lambda t: adapter.geodesic_velocity(y, xi, t),
        eta, grid)

    dt = 1e-3
    fd_end = max(3 * dt, min(0.1, t_grid[-1]))
    fd_grid = np.arange(0.0, fd_end + dt / 2, dt)
    deltas = [adapter.transport(y, xi, eta, t) for t in fd_grid]
    gammas = [adapter.geodesic(y, xi, t) for t in fd_grid]
    fd_residual = oracle.transport_residual(
        deltas, gammas, adapter.christoffel, dt)

    rows = []
    desc = adapter.describe()
    for idx, t in enumerate(t_grid, start=1):
        delta = adapter.transport(y, xi, eta, t)
        gam = adapter.geodesic(y, xi, t)
        rows.append({
            "manifold": adapter.name, **desc, "t": t,
            "oracle_error": float(np.linalg.norm(delta - reference[idx])),
            "fd_residual": fd_residual,
            "tangency_residual": adapter.tangency_residual(gam, delta),
        })
    return rows


class VerificationFailure(RuntimeError):
    pass


def write_csv(rows, path=""):
    """CSV with a schema comment line; floats in shortest round-trip form."""
    if not rows:
        return
    cols = list(rows[0].keys())
    lines = [CSV_SCHEMA_COMMENT, ",".join(cols)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, float) else str(v) for v in
            (row[c] for c in cols)))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc


def _parse_dlist(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad block list {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="manitrans-bench",
        description="timing, isometry and verification sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("bench", "timing grid"),
                      ("isometry", "Gram-drift experiment"),
                      ("verify", "oracle verification")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--manifold", required=True, choices=MANIFOLDS)
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--d", type=int, default=0)
        p.add_argument("--d-list", type=str, default="")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--t-grid", type=str, default="0.5,1,2,5,20")
        p.add_argument("--vectors", type=int, default=20)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--repeats", type=int, default=5)
        p.add_argument("--out", type=str, default="")
    return parser


def config_from_args(args):
    return BenchConfig(
        manifold=args.manifold, n=args.n, d=args.d,
        d_list=_parse_dlist(args.d_list) if args.d_list else (),
        alpha=args.alpha, beta=args.beta,
        t_grid=_parse_grid(args.t_grid),
        num_vectors=args.vectors, seed=args.seed, repeats=args.repeats,
        output_path=args.out)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        runner = {"bench": run_timing,
                  "isometry": run_isometry,
                  "verify": run_verify}[args.command]
        rows = runner(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    write_csv(rows, config.output_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
