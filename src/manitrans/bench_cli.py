"""Benchmark and verification harness.

Subcommands:
  bench     -- median wall time of one transport evaluation per grid time
  isometry  -- Gram-matrix drift of a transported vector set per grid time
  verify    -- closed-form transport vs the dense ODE oracle (small n, t >= 0)

All results go to CSV (stdout by default).  Exit code 0 on success, 2 on a
configuration error (a bad option, or arguments the library rejects when
the geometry is built), 3 on a verification failure.
"""
import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import flag_grassmann as fg
from . import gl_so, group_core, oracle, stiefel
from .errors import ConfigError, DimensionError, ValidationError
from .utils import TANGENT_RTOL, asym, check_size, sym

CSV_SCHEMA_COMMENT = "# manitrans-bench v1"
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
        if not np.all(np.isfinite(self.t_grid)):
            raise ConfigError(f"t_grid must be finite, got {self.t_grid}")
        if len(self.t_grid) == 0 or any(
                b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.num_vectors < 1:
            raise ConfigError("num_vectors must be at least 1")


@dataclass(frozen=True)
class Adapter:
    """One manifold's library calls, as the runners make them.  The one
    geodesic seam sets up a geodesic once and returns its transport, which
    moves vector stacks, and its velocity."""
    random_point: Callable       # rng -> point
    random_tangent: Callable     # (rng, y) -> tangent at y
    metric: Callable             # (y, xi, eta) -> values between stacks
    geodesic: Callable           # (y, xi) -> (f(etas, t), etas stacked;
                                 #   t -> (gamma(t), dgamma/dt))
    christoffel: Callable        # (y, xi, eta), for the oracle
    tangency_residual: Callable  # (point, delta) -> 0 for a tangent delta
    columns: dict                # the CSV columns describing the instance


def _geodesic_seam(module, make_plan):
    """geodesic(y, xi): one plan per geodesic (make_plan(y, xi)), whose
    transport moves vector stacks, and its velocity."""
    def geodesic(y, xi):
        plan = make_plan(y, xi)
        # looked up per call, so the plan engine can be substituted
        return (lambda etas, t: module.transport_with_plan(
            plan, plan.point, etas, t), plan.geodesic_velocity)
    return geodesic


def _stiefel_coordinates(config, d_list, params, make_plan, mask=None,
                         **fields):
    """What manifolds in Stiefel coordinates share: QR points, the metric
    at params, one Stiefel plan per geodesic, the library's tangency
    residual (horizontality with a flag block mask) and the CSV columns,
    d_list joined by '+'."""
    return Adapter(
        random_point=lambda rng: np.linalg.qr(
            rng.standard_normal((config.n, sum(d_list))))[0],
        metric=partial(stiefel.metric_inner, params=params),
        geodesic=_geodesic_seam(stiefel, make_plan),
        tangency_residual=lambda point, delta: float(
            stiefel.coefficient_residual(point.T @ delta, mask)),
        columns={"n": config.n, "d": "+".join(map(str, d_list)),
                 "alpha": config.alpha, "beta": ""},
        **fields)


def _stiefel(config):
    if not (0 < config.d < config.n):
        raise ConfigError("stiefel needs 0 < d < n")
    params = stiefel.StiefelMetricParams(config.alpha)
    return _stiefel_coordinates(
        config, (config.d,), params,
        random_tangent=lambda rng, y: stiefel.project_tangent(
            y, rng.standard_normal(y.shape)),
        make_plan=partial(stiefel.make_transport_plan, params=params),
        christoffel=partial(stiefel.stiefel_christoffel, params=params))


def _canonical(config, sig):
    """Flag manifolds, Grassmann included, under the canonical metric."""
    if config.alpha != fg.CANONICAL_ALPHA:
        raise ConfigError(f"closed-form {config.manifold} transport needs "
                          f"alpha = 1/2, got alpha={config.alpha}")
    params = stiefel.StiefelMetricParams(fg.CANONICAL_ALPHA)
    return _stiefel_coordinates(
        config, sig.d_list, params,
        random_tangent=lambda rng, y: fg.flag_horizontal_project(
            sig, y, rng.standard_normal(y.shape)),
        make_plan=partial(fg.flag_transport_plan, sig),
        christoffel=partial(fg.flag_christoffel, sig, params=params,
                            validate=False),
        mask=sig.block_mask)


def _flag(config):
    return _canonical(config, fg.FlagSignature(d_list=tuple(config.d_list),
                                               n=config.n))


def _grassmann(config):
    """Gr(n, d) as the one-block flag; d is refused by its own name."""
    check_size(config.d, "d")
    return _canonical(config, fg.FlagSignature(d_list=(config.d,), n=config.n))


def _positive_det(x):
    if np.linalg.det(x) < 0:
        x[:, 0] = -x[:, 0]
    return x


def _group(geom, **fields):
    """The metric, plans and Christoffel function of geom.  SO keeps its
    own residual, ||X^T d + d^T X||_F: twice the library's, whose gate
    would be twice as loose."""
    return Adapter(
        metric=partial(group_core.metric, geom),
        geodesic=_geodesic_seam(
            group_core, partial(group_core.make_transport_plan, geom)),
        christoffel=partial(group_core.christoffel, geom, validate=False),
        **fields)


def _so(config):
    n = config.n
    return _group(
        gl_so.SOGeometry(n=n, d=config.d, alpha=config.alpha),
        random_point=lambda rng: _positive_det(
            np.linalg.qr(rng.standard_normal((n, n)))[0]),
        random_tangent=lambda rng, x: x @ asym(rng.standard_normal((n, n))),
        tangency_residual=lambda point, delta: 2.0 * float(
            np.linalg.norm(sym(point.T @ delta))),
        columns={"n": n, "d": config.d, "alpha": config.alpha, "beta": ""})


def _gl(config):
    n = config.n
    return _group(
        gl_so.GLGeometry(n=n, beta=config.beta),
        random_point=lambda rng: _positive_det(  # comfortably inside GL+
            rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)),
        random_tangent=lambda rng, x: x @ rng.standard_normal((n, n)),
        # every ambient matrix is tangent on GL+; check finiteness only
        tangency_residual=lambda point, delta: (
            0.0 if np.all(np.isfinite(delta)) else np.inf),
        columns={"n": n, "d": "", "alpha": "", "beta": config.beta})


_BUILDERS = {"stiefel": _stiefel, "flag": _flag, "grassmann": _grassmann,
             "so": _so, "gl": _gl}


def make_adapter(config):
    """The Adapter of config.manifold; the library's argument errors
    become ConfigErrors carrying its message."""
    try:
        return _BUILDERS[config.manifold](config)
    except (ValidationError, DimensionError) as exc:
        raise ConfigError(f"{config.manifold}: {exc}") from exc


def _unit_tangent(adapter, rng, y):
    xi = adapter.random_tangent(rng, y)
    return xi / np.sqrt(adapter.metric(y, xi, xi))


def _instance(config):
    """Adapter, seeded generator, point y, and the transport and velocity
    of the geodesic from y with a unit velocity."""
    adapter = make_adapter(config)
    rng = np.random.default_rng(config.seed)
    y = adapter.random_point(rng)
    return (adapter, rng, y, *adapter.geodesic(y, _unit_tangent(adapter, rng, y)))


def _row(config, adapter, t, **values):
    return {"manifold": config.manifold, **adapter.columns, "t": t, **values}


def run_timing(config):
    """Median transport wall time per grid time; one warm-up call first.

    Every call moves the same stack along one plan, so on a Stiefel, flag
    or Grassmann plan each one after the first reuses the kept [Y|Q]^T eta
    and, past rho = 0, the stack's kept leading Chebyshev vectors, up to
    3 n // (d+k) past C_0 (stiefel.transport_with_plan), as a caller moving
    one stack to many t does.

    Every row's residual_check must pass; a failing residual aborts with a
    verification error rather than reporting the timing.
    """
    adapter, rng, y, transport, velocity = _instance(config)
    etas = _unit_tangent(adapter, rng, y)[None]

    rows = []
    transport(etas, config.t_grid[0])  # warm-up
    for t in config.t_grid:
        times = []
        for _ in range(config.repeats):
            start = time.perf_counter()
            delta = transport(etas, t)[0]
            times.append(time.perf_counter() - start)
        gam = velocity(t)[0]
        residual = adapter.tangency_residual(gam, delta)
        if not residual <= TANGENT_RTOL * max(1.0, float(np.linalg.norm(delta))):
            raise VerificationFailure(
                f"tangency residual {residual:.3e} at t={t} fails the gate")
        rows.append(_row(config, adapter, t,
                         median_seconds=float(np.median(times)),
                         residual_check="pass"))
    return rows


def run_isometry(config):
    """Gram drift of a transported vector set along the geodesic.

    Vector lengths are integers in [1, 60] (Gaussian directions); the
    geodesic velocity has unit length.  Emits log10 of the max drift.
    """
    adapter, rng, y, transport, velocity = _instance(config)
    lengths = rng.integers(1, 61, size=config.num_vectors)
    vectors = np.stack([length * _unit_tangent(adapter, rng, y)
                        for length in lengths])
    drifts = oracle.gram_drift(
        vectors, [transport(vectors, t) for t in config.t_grid],
        adapter.metric, [velocity(t)[0] for t in config.t_grid],
        initial_point=y)
    return [_row(config, adapter, t, max_gram_drift=drift,
                 log10_gram_drift=float(np.log10(drift)) if drift > 0 else -np.inf)
            for t, drift in zip(config.t_grid, drifts)]


def run_verify(config):
    """Closed-form transport vs the dense ODE oracle on one instance."""
    if config.n > ORACLE_SIZE_CAP:
        raise ConfigError(
            f"verify caps n at {ORACLE_SIZE_CAP} for the dense oracle; "
            f"got n={config.n}")
    if config.t_grid[0] < 0:
        raise ConfigError(
            f"verify needs t >= 0, the oracle integrating from t = 0; "
            f"got t={config.t_grid[0]}")
    adapter, rng, y, transport, velocity = _instance(config)
    eta = _unit_tangent(adapter, rng, y)

    t_grid = np.array(config.t_grid)
    reference = oracle.integrate_transport(
        adapter.christoffel, velocity, eta, np.concatenate([[0.0], t_grid]))

    dt = 1e-3
    fd_end = max(3 * dt, min(0.1, t_grid[-1]))
    fd_grid = np.arange(0.0, fd_end + dt / 2, dt)
    fd_residual = oracle.transport_residual(
        [transport(eta[None], t)[0] for t in fd_grid],
        [velocity(t)[0] for t in fd_grid],
        adapter.christoffel, dt)

    rows = []
    for idx, t in enumerate(t_grid, start=1):
        delta = transport(eta[None], t)[0]
        gam = velocity(t)[0]
        rows.append(_row(
            config, adapter, t,
            oracle_error=float(np.linalg.norm(delta - reference[idx])),
            fd_residual=fd_residual,
            tangency_residual=adapter.tangency_residual(gam, delta)))
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


# flags whose name is not the BenchConfig field's
_FLAGS = {"num_vectors": "--vectors", "output_path": "--out"}
# argparse reads "-2,1" after a space as an option, so a grid that starts
# below zero needs the "=" form
_HELP = {"t_grid": "comma-separated increasing times; when the first is "
                   "negative, write --t-grid=-2,-0.5,0.5,2"}


def _parse_list(text, kind):
    """Comma-separated values of kind; the empty string is ()."""
    try:
        return tuple(kind(x) for x in text.split(",")) if text else ()
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}") from exc


def build_parser():
    """One subparser per runner; every option is a BenchConfig field, with
    its default, and tuple fields take comma-separated lists."""
    parser = argparse.ArgumentParser(
        prog="manitrans-bench",
        description="timing, isometry and verification sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, runner in (("bench", "timing grid", run_timing),
                              ("isometry", "Gram-drift experiment", run_isometry),
                              ("verify", "oracle verification", run_verify)):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(runner=runner)
        p.add_argument("--manifold", required=True, choices=MANIFOLDS)
        for field in dataclasses.fields(BenchConfig)[1:]:
            flag = _FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
            default = field.default
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            p.add_argument(flag, dest=field.name, type=type(default),
                           default=default, help=_HELP.get(field.name))
    return parser


def config_from_args(args):
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(BenchConfig)}
    return BenchConfig(**{**values, "d_list": _parse_list(args.d_list, int),
                          "t_grid": _parse_list(args.t_grid, float)})


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        rows = args.runner(config)
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
