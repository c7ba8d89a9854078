"""Spans and counts recorded from outside the library.

`installed(tracer)` replaces public module attributes with wrappers for
the duration of a `with` block and restores the originals afterwards.  A
wrapper records a span (name, start, end, parent, call id) only while a
timed call is open; outside one it calls straight through.  Spans stay in
memory until the run writes them out.

Self time follows the child-coverage rule: a span's duration minus the
part of its interval covered by its direct children.  The self times of
all spans of one call add up to the call's wall time; the call's own self
time is the entry point's code outside every wrapped function, reported
as glue.
"""
import contextlib
import dataclasses
import functools
import inspect
import time
from collections import Counter

import numpy as np
import scipy.integrate
import scipy.linalg

from manitrans import (expaction, flag_grassmann, gl_so, group_core, quotient,
                       stiefel)

from workloads import FAMILY_MODULE

# (module, attribute) wrapped with a plain span named "<module>.<attribute>".
PLAIN = (
    (expaction, "matrix_exponential"),
    (stiefel, "check_point"),
    (stiefel, "decompose_tangent"),
    (stiefel, "make_transport_plan"),
    (stiefel, "transport_with_plan"),
    (flag_grassmann, "check_point"),
    (flag_grassmann, "decompose_tangent"),
    (flag_grassmann, "check_horizontal"),
    (gl_so, "so_transport_operator"),
    (gl_so, "gl_transport_operator"),
    (group_core, "transport_operator"),
    (group_core, "to_algebra"),
    (quotient, "horizontal_transport_operator"),
    (quotient, "to_algebra"),
)

ROOT = "call."


class Tracer:
    """In-memory span store plus per-pass counters."""

    def __init__(self):
        self.names, self.start, self.end = [], [], []
        self.parent, self.call = [], []
        self.counts = Counter()
        self._stack = []
        self._module = []      # module owning each open span
        self._calls = 0

    @property
    def recording(self):
        return bool(self._stack)

    @property
    def module(self):
        """Module of the innermost open span."""
        return self._module[-1]

    def open(self, name, module=None):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._calls)
        self.end.append(0.0)
        self._stack.append(idx)
        self._module.append(module or name.split(".", 1)[0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._module.pop()

    def leaf(self, name, start, end):
        """Append a finished span that has no children (one matvec)."""
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.call.append(self._calls)
        self.start.append(start)
        self.end.append(end)

    def open_call(self, family):
        self._calls += 1
        return self.open(ROOT + family, FAMILY_MODULE[family])

    def self_times(self):
        """Self time of every span, by the child-coverage rule."""
        start, end = np.array(self.start), np.array(self.end)
        children = {}
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children.setdefault(par, []).append(idx)
        out = end - start
        for par, kids in children.items():
            covered, reach = 0.0, start[par]
            for k in sorted(kids, key=lambda i: start[i]):
                lo, hi = max(start[k], reach), min(end[k], end[par])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[par] -= covered
        return out

    def dump(self):
        """Spans as a name table plus rows (name id, start, end, parent, call)."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        rows = [[ids[n], s - t0, e - t0, p, c] for n, s, e, p, c in
                zip(self.names, self.start, self.end, self.parent, self.call)]
        return {"names": table, "columns": ["name", "start_s", "end_s", "parent", "call"],
                "spans": rows}


def _plain(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    return wrapper


def _by_caller(tracer, suffix, fn):
    """Span named after the module of the calling span, for shared scipy
    routines (expm, solve_ivp)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        module = tracer.module
        tracer.counts[f"{module}.{suffix}_calls"] += 1
        idx = tracer.open(f"{module}.{suffix}", module)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _counting_apply(tracer, apply, counter, span):
    counts, clock = tracer.counts, time.perf_counter

    def counted(v):
        counts[counter] += 1
        return apply(v)

    def spanned(v):
        counts[counter] += 1
        start = clock()
        try:
            return apply(v)
        finally:
            tracer.leaf("expaction.apply", start, clock())
    return spanned if span else counted


def _expa(tracer, fn):
    @functools.wraps(fn)
    def wrapper(op, b, t=1.0, tolerance_class="double", params=None):
        if not tracer.recording:
            return fn(op, b, t, tolerance_class, params)
        counted = dataclasses.replace(
            op, apply=_counting_apply(tracer, op.apply, "expaction.matvecs", span=True))
        idx = tracer.open("expaction.expa")
        try:
            out = fn(counted, b, t, tolerance_class, params)
        finally:
            tracer.close(idx)
        chosen = params or expaction.select_taylor_params(
            abs(t) * op.one_norm_upper_bound, tolerance_class)
        tracer.counts["expaction.taylor_budget"] += chosen.m_star * chosen.s
        tracer.counts["expaction.dense_fallbacks"] += int(
            int(np.prod(op.domain_shape)) <= expaction.DENSE_FALLBACK_ENTRIES
            and chosen.s > expaction.DENSE_FALLBACK_SCALINGS)
        return out
    return wrapper


def _exhaustive(tracer, fn):
    @functools.wraps(fn)
    def wrapper(op, *args, **kwargs):
        if not tracer.recording:
            return fn(op, *args, **kwargs)
        counted = dataclasses.replace(op, apply=_counting_apply(
            tracer, op.apply, "expaction.exhaustive_norm_applies", span=False))
        idx = tracer.open("expaction.exhaustive_norm")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _after_decompose(tracer):
    def after(args, kwargs, dec):
        tracer.counts["stiefel.rank_k_sum"] += dec.k
    return after


def _after_plan(tracer):
    def after(args, kwargs, plan):
        tracer.counts["stiefel.plans"] += 1
    return after


def _after_transport(tracer):
    """Computed flops and bytes of the n-sized products [Y|Q]^T eta,
    [Y|Q] @ coeff and eta @ e_normal: float64, [Y|Q] and eta read by
    each product that uses them, the n x d result written once per
    vector."""
    signature = inspect.signature(stiefel.transport_with_plan)

    def after(args, kwargs, out):
        bound = signature.bind(*args, **kwargs).arguments
        plan, eta, t = bound["plan"], bound["eta"], bound["t"]
        if t == 0.0:
            return
        n, d = plan.basis.shape[0], plan.decomposition.d
        dk = plan.basis.shape[1]
        batch = int(np.prod(np.shape(eta)[:-2], dtype=int))
        tracer.counts["stiefel.products_flop"] += 2 * n * d * batch * (2 * dk + d)
        tracer.counts["stiefel.products_bytes"] += 8 * (2 * n * dk + 2 * n * d * batch
                                                        + n * d * batch)
    return after


@contextlib.contextmanager
def installed(tracer):
    """Wrap the traced attributes; restore the originals on exit."""
    after = {
        (stiefel, "decompose_tangent"): _after_decompose(tracer),
        (stiefel, "make_transport_plan"): _after_plan(tracer),
        (stiefel, "transport_with_plan"): _after_transport(tracer),
    }
    targets = [(mod, attr, _plain(tracer, f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}",
                                  getattr(mod, attr), after.get((mod, attr))))
               for mod, attr in PLAIN]
    targets += [
        (expaction, "expa", _expa(tracer, expaction.expa)),
        (expaction, "one_norm_estimate_exhaustive",
         _exhaustive(tracer, expaction.one_norm_estimate_exhaustive)),
        (scipy.linalg, "expm", _by_caller(tracer, "expm", scipy.linalg.expm)),
        (scipy.integrate, "solve_ivp",
         _by_caller(tracer, "solve_ivp", scipy.integrate.solve_ivp)),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, wrapper in targets:
            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in originals:
            setattr(mod, attr, original)
