"""Per-call records of one run and the metrics derived from them.

Every pass makes the same calls on the same inputs, so each call has one
latency sample per pass.  The machine this runs on is shared: its speed
drifts by tens of percent over seconds while each call's fastest sample
stays within a few percent.  A call's latency is therefore its best sample
over the passes of the run (untraced passes for end-to-end metrics), and
the per-layer times of a call come from its fastest traced pass, so that
they add up to that pass's call time.
"""
import time

import numpy as np

import workloads

FAMILIES = tuple(workloads.FAMILY_MODULE)

# metric -> (span names, "total" or "self"); ms per call of the pass
LAYER_TIMES = {
    "stiefel.make_transport_plan_ms": (("stiefel.make_transport_plan",), "total"),
    "stiefel.check_point_ms": (("stiefel.check_point",), "total"),
    "stiefel.decompose_tangent_ms": (("stiefel.decompose_tangent",), "total"),
    "stiefel.transport_with_plan_self_ms": (("stiefel.transport_with_plan",), "self"),
    "stiefel.expm_ms": (("stiefel.expm",), "total"),
    "expaction.expa_ms": (("expaction.expa",), "total"),
    "expaction.expa_self_ms": (("expaction.expa",), "self"),
    "expaction.apply_ms": (("expaction.apply",), "total"),
    "expaction.exhaustive_norm_ms": (("expaction.exhaustive_norm",), "total"),
    "expaction.matrix_exponential_ms": (("expaction.matrix_exponential",), "total"),
    "flag_grassmann.flag_transport_canonical_ms": (("call.flag",), "total"),
    "flag_grassmann.check_horizontal_ms": (("flag_grassmann.check_horizontal",), "total"),
    "flag_grassmann.decompose_tangent_ms": (("flag_grassmann.decompose_tangent",), "total"),
    "flag_grassmann.expm_ms": (("flag_grassmann.expm",), "total"),
    "flag_grassmann.grassmann_transport_ms": (("call.grassmann",), "total"),
    "gl_so.so_transport_ms": (("call.so",), "total"),
    "gl_so.gl_transport_ms": (("call.gl",), "total"),
    "gl_so.operator_build_ms": (("gl_so.so_transport_operator",
                                 "gl_so.gl_transport_operator"), "total"),
    "group_core.transport_ms": (("call.group",), "total"),
    "group_core.transport_operator_ms": (("group_core.transport_operator",), "total"),
    "group_core.to_algebra_ms": (("group_core.to_algebra",), "total"),
    "quotient.quotient_transport_ms": (("call.quotient",), "total"),
    "quotient.horizontal_transport_operator_ms": (
        ("quotient.horizontal_transport_operator",), "total"),
    "trace.call_ms": (tuple(f"call.{f}" for f in FAMILIES), "total"),
    "trace.glue_ms": (tuple(f"call.{f}" for f in FAMILIES), "self"),
}
# metric -> tracer counter; exact counts per pass
LAYER_COUNTS = {
    "stiefel.rank_k_sum": "stiefel.rank_k_sum",
    "stiefel.expm_calls": "stiefel.expm_calls",
    "expaction.matvecs": "expaction.matvecs",
    "expaction.taylor_budget": "expaction.taylor_budget",
    "expaction.dense_fallbacks": "expaction.dense_fallbacks",
    "expaction.exhaustive_norm_applies": "expaction.exhaustive_norm_applies",
    "quotient.ode_fallbacks": "quotient.solve_ivp_calls",
}


class Ledger:
    """Latency of every call of every pass, failures and output digests."""

    def __init__(self, workload):
        self.workload = workload
        self.latency = []       # per pass: seconds per call, in pass order
        self.traced = []        # per pass: whether the tracer was installed
        self.call_ids = []      # per pass: the tracer's id of each call
        self.pass_counts = []   # per traced pass: the tracer's counters
        self.attempted = 0
        self.failures = []
        self._first_digest = {}

    def record_pass(self, tracer=None):
        """Run the workload's calls once, each timed, then checked."""
        seconds, ids = [], []
        for index, call in enumerate(self.workload.calls):
            out, failure = None, None
            root = tracer.open_call(call.family) if tracer else None
            start = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a raising call is a counted failure
                failure = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(root)
                ids.append(tracer.call[root])
            if failure is None:
                failure = self._check(index, call, out)
            self.attempted += 1
            if failure is not None:
                self.failures.append(f"{call.family} {call.geometry} #{index}: {failure}")
            seconds.append(elapsed)
        self.latency.append(seconds)
        self.traced.append(tracer is not None)
        self.call_ids.append(ids)

    def _check(self, index, call, out):
        try:
            failure = call.check(out)
            digest = workloads.digest(out)
        except Exception as exc:  # a check that cannot run fails the call
            return f"check raised {type(exc).__name__}: {exc}"
        if failure is None and self._first_digest.setdefault(index, digest) != digest:
            failure = "output differs bit for bit from the first pass"
        return failure

    def oracle(self):
        """Closed form against the RK oracle, once per family."""
        for family, check in self.workload.oracle_checks:
            self.attempted += 1
            try:
                err = check()
            except Exception as exc:  # counted, like any other failed call
                self.failures.append(f"oracle {family}: raised {type(exc).__name__}: {exc}")
                continue
            if not err <= workloads.ORACLE_TOL:
                self.failures.append(f"oracle {family}: error {err:.3e}")

    def best(self, traced):
        """Per call: its best latency over the (un)traced passes, and the
        index of the pass it came from."""
        rows = [p for p, t in enumerate(self.traced) if t == traced]
        lat = np.array([self.latency[p] for p in rows])
        return lat.min(axis=0), [rows[i] for i in lat.argmin(axis=0)]

    def vectors(self):
        return np.array([c.vectors for c in self.workload.calls])

    def samples(self):
        fam = [c.family for c in self.workload.calls]
        return {"passes_untraced": self.traced.count(False),
                "passes_traced": self.traced.count(True),
                "calls_per_pass": len(fam),
                "calls_timed": len(fam) * len(self.traced),
                "calls_per_pass_by_family": {f: fam.count(f) for f in FAMILIES if f in fam}}


def end_to_end(ledger, setup_s, peak_rss_mb):
    best, _ = ledger.best(traced=False)
    return {
        "vectors_per_s": (float(ledger.vectors().sum() / best.sum()), "1/s"),
        "call_p50_ms": (1e3 * float(np.percentile(best, 50)), "ms"),
        "call_p90_ms": (1e3 * float(np.percentile(best, 90)), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(ledger, tracer):
    """Per-layer metrics, the self-time breakdown of a call (glue is the
    entry points' own code), and any inconsistency found: counts that
    differ between traced passes, or self times that do not add up to the
    traced call time."""
    problems = []
    counts = ledger.pass_counts[0]
    if any(c != counts for c in ledger.pass_counts[1:]):
        problems.append("per-pass counts differ between traced passes")
    best_traced, which = ledger.best(traced=True)
    chosen = {ledger.call_ids[p][i] for i, p in enumerate(which)}
    keep = np.isin(np.array(tracer.call), list(chosen))
    names = np.array(tracer.names)[keep]
    spans = (np.array(tracer.end) - np.array(tracer.start))[keep]
    selfs = tracer.self_times()[keep]
    roots = np.char.startswith(names, "call.")
    if abs(selfs.sum() - spans[roots].sum()) > 1e-9 * spans[roots].sum():
        problems.append("self times do not add up to the traced call time")
    n_calls = len(ledger.workload.calls)
    out = {}
    for metric, (span_names, kind) in LAYER_TIMES.items():
        total = (selfs if kind == "self" else spans)[np.isin(names, span_names)].sum()
        out[metric] = (1e3 * float(total) / n_calls, "ms")
    for metric, counter in LAYER_COUNTS.items():
        out[metric] = (counts.get(counter, 0), "count")
    vectors = int(ledger.vectors().sum())
    out["stiefel.plans_per_vector"] = (counts.get("stiefel.plans", 0) / vectors, "ratio")
    out["stiefel.products_mb_computed"] = (counts.get("stiefel.products_bytes", 0) / 1e6, "MB")
    out["stiefel.products_gflop_computed"] = (counts.get("stiefel.products_flop", 0) / 1e9,
                                              "GFLOP")
    budget = counts.get("expaction.taylor_budget", 0)
    out["expaction.term_use_ratio"] = (
        counts.get("expaction.matvecs", 0) / budget if budget else 0.0, "ratio")
    best_untraced, _ = ledger.best(traced=False)
    family = np.array([c.family for c in ledger.workload.calls])
    for f in FAMILIES:
        lat = best_untraced[family == f]
        out[f"p50_ms.{f}"] = (1e3 * float(np.median(lat)) if lat.size else 0.0, "ms")
    out["trace_overhead_ratio"] = (float(best_traced.sum() / best_untraced.sum()), "ratio")
    out["failed_ratio"] = (len(ledger.failures) / ledger.attempted, "ratio")
    breakdown = {}
    for name, s in zip(names, selfs):
        key = "glue" if name.startswith("call.") else str(name)
        breakdown[key] = breakdown.get(key, 0.0) + 1e3 * float(s) / n_calls
    return out, problems, breakdown
