"""Spans around calls into the library's public functions, wrapped from outside.

The tracer replaces module attributes (``spectral.eig_sym`` and so on) with
timing wrappers while an op runs and puts the originals back afterwards. The
library calls its own public functions through module globals and the CLI
reaches every layer through module attributes, so nested calls are traced too.
Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
"""

import functools
import json
import os
import tracemalloc
from time import perf_counter

from jtvsampling import bandlimit, cli, fileio, generate, graphs, oracle, sampling, spectral

# (module, attribute, span name); spans of one name are summed into one layer
WRAPPED = (
    (graphs, "laplacian", "graphs.laplacian"),
    (generate, "random_connected_graph", "generate"),
    (generate, "random_support", "generate"),
    (generate, "random_coeffs", "generate"),
    (spectral, "eig_sym", "spectral.eig_sym"),
    (spectral, "jft", "spectral.jft"),
    (spectral, "joint_columns_from_restricted", "spectral.joint_columns"),
    (bandlimit, "restrict_bases", "bandlimit.restrict_bases"),
    (bandlimit, "synth_from_restricted", "bandlimit.synth"),
    (bandlimit, "synth_signal", "bandlimit.synth"),
    (bandlimit, "detect_support", "bandlimit.detect_support"),
    (sampling, "critical_sampling_set", "sampling.plan"),
    (sampling, "max_lin_indep_rows", "sampling.select"),
    (sampling, "qualify", "sampling.qualify"),
    (sampling, "sample", "sampling.sample"),
    (sampling, "reconstruct", "sampling.reconstruct"),
    (sampling, "reconstruct_coefficients", "sampling.solve"),
    (oracle, "exhaustive_check", "oracle.exhaustive"),
    (oracle, "check_monotonicity", "oracle.monotonicity"),
    (fileio, "save_graph", "fileio.save"),
    (fileio, "save_support", "fileio.save"),
    (fileio, "save_signal", "fileio.save"),
    (fileio, "save_plan", "fileio.save"),
    (fileio, "save_samples", "fileio.save"),
    (fileio, "load_graph", "fileio.load"),
    (fileio, "load_support", "fileio.load"),
    (fileio, "load_signal", "fileio.load"),
    (fileio, "load_plan", "fileio.load"),
    (fileio, "load_samples", "fileio.load"),
    (cli, "main", "cli.main"),
    (cli, "cmd_gen_graph", "cli.gen_graph"),
    (cli, "cmd_gen_support", "cli.gen_support"),
    (cli, "cmd_gen_signal", "cli.gen_signal"),
    (cli, "cmd_analyze", "cli.analyze"),
    (cli, "cmd_plan", "cli.plan"),
    (cli, "cmd_sample", "cli.sample"),
    (cli, "cmd_reconstruct", "cli.reconstruct"),
)

# Called tens of thousands of times per oracle op: counted and timed into the
# calling span instead of getting a span each.
ELIM = "oracle.elimination_rank"
AGGREGATED = ((oracle, "elimination_rank", ELIM),)

OP = "op"


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "end", "child_s", "extra")

    def __init__(self, sid, parent, op, name, start):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.extra = {}

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class Tracer:
    """Records spans for the ops run between :meth:`begin_op` and :meth:`end_op`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def begin_op(self, op_id):
        """Install the wrappers, then open the op's root span."""
        for module, attr, name in WRAPPED:
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name))
        for module, attr, name in AGGREGATED:
            self._patch(module, attr, self._aggregate_wrapper(getattr(module, attr), name))
        root = Span(len(self.spans), None, op_id, OP, perf_counter())
        self.spans.append(root)
        self._stack = [root]

    def end_op(self):
        """Close the root span, then put the original functions back."""
        self._stack[0].end = perf_counter()
        self._stack = []
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _patch(self, module, attr, wrapper):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _open(self, name):
        parent = self._stack[-1]
        if name == "sampling.select" and parent.name == "sampling.plan":
            # critical_sampling_set scans the time factor, the graph factor,
            # then the K_T*K_G product rows
            nth = parent.extra.get("selects", 0) + 1
            parent.extra["selects"] = nth
            name = "sampling.select_factor" if nth <= 2 else "sampling.select_product"
        span = Span(len(self.spans), parent.sid, parent.op, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        parent.child_s += span.dur
        if span.name == "sampling.qualify" and parent.name == "sampling.plan":
            parent.extra.setdefault("qualify_ends", []).append(span.end)

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            measure_alloc = name == "spectral.joint_columns" and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.extra["error"] = type(exc).__name__
                raise
            finally:
                if measure_alloc:
                    span.extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(span)
            _annotate(span, args, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                parent = tracer._stack[-1]
                parent.child_s += dur
                calls, secs = parent.extra.get(name, (0, 0.0))
                parent.extra[name] = (calls + 1, secs + dur)

        return wrapper

    def write(self, path, t0):
        """One JSON line per span, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for s in self.spans:
                if s.end is None:
                    continue
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0, "self_s": s.self_s,
                    "extra": {k: v for k, v in s.extra.items() if k != "qualify_ends"},
                }) + "\n")


def _annotate(span, args, result):
    """Sizes a layer handled, read from its arguments and result."""
    name = span.name
    if name == "spectral.eig_sym":
        span.extra["dim"] = len(args[0])
    elif name == "spectral.joint_columns":
        rows, cols = result.shape
        span.extra["bytes"] = rows * cols * 8  # computed N*T*K*8, not measured
    elif name.startswith("sampling.select"):
        span.extra["rows"] = int(args[0].shape[0])
        span.extra["picked"] = len(result)
    elif name == "fileio.save":
        span.extra["bytes"] = os.path.getsize(args[-1])


def _sum(spans, name, field="dur"):
    return sum(getattr(s, field) for s in spans if s.name == name)


def _calls(spans, name):
    return sum(1 for s in spans if s.name == name)


def _agg(spans, name):
    calls = secs = 0
    for s in spans:
        c, t = s.extra.get(name, (0, 0.0))
        calls += c
        secs += t
    return calls, secs


def _extra_sum(spans, name, key):
    return sum(s.extra.get(key, 0) for s in spans if s.name == name)


def _fallbacks(spans):
    """(count, seconds): a plan span with a second qualify ran the spread-order
    fallback, which lasts from the end of the first qualify to the plan's end."""
    count, secs = 0, 0.0
    for s in spans:
        ends = s.extra.get("qualify_ends", ())
        if s.name == "sampling.plan" and len(ends) >= 2:
            count += 1
            secs += s.end - ends[0]
    return count, secs


CLI_COMMANDS = ("main", "gen_graph", "gen_support", "gen_signal", "analyze",
                "plan", "sample", "reconstruct")


def layer_metrics(spans, timed_ops, counted_ops):
    """Per-op layer metrics.

    Times are means over ``timed_ops`` (every traced op). Counts are means
    over ``counted_ops``, a fixed prefix of the traced ops, so they repeat
    exactly on a fixed seed.
    """
    timed_ops, counted_ops = set(timed_ops), set(counted_ops)
    ts = [s for s in spans if s.op in timed_ops and s.end is not None]
    cs = [s for s in ts if s.op in counted_ops]
    nt, nc = max(len(timed_ops), 1), max(len(counted_ops), 1)
    rows_scanned = (_extra_sum(cs, "sampling.select_factor", "rows")
                    + _extra_sum(cs, "sampling.select_product", "rows"))
    rows_picked = (_extra_sum(cs, "sampling.select_factor", "picked")
                   + _extra_sum(cs, "sampling.select_product", "picked"))
    # exhaustive_check ranks each subset once
    subsets = _agg([s for s in cs if s.name == "oracle.exhaustive"], ELIM)[0]
    fb_count, _ = _fallbacks(cs)
    _, fb_s = _fallbacks(ts)
    jc = [s.extra.get("peak_bytes", 0) for s in ts if s.name == "spectral.joint_columns"]
    op_s = _sum(ts, OP)
    m = {
        "spectral.eig_sym.calls": _calls(cs, "spectral.eig_sym") / nc,
        "spectral.eig_sym.s": _sum(ts, "spectral.eig_sym") / nt,
        "spectral.eig_sym.dim_sum": _extra_sum(cs, "spectral.eig_sym", "dim") / nc,
        "spectral.joint_columns.s": _sum(ts, "spectral.joint_columns") / nt,
        "spectral.joint_columns.bytes": _extra_sum(cs, "spectral.joint_columns", "bytes") / nc,
        "spectral.joint_columns.peak_bytes": max(jc, default=0),
        "spectral.jft.s": _sum(ts, "spectral.jft") / nt,
        "sampling.plan.s": _sum(ts, "sampling.plan") / nt,
        "sampling.plan.self_s": _sum(ts, "sampling.plan", "self_s") / nt,
        "sampling.select_factor.s": _sum(ts, "sampling.select_factor") / nt,
        "sampling.select_product.s": _sum(ts, "sampling.select_product") / nt,
        "sampling.select.rows_scanned": rows_scanned / nc,
        "sampling.select.accept_ratio": rows_picked / rows_scanned if rows_scanned else 0.0,
        "sampling.fallback.count": fb_count / nc,
        "sampling.fallback.s": fb_s / nt,
        "sampling.qualify.calls": _calls(cs, "sampling.qualify") / nc,
        "sampling.qualify.s": _sum(ts, "sampling.qualify") / nt,
        "sampling.sample.s": _sum(ts, "sampling.sample") / nt,
        "sampling.reconstruct.s": _sum(ts, "sampling.reconstruct") / nt,
        "sampling.reconstruct.self_s": _sum(ts, "sampling.reconstruct", "self_s") / nt,
        "sampling.solve.s": _sum(ts, "sampling.solve") / nt,
        "bandlimit.restrict_bases.s": _sum(ts, "bandlimit.restrict_bases") / nt,
        "bandlimit.synth.s": _sum(ts, "bandlimit.synth") / nt,
        "bandlimit.detect_support.s": _sum(ts, "bandlimit.detect_support") / nt,
        "oracle.exhaustive.s": _sum(ts, "oracle.exhaustive") / nt,
        "oracle.elimination_rank.calls": _agg(cs, ELIM)[0] / nc,
        "oracle.elimination_rank.s": _agg(ts, ELIM)[1] / nt,
        "oracle.monotonicity.s": _sum(ts, "oracle.monotonicity") / nt,
        "oracle.subsets": subsets / nc,
        "fileio.save.s": _sum(ts, "fileio.save") / nt,
        "fileio.load.s": _sum(ts, "fileio.load") / nt,
        "fileio.bytes_written": _extra_sum(cs, "fileio.save", "bytes") / nc,
        "generate.s": _sum(ts, "generate") / nt,
        "graphs.laplacian.s": _sum(ts, "graphs.laplacian") / nt,
        "trace.uncovered_ratio": _sum(ts, OP, "self_s") / op_s if op_s else 0.0,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = _sum(ts, f"cli.{cmd}", "self_s") / nt
    return m


def self_time_table(spans, ops):
    """Self seconds per span name over the given ops, largest first. The
    rows sum to the ops' wall time; the ``op`` row is the harness's own part."""
    ops = set(ops)
    table = {}
    for s in spans:
        if s.op in ops and s.end is not None:
            table[s.name] = table.get(s.name, 0.0) + s.self_s
            if ELIM in s.extra:
                table[ELIM] = table.get(ELIM, 0.0) + s.extra[ELIM][1]
    return sorted(table.items(), key=lambda kv: -kv[1])
