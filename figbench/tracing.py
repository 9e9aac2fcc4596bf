"""Span tracer that wraps the program's layer entry points from outside.

Nothing in the program changes: :func:`installed` replaces each entry point
named in ``SPANS``/``COUNTS`` with a wrapper in every ``onebit_mimo`` module
that holds a reference to it, and puts the originals back on exit. Spans
(name, start, end, parent, thread) are kept in memory; :func:`summarize`
turns them into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# (metric name, unit, better); the order is the order of the report
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("cli.validate_config.s", "s", "lower"),
    ("mc.run_blocks.calls", "count", "lower"),
    ("mc.blocks", "count", "lower"),
    ("mc.workers", "count", "lower"),
    ("mc.run_blocks.s", "s", "lower"),
    ("mc.block_busy_s", "s", "lower"),
    ("mc.parallel_eff", "ratio", "higher"),
    ("mc.pool_overhead_s", "s", "lower"),
    ("mc.serial_wall_s", "s", "lower"),
    ("channel.crandn.calls", "count", "lower"),
    ("channel.crandn.s", "s", "lower"),
    ("quantize.one_bit_quantize.calls", "count", "lower"),
    ("quantize.one_bit_quantize.s", "s", "lower"),
    ("rates.trial_self_s", "s", "lower"),
    ("rates.us_per_trial", "us", "lower"),
    ("rates.combiner.calls", "count", "lower"),
    ("rates.combiner.s", "s", "lower"),
    ("quantize.quantizer_noise_cov.calls", "count", "lower"),
    ("quantize.quantizer_noise_cov.s", "s", "lower"),
    ("quantize.quantizer_noise_cov.us_per_call", "us", "lower"),
    ("quantize.quantizer_noise_cov.bytes_computed", "B", "lower"),
    ("estimators.nml_estimate.calls", "count", "lower"),
    ("estimators.nml_estimate.s", "s", "lower"),
    ("estimators.nml_estimate.ms_per_call", "ms", "lower"),
    ("estimators.nml.iterations", "count", "lower"),
    ("estimators.nml.converged_frac", "ratio", "higher"),
    ("estimators.blmmse_filter.s", "s", "lower"),
    ("estimators.lmmse_uncorrelated_filter.s", "s", "lower"),
    ("allocation.optimize.calls", "count", "lower"),
    ("allocation.optimize.s", "s", "lower"),
    ("allocation.se_evals", "count", "lower"),
    ("allocation.us_per_se_eval", "us", "lower"),
    ("allocation.golden.calls", "count", "lower"),
    ("allocation.antenna_ratio.calls", "count", "lower"),
    ("allocation.antenna_ratio.s", "s", "lower"),
    ("experiments.io_s", "s", "lower"),
    ("experiments.runner_self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# counts that must repeat exactly across two traced passes of one seed
EXACT_COUNTS = [
    "estimators.nml.iterations",
    "allocation.se_evals",
    "quantize.quantizer_noise_cov.calls",
    "mc.blocks",
    "channel.crandn.calls",
]


def _qnc_bytes(tracer, args, out):
    # computed, not measured: the input C_y and the output C_q, each read or
    # written once; temporaries and cache misses are not counted
    return args[0].nbytes + out.nbytes


def _nml_note(tracer, args, out):
    if out.diagnostics["converged"]:
        tracer.count("estimators.nml.converged")
    return out.diagnostics["iterations"]


# (module, attribute, span name, note(tracer, args, result) -> span size)
SPANS = [
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("experiments", "write_csv", "experiments.io", None),
    ("experiments", "write_plot_stub", "experiments.io", None),
    ("experiments", "emit_manifest", "experiments.io", None),
    ("mc", "run_blocks", "mc.run_blocks", None),
    ("channel", "crandn", "channel.crandn", None),
    ("quantize", "one_bit_quantize", "quantize.one_bit_quantize", None),
    ("quantize", "quantizer_noise_cov", "quantize.quantizer_noise_cov", _qnc_bytes),
    ("estimators", "nml_estimate", "estimators.nml_estimate", _nml_note),
    ("estimators", "blmmse_filter", "estimators.blmmse_filter", None),
    ("estimators", "lmmse_uncorrelated_filter", "estimators.lmmse_uncorrelated_filter", None),
    ("rates", "ergodic_rate_mc", "rates.ergodic_rate_mc", None),
    ("rates", "mrc_matrix", "rates.combiner", None),
    ("rates", "zf_matrix", "rates.combiner", None),
    ("allocation", "_optimize_numeric", "allocation.optimize", None),
    ("allocation", "antenna_ratio", "allocation.antenna_ratio", None),
]

# called hundreds of thousands of times per pass: counted, not spanned
COUNTS = [
    ("allocation", "_se_direct", "allocation.se_evals"),
    ("allocation", "_golden_max", "allocation.golden.calls"),
]


class Span(NamedTuple):
    sid: int
    name: str
    parent: int  # 0 for a root span
    thread: int
    start: float
    end: float
    size: int  # trials of a block, bytes of a kernel call, iterations of a solve

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, note=None, parent=None):
        """Wrap fn so that each call records a span; parent defaults to the caller's span."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            up = parent if parent is not None else (stack[-1] if stack else 0)
            if name == "mc.run_blocks":
                args, kwargs = self._wrap_block_fn(sid, args, kwargs)
            stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                size = note(self, args, out) if ok and note is not None else 0
                self.spans.append(Span(sid, name, up, threading.get_ident(), t0, t1, size))
            return out

        return wrapper

    def _wrap_block_fn(self, sid, args, kwargs):
        # the block may run on a pool thread whose own stack is empty: its
        # parent is the run_blocks span, given explicitly; its size is the
        # block's trial count
        def trials(tracer, a, out):
            return a[1]

        args = list(args)
        if len(args) > 1:
            args[1] = self.span("mc.block", args[1], trials, parent=sid)
        else:
            kwargs["fn"] = self.span("mc.block", kwargs["fn"], trials, parent=sid)
        return tuple(args), kwargs

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every layer entry point through ``tracer`` until the block exits."""
    saved = []
    try:
        for modname, attr, name, note in SPANS:
            orig = getattr(importlib.import_module(f"onebit_mimo.{modname}"), attr)
            saved += _replace(attr, orig, tracer.span(name, orig, note))
        for modname, attr, name in COUNTS:
            orig = getattr(importlib.import_module(f"onebit_mimo.{modname}"), attr)
            saved += _replace(attr, orig, tracer.counter(name, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _replace(attr, orig, wrapper):
    done = []
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "onebit_mimo" and getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapper)
            done.append((mod, attr, orig))
    return done


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: value}."""
    spans = tracer.spans
    kids = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
        named[s.name].append(s)

    def total(name):
        return sum(s.dur for s in named[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "channel.crandn",
        "quantize.one_bit_quantize",
        "rates.combiner",
        "quantize.quantizer_noise_cov",
        "estimators.nml_estimate",
        "allocation.optimize",
        "allocation.antenna_ratio",
        "mc.run_blocks",
    ):
        m[f"{name}.calls"] = len(named[name])
        m[f"{name}.s"] = total(name)

    # Monte Carlo pool: per run_blocks call, the blocks under it and the
    # distinct threads that ran them
    busy_all = capacity = overhead = 0.0
    workers = 0
    for rb in named["mc.run_blocks"]:
        blocks = [k for k in kids[rb.sid] if k.name == "mc.block"]
        busy = sum(b.dur for b in blocks)
        w = len({b.thread for b in blocks}) or 1
        workers = max(workers, w)
        busy_all += busy
        capacity += rb.dur * w
        overhead += rb.dur - busy / w
    m["mc.blocks"] = len(named["mc.block"])
    m["mc.workers"] = workers
    m["mc.block_busy_s"] = busy_all
    m["mc.parallel_eff"] = ratio(busy_all, capacity)
    m["mc.pool_overhead_s"] = overhead

    # rate trials: blocks under ergodic_rate_mc, minus the layer calls they make
    trial_self = 0.0
    trials = 0
    for erg in named["rates.ergodic_rate_mc"]:
        for rb in kids[erg.sid]:
            for b in kids[rb.sid]:
                if b.name == "mc.block":
                    trial_self += b.dur - sum(c.dur for c in kids[b.sid])
                    trials += b.size
    m["rates.trial_self_s"] = trial_self
    m["rates.us_per_trial"] = 1e6 * ratio(total("rates.ergodic_rate_mc"), trials)

    qnc = "quantize.quantizer_noise_cov"
    m[f"{qnc}.us_per_call"] = 1e6 * ratio(m[f"{qnc}.s"], m[f"{qnc}.calls"])
    m[f"{qnc}.bytes_computed"] = sum(s.size for s in named[qnc])

    nml = "estimators.nml_estimate"
    m[f"{nml}.ms_per_call"] = 1e3 * ratio(m[f"{nml}.s"], m[f"{nml}.calls"])
    m["estimators.nml.iterations"] = sum(s.size for s in named[nml])
    m["estimators.nml.converged_frac"] = ratio(
        tracer.counts["estimators.nml.converged"], m[f"{nml}.calls"]
    )
    m["estimators.blmmse_filter.s"] = total("estimators.blmmse_filter")
    m["estimators.lmmse_uncorrelated_filter.s"] = total(
        "estimators.lmmse_uncorrelated_filter"
    )

    # time in the allocation layer: its outermost spans only
    names = {s.sid: s.name for s in spans}
    outer = sum(
        s.dur
        for s in spans
        if s.name.startswith("allocation.")
        and not names.get(s.parent, "").startswith("allocation.")
    )
    m["allocation.se_evals"] = tracer.counts["allocation.se_evals"]
    m["allocation.golden.calls"] = tracer.counts["allocation.golden.calls"]
    m["allocation.us_per_se_eval"] = 1e6 * ratio(outer, m["allocation.se_evals"])

    m["experiments.io_s"] = total("experiments.io")
    m["experiments.runner_self_s"] = sum(
        r.dur - sum(c.dur for c in kids[r.sid]) for r in named["experiments.run_experiment"]
    )
    return m


def nesting_violations(tracer: Tracer) -> int:
    """Spans that do not lie inside their parent span."""
    by_id = {s.sid: s for s in tracer.spans}
    bad = 0
    for s in tracer.spans:
        p = by_id.get(s.parent)
        if s.parent and (p is None or s.start < p.start or s.end > p.end):
            bad += 1
    return bad
