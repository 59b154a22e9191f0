"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from outside the package: each public function is
wrapped under the name its consuming module binds it to, so the package
itself carries no timing code.  A span keeps its name, wall start and
end, parent span, thread and counts, plus a CPU time:

* leaf spans (``normal_block``) take the CPU time of their own thread;
* spans around chunked calls (the terminals and ``limit_draws``) take the
  CPU time of the whole process, which is the sum of worker busy time
  while the calling thread waits on the pool.

A worker thread has no open span of its own, so its spans are attributed
to the span open on the main thread, which is the chunked call that
submitted the work.

Model coefficients and payoffs are called thousands of times per
estimate; they are counted and timed in aggregate, not as spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import mlmc_euler
from mlmc_euler import diagnostics, estimator, limit_law, paths

NORMAL_BLOCK = "paths.normal_block"
SINGLE = "paths.single_terminals"
COUPLED = "paths.coupled_terminals"
ESTIMATE = "estimator.estimate"
LIMIT_DRAWS = "limit_law.limit_draws"
LIMIT_VARIANCE = "limit_law.estimate_limit_variance"
CLT = "diagnostics.run_clt_experiment"


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "counts")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = self.cpu = 0.0
        self.counts: Dict[str, int] = {}

    @property
    def wall(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Aggregate:
    """Call count and summed thread CPU time of a family of small callables."""

    def __init__(self):
        self.calls = 0
        self.cpu = 0.0
        self._lock = threading.Lock()

    def wrap(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - c0
                with self._lock:
                    self.calls += 1
                    self.cpu += dt

        return counted


class Recorder:
    """Thread-safe span store; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: List[Span] = []
        self.coeff = Aggregate()
        self.payoff = Aggregate()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[Span] = []

    def _stack(self) -> List[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, cpu_clock: Callable[[], float] = time.thread_time):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1].id
            else:
                parent = self._main_stack[-1].id if self._main_stack else None
            span = Span(next(self._ids), name, parent, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        c0 = cpu_clock()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = cpu_clock() - c0
            stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        counts: Optional[Callable] = None,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, cpu_clock) as span:
                out = fn(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, kwargs, out))
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
            for name, agg in (("models.coeff", self.coeff), ("models.payoff", self.payoff)):
                handle.write(json.dumps({"aggregate": name, "calls": agg.calls, "cpu": agg.cpu}) + "\n")


# ---------------------------------------------------------------------------
# words generated per normal: read from the Philox counter


class _CountingPhilox(np.random.Philox):
    """Philox that remembers its 256-bit counter right after ``advance``."""

    def advance(self, delta):
        out = super().advance(delta)
        self.counter_after_advance = _counter(self)
        return out


def _counter(bit_generator) -> int:
    words = bit_generator.state["state"]["counter"]
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _single_counts(args, kwargs, out):
    """Counts of a ``single_terminals`` call: its level inside an estimate (0), sub-steps."""
    return {"level": 0, "substeps": out.shape[0] * _arg(args, kwargs, 1, "n_steps")}


def _coupled_counts(args, kwargs, out):
    level = _arg(args, kwargs, 1, "level")
    m = _arg(args, kwargs, 2, "m")
    return {"level": level, "substeps": out[0].shape[0] * (m**level + m ** (level - 1))}


def _limit_counts(args, kwargs, out):
    draws = out[0].shape[0]
    return {"draws": draws, "draw_steps": draws * _arg(args, kwargs, 1, "n_steps")}


def timed(fn: Callable, latencies: List[float]) -> Callable:
    """``fn`` that appends each call's wall time to ``latencies``."""

    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)

    return call


@contextlib.contextmanager
def bound(module, name: str, replacement):
    """Rebind ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def traced_package(rec: Recorder):
    """Wrap every package function under the name its consumer binds it to.

    The benchmark's own calls go through the ``mlmc_euler`` namespace, so
    the functions it calls are rebound there as well.
    """
    local = threading.local()
    plain_philox = paths._philox

    def philox(*args, **kwargs):
        plain = plain_philox(*args, **kwargs).state["state"]
        local.bit_generator = _CountingPhilox(counter=plain["counter"], key=plain["key"])
        return local.bit_generator

    def normal_block_counts(args, kwargs, out):
        bg = local.bit_generator
        return {"draws": int(out.size), "words": 4 * (_counter(bg) - bg.counter_after_advance)}

    cpu = time.process_time
    bindings = [(paths, "_philox", philox)]
    bindings += [
        (module, "normal_block", rec.wrap(module.normal_block, NORMAL_BLOCK, normal_block_counts))
        for module in (paths, limit_law, diagnostics)
    ]
    bindings += [
        (estimator, "single_terminals",
         rec.wrap(estimator.single_terminals, SINGLE, _single_counts, cpu)),
        (estimator, "coupled_terminals",
         rec.wrap(estimator.coupled_terminals, COUPLED, _coupled_counts, cpu)),
        (limit_law, "limit_draws", rec.wrap(limit_law.limit_draws, LIMIT_DRAWS, _limit_counts, cpu)),
        (diagnostics, "estimate", rec.wrap(diagnostics.estimate, ESTIMATE)),
        (mlmc_euler, "estimate", rec.wrap(mlmc_euler.estimate, ESTIMATE)),
        (mlmc_euler, "single_terminals",
         rec.wrap(mlmc_euler.single_terminals, SINGLE, _single_counts, cpu)),
        (mlmc_euler, "run_clt_experiment", rec.wrap(mlmc_euler.run_clt_experiment, CLT)),
        (mlmc_euler, "estimate_limit_variance",
         rec.wrap(mlmc_euler.estimate_limit_variance, LIMIT_VARIANCE)),
    ]
    with contextlib.ExitStack() as stack:
        for module, name, replacement in bindings:
            stack.enter_context(bound(module, name, replacement))
        yield


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

LEVELS = range(10)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder, passes: int, threads: int) -> Dict[str, float]:
    """Per-pass layer metrics of a traced section of ``passes`` passes.

    Work inside chunked calls is counted in CPU seconds summed over
    threads, because chunks run in parallel: the Euler share of a
    terminals call is its process CPU time minus the thread CPU time of
    its ``normal_block`` children.  Level, estimate and experiment times
    are wall times on the calling thread.  A layer a workload does not
    run reads 0.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def children(parents, name):
        ids = {p.id for p in parents}
        return [s for s in named(name) if s.parent in ids]

    def wall(spans):
        return sum(s.wall for s in spans)

    def cpu(spans):
        return sum(s.cpu for s in spans)

    def count(spans, key):
        return sum(s.counts[key] for s in spans)

    per = 1.0 / passes
    out: Dict[str, float] = {}

    blocks = named(NORMAL_BLOCK)
    out["paths.normal_block.calls"] = len(blocks) * per
    out["paths.normal_block.s"] = cpu(blocks) * per
    out["paths.normal_block.ns_per_draw"] = _ratio(cpu(blocks) * 1e9, count(blocks, "draws"))
    out["paths.normal_block.words_per_draw"] = _ratio(
        count(blocks, "words"), count(blocks, "draws")
    )

    terminals = named(SINGLE) + named(COUPLED)
    term_blocks = children(terminals, NORMAL_BLOCK)
    euler = cpu(terminals) - cpu(term_blocks)
    out["paths.euler.s"] = euler * per
    out["paths.euler.ns_per_substep"] = _ratio(euler * 1e9, count(terminals, "substeps"))
    out["paths.terminals.calls"] = len(terminals) * per
    out["paths.terminals.chunks_per_call"] = _ratio(len(term_blocks), len(terminals))
    chunked = terminals + named(LIMIT_DRAWS)
    out["paths.sched.busy_frac"] = _ratio(cpu(chunked), wall(chunked) * threads)

    estimates = named(ESTIMATE)
    level_spans = children(estimates, SINGLE) + children(estimates, COUPLED)
    for level in LEVELS:
        spans = [s for s in level_spans if s.counts["level"] == level]
        key = "estimator.level.%d." % level
        out[key + "s"] = wall(spans) * per
        out[key + "busy_frac"] = _ratio(cpu(spans), wall(spans) * threads)
        out[key + "ns_per_substep"] = _ratio(wall(spans) * 1e9, count(spans, "substeps"))
    out["estimator.estimate.calls"] = len(estimates) * per
    out["estimator.estimate.s"] = wall(estimates) * per
    # payoff, moment reduction and the confidence interval
    out["estimator.self_s"] = (wall(estimates) - wall(level_spans)) * per

    out["models.payoff.calls"] = rec.payoff.calls * per
    out["models.payoff.s"] = rec.payoff.cpu * per
    out["models.coeff.calls"] = rec.coeff.calls * per
    out["models.coeff.s"] = rec.coeff.cpu * per

    draws = named(LIMIT_DRAWS)
    variances = named(LIMIT_VARIANCE)
    recursion = cpu(draws) - cpu(children(draws, NORMAL_BLOCK))
    projection = wall(variances) - wall(children(variances, LIMIT_DRAWS))
    out["limit_law.limit_draws.s"] = wall(draws) * per
    out["limit_law.self_s"] = (recursion + projection) * per
    out["limit_law.ns_per_draw_step"] = _ratio(recursion * 1e9, count(draws, "draw_steps"))
    out["limit_law.redraw_calls"] = (len(children(variances, LIMIT_DRAWS)) - len(variances)) * per

    experiments = named(CLT)
    out["diagnostics.self_s"] = (wall(experiments) - wall(children(experiments, ESTIMATE))) * per
    return out

