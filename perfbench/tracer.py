"""Spans and counters recorded at the call sites between fireline's layers.

A traced round replaces, for its duration, the module attributes through
which one layer calls another (fireline.harness.d_T, fireline.discrete.
make_engine, ...) with wrappers that record a span: name, start, end and
the index of the enclosing span.  Calls too frequent for a span each (the
scalar Philox draw) only add to a counter and a time total.  Nothing inside
the package is edited, and every attribute is restored when the round ends.

Worker processes of harness._map_runs record their own spans; the traced
worker sends them back with each task's result, and the parent adopts them
under its map span.
"""

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from fireline import _engine_py, cli, discrete, harness, limits, rng
from fireline.discrete import DiscreteFFP

# The tracer the installed wrappers record into; set only by installed().
_active = None


class Tracer:
    """Spans as [name, start, end, parent index], plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.totals = defaultdict(float)
        self.jobs = {}  # map span index -> its --jobs value

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def take(self):
        """Hand over everything recorded so far and start empty."""
        out = (self.spans, self.counts, self.totals)
        self.spans, self.stack = [], []
        self.counts, self.totals = Counter(), defaultdict(float)
        return out

    def adopt(self, spans, counts, totals, parent):
        """Append spans recorded in another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up])
        self.counts.update(counts)
        for key, value in totals.items():
            self.totals[key] += value


def _spanned(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


class _TracedEngine:
    """An engine core whose advance_to calls are spans; all else passes through."""

    def __init__(self, tracer, engine):
        self.__dict__.update(_tracer=tracer, _engine=engine)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def advance_to(self, t_raw):
        before = self._engine.event_count
        try:
            return self._tracer.call("engine.run", self._engine.advance_to, t_raw)
        finally:
            self._tracer.counts["engine.events"] += self._engine.event_count - before


class _TracedDiscreteFFP(DiscreteFFP):
    def advance_to(self, t):
        return _active.call("discrete.advance_to", super().advance_to, t)

    def observables(self, x):
        return _active.call("discrete.observables", super().observables, x)


class TracedWorker:
    """A harness worker that records the task as a span in whatever process
    runs it.  In a worker process it returns the task's spans and counters
    with the result; in the tracing process itself they are already in place."""

    def __init__(self, worker):
        self.worker = worker
        self.home = os.getpid()

    def __call__(self, args):
        tracer = _active if _active is not None else _worker_tracer()
        if os.getpid() == self.home:
            return tracer.call("harness.task", self.worker, args), None
        tracer.take()  # drop what a forked copy inherited from the parent
        value = tracer.call("harness.task", self.worker, args)
        return value, tracer.take()


_worker_wrappers = []


def _worker_tracer():
    # a worker started from a fresh interpreter (spawn, forkserver) inherits
    # no wrappers: install them for the life of the worker process
    _worker_wrappers.append(installed(Tracer()))
    return _worker_wrappers[-1].__enter__()


@contextmanager
def installed(tracer):
    """Install the call-site wrappers recording into `tracer`."""
    global _active
    saved = []

    def patch(module, name, make):
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, make(original))

    def engine_constructor(make_engine):
        def wrapper(n_sites, *args, **kwargs):
            engine = tracer.call("engine.construct", make_engine, n_sites, *args, **kwargs)
            tracer.counts["engine.sites"] = max(tracer.counts["engine.sites"], n_sites)
            return _TracedEngine(tracer, engine)

        return wrapper

    def marks(poisson_rectangle):
        def wrapper(*args, **kwargs):
            out = tracer.call("rng.poisson_rectangle", poisson_rectangle, *args, **kwargs)
            tracer.counts["rng.marks"] += len(out)
            return out

        return wrapper

    def draws(draw_u64):
        def wrapper(*args):
            start = perf_counter()
            value = draw_u64(*args)
            tracer.totals["rng.draw_u64"] += perf_counter() - start
            tracer.counts["rng.draw_u64_calls"] += 1
            return value

        return wrapper

    def simulation(simulate):
        def wrapper(*args, **kwargs):
            state = tracer.call("limits.simulate", simulate, *args, **kwargs)
            tracer.counts["limits.events"] += len(state.events)
            tracer.counts["limits.fronts"] += len(getattr(state, "fronts", ()))
            for query in ("Z", "D"):
                if hasattr(state, query):
                    setattr(state, query, _spanned(tracer, "limits.query", getattr(state, query)))
            return state

        return wrapper

    def fanout(map_runs):
        def wrapper(worker, argses, jobs):
            index = len(tracer.spans)
            tracer.jobs[index] = max(1, jobs)
            outs = tracer.call("harness.map_runs", map_runs, TracedWorker(worker), argses, jobs)
            for _, recorded in outs:
                if recorded is not None:
                    tracer.adopt(*recorded, parent=index)
            return [value for value, _ in outs]

        return wrapper

    def spans(name):
        return lambda fn: _spanned(tracer, name, fn)

    patch(discrete, "make_engine", engine_constructor)
    patch(harness, "poisson_rectangle", marks)
    patch(limits, "poisson_rectangle", marks)
    patch(rng, "draw_u64", draws)
    patch(_engine_py, "draw_u64", draws)
    patch(harness, "DiscreteFFP", lambda _: _TracedDiscreteFFP)
    patch(harness, "run_propagation", spans("discrete.run_propagation"))
    patch(cli, "run_propagation", spans("discrete.run_propagation"))
    for name in ("simulate_alffp_p", "simulate_lffp_0", "simulate_lffp_inf"):
        patch(harness, name, simulation)
    patch(harness, "d_T", spans("scales.d_T"))
    patch(harness, "delta_interval", spans("scales.delta_interval"))
    patch(harness, "_map_runs", fanout)
    for name in ("front_speed_experiment", "spark_fraction_experiment", "coupled_distances"):
        patch(cli, name, spans("harness." + name))
    _active = tracer
    try:
        yield tracer
    finally:
        _active = None
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# -- per-layer numbers ------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_numbers(spans, counts, totals, jobs, requested_runs):
    """The per-layer metrics of one traced round, and each layer's self time."""
    selfs = self_times(spans)
    n = Counter()
    dur = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    for (name, start, end, _), s in zip(spans, selfs):
        n[name] += 1
        dur[name] += end - start
        own[name] += s
        layer_self[name.split(".", 1)[0]] += s

    task_time = defaultdict(float)
    for name, start, end, parent in spans:
        if name == "harness.task":
            task_time[parent] += end - start
    busy = wall = slots = overhead = 0.0
    for index, span_jobs in jobs.items():
        _, start, end, _ = spans[index]
        busy += task_time[index]
        wall += end - start
        slots += span_jobs * (end - start)
        overhead += (end - start) - task_time[index] / span_jobs
    draws = counts["rng.draw_u64_calls"]
    engine_events = counts["engine.events"]
    limit_events = counts["limits.events"]
    metrics = {
        "rng.poisson_rectangle_calls": (n["rng.poisson_rectangle"], "count"),
        "rng.marks": (counts["rng.marks"], "count"),
        "rng.poisson_rectangle_s": (dur["rng.poisson_rectangle"], "s"),
        "rng.marks_per_s": (_ratio(counts["rng.marks"], dur["rng.poisson_rectangle"]), "1/s"),
        "rng.draw_u64_calls": (draws, "count"),
        "rng.draw_u64_s": (totals["rng.draw_u64"], "s"),
        "rng.draws_per_s": (_ratio(draws, totals["rng.draw_u64"]), "1/s"),
        "engine.constructs": (n["engine.construct"], "count"),
        "engine.construct_us": (1e6 * _ratio(dur["engine.construct"], n["engine.construct"]), "us"),
        "engine.sites": (counts["engine.sites"], "count"),
        "engine.run_calls": (n["engine.run"], "count"),
        "engine.run_s": (dur["engine.run"], "s"),
        "engine.events": (engine_events, "count"),
        "engine.events_per_s": (_ratio(engine_events, dur["engine.run"]), "1/s"),
        "discrete.observables_calls": (n["discrete.observables"], "count"),
        "discrete.observables_us": (
            1e6 * _ratio(dur["discrete.observables"], n["discrete.observables"]), "us"),
        "discrete.advance_calls": (n["discrete.advance_to"], "count"),
        "discrete.run_propagation_calls": (n["discrete.run_propagation"], "count"),
        "discrete.run_propagation_self_s": (own["discrete.run_propagation"], "s"),
        "discrete.propagations_per_run": (
            _ratio(n["discrete.run_propagation"], requested_runs), "ratio"),
        "limits.simulations": (n["limits.simulate"], "count"),
        "limits.simulate_s": (own["limits.simulate"], "s"),
        "limits.events": (limit_events, "count"),
        "limits.events_per_s": (_ratio(limit_events, own["limits.simulate"]), "1/s"),
        "limits.fronts": (counts["limits.fronts"], "count"),
        "limits.query_calls": (n["limits.query"], "count"),
        "limits.query_us": (1e6 * _ratio(dur["limits.query"], n["limits.query"]), "us"),
        "scales.d_T_calls": (n["scales.d_T"], "count"),
        "scales.d_T_us": (1e6 * _ratio(dur["scales.d_T"], n["scales.d_T"]), "us"),
        "harness.tasks": (n["harness.task"], "count"),
        "harness.self_s": (layer_self["harness"], "s"),
        "harness.busy_s": (busy, "s"),
        "harness.fanout_wall_s": (wall, "s"),
        "harness.fanout_overhead_s": (overhead, "s"),
        "harness.fanout_efficiency": (_ratio(busy, slots), "ratio"),
        "cli.self_s": (layer_self["cli"], "s"),
    }
    return metrics, dict(layer_self)
