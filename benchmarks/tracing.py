"""In-memory spans around the program's layer boundaries.

The tracer wraps public functions by rebinding the module-level names the
program looks them up by (for example `ecsim.scenario.propagate`), records a
span per call while an operation is open, and restores the original names when
it is uninstalled. Nothing inside `src/` is changed. A name that no longer
exists is skipped, and the counts of that layer read 0.

A span is `(id, name, start, end, parent, op, thread)`. Counts are recorded at
the same boundaries as `(name, op, value)`. Both are kept in lists and only
read after the traced operations have finished; `list.append` is atomic under
the interpreter lock, so worker threads of the scan pool can record without a
lock.
"""
import itertools
import threading
import time
from contextlib import contextmanager, nullcontext


def _calls(name):
    return lambda args, result: ((name, 1),)


def _records(args, result):
    return (("correlations.records_calls", 1), ("correlations.states", len(args[0])))


def _solver(args, result):
    return (("dynamics.rhs_evals", int(result.nfev)),)


# (module, attribute, span name, count recorder); the recorder maps the
# wrapped call's arguments and result to (count name, value) pairs
BOUNDARIES = (
    ("ecsim.scenario", "propagate", "dynamics.propagate",
     _calls("dynamics.propagate_calls")),
    ("ecsim.dynamics", "propagate", "dynamics.propagate",
     _calls("dynamics.propagate_calls")),
    ("ecsim.scenario", "correlation_records", "correlations.records", _records),
    ("ecsim.dynamics", "liouvillian", "dynamics.liouvillian",
     _calls("dynamics.liouvillian_calls")),
    ("ecsim.dynamics", "solve_ivp", "dynamics.solver", _solver),
    ("ecsim.dynamics", "couplings", "couplings", _calls("couplings.calls")),
    ("ecsim.states", "validate_state", "states.validate",
     _calls("states.validate_calls")),
)

COUNT_NAMES = ("couplings.calls", "dynamics.propagate_calls",
               "dynamics.liouvillian_calls", "dynamics.rhs_evals",
               "states.validate_calls", "correlations.records_calls",
               "correlations.states")


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def span(self, name):
        return nullcontext()

    def operation(self, op_id, name="op"):
        return nullcontext()


class Tracer:
    """Collects spans and counts; records only while an operation is open."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._op = None

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record `name` around the block; a span opened on a pool thread with
        nothing open on that thread takes the innermost main-thread span as
        its parent."""
        if self._op is None:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self._op,
                               threading.get_ident()))

    @contextmanager
    def operation(self, op_id, name="op"):
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    def count(self, name, value):
        if self._op is not None:
            self.counts.append((name, self._op, value))

    def wrap(self, func, span_name, recorder):
        def traced(*args, **kwargs):
            if self._op is None:
                return func(*args, **kwargs)
            with self.span(span_name):
                result = func(*args, **kwargs)
            for name, value in recorder(args, result):
                self.count(name, value)
            return result
        traced.__wrapped__ = func
        return traced


@contextmanager
def installed(tracer, modules):
    """Rebind every boundary in BOUNDARIES that exists; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, recorder in BOUNDARIES:
            module = modules[module_name]
            func = getattr(module, attr, None)
            if func is None:
                continue
            saved.append((module, attr, func))
            setattr(module, attr, tracer.wrap(func, span_name, recorder))
        yield
    finally:
        for module, attr, func in reversed(saved):
            setattr(module, attr, func)


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans, counts, ops):
    """Per-layer totals over the spans and counts whose op id is in `ops`."""
    spans = [s for s in spans if s[5] in ops]
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def total(name):
        return sum(s[3] - s[2] for s in spans if s[1] == name)

    out = {name: 0 for name in COUNT_NAMES}
    for name, op, value in counts:
        if op in ops:
            out[name] = out.get(name, 0) + value

    runs = [s for s in spans if s[1] == "scenario.run"]
    self_s = busy = capacity = 0.0
    threads = 0
    for run in runs:
        kids = [k for k in children.get(run[0], [])
                if k[1] in ("dynamics.propagate", "correlations.records")]
        wall = run[3] - run[2]
        used = len({k[6] for k in kids}) or 1
        threads = max(threads, used)
        self_s += wall - _union_length([(k[2], k[3]) for k in kids])
        busy += sum(k[3] - k[2] for k in kids)
        capacity += wall * used
    out.update({
        "scenario.run_s": total("scenario.run"),
        "scenario.self_s": self_s,
        "scenario.csv_s": total("scenario.csv"),
        "scenario.threads": threads,
        "scenario.busy_ratio": busy / capacity if capacity else 0.0,
        "couplings.s": total("couplings"),
        "dynamics.propagate_s": total("dynamics.propagate"),
        "dynamics.liouvillian_s": total("dynamics.liouvillian"),
        "dynamics.solver_s": total("dynamics.solver"),
        "states.validate_s": total("states.validate"),
        "correlations.records_s": total("correlations.records"),
        "trace.wall_s": total("op"),
    })
    n_states = out["correlations.states"]
    out["correlations.us_per_state"] = (
        1e6 * out["correlations.records_s"] / n_states if n_states else 0.0)
    return out
