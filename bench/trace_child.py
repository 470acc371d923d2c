"""Run one benchmark command in-process with a span around each layer call.

    PYTHONPATH=src python3 bench/trace_child.py TRACE.json STDOUT.txt cli ARGS...
    PYTHONPATH=src python3 bench/trace_child.py TRACE.json STDOUT.txt routes ARGS...

``cli`` runs ``shrubstat.cli.main(ARGS)``; ``routes`` runs the library
routes of ``routes.py``.  Standard output goes to STDOUT.txt.  Before the
command runs, each layer's public functions are replaced by wrappers on
the module (or class) where their callers look them up, so no source
file of the program changes.  A wrapper records a span: name, parent
span, start, end, busy time, work count and peak traced memory.  A
generator's busy time is the time spent inside it, not the time its
consumer spends between items.  The peak memory of the labeling
enumeration comes from running each of its calls once more under
tracemalloc after the command, so that tracemalloc's cost stays out of
every timed span.  TRACE.json receives every span plus a
per-layer summary: self time (busy time minus that of child spans),
calls, work count and peak.
"""

import sys
import time

perf = time.perf_counter

_t0 = perf()
import shrubstat.cli as cli  # noqa: E402  (timed: this is the import cost)

IMPORT_S = perf() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402

from shrubstat import counts, forests, kreweras, polynomial, posets, series  # noqa: E402

import checks  # noqa: E402

# span fields
NAME, PARENT, START, END, BUSY, COUNT, PEAK = range(7)


class Tracer:
    """Spans kept in memory; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.replays = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, 0.0, 0.0, 0.0, 0, 0])
        return len(self.spans) - 1

    def call(self, name, fn, work=None):
        """Wrap a function; ``work(*args, **kwargs)``, if given, runs after
        the call inside the span and returns the span's work count."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            span = spans[idx]
            stack.append(idx)
            span[START] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[COUNT] = work(*args, **kwargs)
                return result
            finally:
                span[END] = t1 = perf()
                span[BUSY] = t1 - t0
                stack.pop()

        return wrapper

    def generator(self, name, fn, replay=False):
        """Wrap a generator function; the span counts the items yielded.
        With ``replay`` the call is also kept for :meth:`measure_memory`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if replay:
                self.replays.append((idx, fn, args, kwargs))
            return self._drive(idx, fn(*args, **kwargs))

        return wrapper

    def _drive(self, idx, gen):
        span = self.spans[idx]
        stack = self.stack
        span[START] = perf()
        while True:
            stack.append(idx)
            t0 = perf()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                span[END] = t1 = perf()
                span[BUSY] += t1 - t0
                stack.pop()
            span[COUNT] += 1
            yield item

    def measure_memory(self):
        """Run each kept generator call again, drained under tracemalloc, and
        store its peak traced memory in the span of the original call.
        tracemalloc slows allocation several times over, so it stays off
        while spans are timed."""
        for idx, fn, args, kwargs in self.replays:
            tracemalloc.start()
            for _ in fn(*args, **kwargs):
                pass
            self.spans[idx][PEAK] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def summary(self):
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        layers = {}
        for span, inner in zip(self.spans, child_busy):
            layer = layers.setdefault(
                span[NAME], {"self_s": 0.0, "calls": 0, "count": 0, "peak_bytes": 0}
            )
            layer["self_s"] += span[BUSY] - inner
            layer["calls"] += 1
            layer["count"] += span[COUNT]
            layer["peak_bytes"] = max(layer["peak_bytes"], span[PEAK])
        return layers


XPOLY_METHODS = (
    "__neg__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "divexact",
)
BIJECTION_MAPS = (
    "path_from_rows",
    "rows_from_path",
    "rows_from_extension",
    "extension_from_rows",
)


def _sweep_counter():
    """Forests swept by one rise_distribution call: the whole (3n)!/3^n when
    the sweep cache missed, nothing when it hit."""
    info = getattr(getattr(forests, "_distributions", None), "cache_info", None)
    seen = [info().misses if info else 0]

    def swept(kind, n, **kwargs):
        if info is None:
            return checks.forests(n)
        misses = info().misses
        fresh, seen[0] = misses > seen[0], misses
        return checks.forests(n) if fresh else 0

    return swept


def install(tracer):
    """Wrap each layer's public functions where the callers look them up."""
    forests.rise_distribution = tracer.call(
        "forests.rise_distribution", forests.rise_distribution, _sweep_counter()
    )
    for name in ("build_gf", "rise_gf_via_fraction", "closed_form_gf"):
        setattr(series, name, tracer.call(f"series.{name}", getattr(series, name)))
    for name in ("linext_seq", "lb_via_ode", "ode_residuals"):
        setattr(counts, name, tracer.call(f"counts.{name}", getattr(counts, name)))
    posets.count_linear_extensions = tracer.call(
        "posets.count_linear_extensions", posets.count_linear_extensions
    )
    posets.enumerate_linear_extensions = tracer.generator(
        "posets.enumerate_linear_extensions",
        posets.enumerate_linear_extensions,
        replay=True,
    )
    kreweras.enumerate_paths = tracer.generator(
        "kreweras.enumerate_paths", kreweras.enumerate_paths
    )
    for name in BIJECTION_MAPS:
        setattr(
            kreweras,
            name,
            tracer.call("kreweras.bijection_maps", getattr(kreweras, name)),
        )
    for name in XPOLY_METHODS:
        method = getattr(polynomial.XPoly, name)
        setattr(polynomial.XPoly, name, tracer.call("polynomial.xpoly", method))


def main(argv):
    trace_path, stdout_path, kind, *args = argv
    if kind == "routes":
        import routes

        entry, root = routes.main, "bench.routes"
    else:
        entry, root = cli.main, "cli.main"
    tracer = Tracer()
    install(tracer)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
        try:
            rc = tracer.call(root, entry)(args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = perf()
    tracer.measure_memory()
    replay_s = perf() - t0
    record = {
        "rc": rc,
        "import_s": IMPORT_S,
        "main_peak_kb": rss_after - rss_before,
        "stdout_bytes": os.path.getsize(stdout_path),
        "memory_replay_s": replay_s,
        "layers": tracer.summary(),
        "spans": tracer.spans,
    }
    with open(trace_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
