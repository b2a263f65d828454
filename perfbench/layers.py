"""Outside-in layer trace for one campaign process.

The wrappers are installed from the benchmark's own files, around the
names that each caller looks up at call time, so no line of sl2lab
changes.  Three pitfalls shape the code:

  * A name is wrapped where its caller resolves it.  harness.py does
    `from .stabilizer import stabilizer_brute`, so the harness calls its
    own module global; the wrapper must replace
    sys.modules["sl2lab.harness"].stabilizer_brute.  The same holds for
    stabilizer_fast inside sl2lab.stabilizer.  Note that
    `import sl2lab.stabilizer` binds the re-exported *function*
    sl2lab.stabilizer (the package __init__ shadows the submodule), so
    modules are always taken from sys.modules.
  * Generator functions (all_lines) return before doing any work; they
    are timed over their consumption, one span per next().
  * Spans inside pool workers never reach the parent, so traced
    campaigns run at workers=1.

Every span records its inclusive time under its name, `<layer>.<call>`.
A span's self time is its inclusive time minus the time of the child
spans it opened in *other* layers, so harness.self_s, the self time of
the run_campaign span, includes the harness's own CSV writes (also
reported alone as harness.csv_write).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = [["", 0.0]]  # [layer, time in other layers] per open span

    def _enter(self, name):
        self._open.append([name.split(".")[0], 0.0])

    def _close(self, name, t0):
        dt = perf_counter() - t0
        layer, child = self._open.pop()
        parent = self._open[-1]
        if parent[0] != layer:
            parent[1] += dt
        self.seconds[name] += dt
        self.self_seconds[name] += dt - child
        self.calls[name] += 1

    def wrap(self, name, fn, observe=None):
        """fn timed as a span called `name`; observe(args, result) may
        record counts at the same boundary."""

        def traced(*args, **kwargs):
            self._enter(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def wrap_generator(self, name, fn):
        """A generator function timed over its consumption: each next()
        on the underlying generator is one span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter(name)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0)
                yield item

        return traced


class _TimedWriter:
    def __init__(self, tracer, writer):
        self.writerow = tracer.wrap("harness.csv_write", writer.writerow)
        self.writerows = tracer.wrap("harness.csv_write", writer.writerows)
        self._writer = writer

    def __getattr__(self, attr):
        return getattr(self._writer, attr)


class _CsvProxy:
    """Stands in for the csv module inside sl2lab.harness; the writers it
    hands out time every writerow."""

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def writer(self, *args, **kwargs):
        return _TimedWriter(self._tracer, self._real.writer(*args, **kwargs))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the imported sl2lab modules.

    A name the program no longer has fails the traced run, so that a
    layer reading 0 always means the program never called it."""
    harness = sys.modules["sl2lab.harness"]
    stab = sys.modules["sl2lab.stabilizer"]
    inc = sys.modules["sl2lab.incidence3d"]
    rng = sys.modules["sl2lab.rng"]

    def fast_observe(args, found):
        ctx, E = args[0], args[1]
        # every nonzero point of E is a transport target with q candidates
        tracer.counts["stabilizer.fast_candidates"] += E.nonzero_size * ctx.q
        tracer.counts["stabilizer.fast_accepted"] += len(found)

    def lines_observe(args, _):
        tracer.counts["incidence3d.lines_in"] += len(args[2])

    plain = [
        (harness, "make_field", "gf.make_field", None),
        (harness, "stabilizer_brute", "stabilizer.brute", None),
        (harness, "bound_report", "stabilizer.bound_report", None),
        (harness, "all_subset_stabilizer_orders", "stabilizer.table", None),
        (harness, "line_set_stabilizer", "stabilizer.lineset", None),
        (harness, "subgroup_orbits", "stabilizer.orbits", None),
        (harness, "triple_count_audit", "stabilizer.audit", None),
        (harness, "build_instance", "incidence3d.build", None),
        (harness, "count_incidences_brute", "incidence3d.brute", None),
        (harness, "gen_family", "families.gen_family", None),
        (stab, "stabilizer_fast", "stabilizer.fast", fast_observe),
        (stab, "sl2_materialize", "plane.sl2_materialize", None),
        (stab, "point_permutation", "plane.point_permutation", None),
        (stab, "count_incidences", "incidence3d.count", lines_observe),
        (stab, "plane_richness", "incidence3d.richness", None),
        (inc, "count_incidences", "incidence3d.count", lines_observe),
        (inc, "plane_richness", "incidence3d.richness", None),
        (rng.DetRng, "sample", "rng.sample", None),
    ]
    needed = [(owner, attr) for owner, attr, _, _ in plain]
    needed += [(harness, "all_lines"), (harness, "csv")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in needed if not hasattr(owner, attr)]
    if missing:
        raise AttributeError(f"untraced: {', '.join(missing)}; update perfbench/layers.py")
    for owner, attr, name, observe in plain:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
    harness.all_lines = tracer.wrap_generator("incidence3d.all_lines", harness.all_lines)
    harness.csv = _CsvProxy(tracer, harness.csv)
