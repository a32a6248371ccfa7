"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the discflux modules from the
outside: it replaces every module attribute that holds one of those function
objects (the defining module, every module that imported the name and the
package namespace; the benchmark's own modules call through module
attributes) and patches
``FluxSegment.deriv_bounds`` on the class.  Each call becomes a span with an
id, its parent's id, a name, a start and an end; self time is the span's
duration minus the time its direct child spans cover.  Nothing inside the
package is edited.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# modules whose public functions are layers; ``exact`` is a test-only oracle
LAYER_MODULES = ("config", "grid", "fluxes", "solver", "analysis", "cli")


class Tracer:
    """Records spans and per-name aggregates while installed.

    ``aggregates[name]`` is ``[calls, inclusive_s, self_s]``.  ``counts`` holds
    exact work counters filled by per-layer hooks (steps, cell updates,
    retained bytes, custom-law evaluations inside ``invert``).  Raw spans are
    ``(id, parent_id, name, start, end)`` tuples, kept only with
    ``keep_spans`` so that a run which needs just the counters does not grow
    its peak memory.  They are stored as five flat columns: appending numbers
    creates no objects the cyclic garbage collector has to scan, which would
    otherwise inflate the tracing overhead on runs with 10^5 spans.
    """

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.aggregates: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._columns = ([], [], [], [], [])
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(*self._columns))

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open."""
        return any(frame[2] == name for frame in self._stack)

    # {{{ wrapping

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack
        tracer = self
        keep = self.keep_spans
        ids, parents, names, starts, ends = self._columns

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            token = hook.before(tracer, args, kwargs) if hook else None
            frame = [0.0, sid, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = tracer.aggregates.get(name)
                if agg is None:
                    agg = tracer.aggregates[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if keep:
                    ids.append(sid)
                    parents.append(parent)
                    names.append(name)
                    starts.append(start)
                    ends.append(end)
            if hook:
                hook.after(tracer, token, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every namespace that holds a layer function."""
        from discflux import fluxes

        originals = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"discflux.{short}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    name = f"{short}.{attr}"
                    originals[id(value)] = self._wrap(name, value, HOOKS.get(name))

        namespaces = [m for n, m in sys.modules.items()
                      if n == "discflux" or n.startswith("discflux.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

        method = fluxes.FluxSegment.deriv_bounds
        self._patches.append((fluxes.FluxSegment, "deriv_bounds", method))
        fluxes.FluxSegment.deriv_bounds = self._wrap("fluxes.deriv_bounds", method)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
        self._stack.clear()

    # }}}


# {{{ counting hooks


class _RunHook:
    """Steps, cell updates and retained bytes from what ``run`` returns."""

    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, token, args, kwargs, result):
        grid = kwargs["grid"] if "grid" in kwargs else args[1]
        tracer.add("solver.steps", result.final.step)
        tracer.add("solver.cell_updates", result.final.step * grid.n)
        if result.levels:
            tracer.add("solver.retained_bytes", sum(lv.u.nbytes for lv in result.levels))


class _StepHook:
    """Counts and times ``step`` calls made outside ``run``, which reports its own."""

    def before(self, tracer, args, kwargs):
        return tracer.inside("solver.run"), perf_counter()

    def after(self, tracer, token, args, kwargs, result):
        inside_run, start = token
        if not inside_run:
            tracer.add("solver.steps", 1)
            tracer.add("solver.cell_updates", result.u.size)
            tracer.add("solver.standalone_step_s", perf_counter() - start)


class _InvertHook:
    """Scalar custom-law evaluations spent inside ``invert`` on custom laws."""

    def before(self, tracer, args, kwargs):
        seg = kwargs["seg"] if "seg" in kwargs else args[0]
        if seg.kind != "custom":
            return None
        return seg.func, getattr(seg.func, "scalar_evals", 0)

    def after(self, tracer, token, args, kwargs, result):
        if token is None:
            return
        law, before = token
        tracer.add("fluxes.invert.custom_calls", 1)
        tracer.add("fluxes.invert.custom_evals", getattr(law, "scalar_evals", 0) - before)


HOOKS = {
    "solver.run": _RunHook(),
    "solver.step": _StepHook(),
    "fluxes.invert": _InvertHook(),
}

# }}}


def top_level_seconds(spans, prefix: str) -> float:
    """Inclusive time of spans named ``prefix*`` whose parent is not one."""
    names = {sid: name for sid, _, name, _, _ in spans}
    return sum(
        end - start
        for sid, parent, name, start, end in spans
        if name.startswith(prefix) and not names.get(parent, "").startswith(prefix)
    )
