"""Outside-in wall-clock layer ledger.

The ledger wraps the public entry points of each layer of the program
(class attributes, patched from outside; no program file changes) and
splits host time into per-layer *self* time with a stack: a call's self
time is its duration minus the wrapped calls nested inside it. Time no
wrapper covers is charged to the root frame and reported as the
``residual`` layer, so the layers add up to the root's wall time.

Roots are the benchmark's phases (``setup``, ``run``, ``check``). Switch
roots only between wrapped calls, with :meth:`Ledger.switch`.

Install the wrappers before any world is built: the transport and the
listeners' method registries keep bound methods from registration time,
and a world built earlier would call the unwrapped functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from dataclasses import dataclass
from time import perf_counter_ns

#: every public function the class itself defines
PUBLIC = "public"
#: every remotely callable handler (``@exported``) the class itself defines
EXPORTED = "exported"

#: layer -> (module, class, functions). Functions are wrapped on the class
#: and on every subclass the same module defines, where that subclass
#: overrides them (so each concrete ``Predicate.matches`` is covered).
LAYERS: dict[str, tuple[tuple[str, str, object], ...]] = {
    "calendar.manager": (("repro.calendar.meetings", "MeetingManager", PUBLIC),),
    "calendar.service": (("repro.calendar.service", "CalendarService", EXPORTED),),
    "kernel.engine": (
        ("repro.kernel.engine", "SyDEngine", ("execute", "execute_calls", "execute_group")),
    ),
    "kernel.listener": (("repro.kernel.listener", "SyDListener", ("handle_invoke",)),),
    "kernel.directory": tuple(
        (module, cls, ("lookup_user", "lookup_service", "group_members",
                       "lookup_users_many", "lookup_services_many"))
        for module, cls in (
            ("repro.kernel.directory", "DirectoryClient"),
            ("repro.kernel.sharding", "ShardedDirectoryClient"),
        )
    ),
    "txn.coordinator": (
        ("repro.txn.coordinator", "NegotiationCoordinator", ("execute_multi", "recover")),
    ),
    "txn.locks": (("repro.txn.locks", "LockManager", PUBLIC),),
    "txn.log": (("repro.txn.log", "IntentLog", PUBLIC),),
    "net.transport": (
        ("repro.net.transport", "Transport", ("rpc", "rpc_many", "rpc_hedged", "send")),
    ),
    "net.message": (("repro.net.message", "Message", ("__init__",)),),
    "net.dedup": (("repro.net.dedup", "DedupTable", ("record",)),),
    "datastore.store": (("repro.datastore.store", "RelationalStore", PUBLIC),),
    "datastore.table": (("repro.datastore.table", "Table", PUBLIC),),
    "datastore.predicate": (("repro.datastore.predicate", "Predicate", ("matches",)),),
    "datastore.schema": (
        ("repro.datastore.schema", "Schema", ("normalize_insert", "validate_update")),
    ),
    "datastore.wal": (("repro.datastore.wal", "ChangeJournal", ("append",)),),
    "datastore.triggers": (("repro.datastore.triggers", "TriggerManager", ("fire",)),),
    "obs.trace": (("repro.util.trace", "Tracer", ("span",)),),
    "obs.metrics": (
        ("repro.obs.metrics", "MetricsRegistry", ("inc", "observe", "record_value")),
    ),
    "sim.scheduler": (("repro.sim.kernel", "EventScheduler", ("run_until",)),),
}

#: the residual layer: root time outside every wrapped call
RESIDUAL = "residual"


def _selected(cls: type, methods: object) -> list[str]:
    names = []
    for name, value in vars(cls).items():
        if not inspect.isfunction(value) or getattr(value, "__isabstractmethod__", False):
            continue
        if methods == PUBLIC:
            keep = not name.startswith("_")
        elif methods == EXPORTED:
            keep = getattr(value, "_syd_exported", False)
        else:
            keep = name in methods
        if keep:
            names.append(name)
    return names


def _targets(module_name: str, class_name: str, methods: object) -> list[tuple[type, str]]:
    module = importlib.import_module(module_name)
    base = getattr(module, class_name)
    classes = [
        cls
        for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, base) and cls.__module__ == module_name
    ]
    targets = [(cls, name) for cls in classes for name in _selected(cls, methods)]
    if not targets:
        raise LookupError(f"no functions to wrap in {module_name}.{class_name}")
    return targets


@dataclass
class RootTotals:
    """Accumulated time of one root (phase) across switches."""

    wall_ns: int
    residual_ns: int
    self_ns: list[int]
    calls: list[int]


class Ledger:
    """Per-layer self time and call counts, split by root."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        n = len(self.layers)
        # The closures of the wrappers hold these lists: reset them in place.
        self._self_ns = [0] * n
        self._calls = [0] * n
        #: child time of each open frame; index 0 is the current root
        self._stack = [0]
        self._root: str | None = None
        self._root_start = 0
        self.roots: dict[str, RootTotals] = {}
        #: (layer index or root name, start ns, duration ns, depth) while
        #: capturing, else None; ``captured`` keeps them after capture stops
        self.spans: list[tuple] | None = None
        self.captured: list[tuple] = []
        self._patches: list[tuple[type, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's functions."""
        for index, layer in enumerate(self.layers):
            for module_name, class_name, methods in LAYERS[layer]:
                for cls, name in _targets(module_name, class_name, methods):
                    fn = vars(cls)[name]
                    inner = getattr(fn, "__wrapped__", None)
                    # A context-manager factory (Tracer.span) is timed on
                    # enter and exit only; the body is the caller's time.
                    if inner is not None and inspect.isgeneratorfunction(inner):
                        wrapper = self._context_wrapper(index, fn)
                    else:
                        wrapper = self._wrapper(index, fn)
                    self._patches.append((cls, name, fn))
                    setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for cls, name, fn in reversed(self._patches):
            setattr(cls, name, fn)
        self._patches.clear()

    def _wrapper(self, index: int, fn, counted: bool = True):
        self_ns, stack, ledger = self._self_ns, self._stack, self
        calls = self._calls if counted else [0] * len(self._calls)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[index] += 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[index] += elapsed - stack.pop()
                stack[-1] += elapsed
                if ledger.spans is not None:
                    ledger.spans.append((index, start, elapsed, len(stack)))

        return timed

    def _context_wrapper(self, index: int, factory):
        def open_span(ctx):
            ctx.cm = factory(*ctx.args, **ctx.kwargs)
            return ctx.cm.__enter__()

        enter = self._wrapper(index, open_span)
        # One call per span: the exit is timed but not counted again.
        leave = self._wrapper(index, lambda ctx, *exc: ctx.cm.__exit__(*exc), counted=False)

        class TimedSpan:
            __slots__ = ("args", "kwargs", "cm")

            def __init__(self, args, kwargs):
                self.args, self.kwargs = args, kwargs

            def __enter__(self):
                return enter(self)

            def __exit__(self, *exc):
                return leave(self, *exc)

        @functools.wraps(factory)
        def span(*args, **kwargs):
            return TimedSpan(args, kwargs)

        return span

    # -- roots ------------------------------------------------------------------

    def switch(self, root: str | None) -> None:
        """Close the current root and open ``root`` (None: stop charging)."""
        now = perf_counter_ns()
        if len(self._stack) != 1:
            raise RuntimeError("root switch inside a wrapped call")
        if self._root is not None:
            n = len(self.layers)
            totals = self.roots.setdefault(self._root, RootTotals(0, 0, [0] * n, [0] * n))
            wall = now - self._root_start
            totals.wall_ns += wall
            totals.residual_ns += wall - self._stack[0]
            for i, value in enumerate(self._self_ns):
                totals.self_ns[i] += value
                totals.calls[i] += self._calls[i]
            if self.spans is not None:
                self.spans.append((self._root, self._root_start, wall, 0))
        self._self_ns[:] = [0] * len(self._self_ns)
        self._calls[:] = [0] * len(self._calls)
        self._stack[0] = 0
        self._root = root
        self._root_start = perf_counter_ns()

    # -- span capture -------------------------------------------------------------

    def capture(self, on: bool) -> None:
        """Start or stop keeping spans in memory (kept until written)."""
        if on:
            self.spans = self.captured = []
        else:
            self.spans = None

    def write_trace(self, path: str, label: str) -> int:
        """Write captured spans as a Chrome/Perfetto trace; returns the count.

        Each span carries its parent's id: the innermost span one level up
        that opened before it (wrapped calls nest properly).
        """
        spans = sorted(self.captured, key=lambda s: (s[1], s[3]))
        origin = spans[0][1] if spans else 0
        open_at_depth: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"otherData":%s,"traceEvents":[' % json.dumps({"label": label}))
            for span_id, (what, start, elapsed, depth) in enumerate(spans):
                open_at_depth[depth] = span_id
                event = {
                    "name": what if isinstance(what, str) else self.layers[what],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) / 1000,
                    "dur": elapsed / 1000,
                    "args": {"id": span_id, "parent": open_at_depth.get(depth - 1)},
                }
                out.write(("," if span_id else "") + json.dumps(event, separators=(",", ":")))
            out.write("]}")
        return len(spans)
