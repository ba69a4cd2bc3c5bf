"""Per-layer tracing of optomech, installed from outside the package.

`Tracer.install` replaces the public functions of each layer with timing
wrappers, in every loaded `optomech` module that holds them: the defining
module, the modules that import them by name, and module-level dicts of
functions such as `duan._LOWER_FUNCS`. `Tracer.uninstall` puts the originals
back, so untraced passes run the unmodified program.

A call into a group opens a span with the enclosing span as its parent. A
group entered again inside itself is not counted twice. Every group keeps
aggregate counters (calls, busy and self time, work counts); individual
spans are kept only for the first `SPAN_CAP` calls of a name in a pass, so
hot kernels called ~1e6 times per pass cost a counter, not memory.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

#: spans kept per name and pass; later calls only update the counters
SPAN_CAP = 10_000


def _size(value) -> int:
    size = getattr(value, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(value)
    except TypeError:
        return 1


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_points(index, name):
    def count(stat, args, kwargs, result):
        stat.add("points", _size(_arg(args, kwargs, index, name)))

    return count


def _count_displacement(stat, args, kwargs, result):
    stat.add("entries", (int(_arg(args, kwargs, 1, "n_max")) + 1) ** 2)


def _note_state(stat, state):
    stat.peak("n_c_max", state.config.n_max_c)
    stat.peak("ensemble_size_max", len(state.weights))


def _count_evolution(stat, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    t = float(_arg(args, kwargs, 1, "t"))
    k = float(_arg(args, kwargs, 2, "k"))
    _note_state(stat, state)
    # computed, not measured: one complex n_c x n_c mat-vec (8 n_c^2 flop)
    # per ensemble member and per photon-number row with delta != 0
    if k != 0.0 and cmath.exp(-1j * t) != 1.0:
        na1, nb1, nc1 = state.shape
        rows = na1 * nb1 - min(na1, nb1)
        stat.add("gflop_computed", 8.0 * len(state.weights) * rows * nc1 ** 2 / 1e9)


def _count_initial_state(stat, args, kwargs, result):
    _note_state(stat, result)


def _count_design(stat, args, kwargs, result):
    stat.add("grid_points", int(result.n_evaluated))


@dataclass(frozen=True)
class Group:
    """One per-layer metric group: the functions it wraps and what it counts."""

    name: str
    module: str
    functions: tuple
    count: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


GROUPS = (
    Group("core.kernels", "optomech.core", ("eta", "big_b", "xi"), _count_points(0, "t")),
    Group("qubit.reduced_rho_ab", "optomech.qubit", ("reduced_rho_ab",), _count_points(0, "t")),
    Group("qubit.concurrence", "optomech.qubit", ("concurrence",)),
    Group("qubit.von_neumann_entropy", "optomech.qubit", ("von_neumann_entropy",)),
    Group("qubit.check_density_matrix", "optomech.qubit", ("check_density_matrix",)),
    Group("qubit.timeseries", "optomech.qubit", ("timeseries",), _count_points(2, "t_grid")),
    Group("duan.min_over_window", "optomech.duan", ("min_over_window",)),
    Group(
        "duan.curves",
        "optomech.duan",
        (
            "duan_ab_values", "duan_ac_values", "duan_bc_values",
            "duan_ab_lower", "duan_ac_lower", "duan_bc_lower",
            "duan_values",
        ),
        _count_points(0, "t"),
    ),
    Group("duan.records", "optomech.duan", ("duan_ab", "duan_ac", "duan_bc")),
    Group("oracle.displacement_matrix", "optomech.oracle", ("displacement_matrix",), _count_displacement),
    Group("oracle.apply_evolution", "optomech.oracle", ("apply_evolution",), _count_evolution),
    Group("oracle.build_initial_state", "optomech.oracle", ("build_initial_state",), _count_initial_state),
    Group("oracle.moments", "optomech.oracle", ("moments",)),
    Group("oracle.partial_trace", "optomech.oracle", ("partial_trace",)),
    Group("oracle.hamiltonian_expectation", "optomech.oracle", ("hamiltonian_expectation",)),
    Group("design.optimize_design", "optomech.design", ("optimize_design",), _count_design),
    Group("design.design_report", "optomech.design", ("design_report",)),
)


@dataclass
class Stat:
    """Aggregate counters of one span name within a pass."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id", "parent_id", "outer")

    def __init__(self, name, layer, start, span_id, parent_id, outer):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.outer = outer


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.present = {}
        self.stats: dict[str, Stat] = {}
        self.layer_busy: dict[str, float] = {}
        self.spans: list = []
        self._kept: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._next_id = 1
        self._patched: list = []

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear counters, keep the recorded spans."""
        self.stats = {}
        self.layer_busy = {}
        self._kept = {}

    def enter(self, name: str, layer: str) -> _Frame | None:
        if self._depth.get(name):
            return None
        self._depth[name] = 1
        outer = not self._depth.get(layer)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        parent_id = self._stack[-1].span_id if self._stack else 0
        frame = _Frame(name, layer, time.perf_counter(), self._next_id, parent_id, outer)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> Stat:
        end = time.perf_counter()
        self._stack.pop()
        self._depth[frame.name] = 0
        self._depth[frame.layer] -= 1
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        if frame.outer:
            self.layer_busy[frame.layer] = self.layer_busy.get(frame.layer, 0.0) + duration
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = Stat()
        stat.calls += 1
        stat.busy_s += duration
        stat.self_s += duration - frame.child
        kept = self._kept.get(frame.name, 0)
        if kept < SPAN_CAP:
            self._kept[frame.name] = kept + 1
            self.spans.append((frame.span_id, frame.parent_id, frame.name, frame.start, end))
        return stat

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around a block."""
        frame = self.enter(name, layer)
        try:
            yield
        finally:
            if frame is not None:
                self.exit(frame)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    # -- patching -------------------------------------------------------

    def _wrap(self, fn, group: Group):
        tracer = self
        name, layer, count = group.name, group.layer, group.count

        def traced(*args, **kwargs):
            frame = tracer.enter(name, layer)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer.exit(frame)
            if count is not None:
                count(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every group's functions wherever an optomech module holds them."""
        modules = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "optomech" or mod_name.startswith("optomech."))
        ]
        for group in GROUPS:
            home = importlib.import_module(group.module)
            found = False
            for fname in group.functions:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    continue
                found = True
                self._replace_everywhere(modules, fn, self._wrap(fn, group))
            self.present[group.name] = found

    def _replace_everywhere(self, modules, fn, wrapper) -> None:
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._patched.append((namespace, key, fn))
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            self._patched.append((value, dkey, fn))
                            value[dkey] = wrapper

    def uninstall(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            container[key] = original

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines (id, parent, name, start, end)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": name,
                    "start": start, "end": end,
                }) + "\n")

