"""Spans around calls into the program's layers, for the traced benchmark run.

:class:`SpanLog` keeps one record per call (name, start, end, parent) in
flat arrays, so a traced pass of a few million calls stays a few tens of
megabytes.  :class:`LayerPatches` swaps each entry point listed in
:data:`TARGETS` for a wrapper that opens and closes a span around it, at
every place the program or the benchmark holds a reference to it: a
function bound into another module with ``from ... import`` is patched
in that module too, or its calls would silently go uncounted.

Generator functions (DES processes and the serve/dbms/storage code they
``yield from``) are timed per resumption: each ``send``/``throw`` into the
generator is one span, so simulated waiting never counts as wall time.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, owner, attribute, span name).  ``owner`` is a class name in the
#: module, or ``None`` for a module-level function.  Span names start with
#: the layer they belong to; :func:`layer_of` maps a name to its layer.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.optimizer", None, "optimize_disk_first", "core.optimizer"),
    ("repro.core.optimizer", None, "optimize_cache_first", "core.optimizer"),
    ("repro.dbms.engine", "MiniDbms", "__init__", "dbms.build"),
    ("repro.dbms.engine", "MiniDbms", "serve_lookup", "dbms.serve"),
    ("repro.dbms.engine", "MiniDbms", "serve_scan", "dbms.serve"),
    ("repro.dbms.engine", "MiniDbms", "serve_insert", "dbms.serve"),
    ("repro.dbms.table", "HeapTable", "insert_row", "dbms.heap_insert"),
    *(
        (module, cls, method, f"core.{kind}.{method}")
        for module, cls, kind in (
            ("repro.baselines.disk_btree", "DiskBPlusTree", "disk"),
            ("repro.baselines.micro_index", "MicroIndexTree", "micro"),
            ("repro.core.disk_first", "DiskFirstFpTree", "fp-disk"),
            ("repro.core.cache_first", "CacheFirstFpTree", "fp-cache"),
        )
        for method in ("bulkload", "search", "insert", "range_scan")
    ),
    *(
        ("repro.mem.hierarchy", "MemorySystem", method, "mem.access")
        for method in (
            "read", "write", "prefetch", "read_run", "write_run", "prefetch_run", "probe_run",
        )
    ),
    ("repro.des.core", "Environment", "run", "des.run"),
    ("repro.des.core", "Environment", "step", "des.step"),
    ("repro.storage.buffer", "BufferPool", "access", "storage.buffer.access"),
    ("repro.storage.disk", "Disk", "service", "storage.disk.service"),
    ("repro.storage.disk", "Disk", "service_write", "storage.disk.service"),
    ("repro.storage.prefetch", "AsyncPageReader", "demand", "storage.prefetch.demand"),
    ("repro.storage.prefetch", "AsyncPageReader", "prefetch", "storage.prefetch.prefetch"),
    # The serve layer's public entry is submit(); the work it starts runs in
    # the DES processes below, which only their resumptions can time.
    ("repro.serve.server", "DbmsServer", "submit", "serve.submit"),
    ("repro.serve.server", "DbmsServer", "_client", "serve.client"),
    ("repro.serve.server", "DbmsServer", "_execute", "serve.execute"),
    ("repro.serve.loadgen", "OpenLoopLoadGenerator", "_arrivals", "serve.arrivals"),
    ("repro.shard.planner", "BoundaryPlanner", "optimized", "shard.plan"),
    ("repro.shard.router", "ShardRouter", "submit", "shard.submit"),
    ("repro.shard.router", "ShardRouter", "_client", "shard.client"),
    ("repro.shard.router", "ShardRouter", "_route", "shard.route"),
    ("repro.workloads.ops", "MixedOpStream", "next_op", "workloads.next_op"),
    ("repro.workloads.ops", None, "sample_ops", "workloads.sample_ops"),
)

#: Layers in the order they are reported; a span belongs to the longest
#: layer name its own name starts with.
LAYERS = (
    "core.optimizer", "core", "dbms", "mem", "des", "storage.buffer",
    "storage.disk", "storage.prefetch", "serve", "shard", "workloads",
)


def layer_of(span_name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {span_name!r} belongs to no layer")
    return best


class SpanLog:
    """Spans in flat arrays: start, end, name id, parent index, outermost flag.

    ``outer`` is 1 when no enclosing span has the same name, so a name's
    inclusive time counts a recursive or ``super()`` call once.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.end)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        depth = self._depth[nid]
        self.outer.append(depth == 0)
        self._depth[nid] = depth + 1
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self._depth[self.name[index]] -= 1

    def __len__(self) -> int:
        return len(self.end)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self.end)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name[outer], weights=duration[outer], minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(own[i]),
            }
            for i in range(k)
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz``), names included."""
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _traced_call(log: SpanLog, fn, nid: int):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = log.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)

    return traced


def _resumptions(log: SpanLog, generator, nid: int):
    """Drive ``generator``, timing each resumption as one span."""
    value = None
    error = None
    while True:
        index = log.open(nid)
        try:
            if error is None:
                target = generator.send(value)
            else:
                pending, error = error, None
                target = generator.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            log.close(index)
        try:
            value = yield target
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # delivered into the wrapped generator
            value, error = None, exc


def _traced_generator(log: SpanLog, fn, nid: int):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _resumptions(log, fn(*args, **kwargs), nid)

    return traced


class LayerPatches:
    """Installs span wrappers on every target, at every import site.

    Use as a context manager; leaving it restores the originals.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []
        #: (original, wrapper) pairs, for the import-site self-test.
        self.wrappers: list[tuple[object, object]] = []

    def __enter__(self) -> "LayerPatches":
        resolved = []
        # Resolve every original before patching any: a subclass that
        # inherits a method must be wrapped around the original, not
        # around its base class's wrapper.
        for module_name, owner_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            resolved.append((owner, owner_name, attr, span, original))
        for owner, owner_name, attr, span, original in resolved:
            nid = self.log.name_id(span)
            make = _traced_generator if inspect.isgeneratorfunction(original) else _traced_call
            wrapper = make(self.log, original, nid)
            self.wrappers.append((original, wrapper))
            if owner_name is None:
                for module, name in references(original):
                    self._set(module, name, wrapper)
            else:
                self._set(owner, attr, wrapper)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def stale_references(self) -> list[str]:
        """Places in the program that still hold an unwrapped original."""
        stale = []
        wrappers = [wrapper for __, wrapper in self.wrappers]
        for module_name, owner_name, attr, __ in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            if not any(getattr(owner, attr) is wrapper for wrapper in wrappers):
                stale.append(".".join(filter(None, (module_name, owner_name, attr))))
        for original, __ in self.wrappers:
            stale.extend(f"{module.__name__}.{name}" for module, name in references(original))
        return stale

    def __exit__(self, *exc) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()


_MISSING = object()
_BENCH_DIR = Path(__file__).resolve().parent


def _traced_module(name: str, module) -> bool:
    """The program's modules, and the benchmark's own (which call into it)."""
    if name == "repro" or name.startswith("repro."):
        return True
    path = getattr(module, "__file__", None)
    return path is not None and Path(path).resolve().parent == _BENCH_DIR


def references(value) -> list[tuple[object, str]]:
    """Every (module, attribute) of the program or the benchmark bound to ``value``."""
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if module is not None and _traced_module(name, module)
        for attr, candidate in list(vars(module).items())
        if candidate is value
    ]
