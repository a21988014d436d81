"""Traced launcher: run ``repro.cli.main`` with layer wrappers installed.

Usage (the benchmark runs this in a fresh interpreter whose
``PYTHONPATH`` points at a private copy of ``src/``)::

    python3 perfbench/shim.py SPANS_OUT -- <repro CLI arguments>

The shim times ``import repro.cli``, wraps the functions listed in
:data:`SPAN_LAYERS` and :data:`COUNT_LAYERS` from outside (no program
source changes), runs the CLI and writes what it recorded to
``SPANS_OUT`` as JSON:

* ``spans``: ``[name, start, end, parent]`` rows kept in memory during the
  run (``parent`` is the row index of the enclosing span, or -1);
* ``counts``: per-layer work counters (records, bytes, hits, calls of the
  functions that run once per record, which are counted, not timed);
* ``import_s``: seconds spent in ``import repro.cli``.

Nothing is printed, so the CLI's stdout is exactly what an untraced run
prints.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

clock = time.perf_counter

#: Layers wrapped as spans: (layer, module, attribute path).  A dotted
#: attribute is a method, patched on its class.
SPAN_LAYERS = (
    ("workloads.source", "repro.workloads.base", "Workload.source"),
    ("minic.compile", "repro.workloads.base", "Workload.program"),
    ("sim.interpret", "repro.workloads.base", "Workload.run"),
    ("tracefile.encode", "repro.sim.tracefile", "encode_records"),
    ("tracefile.decode", "repro.sim.tracefile", "load_trace"),
    ("trace_cache.source_hash", "repro.study.trace_cache", "source_hash"),
    ("trace_cache.load", "repro.study.trace_cache", "TraceCache.load"),
    ("trace_cache.store", "repro.study.trace_cache", "TraceCache.store"),
    ("kernel.expand", "repro.pipeline.kernel", "TabularKernel.expand"),
    ("kernel.simulate", "repro.pipeline.kernel", "TabularKernel.simulate"),
    ("activity.process", "repro.pipeline.activity", "ActivityModel.process"),
    ("walkers", "repro.study.scheduler", "ResultBroker._walk_group"),
    ("analysis.analyze", "repro.analysis.driver", "analyze_program"),
    ("analysis.tag_table", "repro.analysis.tag_table", "build_tag_table"),
    ("result_store.load", "repro.study.result_store", "ResultStore.load"),
    ("result_store.store", "repro.study.result_store", "ResultStore.store"),
    ("scheduler.run_units", "repro.study.scheduler", "ResultBroker.run_units"),
    ("runlog.write", "repro.obs.runlog", "write_runlog"),
    ("supervisor.run", "repro.study.supervisor", "SupervisedExecutor.run"),
    ("session.run", "repro.study.session", "ExperimentSession.run"),
    ("session.prepare", "repro.study.session", "ExperimentSession.prepare_units"),
)

#: Functions called once per record: counted under the given name.
COUNT_LAYERS = (
    ("hierarchy.memo_calls", "repro.sim.hierarchy_model", (
        "MemoHierarchy.ifetch_stall", "MemoHierarchy.data_stall",
        "MemoHierarchy.classify_block",
    )),
    ("hierarchy.reference_calls", "repro.sim.hierarchy", (
        "MemoryHierarchy.access_instruction", "MemoryHierarchy.access_data",
        "MemoryHierarchy.ifetch_stall", "MemoryHierarchy.data_stall",
        "MemoryHierarchy.classify_block",
    )),
)


def _size(value):
    try:
        return len(value)
    except TypeError:
        return 0


def _file_bytes(path):
    try:
        return os.path.getsize(path) if path else 0
    except (OSError, TypeError):
        return 0


def _interpreted():
    # Workload.run returns (records, interpreter), memoized per workload;
    # the interpreter is None when the trace came from disk.  A record
    # count is booked once per interpreter, i.e. once per real execution.
    seen = set()

    def note(call, result):
        interpreter = result[1]
        if interpreter is None or id(interpreter) in seen:
            return {}
        seen.add(id(interpreter))
        return {"sim.interpret_records": _size(result[0])}

    return note


def _counter_total(registry, name):
    metric = registry.jsonable()["metrics"].get(name, {})
    return sum(metric.get("values", {}).values())


def _runlog(call, result):
    # The manifest's registry carries the program's own counters (those
    # --format json reports), read here rather than parsed back from the
    # file.
    registry = call["registry"]
    return {
        "runlog.bytes": _file_bytes(result),
        "scheduler.disk_hits": _counter_total(registry, "result_disk_hits"),
        "supervisor.retries": _counter_total(registry, "unit_retries"),
    }


#: Per-layer counters taken from a wrapped call's arguments (by name) and
#: result: layer -> f(call, result) -> {counter: increment}.
NOTES = {
    "sim.interpret": _interpreted(),
    "tracefile.encode": lambda a, r: {"tracefile.encoded_bytes": len(r[0])},
    "tracefile.decode": lambda a, r: {"tracefile.decoded_records": _size(r[0])},
    "trace_cache.load": lambda a, r: {"trace_cache.load_hits": r is not None},
    "kernel.expand": lambda a, r: {"kernel.expand_records": _size(a["records"])},
    "kernel.simulate": lambda a, r: {
        "kernel.simulate_instructions": getattr(r, "instructions", 0)},
    "activity.process": lambda a, r: {"activity.records": _size(a["records"])},
    "result_store.load": lambda a, r: {"result_store.load_hits": r is not None},
    "result_store.store": lambda a, r: {
        "result_store.store_bytes_written": _file_bytes(r)},
    "scheduler.run_units": lambda a, r: {
        "scheduler.units_requested": _size(a["units"]),
        "scheduler.units_computed": r},
    "runlog.write": _runlog,
    "supervisor.run": lambda a, r: {"supervisor.tasks": _size(a["tasks"])},
}


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = {}
        self.pid = os.getpid()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index):
        self.spans[index][2] = clock()
        self.stack.pop()

    def span_wrapper(self, layer, function):
        note = NOTES.get(layer)
        signature = inspect.signature(function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.count(layer + "_calls")
            index = self._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                call = signature.bind(*args, **kwargs).arguments
                for name, amount in note(call, result).items():
                    self.count(name, int(amount))
            return result

        return wrapper

    def generator_wrapper(self, layer, function):
        # One span per next(), so time the consumer spends between items
        # is not charged to the layer.
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                index = self._open(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return wrapper

    def stream_wrapper(self, function):
        # Streaming decode (iter_records) yields one record at a time to
        # the walkers; its records are counted, its time stays inside the
        # enclosing walk span.
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            count = 0
            try:
                for record in function(*args, **kwargs):
                    count += 1
                    yield record
            finally:
                self.count("tracefile.decoded_records", count)

        return wrapper

    def count_wrapper(self, name, function):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def dump(self, path, import_s):
        document = {
            "import_s": import_s,
            "spans": self.spans,
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch(module_name, attribute, make):
    """Replace one function or method with ``make(original)``.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites see
    the wrapper too.
    """
    owner, name = _resolve(module_name, attribute)
    original = owner.__dict__[name]
    wrapped = make(original)
    setattr(owner, name, wrapped)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        space = getattr(module, "__dict__", None)
        if not getattr(module, "__name__", "").startswith("repro") or space is None:
            continue
        for key, value in list(space.items()):
            if value is original:
                space[key] = wrapped


def install(recorder):
    """Wrap every layer in :data:`SPAN_LAYERS` and :data:`COUNT_LAYERS`,
    the serial session generator, the streaming decoder and the walkers'
    ``feed``."""
    for layer, module_name, attribute in SPAN_LAYERS:
        _patch(module_name, attribute,
               functools.partial(recorder.span_wrapper, layer))
    # Serial `repro all` streams through run_iter instead of run.
    _patch("repro.study.session", "ExperimentSession.run_iter",
           functools.partial(recorder.generator_wrapper, "session.run"))
    for name, module_name, attributes in COUNT_LAYERS:
        for attribute in attributes:
            _patch(module_name, attribute,
                   functools.partial(recorder.count_wrapper, name))
    _patch("repro.sim.tracefile", "iter_records", recorder.stream_wrapper)
    walkers = importlib.import_module("repro.study.walkers")
    for value in vars(walkers).values():
        if (isinstance(value, type) and issubclass(value, walkers.TraceWalker)
                and "feed" in value.__dict__):
            value.feed = recorder.count_wrapper(
                "walkers.records_fed", value.__dict__["feed"]
            )


def main(argv):
    """Run the CLI traced; returns its exit code."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: shim.py SPANS_OUT -- <repro arguments>", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[2:]
    start = clock()
    import repro.cli
    import_s = clock() - start
    recorder = Recorder()
    install(recorder)
    try:
        code = repro.cli.main(cli_args)
    finally:
        # Forked workers never return here (they leave via os._exit);
        # the pid check keeps any other exit path from clobbering the file.
        if os.getpid() == recorder.pid:
            recorder.dump(spans_out, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
