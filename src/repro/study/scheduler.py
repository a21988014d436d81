"""Unit-sharded analysis scheduler.

The experiments decompose into fine-grained *units*: one pipeline
simulation, activity-model pass, fetch walk, trace-walk reduction or
static analysis over one ``(workload, scale)``.  Every kind is a
declarative :class:`Unit` subclass: it names its ``kind``, its identity
fields, how it reads the trace, how to compute itself and how its
result travels to and from a stored payload.

* :class:`SimUnit` — ``simulate(organization, trace)`` under a named
  pipeline kernel (see :mod:`repro.pipeline.kernel`), optionally with
  a bimodal predictor attached (the Section 3 future-work variant);
* :class:`ActivityUnit` — an :class:`~repro.pipeline.activity.ActivityModel`
  pass under a declarative configuration key;
* :class:`FetchUnit` — Section 2.3 :class:`~repro.core.icompress.FetchStatistics`
  over the instruction stream;
* :class:`WalkUnit` — one :class:`~repro.study.walkers.TraceWalker`
  reduction (pattern counts, PC-stream activity, value-level ablation
  scans) over the record stream;
* :class:`AnalysisUnit` / :class:`TagTableUnit` — static analysis of
  the assembled program (no trace at all).

:class:`ResultBroker` executes units with a three-level fallthrough —
in-memory memo → persistent :class:`~repro.study.result_store.ResultStore`
→ compute — so a unit shared by several experiments (``baseline32``
appears in every figure; ``byte_serial`` in fig4, fig6 and the
bottleneck analysis) runs **at most once per session**, and not at all
when a warm result store holds it.  :meth:`ResultBroker.run_units` is
the engine's one parallel fan-out: pending units run on the
:class:`~repro.study.supervisor.SupervisedExecutor` under ``--jobs N``,
sharding *within* an experiment rather than only across experiments;
because every unit is deterministic, study reports reassemble
byte-identically regardless of scheduling.

Units that read the trace as a stream (walk units) fuse: all pending
ones for the same ``(workload, scale)`` execute in **one** streaming
decode pass (:meth:`~repro.study.session.TraceStore.stream`), so a cold
``repro all`` decodes each trace at most once for every walk study
combined — and, when the trace is already in the persistent cache,
never builds the full record list at all.

:func:`resolve` is the study modules' one entry point: through the
session's broker when the store carries one, a direct compute
otherwise.
"""

import multiprocessing
import sys

from repro.obs import tracing

from repro.analysis.driver import (
    ANALYSIS_VERSION,
    analyze_workload,
    unwrap_analysis_payload,
    wrap_analysis_payload,
)
from repro.analysis.tag_table import (
    build_tag_table,
    unwrap_tag_payload,
    wrap_tag_payload,
)
from repro.core.compress import get_scheme
from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import FetchStatistics
from repro.pipeline.activity import ActivityModel, ActivityReport
from repro.pipeline.base import InOrderPipeline, PipelineResult
from repro.pipeline.kernel import default_kernel_name, get_kernel
from repro.pipeline.organizations import get_organization
from repro.pipeline.predictor import BimodalPredictor
from repro.sim.hierarchy_model import default_hierarchy_name, get_hierarchy
from repro.sim.tracefile import TraceCodecError
from repro.study.session import resolve_trace
from repro.study.supervisor import SupervisedExecutor
from repro.study.walkers import (
    build_walker,
    unwrap_payload,
    validate_spec,
    spec_jsonable,
    walker_slug,
    wrap_payload,
)

#: The only recognised SimUnit variant besides None: a bimodal direction
#: predictor with an ideal BTB attached to the pipeline.
BIMODAL_VARIANT = "bimodal"


class Unit:
    """One deterministic analysis result over one ``(workload, scale)``.

    A kind declares, rather than being dispatched on: :attr:`kind`, its
    identity :attr:`fields` (after ``workload`` and ``scale``), how it
    reads the trace (:attr:`trace`), :meth:`compute`, and the payload
    round trip (:meth:`to_payload` / :meth:`from_payload`).  The base
    supplies identity — equality and hashing include the unit *type*,
    so kinds with the same field shape (``FetchUnit``, ``AnalysisUnit``
    and ``TagTableUnit`` are all ``(workload, scale)``) never collide as
    memo keys — plus the store :meth:`descriptor`, :meth:`slug`,
    :meth:`label` and pickling.  Units are immutable.
    """

    __slots__ = ("workload", "scale")
    #: The descriptor's ``kind`` (and the default :meth:`slug`).
    kind = None
    #: Identity fields after ``workload`` and ``scale``.
    fields = ()
    #: How :meth:`compute` reads the trace: ``"list"`` (the full record
    #: list), ``"stream"`` (one pass; pending units over the same trace
    #: fuse into a single pass) or ``None`` (no trace at all).
    trace = "list"
    #: Result class whose ``to_dict``/``from_dict`` form the payload.
    result_type = None
    #: Counters a memo hit and a compute book under (label -> count).
    hit_counter = "sim_hits"
    miss_counter = "sim_misses"

    def __init__(self, workload, scale, *values):
        if len(values) != len(self.fields):
            raise TypeError(
                "%s takes %d identity fields %r, got %d"
                % (type(self).__name__, len(self.fields), self.fields,
                   len(values))
            )
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "scale", scale)
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, value)

    def identity(self):
        """``(workload, scale, *fields)``."""
        return (self.workload, self.scale) + tuple(
            getattr(self, name) for name in self.fields
        )

    def __setattr__(self, name, value):
        raise AttributeError("units are immutable (memo and store keys)")

    def __eq__(self, other):
        """Equal only to the same unit type with the same fields."""
        return type(self) is type(other) and self.identity() == other.identity()

    def __hash__(self):
        """Hash over ``(kind, *identity)`` so distinct kinds never collide."""
        return hash((self.kind,) + self.identity())

    def __reduce__(self):
        return type(self), self.identity()

    def __repr__(self):
        names = ("workload", "scale") + self.fields
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % pair for pair in zip(names, self.identity())
        ))

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        descriptor = {"kind": self.kind}
        for name in self.fields:
            descriptor[name] = spec_jsonable(getattr(self, name))
        return descriptor

    def slug(self):
        """Filename-safe unit name."""
        return self.kind

    def label(self):
        """Human-readable counter key: ``workload@scale/slug``."""
        return "%s@%d/%s" % (self.workload, self.scale, self.slug())

    def pin(self, kernel, hierarchy):
        """This unit under a broker's simulation backends (most ignore them)."""
        return self

    def compute(self, workload, traces):
        """The result, over ``traces`` (a TraceStore, or None for the
        workload's own cache)."""
        raise NotImplementedError

    def to_payload(self, result):
        """The JSON-able payload the result store persists."""
        return result.to_dict()

    def from_payload(self, payload):
        """The result from a stored payload (ValueError/TypeError if unusable)."""
        return self.result_type.from_dict(payload)


def _backend(name, default, lookup):
    """``name`` (or the process default) checked against its registry."""
    if name is None:
        return default()
    try:
        lookup(name)  # unknown names fail here, not at compute
    except KeyError as error:
        raise ValueError(str(error))
    return name


class SimUnit(Unit):
    """One pipeline simulation:
    (workload, scale, organization, variant, kernel, hierarchy).

    ``kernel`` names the simulation backend and ``hierarchy`` the
    memory-hierarchy backend (``None`` resolves each to its process
    default at construction, so units built by experiment specs and
    units built by runners always agree).  Because both names are part
    of the unit identity — and of :meth:`descriptor`, hence of every
    persistent result-store key — cached results from different
    backends can never mix.
    """

    __slots__ = fields = ("organization", "variant", "kernel", "hierarchy")
    kind = "pipeline"
    result_type = PipelineResult

    def __init__(self, workload, scale, organization, variant=None,
                 kernel=None, hierarchy=None):
        if variant not in (None, BIMODAL_VARIANT):
            raise ValueError("unknown simulation variant %r" % (variant,))
        super().__init__(
            workload, scale, organization, variant,
            _backend(kernel, default_kernel_name, get_kernel),
            _backend(hierarchy, default_hierarchy_name, get_hierarchy),
        )

    def slug(self):
        """Filename-safe unit name."""
        if self.variant is None:
            return self.organization
        return "%s+%s" % (self.organization, self.variant)

    def pin(self, kernel, hierarchy):
        """This simulation under the given backends.

        Experiment specs build units without a session reference; the
        broker pins its session's ``--kernel`` / ``--hierarchy`` here.
        """
        if (self.kernel, self.hierarchy) == (kernel, hierarchy):
            return self
        return SimUnit(
            self.workload, self.scale, self.organization, self.variant,
            kernel, hierarchy,
        )

    def compute(self, workload, traces):
        """Simulate; the wall time is booked per kernel and hierarchy."""
        records = resolve_trace(workload, self.scale, traces)
        predictor = (
            BimodalPredictor() if self.variant == BIMODAL_VARIANT else None
        )
        pipeline = InOrderPipeline(
            get_organization(self.organization), predictor=predictor,
            kernel=self.kernel, hierarchy=self.hierarchy,
        )
        with tracing.span(
            "pipeline.run:%s" % self.label(), "compute",
            kernel=self.kernel, hierarchy=self.hierarchy,
            organization=self.organization, workload=self.workload,
        ) as handle:
            result = pipeline.run(records)
        if traces is not None:
            # Booked where the simulation ran: a forked worker ships the
            # registry delta back with its result.
            counter = traces.registry.counter
            counter("sim_units").inc(self.kernel)
            counter("sim_compute_seconds").inc(self.kernel, handle.seconds)
            counter("sim_instructions").inc(self.kernel, result.instructions)
            counter("hierarchy_seconds").inc(self.hierarchy, handle.seconds)
        return result


class ActivityUnit(Unit):
    """One activity-model pass; ``config`` is ActivityModel.config_key()."""

    __slots__ = fields = ("config",)
    kind = "activity"
    result_type = ActivityReport

    def slug(self):
        """Filename-safe unit name."""
        scheme_name, pc_block_bits, _latch_boundaries, ext_in_memory = self.config
        return "activity-%s-pc%d%s" % (
            scheme_name,
            pc_block_bits,
            "-mem" if ext_in_memory else "",
        )

    def compute(self, workload, traces):
        """Run the configured activity model over the trace."""
        records = resolve_trace(workload, self.scale, traces)
        return model_from_config(self.config).process(
            records, name=workload.name
        )


class FetchUnit(Unit):
    """One fetch-statistics walk (default instruction compressor)."""

    __slots__ = ()
    kind = "fetch"
    result_type = FetchStatistics

    def compute(self, workload, traces):
        """Tally the trace's instruction stream."""
        stats = FetchStatistics()
        for record in resolve_trace(workload, self.scale, traces):
            stats.record(record.instr)
        return stats


class WalkUnit(Unit):
    """One trace-walk reduction; ``walker`` is a spec tuple.

    See :mod:`repro.study.walkers` for the spec vocabulary.  The spec
    rides into the result-store descriptor, so payloads from different
    walkers (or differently parameterized ones) never mix; the stored
    payload itself carries a version + spec envelope as a second check.
    """

    __slots__ = fields = ("walker",)
    kind = "walk"
    trace = "stream"
    hit_counter = "walk_hits"
    miss_counter = "walk_misses"

    def __init__(self, workload, scale, walker):
        super().__init__(workload, scale, validate_spec(walker))

    def slug(self):
        """Filename-safe unit name."""
        return "walk-%s" % walker_slug(self.walker)

    def compute(self, workload, traces):
        """One streaming pass of this walker (see :func:`walk`)."""
        return walk([self], workload, traces)[0]

    def to_payload(self, result):
        """The versioned, spec-tagged walker envelope."""
        return wrap_payload(self.walker, result)

    def from_payload(self, payload):
        """The payload data, checked against this unit's spec."""
        return unwrap_payload(self.walker, payload)


class _ProgramUnit(Unit):
    """A unit over the *assembled program*, not the trace.

    The analysis version rides in the descriptor (and in the stored
    envelope), so results from an older analyzer fail closed and
    recompute.
    """

    __slots__ = ()
    trace = None

    def descriptor(self):
        """JSON-able identity for the persistent result store."""
        return {"kind": self.kind, "version": ANALYSIS_VERSION}


class AnalysisUnit(_ProgramUnit):
    """One static-analysis summary (CFG + significance bounds + lints)."""

    __slots__ = ()
    kind = "analyze"

    def compute(self, workload, traces):
        """Analyze the workload's program."""
        return analyze_workload(workload, scale=self.scale)

    def to_payload(self, result):
        """The versioned analysis envelope."""
        return wrap_analysis_payload(result)

    def from_payload(self, payload):
        """The summary from a versioned envelope."""
        return unwrap_analysis_payload(payload)


class TagTableUnit(_ProgramUnit):
    """One static tag table (per-PC operand widths for ``static-byte``)."""

    __slots__ = ()
    kind = "tags"

    def compute(self, workload, traces):
        """Build the tag table from the interprocedural analysis."""
        return build_tag_table(workload.program(self.scale))

    def to_payload(self, result):
        """The versioned tag-table envelope."""
        return wrap_tag_payload(result)

    def from_payload(self, payload):
        """The table from a versioned envelope."""
        return unwrap_tag_payload(payload)


def activity_config(scheme=BYTE_SCHEME, ext_bits_in_memory=False):
    """The config key of a study-standard ActivityModel over ``scheme``.

    Built through a throwaway model so declarative unit requests and the
    runtime model can never disagree about the key.
    """
    return ActivityModel(
        scheme=scheme, ext_bits_in_memory=ext_bits_in_memory
    ).config_key()


def model_from_config(config):
    """Reconstruct the ActivityModel an :class:`ActivityUnit` describes."""
    scheme_name, pc_block_bits, latch_boundaries, ext_bits_in_memory = config
    return ActivityModel(
        scheme=get_scheme(scheme_name),
        pc_block_bits=pc_block_bits,
        latch_boundaries=latch_boundaries,
        ext_bits_in_memory=ext_bits_in_memory,
    )


def walk(units, workload, traces):
    """Payloads of the walk ``units`` (one trace) from one record pass.

    The pass streams when ``traces`` can (see
    :meth:`~repro.study.session.TraceStore.stream`).  A damaged cache
    entry surfacing mid-stream poisons the partially fed walkers, so
    they are all rebuilt and re-fed from the full trace (the stream's
    own fail-closed handling already removed the entry).  Returns
    payload data dicts in unit order.
    """
    scale = units[0].scale
    try:
        return _feed(units, resolve_trace(workload, scale, traces, stream=True))
    except TraceCodecError:
        return _feed(units, resolve_trace(workload, scale, traces))


def _feed(units, records):
    walkers = [build_walker(unit.walker) for unit in units]
    feeds = [walker.feed for walker in walkers]
    for record in records:
        for feed in feeds:
            feed(record)
    return [
        walker.traced_finish(unit.slug())
        for walker, unit in zip(walkers, units)
    ]


def resolve(unit, workload, store=None):
    """The result of ``unit`` over ``workload``.

    With a broker-carrying store (``store.results``) the request goes
    through the unit scheduler (memoized, persisted, walk units fused);
    otherwise the unit computes directly over the store's traces, or
    the workload's own cache when ``store`` is None.
    """
    broker = getattr(store, "results", None)
    if broker is not None:
        return broker.get(unit, workload)
    return unit.compute(workload, store)


class ResultBroker:
    """Memoizing executor for analysis units.

    Sits on top of a :class:`~repro.study.session.TraceStore` (traces)
    and an optional :class:`~repro.study.result_store.ResultStore`
    (persistence).  Every request falls through memory → disk → compute;
    the counters prove the discipline:

    * :attr:`sim_misses` — units actually computed in this process (the
      acceptance criterion: a warm run reports an empty dict);
    * :attr:`sim_hits` — requests served from the in-memory memo;
    * :attr:`walk_misses` / :attr:`walk_hits` — the same discipline for
      trace-walk units (a warm run walks nothing);
    * :attr:`disk_hits` — units loaded from the persistent store.
    """

    def __init__(self, trace_store, result_store=None, kernel=None,
                 hierarchy=None, max_retries=None, unit_timeout=None):
        self.traces = trace_store
        self.store = result_store
        #: Supervision knobs for the parallel path (``--max-retries`` /
        #: ``--unit-timeout``); ``None`` means the supervisor defaults.
        self.max_retries = max_retries
        self.unit_timeout = unit_timeout
        #: Pipeline kernel this broker schedules with.  Session-scoped:
        #: every SimUnit it schedules is pinned to it, so a broker never
        #: mixes backends no matter what the process default is.
        self.kernel = kernel if kernel is not None else default_kernel_name()
        #: Memory-hierarchy backend, pinned the same way: part of every
        #: SimUnit identity this broker schedules, so cached results
        #: from different hierarchy models never mix either.
        self.hierarchy = (
            hierarchy if hierarchy is not None else default_hierarchy_name()
        )
        self._memo = {}
        self._workloads = {}
        #: The metrics registry every broker instrument lives in —
        #: shared with the trace store's, so one snapshot/merge covers
        #: trace and unit counters alike.
        self.registry = trace_store.registry
        counter = self.registry.counter
        #: unit label -> count, mirroring TraceStore's counter style.
        self.sim_hits = counter(
            "sim_hits", "unit requests served from the in-memory memo"
        )
        self.sim_misses = counter(
            "sim_misses", "units actually computed in this session"
        )
        self.walk_hits = counter(
            "walk_hits", "walk-unit requests served from the memo"
        )
        self.walk_misses = counter(
            "walk_misses", "walk units actually computed in this session"
        )
        self.disk_hits = counter(
            "result_disk_hits", "units loaded from the persistent store"
        )
        # The per-kernel simulation timing triple, decomposed into three
        # counters (kernel name -> value) that SimUnit.compute books;
        # :attr:`sim_seconds` rebuilds the report's nested shape.
        self._sim_units = counter(
            "sim_units", "computed pipeline simulations per kernel"
        )
        self._sim_compute_seconds = counter(
            "sim_compute_seconds", "simulation wall seconds per kernel"
        )
        self._sim_instructions = counter(
            "sim_instructions", "instructions simulated per kernel"
        )
        #: hierarchy name -> summed simulation wall seconds: the same
        #: measurements bucketed by memory-hierarchy backend (the
        #: ``hierarchy_seconds`` counter of the JSON report).
        self.hierarchy_seconds = counter(
            "hierarchy_seconds", "simulation wall seconds per hierarchy"
        )
        #: Parallel runs that degraded to serial execution (and why) —
        #: the headless-visible form of the fork-unavailable warning.
        self.parallel_fallbacks = counter(
            "parallel_fallbacks", "parallel runs degraded to serial execution"
        )
        # The persistent result store reports its write failures and
        # degraded-mode flips through the same registry (the trace
        # cache is bound by the TraceStore that owns it).
        if self.store is not None and hasattr(self.store, "bind_registry"):
            self.store.bind_registry(self.registry)

    @property
    def sim_seconds(self):
        """Kernel name -> ``{"units", "seconds", "instructions"}``.

        The per-kernel timing shape the JSON report's ``sim_timings``
        field renders, rebuilt from the underlying registry counters
        (including measurements merged back from forked workers).
        """
        return {
            kernel: {
                "units": units,
                "seconds": self._sim_compute_seconds.get(kernel, 0.0),
                "instructions": self._sim_instructions.get(kernel, 0),
            }
            for kernel, units in self._sim_units.items()
        }

    def reset(self):
        """Zero every counter in the shared registry; the memo is kept.

        Two sessions reusing one store (hence one broker) would
        otherwise bleed the first session's counts into the second's
        report.  Memoized results stay valid — they are keyed by unit
        identity, not by session — so only the instruments reset.
        """
        self.registry.reset()

    # ------------------------------------------------------------- requests

    def get(self, unit, workload):
        """Memoized result of one unit: memory → disk → compute."""
        unit = unit.pin(self.kernel, self.hierarchy)
        self._run_units([unit], {workload.name: workload}, jobs=1)
        return self._memo[unit]

    def activity_report(self, model, workload, scale=1):
        """Memoized ``model.process(trace)``.

        Models whose configuration the declarative key cannot express
        (custom compressor or hierarchy) are computed directly, without
        memoization — correctness over reuse.
        """
        config = model.config_key()
        if config is None:
            records = self.traces.trace(workload, scale=scale)
            return model.process(records, name=workload.name)
        return self.get(ActivityUnit(workload.name, scale, config), workload)

    # ------------------------------------------------------------ scheduling

    def run_units(self, units, workloads_by_name, jobs=1):
        """Execute requested units (deduping them) serially or on the
        supervised executor.

        Duplicate requests — the same unit declared by several
        experiments, or already memoized — count as :attr:`sim_hits`
        (:attr:`walk_hits` for walk units).  Disk-warm units load in
        this process; only genuinely pending units reach the workers.
        Results land in the in-memory memo, so the experiment runners
        that follow recompute nothing.  Returns the computed count.

        Pending stream units are fused: one streaming decode pass per
        ``(workload, scale)`` feeds every walker for that trace, however
        many experiments requested them.  Traces that pending units need
        as full record lists are materialized here, before any fork and
        exactly once, so forked workers inherit them; a fully warm run
        therefore touches no trace at all — zero decodes, zero walks.
        """
        with tracing.span(
            "broker.run_units", "broker", requested=len(units), jobs=jobs
        ) as handle:
            computed = self._run_units(units, workloads_by_name, jobs)
            handle.note(computed=computed)
        return computed

    def _run_units(self, units, workloads_by_name, jobs):
        pending = []
        streams = {}
        seen = set()
        for unit in units:
            unit = unit.pin(self.kernel, self.hierarchy)
            if unit in self._memo or unit in seen:
                # Served by the memo (or by the pending compute below).
                self._count(unit.hit_counter, unit)
                with tracing.span(
                    "unit:%s" % unit.label(), "unit", kind=unit.kind,
                    path="memory",
                ):
                    pass
                continue
            seen.add(unit)
            workload = workloads_by_name[unit.workload]
            self._register(workload)
            with tracing.span(
                "unit:%s" % unit.label(), "unit", kind=unit.kind,
                path="disk",
            ) as probe:
                loaded = self._load_from_disk(unit, workload)
                if loaded is None:
                    probe.cancel()  # re-observed as a compute-path span
            if loaded is None:
                if unit.trace == "stream":
                    streams.setdefault(
                        (unit.workload, unit.scale), []
                    ).append(unit)
                else:
                    pending.append(unit)
        # Warm every trace the pending computes need as a full list, in
        # this process: forked workers then inherit the decoded records
        # instead of each decoding (or worse, simulating) their own copy.
        # Stream groups read the persistent cache when they can; a group
        # without a streamable entry falls back to the same warm list.
        warm = [(unit.workload, unit.scale) for unit in pending if unit.trace]
        warm += [
            key for key in streams
            if key not in warm and not self.traces.streamable(
                workloads_by_name[key[0]], scale=key[1]
            )
        ]
        for name, scale in dict.fromkeys(warm):
            self.traces.trace(workloads_by_name[name], scale=scale)
        tasks = pending + list(streams.values())
        if jobs > 1 and len(tasks) > 1:
            results = self._compute_parallel(tasks, jobs)
        else:
            results = [self._run_task(task) for task in tasks]
        computed = 0
        for task, result in zip(tasks, results):
            if not isinstance(task, list):
                task, result = [task], [result]
            for unit, payload in zip(task, result):
                self._install(unit, workloads_by_name[unit.workload], payload)
            computed += len(task)
        return computed

    def _run_task(self, task):
        """Compute one scheduling task: a unit, or a fused walk group."""
        if isinstance(task, list):
            first = task[0]
            with tracing.span(
                "unit:%s" % self._task_label(task), "unit", kind=first.kind,
                path="compute", units=len(task),
            ):
                return self._walk_group(
                    self._workloads[first.workload], first.scale, task
                )
        with tracing.span(
            "unit:%s" % task.label(), "unit", kind=task.kind, path="compute",
        ):
            return task.compute(self._workloads[task.workload], self.traces)

    def _shipped_run_task(self, task):
        # Runs in a forked worker.  The worker's counters (decodes, sim
        # timings) and spans die with it: ship the registry delta
        # (snapshot → diff) and the recorded events back alongside the
        # result so the parent's report stays truthful.
        before = self.registry.snapshot()
        tracer = tracing.current_tracer()
        mark = tracer.event_count() if tracer is not None else 0
        result = self._run_task(task)
        events = tracer.events_since(mark) if tracer is not None else []
        return result, self.registry.snapshot().diff(before), events

    def _inline_run_task(self, task):
        # The supervisor's quarantine / last-resort path: same payload
        # shape as _shipped_run_task, but computed in this process, where
        # counters and spans record directly (hence no delta to merge).
        return self._run_task(task), None, None

    @staticmethod
    def _task_label(task):
        """Counter/span label for a scheduling task (unit or walk group)."""
        if isinstance(task, list):
            first = task[0]
            return "%s@%d/walkgroup" % (first.workload, first.scale)
        return task.label()

    def _compute_parallel(self, tasks, jobs):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform: stay correct, serial
            self.parallel_fallbacks.inc("fork-unavailable")
            print(
                "repro: fork start method unavailable on this platform; "
                "computing %d units serially despite --jobs %d"
                % (len(tasks), jobs),
                file=sys.stderr,
            )
            return [self._run_task(task) for task in tasks]
        executor = SupervisedExecutor(
            context=context,
            worker=self._shipped_run_task,
            inline=self._inline_run_task,
            registry=self.registry,
            jobs=min(jobs, len(tasks)),
            label_for=self._task_label,
            max_retries=self.max_retries,
            unit_timeout=self.unit_timeout,
        )
        tracer = tracing.current_tracer()
        results = []
        for result, delta, events in executor.run(tasks):
            if delta is not None:
                self.registry.merge(delta)
            if events and tracer is not None:
                tracer.extend(events)
            results.append(result)
        return results

    def _walk_group(self, workload, scale, units):
        """Execute every walker in ``units`` over one streaming pass."""
        with tracing.span(
            "walk.group:%s@%d" % (workload.name, scale), "compute",
            workload=workload.name, scale=scale, walkers=len(units),
            specs=[unit.slug() for unit in units],
        ):
            return walk(units, workload, self.traces)

    # -------------------------------------------------------------- internal

    def _register(self, workload):
        self._workloads[workload.name] = workload

    def _count(self, counter_name, unit):
        self.registry.get(counter_name).inc(unit.label())

    def _load_from_disk(self, unit, workload):
        """Memoize a persisted result; None when absent or unusable."""
        if self.store is None:
            return None
        payload = self.store.load(workload, unit)
        if payload is None:
            return None
        try:
            result = unit.from_payload(payload)
        except (ValueError, TypeError):
            return None
        self._memo[unit] = result
        self._count("result_disk_hits", unit)
        return result

    def _install(self, unit, workload, result):
        """Memoize a freshly computed result and write it back to disk."""
        self._memo[unit] = result
        self._count(unit.miss_counter, unit)
        if self.store is not None:
            self.store.store(workload, unit, unit.to_payload(result))

    def __repr__(self):
        return "ResultBroker(%d memoized, %d computed)" % (
            len(self._memo),
            sum(self.sim_misses.values()) + sum(self.walk_misses.values()),
        )
