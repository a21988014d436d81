"""Pluggable pipeline kernels: semantic expansion vs timing recurrence.

The trace-driven timing model fuses two unrelated concerns:

* **semantic expansion** — turning each trace record into the per-stage
  occupancies, fetch footprint, EX latency, register usage and
  control/memory timing *plans* its organization assigns it.  This is a
  pure function of the record and the organization.
* **the timing recurrence** — the stateful reservation model that
  threads those per-record facts through the five stages, the memory
  hierarchy and the optional branch predictor.

A :class:`PipelineKernel` implements both halves behind a two-method
protocol, so the recurrence can be reimplemented (vectorized,
table-driven, C-accelerated, remote) without touching study code:

* ``expand(records, organization) -> ExpandedTrace``
* ``simulate(expanded, hierarchy, predictor) -> PipelineResult``

``simulate``'s ``hierarchy`` is a per-run *hierarchy state* from the
pluggable backend registry (:mod:`repro.sim.hierarchy_model`): kernels
consume it only through the narrow timing protocol —
``ifetch_stall(pc)`` / ``data_stall(addr, is_store)`` returning bare
stall-cycle integers, plus ``stats()`` for the result — so any
registered hierarchy backend (``reference``, ``memo``, future
vectorized ones) slots under any kernel.

Two backends ship:

* ``reference`` — the original fused loop, relocated verbatim from
  ``InOrderPipeline.run``.  Its ``expand`` is a pass-through (the
  expansion happens inline, per record); it is the semantics oracle.
* ``tabular`` — expands over the trace's shared significance layer
  (:func:`repro.pipeline.siginfo.significance_layer`): the
  organization's hooks run once per *distinct* significance signature,
  not once per record (traces revisit the same static instructions
  with the same narrow values — the paper's own premise).  Its
  recurrence looks each record's timing up by signature id and keeps
  stage clocks, stall counters and register readiness in local
  variables.  Field-wise result equality with ``reference`` is
  enforced by the differential test suite.

Kernels register by name (:func:`register_kernel`); callers select one
via :func:`get_kernel`, the ``REPRO_KERNEL`` environment variable, the
``repro --kernel`` CLI flag, or :func:`set_default_kernel`.  The unit
scheduler records the kernel name in every persistent result-store key,
so cached results never mix backends.
"""

from repro.obs import tracing
from repro.pipeline.base import PipelineResult
from repro.pipeline.organizations import Organization
from repro.pipeline.siginfo import SigInfo, compute_siginfo, significance_layer
from repro.registry import Registry

#: Environment variable naming the default kernel for a process.
ENV_KERNEL = "REPRO_KERNEL"

#: The semantics oracle (the original fused loop).
REFERENCE_KERNEL = "reference"

#: The memoized, table-driven fast backend.
TABULAR_KERNEL = "tabular"

#: Built-in fallback when neither the env var nor set_default_kernel
#: chose.  ``tabular`` after its soak: the differential suite and the
#: full tier-1 CI leg under each backend prove field-wise identical
#: results, so the ~4x faster backend is the default and ``reference``
#: stays selectable (``--kernel reference`` / ``REPRO_KERNEL``) as the
#: semantics oracle.
DEFAULT_KERNEL = TABULAR_KERNEL


class ExpandedTrace:
    """Semantic expansion of one trace under one organization.

    ``ids`` holds one signature id per record and ``timings[id]`` that
    signature's timing tuple (see :meth:`TabularKernel.expand` for the
    layout); ``stage_excess`` is the summed beyond-one-cycle occupancy
    per stage.  The ``reference`` kernel leaves all three ``None`` and
    expands inline.  ``records`` and ``organization`` are always
    present, so either kernel can consume its own expansion.
    """

    __slots__ = ("organization", "records", "ids", "timings", "stage_excess")

    def __init__(self, organization, records, ids=None, timings=None,
                 stage_excess=None):
        self.organization = organization
        self.records = records
        self.ids = ids
        self.timings = timings
        self.stage_excess = stage_excess

    @property
    def count(self):
        """Records expanded, or ``None`` for a pass-through expansion."""
        return None if self.ids is None else len(self.ids)

    def __repr__(self):
        return "ExpandedTrace(%s, %s records)" % (
            self.organization.name,
            "?" if self.count is None else self.count,
        )


class PipelineKernel:
    """Protocol shared by every simulation backend.

    Subclasses define :attr:`name`, :meth:`expand` and :meth:`simulate`.
    ``simulate`` must be fed the :class:`ExpandedTrace` produced by the
    *same* kernel's ``expand``.  Kernels hold no per-run state: one
    registered instance serves every simulation in a process.
    """

    #: Registry name (also the value of ``REPRO_KERNEL`` / ``--kernel``).
    name = None

    def expand(self, records, organization):
        """Per-record semantic expansion; returns an :class:`ExpandedTrace`."""
        raise NotImplementedError

    def simulate(self, expanded, hierarchy, predictor=None):
        """Run the timing recurrence; returns a :class:`PipelineResult`."""
        raise NotImplementedError

    def run(self, records, organization, hierarchy, predictor=None):
        """Convenience: ``simulate(expand(records, organization), ...)``.

        Both halves run under ``compute``-category spans, so a trace
        shows expansion and timing-recurrence cost separately per
        kernel and organization.
        """
        with tracing.span(
            "kernel.expand", "compute", kernel=self.name,
            organization=organization.name,
        ):
            expanded = self.expand(records, organization)
        with tracing.span(
            "kernel.simulate", "compute", kernel=self.name,
            organization=organization.name,
        ):
            return self.simulate(expanded, hierarchy, predictor)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


# --------------------------------------------------------------- registry

#: Name -> kernel instance, with the process default: ``--kernel``
#: (:func:`set_default_kernel`) > ``$REPRO_KERNEL`` > :data:`DEFAULT_KERNEL`.
_KERNELS = Registry("pipeline kernel", ENV_KERNEL, DEFAULT_KERNEL)
register_kernel = _KERNELS.register
kernel_names = _KERNELS.names
get_kernel = _KERNELS.get
default_kernel_name = _KERNELS.default_name
set_default_kernel = _KERNELS.set_default
resolve_kernel = _KERNELS.resolve


# ------------------------------------------------------- reference kernel


@register_kernel
class ReferenceKernel(PipelineKernel):
    """The original fused loop, relocated from ``InOrderPipeline.run``.

    Expansion happens inline, one record at a time, exactly as the
    engine always did; this kernel is the oracle the differential test
    suite holds every other backend to.
    """

    name = REFERENCE_KERNEL

    def expand(self, records, organization):
        """Pass-through: the reference loop expands inline, per record."""
        return ExpandedTrace(organization, records)

    def simulate(self, expanded, hierarchy, predictor=None):
        """Run the original fused expansion + recurrence loop."""
        org = expanded.organization
        scheme = org.scheme
        compressor = org.compressor
        free = [0, 0, 0, 0, 0]  # IF, RD, EX, MEM, WB
        redirect_time = 0
        fetch_debt = 0  # byte backlog of the banked instruction cache
        # Register readiness: reg -> (first_block_ready, last_block_ready).
        ready = {}
        stalls = {
            "branch": 0,
            "icache": 0,
            "dcache": 0,
            "data": 0,
            "rd_struct": 0,
            "ex_struct": 0,
            "mem_struct": 0,
            "wb_struct": 0,
        }
        last_end = 0
        count = 0
        excess = {"if": 0, "rd": 0, "ex": 0, "mem": 0, "wb": 0}
        for record in expanded.records:
            count += 1
            info = compute_siginfo(record, scheme=scheme, compressor=compressor)
            occ_if, occ_rd, occ_ex, occ_mem, occ_wb = org.occupancies(record, info)
            excess["if"] += occ_if - 1
            excess["rd"] += occ_rd - 1
            excess["ex"] += occ_ex - 1
            excess["mem"] += occ_mem - 1
            excess["wb"] += occ_wb - 1

            # ----------------------------------------------------------- IF
            imiss = hierarchy.ifetch_stall(record.pc)
            want_if = free[0]
            if_start = max(want_if, redirect_time)
            if if_start > want_if:
                stalls["branch"] += if_start - want_if
                fetch_debt = 0  # a redirect drains the fetch banks
            if org.banked_fetch:
                # Three permuted byte banks sustain 3 bytes/cycle: fourth
                # bytes accumulate as bank debt, costing one extra cycle
                # per three backlog bytes rather than one per instruction.
                fetch_debt += max(0, info.fetch_bytes - 3)
                extra = 0
                if fetch_debt >= 3:
                    extra = 1
                    fetch_debt -= 3
                if_end = if_start + 1 + extra + imiss
            else:
                if_end = if_start + occ_if + imiss
            stalls["icache"] += imiss
            free[0] = if_end

            # ----------------------------------------------------------- RD
            arrival = if_start + 1 + imiss
            rd_start = max(arrival, free[1])
            stalls["rd_struct"] += rd_start - arrival
            rd_end = max(rd_start + occ_rd, if_end)
            free[1] = rd_end

            # ----------------------------------------------------------- EX
            ready_first = 0
            ready_last = 0
            for register in record.instr.source_registers():
                times = ready.get(register)
                if times is not None:
                    if times[0] > ready_first:
                        ready_first = times[0]
                    if times[1] > ready_last:
                        ready_last = times[1]
            arrival = rd_start + 1
            structural = max(arrival, free[2])
            stalls["ex_struct"] += structural - arrival
            if org.streams_operands:
                ex_start = max(structural, ready_first)
            else:
                ex_start = max(structural, ready_last)
            stalls["data"] += ex_start - structural
            ex_busy_until = ex_start + occ_ex
            free[2] = ex_busy_until
            # Completion may trail occupancy (skew latches) and can never
            # precede the arrival of the last instruction byte.  Byte
            # lanes align between producer and consumer, so per-byte
            # chaining is captured by the ready_first constraint alone.
            ex_end = max(
                ex_busy_until + org.ex_latency(record, info), rd_end
            )

            # ---------------------------------------------------------- MEM
            # The stage is *busy* for its occupancy (plus any blocking
            # miss); *completion* additionally trails the EX completion
            # latency, without holding the stage for later instructions.
            dmiss = 0
            if record.mem_addr is not None:
                dmiss = hierarchy.data_stall(
                    record.mem_addr, is_store=record.mem_is_store
                )
            arrival = ex_start + 1
            if record.mem_addr is None:
                mem_start = max(arrival, free[3])
            else:
                address_ready = org.address_ready(record, info, ex_start, ex_end)
                mem_start = max(arrival, address_ready, free[3])
            stalls["mem_struct"] += max(0, free[3] - arrival)
            free[3] = mem_start + occ_mem + dmiss
            mem_end = max(free[3], ex_end)
            stalls["dcache"] += dmiss

            # ----------------------------------------------------------- WB
            arrival = mem_start + 1
            wb_start = max(arrival, free[4])
            stalls["wb_struct"] += max(0, free[4] - arrival)
            free[4] = wb_start + occ_wb
            wb_end = max(free[4], mem_end)

            # --------------------------------------------- result readiness
            destination = record.instr.destination_register()
            if destination is not None:
                if record.instr.is_load:
                    # mem_end already includes any miss stall; the first
                    # block emerges occ_mem-1 cycles before the last.
                    first = mem_end - max(0, occ_mem - 1)
                    ready[destination] = (first, mem_end)
                elif record.alu_kind is not None:
                    first = min(ex_start + 1 + org.forward_latency, ex_end)
                    ready[destination] = (first, ex_end)
                else:
                    # jal/jalr link values, mfhi/mflo.
                    ready[destination] = (ex_end, ex_end)

            # ------------------------------------------------- control flow
            if record.instr.is_control:
                if predictor is not None and predictor.predict(record):
                    pass  # correct prediction: fetch continues unhindered
                else:
                    redirect_time = org.resolution_time(
                        record, info, rd_end=rd_end, ex_start=ex_start, ex_end=ex_end
                    )
            last_end = wb_end
        return PipelineResult(
            org.name,
            count,
            last_end,
            stalls,
            hierarchy.stats(),
            stage_excess=excess,
            predictor_accuracy=(
                predictor.accuracy if predictor is not None else None
            ),
        )


# --------------------------------------------------------- tabular kernel

#: Address-readiness modes in a timing tuple.
_ADDR_EX_END = 0
_ADDR_EX_START = 1

#: Resolution modes in a timing tuple.
_RES_NONE = 0
_RES_RD_END = 1
_RES_EX_END = 2
_RES_EX_START = 3

_ADDR_MODES = {"ex_end": _ADDR_EX_END, "ex_start": _ADDR_EX_START}
_RES_MODES = {"rd_end": _RES_RD_END, "ex_end": _RES_EX_END,
              "ex_start": _RES_EX_START}


def _plans_are_authoritative(organization):
    """True when the org's imperative timing hooks derive from its plans.

    The tabular kernel precomputes address/resolution timing from
    :meth:`Organization.address_plan` / :meth:`resolution_plan`.  An
    organization that overrides the imperative ``address_ready`` /
    ``resolution_time`` hooks *without* overriding the matching plan
    would silently diverge between kernels, so expansion refuses it.
    """
    cls = type(organization)
    if (cls.address_ready is not Organization.address_ready
            and cls.address_plan is Organization.address_plan):
        return False
    if (cls.resolution_time is not Organization.resolution_time
            and cls.resolution_plan is Organization.resolution_plan):
        return False
    return True


@register_kernel
class TabularKernel(PipelineKernel):
    """Expansion over the shared significance layer, tightened replay.

    ``expand`` takes the trace's :class:`~repro.pipeline.siginfo.
    SignificanceLayer` under the organization's scheme and maps the
    organization's hooks over its *distinct* signatures only, emitting
    one timing tuple per signature::

        (srcs, dest, dest_kind,
         occ_if, occ_rd, occ_ex, occ_mem, occ_wb, ex_lat, fetch_bytes,
         is_store, addr_mode, addr_off, res_mode, res_depth)

    ``stage_excess`` is the count-weighted sum over the same signatures.
    This is the documented purity contract for organizations under
    this kernel: ``occupancies``/``ex_latency``/plan hooks may depend on
    the record only through its signature (all built-in organizations
    do).  The hooks see the signature's first record, a
    :class:`~repro.pipeline.siginfo.SigInfo` whose ``src_blocks`` is
    collapsed to its maximum, and ``alu_result=None``.

    ``simulate`` replays the reservation recurrence of the reference
    kernel, looking each record's timing up by signature id and reading
    only its pc and memory address from the record itself, with stage
    clocks, stall counters and register readiness held in local
    variables.
    """

    name = TABULAR_KERNEL

    def expand(self, records, organization):
        """Timing per distinct signature; returns an ExpandedTrace."""
        org = organization
        if not _plans_are_authoritative(org):
            raise ValueError(
                "organization %r overrides address_ready/resolution_time "
                "without the matching address_plan/resolution_plan; the "
                "tabular kernel expands timing from the declarative plans"
                % org.name
            )
        if not isinstance(records, list):
            records = list(records)
        layer = significance_layer(records, org.scheme)
        compressor = org.compressor
        block_bytes = org.scheme.block_bits // 8
        timings = []
        excess = [0, 0, 0, 0, 0]
        for signature, record, count in zip(
            layer.signatures, layer.examples, layer.counts
        ):
            instr = record.instr
            fetch_bytes = compressor.bytes_fetched(instr)
            dest = instr.destination_register()
            result_blocks = signature.result_blocks
            if signature.has_mem:
                mem_blocks = min(
                    signature.mem_value_blocks,
                    max(1, signature.mem_size // block_bytes),
                )
            else:
                mem_blocks = 0
            kind = signature.alu_kind
            if kind is None:
                alu_blocks = 0
                dest_kind = 0 if dest is None else 3
            else:
                if kind == "lui":
                    alu_blocks = max(1, result_blocks)
                elif kind in ("mult", "div"):
                    alu_blocks = signature.alu_blocks
                elif signature.alu_blocks is None:
                    alu_blocks = 0
                else:
                    alu_blocks = max(1, signature.alu_blocks)
                dest_kind = 0 if dest is None else 2
            if instr.is_load and dest is not None:
                dest_kind = 1
            src_max = signature.src_max
            info = SigInfo(
                fetch_bytes,
                (src_max,) if src_max else (),
                result_blocks,
                mem_blocks,
                alu_blocks,
                None,
            )
            occupancies = org.occupancies(record, info)
            if signature.has_mem:
                addr_kind, addr_off = org.address_plan(record, info)
                addr_mode = _ADDR_MODES[addr_kind]
            else:
                addr_mode = _ADDR_EX_END
                addr_off = 0
            if instr.is_control:
                res_kind, res_depth = org.resolution_plan(record, info)
                res_mode = _RES_MODES[res_kind]
            else:
                res_mode = _RES_NONE
                res_depth = 0
            timings.append(
                (instr.source_registers(), dest, dest_kind)
                + occupancies
                + (org.ex_latency(record, info), fetch_bytes,
                   signature.is_store, addr_mode, addr_off, res_mode,
                   res_depth)
            )
            for stage, occupancy in enumerate(occupancies):
                excess[stage] += count * (occupancy - 1)
        stage_excess = dict(zip(("if", "rd", "ex", "mem", "wb"), excess))
        return ExpandedTrace(
            org, records, ids=layer.ids, timings=timings,
            stage_excess=stage_excess,
        )

    def simulate(self, expanded, hierarchy, predictor=None):
        """Replay the tightened recurrence, timing looked up per record."""
        timings = expanded.timings
        if timings is None:
            raise ValueError(
                "the tabular kernel needs its own expansion; got a "
                "pass-through ExpandedTrace"
            )
        org = expanded.organization
        banked_fetch = org.banked_fetch
        streams = org.streams_operands
        forward_latency = org.forward_latency
        ifetch_stall = hierarchy.ifetch_stall
        data_stall = hierarchy.data_stall
        predict = predictor.predict if predictor is not None else None

        # Stage clocks and stall counters as locals (no list/dict churn).
        f_if = f_rd = f_ex = f_mem = f_wb = 0
        redirect_time = 0
        fetch_debt = 0
        s_branch = s_icache = s_dcache = s_data = 0
        s_rd = s_ex = s_mem = s_wb = 0
        last_end = 0
        # Register readiness as flat per-register arrays (regs are 0..31).
        ready_first_of = [0] * 32
        ready_last_of = [0] * 32

        for record, sid in zip(expanded.records, expanded.ids):
            (srcs, dest, dest_kind,
             occ_if, occ_rd, occ_ex, occ_mem, occ_wb, ex_lat,
             fetch_bytes, is_store, addr_mode, addr_off,
             res_mode, res_depth) = timings[sid]
            # ----------------------------------------------------------- IF
            imiss = ifetch_stall(record.pc)
            if_start = f_if
            if redirect_time > if_start:
                s_branch += redirect_time - if_start
                if_start = redirect_time
                fetch_debt = 0
            if banked_fetch:
                if fetch_bytes > 3:
                    fetch_debt += fetch_bytes - 3
                if fetch_debt >= 3:
                    fetch_debt -= 3
                    if_end = if_start + 2 + imiss
                else:
                    if_end = if_start + 1 + imiss
            else:
                if_end = if_start + occ_if + imiss
            s_icache += imiss
            f_if = if_end

            # ----------------------------------------------------------- RD
            arrival = if_start + 1 + imiss
            rd_start = arrival if arrival >= f_rd else f_rd
            s_rd += rd_start - arrival
            rd_end = rd_start + occ_rd
            if if_end > rd_end:
                rd_end = if_end
            f_rd = rd_end

            # ----------------------------------------------------------- EX
            ready_first = 0
            ready_last = 0
            for register in srcs:
                value = ready_first_of[register]
                if value > ready_first:
                    ready_first = value
                value = ready_last_of[register]
                if value > ready_last:
                    ready_last = value
            arrival = rd_start + 1
            structural = arrival if arrival >= f_ex else f_ex
            s_ex += structural - arrival
            operands = ready_first if streams else ready_last
            ex_start = operands if operands > structural else structural
            s_data += ex_start - structural
            ex_busy_until = ex_start + occ_ex
            f_ex = ex_busy_until
            ex_end = ex_busy_until + ex_lat
            if rd_end > ex_end:
                ex_end = rd_end

            # ---------------------------------------------------------- MEM
            arrival = ex_start + 1
            mem_addr = record.mem_addr
            if mem_addr is None:
                dmiss = 0
                mem_start = arrival if arrival >= f_mem else f_mem
            else:
                dmiss = data_stall(mem_addr, is_store)
                if addr_mode == _ADDR_EX_END:
                    address_ready = ex_end
                else:
                    address_ready = ex_start + addr_off
                mem_start = arrival
                if address_ready > mem_start:
                    mem_start = address_ready
                if f_mem > mem_start:
                    mem_start = f_mem
            if f_mem > arrival:
                s_mem += f_mem - arrival
            f_mem = mem_start + occ_mem + dmiss
            mem_end = f_mem if f_mem >= ex_end else ex_end
            s_dcache += dmiss

            # ----------------------------------------------------------- WB
            arrival = mem_start + 1
            wb_start = arrival if arrival >= f_wb else f_wb
            if f_wb > arrival:
                s_wb += f_wb - arrival
            f_wb = wb_start + occ_wb
            wb_end = f_wb if f_wb >= mem_end else mem_end

            # --------------------------------------------- result readiness
            if dest_kind:
                if dest_kind == 2:  # ALU result, forwardable
                    first = ex_start + 1 + forward_latency
                    if first > ex_end:
                        first = ex_end
                    ready_first_of[dest] = first
                    ready_last_of[dest] = ex_end
                elif dest_kind == 1:  # load
                    first = mem_end - (occ_mem - 1 if occ_mem > 1 else 0)
                    ready_first_of[dest] = first
                    ready_last_of[dest] = mem_end
                else:  # jal/jalr link values, mfhi/mflo
                    ready_first_of[dest] = ex_end
                    ready_last_of[dest] = ex_end

            # ------------------------------------------------- control flow
            if res_mode:
                if predict is not None and predict(record):
                    pass  # correct prediction: fetch continues unhindered
                elif res_mode == _RES_EX_END:
                    redirect_time = ex_end
                elif res_mode == _RES_RD_END:
                    redirect_time = rd_end
                else:
                    redirect_time = ex_start + res_depth
                    if rd_end > redirect_time:
                        redirect_time = rd_end
            last_end = wb_end

        stalls = {
            "branch": s_branch,
            "icache": s_icache,
            "dcache": s_dcache,
            "data": s_data,
            "rd_struct": s_rd,
            "ex_struct": s_ex,
            "mem_struct": s_mem,
            "wb_struct": s_wb,
        }
        return PipelineResult(
            org.name,
            expanded.count,
            last_end,
            stalls,
            hierarchy.stats(),
            stage_excess=dict(expanded.stage_excess),
            predictor_accuracy=(
                predictor.accuracy if predictor is not None else None
            ),
        )
