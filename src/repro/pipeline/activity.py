"""Per-stage switching-activity accounting (paper Section 2.9).

For a dynamic trace, counts the bits each pipeline stage must read,
write, operate on or latch — once for the conventional 32-bit machine
and once for the significance-compressed machine — and reports the
percent reduction per stage, exactly the quantity Tables 5 and 6 report:

=============  ==========================================================
column         what is counted
=============  ==========================================================
fetch          instruction bytes read from the I-cache (+1 extension bit)
rf_read        register source operands (significant blocks + ext bits)
rf_write       register results written back
alu            blocks the significance ALU operates on (Cases 1-3)
dcache_data    load/store data bytes plus line-fill traffic
dcache_tag     tag-array bits compared per access
pc             PC-increment block activity (increments and redirects)
latches        inter-stage latch bits (instruction, operands, results)
=============  ==========================================================

Line fills are charged at the line size scaled by the running average
compression ratio of accessed data words (the trace does not expose
whole-line contents; the approximation is documented in
docs/ARCHITECTURE.md, "Activity-model approximations").

Every count except the tag compares, the line fills and the PC is a
property of a record's significance signature alone, so
:meth:`ActivityModel.process` is a count-weighted reduction over the
trace's distinct signatures (:mod:`repro.pipeline.siginfo`).  The tag
compares depend on the address, and the fills (charged at the
*running* ratio) and the block-serial PC on record order; all three
read scheme-independent columns shared per trace.
"""

from itertools import accumulate, compress

from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.core.pc import BlockSerialPC
from repro.pipeline.siginfo import (
    l1d_fill_column,
    pc_transitions,
    significance_layer,
    static_significance_layer,
)
from repro.sim.hierarchy import PAPER_HIERARCHY

STAGES = (
    "fetch",
    "rf_read",
    "rf_write",
    "alu",
    "dcache_data",
    "dcache_tag",
    "pc",
    "latches",
)


#: Bumped whenever ActivityReport.to_dict changes shape or meaning.
REPORT_SCHEMA_VERSION = 1


class ActivityReport:
    """Baseline vs compressed bit counts per stage, with savings."""

    def __init__(self, name, baseline, compressed, instructions):
        self.name = name
        self.baseline = dict(baseline)
        self.compressed = dict(compressed)
        self.instructions = instructions

    def to_dict(self):
        """Versioned plain-data form for the persistent result store."""
        return {
            "version": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "baseline": dict(self.baseline),
            "compressed": dict(self.compressed),
            "instructions": self.instructions,
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a report from :meth:`to_dict` output (ValueError on skew)."""
        if payload.get("version") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                "activity report schema v%r, expected v%d"
                % (payload.get("version"), REPORT_SCHEMA_VERSION)
            )
        try:
            return cls(
                payload["name"],
                payload["baseline"],
                payload["compressed"],
                payload["instructions"],
            )
        except KeyError as error:
            raise ValueError("activity report payload missing %s" % error)

    def __eq__(self, other):
        if not isinstance(other, ActivityReport):
            return NotImplemented
        return (
            self.name == other.name
            and self.baseline == other.baseline
            and self.compressed == other.compressed
            and self.instructions == other.instructions
        )

    __hash__ = object.__hash__

    def savings(self, stage):
        """Fractional activity reduction for ``stage`` (0..1)."""
        base = self.baseline.get(stage, 0)
        if base == 0:
            return 0.0
        return 1.0 - self.compressed.get(stage, 0) / base

    def savings_percent(self, stage):
        """Reduction for ``stage`` in percent, as the paper's tables."""
        return 100.0 * self.savings(stage)

    def row(self):
        """Savings percentages in table-column order."""
        return [self.savings_percent(stage) for stage in STAGES]

    def __repr__(self):
        return "ActivityReport(%s: %s)" % (
            self.name,
            ", ".join("%s=%.1f%%" % (s, self.savings_percent(s)) for s in STAGES),
        )


def _average_report(name, reports):
    """Arithmetic mean of savings across reports (the tables' AVG row)."""
    baseline = {stage: 0 for stage in STAGES}
    compressed = {stage: 0 for stage in STAGES}
    for report in reports:
        for stage in STAGES:
            baseline[stage] += report.baseline[stage]
            compressed[stage] += report.compressed[stage]
    total = sum(report.instructions for report in reports)
    return ActivityReport(name, baseline, compressed, total)


def _pc_bits(transitions, block_bits):
    """Bits a ``block_bits`` block-serial PC operates replaying ``transitions``."""
    increments, redirects = transitions
    model = BlockSerialPC(block_bits=block_bits)
    touched = 0
    for state, count in increments.items():
        model.pc = state
        touched += count * model.increment()
    for (state, target), count in redirects.items():
        model.pc = state
        touched += count * model.redirect(target)
    return touched * block_bits


class ActivityModel:
    """Computes an :class:`ActivityReport` for a trace."""

    def __init__(self, scheme=BYTE_SCHEME, compressor=None, hierarchy_config=None,
                 pc_block_bits=None, latch_boundaries=4,
                 ext_bits_in_memory=False, static_tags=None):
        self.scheme = scheme
        # A static tag table (repro.analysis.tag_table.TagTable) switches
        # the value-path accounting from dynamic per-value tags to the
        # compile-time widths: every operand moves at the byte width the
        # analysis proved for its instruction address, with zero stored
        # or moved extension bits.  The tag arrays see no savings — the
        # analysis does not bound addresses — so dcache_tag stays at the
        # baseline width.
        self.static_tags = static_tags
        # A custom compressor or hierarchy makes the model's output
        # unrepresentable by the declarative config key below.
        self._standard_config = compressor is None and hierarchy_config is None
        self.compressor = compressor or InstructionCompressor()
        self.hierarchy_config = hierarchy_config
        # The PC incrementer uses the same block granularity as the data
        # path unless explicitly overridden (Table 6 measures a 16-bit
        # serial PC, Table 5 an 8-bit one).
        self.pc_block_bits = pc_block_bits or scheme.block_bits
        self.latch_boundaries = latch_boundaries
        # Section 1 notes extension bits "could also be maintained in
        # memory": with this enabled, L1 line fills arrive already
        # compressed (significant bytes only) instead of paying the
        # full-width transfer on the fill path.
        self.ext_bits_in_memory = ext_bits_in_memory

    def config_key(self):
        """Hashable, JSON-able description of this model's configuration.

        The unit scheduler memoizes :meth:`process` outputs under this
        key; it must therefore cover everything that shapes a report.
        Returns ``None`` for models the key cannot express (custom
        compressor, hierarchy, or a static tag table — which is tied to
        one specific program), which opts them out of memoization.
        """
        if not self._standard_config or self.scheme.name is None:
            return None
        if self.static_tags is not None:
            return None
        return (
            self.scheme.name,
            self.pc_block_bits,
            self.latch_boundaries,
            bool(self.ext_bits_in_memory),
        )

    def process(self, records, name="trace"):
        """Count baseline and compressed activity over ``records``."""
        if not isinstance(records, list):
            records = list(records)
        scheme = self.scheme
        block_bits = scheme.block_bits
        ext_bits = scheme.num_ext_bits
        static = self.static_tags
        if static is None:
            layer = significance_layer(records, scheme)
            unit_bits, value_ext_bits = block_bits, ext_bits
        else:
            # Static widths are bytes and move no extension bits.
            layer = static_significance_layer(records, static)
            unit_bits, value_ext_bits = 8, 0
        baseline = {stage: 0 for stage in STAGES}
        compressed = {stage: 0 for stage in STAGES}
        fetch_bits_of = self.compressor.fetch_bits
        # Per signature: bits its data access moves, and whether it has one.
        access_bits_of = []
        is_access = []
        for signature, example, count in zip(
            layer.signatures, layer.examples, layer.counts
        ):
            instr = example.instr
            fetch_bits = fetch_bits_of(instr)
            read_bits = (
                signature.src_sum * unit_bits
                + signature.reads * value_ext_bits
            )
            result_bits = (
                signature.result_blocks * unit_bits + value_ext_bits
                if signature.has_write
                else 0
            )
            value_bits = 0
            if signature.has_mem:
                value_bits = min(
                    signature.mem_value_blocks * unit_bits,
                    8 * signature.mem_size,
                ) + value_ext_bits
                baseline["dcache_data"] += 32 * count  # word-wide data array
                compressed["dcache_data"] += value_bits * count
            access_bits_of.append(value_bits)
            is_access.append(1 if signature.has_mem else 0)
            baseline["fetch"] += 32 * count
            compressed["fetch"] += fetch_bits * count
            baseline["rf_read"] += 32 * signature.reads * count
            compressed["rf_read"] += read_bits * count
            if signature.has_write and instr.destination_register() is not None:
                baseline["rf_write"] += 32 * count
                compressed["rf_write"] += result_bits * count
            if signature.alu_blocks is not None:
                baseline["alu"] += 32 * count
                compressed["alu"] += signature.alu_blocks * unit_bits * count
            baseline["pc"] += 32 * count
            baseline["latches"] += 32 * (
                1 + signature.reads + signature.has_write + signature.has_mem
            ) * count
            compressed["latches"] += (
                fetch_bits + read_bits + result_bits + value_bits
            ) * count

        l1d = (self.hierarchy_config or PAPER_HIERARCHY).l1d
        column = l1d_fill_column(records, l1d)
        tag_bits = column.tag_bits
        # Tag compare: insignificant tag bytes are replaced by an
        # extension-bit comparison, but the physical array never exceeds
        # the baseline tag width — savings are negligible for realistic
        # (high) addresses, as the paper reports.  The static analysis
        # does not bound addresses at all, so under static tags the
        # compare stays at baseline width.
        for tag, count in column.tags.items():
            baseline["dcache_tag"] += tag_bits * count
            if static is not None:
                compressed["dcache_tag"] += tag_bits * count
            else:
                tag_stored = (
                    scheme.significant_blocks(tag) * block_bits + ext_bits
                )
                compressed["dcache_tag"] += min(tag_bits, tag_stored) * count

        # Line fill traffic, scaled by the running compression ratio of
        # the data words accessed up to and including the filling one.
        line_bits = 8 * l1d.line_bytes
        words_per_line = l1d.line_bytes // 4
        bits_so_far = compress(
            accumulate(map(access_bits_of.__getitem__, layer.ids)), column.fills
        )
        words_so_far = compress(
            accumulate(map(is_access.__getitem__, layer.ids)), column.fills
        )
        for data_bits_accessed, data_words_accessed in zip(
            bits_so_far, words_so_far
        ):
            baseline["dcache_data"] += line_bits
            ratio = data_bits_accessed / (32.0 * data_words_accessed)
            fill_bits = int(line_bits * min(1.0, ratio))
            if self.ext_bits_in_memory:
                # Memory already stores the compressed form, so the fill
                # also skips regenerating the extension bits: model a
                # further reduction by the ext-bit share.
                fill_bits = max(
                    fill_bits - words_per_line * ext_bits,
                    words_per_line * (block_bits + ext_bits),
                )
            compressed["dcache_data"] += fill_bits

        compressed["pc"] = _pc_bits(pc_transitions(records), self.pc_block_bits)
        return ActivityReport(name, baseline, compressed, len(records))

    def suite_reports(self, workloads, scale=1, store=None):
        """Per-workload reports plus the AVG row, like Tables 5 and 6.

        ``store`` is an optional trace cache with the
        :class:`repro.study.session.TraceStore` interface; without one
        each workload's own per-scale cache is used.  A store carrying a
        result broker (``store.results``, set by
        :class:`~repro.study.session.ExperimentSession`) additionally
        memoizes each per-workload report — in memory within a session
        and, when a persistent result store is configured, on disk
        across processes.
        """
        broker = getattr(store, "results", None)
        reports = []
        for workload in workloads:
            if broker is not None:
                report = broker.activity_report(self, workload, scale=scale)
            else:
                if store is None:
                    records = workload.trace(scale=scale)
                else:
                    records = store.trace(workload, scale=scale)
                report = self.process(records, name=workload.name)
            reports.append(report)
        average = _average_report("AVG", reports)
        return reports, average
