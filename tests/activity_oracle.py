"""Per-record activity oracle for the activity-model differential tests.

:func:`oracle_process` is the activity model's original per-record loop,
kept verbatim (with ``self`` renamed ``model``) as a test-only oracle —
the role the ``reference`` kernel plays for the pipeline kernels.
:meth:`repro.pipeline.activity.ActivityModel.process` is a count-weighted
reduction over the trace's shared significance layer; the differential
tests hold it to field-wise equality with this loop.
"""

from repro.core.pc import BlockSerialPC
from repro.pipeline.activity import STAGES, ActivityReport
from repro.pipeline.siginfo import alu_activity
from repro.sim.hierarchy import MemoryHierarchy


def oracle_process(model, records, name="trace"):
    """Count baseline and compressed activity over ``records``, per record."""
    scheme = model.scheme
    block_bits = scheme.block_bits
    ext_bits = scheme.num_ext_bits
    static = model.static_tags
    hierarchy = MemoryHierarchy(model.hierarchy_config)
    pc_model = BlockSerialPC(block_bits=model.pc_block_bits)
    baseline = {stage: 0 for stage in STAGES}
    compressed = {stage: 0 for stage in STAGES}
    data_bits_accessed = 0
    data_words_accessed = 0
    count = 0
    previous_pc = None
    l1d = hierarchy.l1d.config
    tag_bits = 32 - (l1d.num_sets.bit_length() - 1) - (
        l1d.line_bytes.bit_length() - 1
    )
    for record in records:
        count += 1
        instr = record.instr

        # ------------------------------------------------------ fetch
        hierarchy.access_instruction(record.pc)
        fetch_bits = model.compressor.fetch_bits(instr)
        baseline["fetch"] += 32
        compressed["fetch"] += fetch_bits

        # ---------------------------------------------------- rf read
        read_bits = 0
        if static is not None:
            for index in range(len(record.read_values)):
                read_bits += 8 * static.read_bytes(record.pc, index)
        else:
            for value in record.read_values:
                read_bits += (
                    scheme.significant_blocks(value) * block_bits + ext_bits
                )
        baseline["rf_read"] += 32 * len(record.read_values)
        compressed["rf_read"] += read_bits

        # --------------------------------------------------- rf write
        if record.write_value is not None and instr.destination_register() is not None:
            baseline["rf_write"] += 32
            if static is not None:
                compressed["rf_write"] += 8 * static.write_bytes(record.pc)
            else:
                compressed["rf_write"] += (
                    scheme.significant_blocks(record.write_value) * block_bits
                    + ext_bits
                )

        # -------------------------------------------------------- alu
        if static is not None:
            # A statically tagged ALU is sized once per instruction
            # address: its widest proven source operand.
            if record.alu_kind is not None:
                baseline["alu"] += 32
                widest = max(
                    (
                        static.read_bytes(record.pc, index)
                        for index in range(len(record.read_values))
                    ),
                    default=1,
                )
                compressed["alu"] += 8 * max(1, widest)
        else:
            result = alu_activity(record, scheme)
            if result is not None:
                baseline["alu"] += 32
                compressed["alu"] += result.bits_operated
            elif record.alu_kind in ("mult", "div", "lui"):
                baseline["alu"] += 32
                a_blocks = scheme.significant_blocks(record.alu_a)
                b_blocks = scheme.significant_blocks(record.alu_b)
                compressed["alu"] += max(a_blocks, b_blocks) * block_bits

        # ----------------------------------------------------- d-cache
        mem_value_bits = 0
        if record.mem_addr is not None:
            access = hierarchy.access_data(
                record.mem_addr, is_store=record.mem_is_store
            )
            access_bits = 8 * record.mem_size
            if static is not None:
                # Loads deliver the memory value to the destination
                # register (static bound: the write tag); stores
                # carry a source register already covered by the
                # read tags.
                if record.mem_is_store:
                    value_bytes = max(
                        (
                            static.read_bytes(record.pc, index)
                            for index in range(len(record.read_values))
                        ),
                        default=4,
                    )
                else:
                    value_bytes = static.write_bytes(record.pc)
                value_bits = min(8 * value_bytes, access_bits)
            else:
                value_blocks = scheme.significant_blocks(record.mem_value)
                value_bits = (
                    min(value_blocks * block_bits, access_bits) + ext_bits
                )
            baseline["dcache_data"] += 32  # word-wide data array access
            compressed["dcache_data"] += value_bits
            mem_value_bits = value_bits
            data_bits_accessed += value_bits
            data_words_accessed += 1
            # Tag compare: insignificant tag bytes are replaced by an
            # extension-bit comparison, but the physical array never
            # exceeds the baseline tag width — savings are negligible
            # for realistic (high) addresses, as the paper reports.
            # The static analysis does not bound addresses at all, so
            # under static tags the compare stays at baseline width.
            baseline["dcache_tag"] += tag_bits
            if static is not None:
                compressed["dcache_tag"] += tag_bits
            else:
                tag_value = record.mem_addr >> (32 - tag_bits)
                tag_stored = (
                    scheme.significant_blocks(tag_value) * block_bits
                    + ext_bits
                )
                compressed["dcache_tag"] += min(tag_bits, tag_stored)
            # Line fill traffic, scaled by the running compression ratio.
            if access.l1_fill:
                line_bits = 8 * l1d.line_bytes
                baseline["dcache_data"] += line_bits
                if data_words_accessed:
                    ratio = data_bits_accessed / (32.0 * data_words_accessed)
                else:
                    ratio = 1.0
                fill_bits = int(line_bits * min(1.0, ratio))
                if model.ext_bits_in_memory:
                    # Memory already stores the compressed form, so the
                    # fill also skips regenerating the extension bits:
                    # model a further reduction by the ext-bit share.
                    words_per_line = l1d.line_bytes // 4
                    fill_bits = max(
                        fill_bits - words_per_line * ext_bits,
                        words_per_line * (block_bits + ext_bits),
                    )
                compressed["dcache_data"] += fill_bits

        # --------------------------------------------------------- pc
        baseline["pc"] += 32
        if previous_pc is not None and record.pc != previous_pc + 4:
            pc_model.redirect(record.pc)
        else:
            pc_model.increment()
        previous_pc = record.pc

        # ---------------------------------------------------- latches
        result_bits = 0
        if record.write_value is not None:
            if static is not None:
                result_bits = 8 * static.write_bytes(record.pc)
            else:
                result_bits = (
                    scheme.significant_blocks(record.write_value) * block_bits
                    + ext_bits
                )
        latch_compressed = fetch_bits + read_bits + result_bits + mem_value_bits
        latch_baseline = 32 + 32 * len(record.read_values)
        if record.write_value is not None:
            latch_baseline += 32
        if record.mem_addr is not None:
            latch_baseline += 32
        baseline["latches"] += latch_baseline
        compressed["latches"] += latch_compressed

    compressed["pc"] = pc_model.bits_operated
    return ActivityReport(name, baseline, compressed, count)
