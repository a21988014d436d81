"""Significance of trace records: the per-record oracle and the shared layer.

Two views of the same facts live here.

* :func:`compute_siginfo` builds the :class:`SigInfo` of one record —
  fetch bytes, per-operand/result/memory blocks, ALU occupancy.  The
  ``reference`` kernel calls it per record; it is the oracle the fast
  paths are tested against.
* :func:`significance_layer` computes each record's significance once
  per ``(trace, scheme)`` and reduces the trace to a
  :class:`SignificanceLayer`: one signature id per record over a table
  of distinct :class:`Signature` rows.  Traces revisit the same static
  instructions with the same narrow values — the paper's own premise —
  so a 100k-record trace has a few hundred distinct signatures.  The
  ``tabular`` kernel's ``expand`` and the activity model map over the
  distinct rows only and weight them by their counts.

A layer is built per call on a plain list; on a :class:`TraceRecords`
list (what :class:`~repro.study.session.TraceStore` hands out) it is
memoized on the list itself, so every unit reading that trace in one
process shares it.  The same memo holds the scheme-independent order
columns of the activity model: the L1D line fills with the tag values
compared (:func:`l1d_fill_column`, per L1D geometry) and the
block-serial PC's updates (:func:`pc_transitions`).  None of it is
ever persisted.
"""

from array import array
from collections import Counter, namedtuple

from repro.core.alu import (
    significance_add,
    significance_compare,
    significance_logical,
    significance_shift,
)
from repro.core.bitutils import MASK32
from repro.core.extension import BYTE_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.obs import tracing
from repro.sim.cache import Cache


class SigInfo:
    """Significance facts about one executed instruction."""

    __slots__ = (
        "fetch_bytes",
        "src_blocks",
        "result_blocks",
        "mem_blocks",
        "alu_blocks",
        "alu_result",
        "max_src_blocks",
    )

    def __init__(self, fetch_bytes, src_blocks, result_blocks, mem_blocks,
                 alu_blocks, alu_result):
        self.fetch_bytes = fetch_bytes
        self.src_blocks = src_blocks
        self.result_blocks = result_blocks
        self.mem_blocks = mem_blocks
        self.alu_blocks = alu_blocks
        self.alu_result = alu_result
        self.max_src_blocks = max(src_blocks) if src_blocks else 0


def alu_activity(record, scheme=BYTE_SCHEME):
    """Run the significance ALU for a trace record; None if no ALU op."""
    kind = record.alu_kind
    if kind is None:
        return None
    a = record.alu_a
    b = record.alu_b
    if kind == "add":
        return significance_add(a, b, scheme=scheme)
    if kind == "sub":
        return significance_add(a, b, scheme=scheme, subtract=True)
    if kind == "slt":
        return significance_compare(a, b, signed=True, scheme=scheme)
    if kind == "sltu":
        return significance_compare(a, b, signed=False, scheme=scheme)
    if kind in ("and", "or", "xor", "nor"):
        return significance_logical(a, b, kind, scheme=scheme)
    if kind in ("sll", "srl", "sra"):
        return significance_shift(a, b, kind, scheme=scheme)
    if kind in ("mult", "div", "lui"):
        # Iterative multiplier/divider and the LUI mover are modelled as
        # touching the significant blocks of both operands (at least one).
        return None
    return None


def compute_siginfo(record, scheme=BYTE_SCHEME, compressor=None,
                    static_tags=None):
    """Build the :class:`SigInfo` for one trace record.

    With ``static_tags`` (a :class:`repro.analysis.tag_table.TagTable`)
    the operand and result widths come from the compile-time analysis
    instead of the dynamic per-value tags: each operand occupies the
    byte width the analysis proved for its instruction address, however
    narrow the runtime value happens to be.  The suite-wide crosscheck
    guarantees the static width is never narrower than the dynamic one,
    so a statically tagged datapath never truncates.
    """
    compressor = compressor or _DEFAULT_COMPRESSOR
    fetch_bytes = compressor.bytes_fetched(record.instr)
    if static_tags is not None:
        # Static byte tags: one byte per block regardless of the
        # configured scheme granularity (the tag table is byte-grained).
        src_blocks = tuple(
            static_tags.read_bytes(record.pc, index)
            for index in range(len(record.read_values))
        )
        result_blocks = (
            static_tags.write_bytes(record.pc)
            if record.write_value is not None
            else 0
        )
    else:
        src_blocks = tuple(
            scheme.significant_blocks(value) for value in record.read_values
        )
        result_blocks = (
            scheme.significant_blocks(record.write_value)
            if record.write_value is not None
            else 0
        )
    if record.mem_addr is not None:
        if static_tags is not None:
            # Loads carry the memory value to the destination register
            # (its static bound is the write bound); stores carry a
            # source register whose bound the read tags already cover.
            if record.mem_is_store:
                value_blocks = max(src_blocks) if src_blocks else 4
            else:
                value_blocks = static_tags.write_bytes(record.pc)
            size_blocks = max(1, record.mem_size)
        else:
            block_bytes = scheme.block_bits // 8
            value_blocks = scheme.significant_blocks(record.mem_value)
            size_blocks = max(1, record.mem_size // block_bytes)
        mem_blocks = min(value_blocks, size_blocks)
    else:
        mem_blocks = 0
    if static_tags is not None:
        # A statically tagged ALU is sized by the widest proven operand
        # of the instruction, not by the runtime values.
        alu_blocks = (
            max(1, max(src_blocks) if src_blocks else 1)
            if record.alu_kind is not None
            else 0
        )
        return SigInfo(fetch_bytes, src_blocks, result_blocks, mem_blocks,
                       alu_blocks, None)
    result = alu_activity(record, scheme)
    if result is not None:
        alu_blocks = max(1, result.blocks_operated)
    elif record.alu_kind in ("mult", "div"):
        a_blocks = scheme.significant_blocks(record.alu_a)
        b_blocks = scheme.significant_blocks(record.alu_b)
        alu_blocks = max(a_blocks, b_blocks)
    elif record.alu_kind == "lui":
        alu_blocks = max(1, result_blocks)
    else:
        alu_blocks = 0
    return SigInfo(fetch_bytes, src_blocks, result_blocks, mem_blocks,
                   alu_blocks, result)


_DEFAULT_COMPRESSOR = InstructionCompressor()


# ------------------------------------------------------ the shared layer

#: One distinct significance signature: everything the tabular kernel
#: and the activity model read from a record besides its pc and memory
#: address.  Block counts are in the layer's scheme granularity (bytes
#: for a static-tag layer).  ``alu_blocks`` is the raw significance-ALU
#: block count — for mult/div/lui the wider operand — and ``None`` when
#: the operation has no ALU activity; ``mem_value_blocks`` is not yet
#: clipped to the access size.
Signature = namedtuple("Signature", (
    "word",
    "reads",
    "src_max",
    "src_sum",
    "has_write",
    "result_blocks",
    "alu_kind",
    "alu_blocks",
    "has_mem",
    "mem_value_blocks",
    "mem_size",
    "is_store",
))

#: ALU kinds sized by their operands rather than by the significance ALU.
_OPERAND_SIZED = ("mult", "div", "lui")

_UNSEEN = object()


class TraceRecords(list):
    """A trace's record list carrying the layers built over it.

    ``layers`` memoizes significance layers by scheme and the order
    columns by key; it lives exactly as long as the list, which must not
    be mutated once a layer is built.  ``workload`` names the trace in
    span arguments.
    """

    def __init__(self, records=(), workload=None):
        super().__init__(records)
        self.workload = workload
        self.layers = {}


class SignificanceLayer:
    """One trace under one scheme: signature ids over distinct rows.

    ``ids`` holds one signature id per record (a stdlib ``array``);
    ``signatures[i]`` is a :class:`Signature`, ``examples[i]`` the first
    record that produced it and ``counts[i]`` how many records share it.
    """

    __slots__ = ("ids", "signatures", "examples", "counts")

    def __init__(self, ids, signatures, examples):
        self.ids = ids
        self.signatures = signatures
        self.examples = examples
        tally = Counter(ids)
        self.counts = [tally[sid] for sid in range(len(signatures))]


def _memoized(records, key, build):
    """``build()`` once per ``key`` on a :class:`TraceRecords` list."""
    layers = getattr(records, "layers", None)
    if layers is None:
        return build()
    value = layers.get(key)
    if value is None:
        value = layers[key] = build()
    return value


def significance_layer(records, scheme=BYTE_SCHEME):
    """The :class:`SignificanceLayer` of ``records`` under ``scheme``."""
    return _memoized(
        records, scheme,
        lambda: _build_layer(records, scheme.name, _dynamic_rows, scheme),
    )


def static_significance_layer(records, static_tags):
    """The layer of ``records`` with widths from a static tag table.

    Every width is the byte count the analysis proved for the record's
    instruction address, so the signature dedupe is keyed on the pc.
    Not memoized: a tag table belongs to one program and is unhashable.
    """
    return _build_layer(records, "static", _static_rows, static_tags)


def _build_layer(records, scheme_name, rows, source):
    with tracing.span(
        "significance.layer", "compute",
        workload=getattr(records, "workload", None), scheme=scheme_name,
        records=len(records),
    ) as handle:
        layer = SignificanceLayer(*rows(records, source))
        handle.note(signatures=len(layer.signatures))
    return layer


class _BlocksMemo(dict):
    """Operand value -> significant blocks, computed on first lookup."""

    __slots__ = ("blocks_of",)

    def __init__(self, scheme):
        super().__init__()
        self.blocks_of = scheme.significant_blocks

    def __missing__(self, value):
        blocks = self[value] = self.blocks_of(value)
        return blocks


def _dynamic_rows(records, scheme):
    """Signature ids of ``records`` with widths from the values' tags."""
    blocks = _BlocksMemo(scheme)
    alu_memo = {}
    index = {}
    signatures = []
    examples = []
    ids = array("I")
    append = ids.append
    for record in records:
        reads = record.read_values
        src_max = src_sum = 0
        for value in reads:
            width = blocks[value]
            src_sum += width
            if width > src_max:
                src_max = width
        write_value = record.write_value
        result_blocks = 0 if write_value is None else blocks[write_value]
        has_mem = record.mem_addr is not None
        mem_value_blocks = blocks[record.mem_value] if has_mem else 0
        kind = record.alu_kind
        if kind is None:
            alu_blocks = None
        elif kind in _OPERAND_SIZED:
            alu_blocks = max(blocks[record.alu_a], blocks[record.alu_b])
        else:
            alu_key = (kind, record.alu_a, record.alu_b)
            alu_blocks = alu_memo.get(alu_key, _UNSEEN)
            if alu_blocks is _UNSEEN:
                result = alu_activity(record, scheme)
                alu_blocks = alu_memo[alu_key] = (
                    None if result is None else result.blocks_operated
                )
        key = (
            record.instr.word, len(reads), src_max, src_sum,
            write_value is not None, result_blocks, kind, alu_blocks,
            has_mem, mem_value_blocks, record.mem_size, record.mem_is_store,
        )
        sid = index.get(key)
        if sid is None:
            sid = index[key] = len(signatures)
            signatures.append(Signature._make(key))
            examples.append(record)
        append(sid)
    return ids, signatures, examples


def _static_rows(records, tags):
    """Signature ids of ``records`` with widths from a static tag table."""
    by_address = {}
    index = {}
    signatures = []
    examples = []
    ids = array("I")
    append = ids.append
    for record in records:
        address_key = (
            record.pc, record.instr.word, len(record.read_values),
            record.write_value is not None, record.alu_kind,
            record.mem_addr is not None, record.mem_size,
            record.mem_is_store,
        )
        sid = by_address.get(address_key)
        if sid is None:
            (pc, word, reads, has_write, kind, has_mem, mem_size,
             is_store) = address_key
            widths = [tags.read_bytes(pc, slot) for slot in range(reads)]
            if not has_mem:
                mem_value_blocks = 0
            elif is_store:
                # Stores carry a source register (covered by the read
                # tags); loads deliver to the destination (write tag).
                mem_value_blocks = max(widths, default=4)
            else:
                mem_value_blocks = tags.write_bytes(pc)
            signature = Signature(
                word, reads, max(widths, default=0), sum(widths),
                has_write, tags.write_bytes(pc) if has_write else 0,
                kind,
                None if kind is None else max(1, max(widths, default=1)),
                has_mem, mem_value_blocks, mem_size, is_store,
            )
            sid = index.get(signature)
            if sid is None:
                sid = index[signature] = len(signatures)
                signatures.append(signature)
                examples.append(record)
            by_address[address_key] = sid
        append(sid)
    return ids, signatures, examples


# --------------------------------------------------------- order columns


#: Scheme-independent L1D facts of one trace for one L1D geometry:
#: ``fills`` flags (per record, a ``bytearray``) the data accesses that
#: fill an L1D line; ``tags`` counts the accesses per compared tag value
#: (the address bits above ``tag_bits``).
L1DColumn = namedtuple("L1DColumn", ("fills", "tags", "tag_bits"))


def l1d_fill_column(records, l1d):
    """The :class:`L1DColumn` of ``records`` under L1D config ``l1d``.

    An L1D fill depends on the L1D geometry and the data-access stream
    alone (instruction fetches and the L2 never touch the L1D), so one
    column serves every scheme and every hierarchy sharing that L1D.
    """
    key = ("l1d", l1d.size_bytes, l1d.assoc, l1d.line_bytes)
    return _memoized(records, key, lambda: _build_fills(records, l1d))


def _build_fills(records, l1d):
    with tracing.span(
        "significance.l1d_fills", "compute",
        workload=getattr(records, "workload", None), records=len(records),
    ):
        tag_bits = 32 - (l1d.num_sets.bit_length() - 1) - (
            l1d.line_bytes.bit_length() - 1
        )
        shift = 32 - tag_bits
        access = Cache(l1d).access
        fills = bytearray(len(records))
        tags = {}
        for position, record in enumerate(records):
            address = record.mem_addr
            if address is not None:
                tag = address >> shift
                tags[tag] = tags.get(tag, 0) + 1
                if not access(address, record.mem_is_store)[0]:
                    fills[position] = 1
    return L1DColumn(fills, tags, tag_bits)


def pc_transitions(records):
    """Counted updates of a block-serial PC replaying ``records``' pcs.

    Returns ``(increments, redirects)``: ``increments`` maps a PC state
    to how often it advanced sequentially, ``redirects`` maps
    ``(state, target)`` to how often a jump loaded ``target``.  The
    state starts at 0 and follows :class:`~repro.core.pc.BlockSerialPC`
    semantics, so it trails the real pc until the first redirect.
    """
    return _memoized(records, "pc", lambda: _build_pc(records))


def _build_pc(records):
    increments = {}
    redirects = {}
    state = 0
    previous = None
    for record in records:
        pc = record.pc
        if previous is not None and pc != previous + 4:
            key = (state, pc)
            redirects[key] = redirects.get(key, 0) + 1
            state = pc & MASK32
        else:
            increments[state] = increments.get(state, 0) + 1
            state = (state + 4) & MASK32
        previous = pc
    return increments, redirects
