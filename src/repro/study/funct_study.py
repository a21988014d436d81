"""Table 3 and Section 2.3 reproduction: instruction-stream statistics.

Table 3 lists the dynamic frequency of R-format function codes; the
eight most frequent get the short (3-byte) recoding.  Section 2.3
additionally quotes: 3.17 bytes fetched per instruction (3.29 with the
extension bit), ~20% fetch savings, the R/I/J format mix, 59.1% of
instructions carrying immediates with 80% of those fitting 8 bits, and
86.7% of R-format instructions needing only three bytes.
"""

from repro.core.icompress import FetchStatistics, build_recode_table
from repro.study.report import format_comparison, format_table
from repro.study.scheduler import FetchUnit, resolve
from repro.study.session import resolve_trace
from repro.workloads import mediabench_suite

#: Section 2.3 headline numbers from the paper.
PAPER_FETCH_STATS = {
    "bytes_per_instruction": 3.17,
    "bytes_with_ext_bit": 3.29,
    "fetch_savings": 0.20,
    "r_format_share": 0.41,       # 36.9% using funct + 4.1% not
    "i_format_share": 0.569,
    "j_format_share": 0.022,
    "immediate_byte_fraction": 0.80,
    "short_r_fraction": 0.867,
}


def collect_fetch_statistics(workloads=None, scale=1, compressor=None, store=None):
    """Accumulate FetchStatistics over the suite's dynamic instructions.

    With the default compressor this is a declarative per-workload unit
    request: each workload's statistics come from the session's result
    broker (memoized, shardable, persistable) and merge into the suite
    total.  A custom compressor walks the traces directly.
    """
    if compressor is None:
        stats = FetchStatistics()
        for workload in workloads or mediabench_suite():
            stats.merge(
                resolve(FetchUnit(workload.name, scale), workload, store)
            )
        return stats
    stats = FetchStatistics(compressor=compressor)
    for workload in workloads or mediabench_suite():
        for record in resolve_trace(workload, scale, store):
            stats.record(record.instr)
    return stats


def run(workloads=None, scale=1, store=None):
    """Run the Table 3 + fetch statistics study; returns (stats, text)."""
    stats = collect_fetch_statistics(workloads, scale, store=store)
    funct_rows = []
    for funct, pct, cumulative in stats.funct_table()[:12]:
        funct_rows.append((funct.name, "%.1f" % pct, "%.1f" % cumulative))
    table3 = format_table(
        ("funct", "% of R-format", "cumulative %"),
        funct_rows,
        title="Table 3 — dynamic function-code frequency (top entries)",
    )
    recode = build_recode_table(stats.funct_counts)
    mix = stats.format_mix()
    comparison = format_comparison(
        "Section 2.3 — instruction fetch statistics (paper vs measured)",
        [
            ("bytes fetched / instruction", stats.average_bytes_per_instruction(),
             PAPER_FETCH_STATS["bytes_per_instruction"]),
            ("bytes incl. extension bit", stats.average_bytes_with_ext_bit(),
             PAPER_FETCH_STATS["bytes_with_ext_bit"]),
            ("fetch activity savings", stats.fetch_savings(),
             PAPER_FETCH_STATS["fetch_savings"]),
            ("R-format share", mix["r"], PAPER_FETCH_STATS["r_format_share"]),
            ("I-format share", mix["i"], PAPER_FETCH_STATS["i_format_share"]),
            ("J-format share", mix["j"], PAPER_FETCH_STATS["j_format_share"]),
            ("immediates fitting 8 bits", stats.immediate_byte_fraction(),
             PAPER_FETCH_STATS["immediate_byte_fraction"]),
            ("R-format needing 3 bytes", stats.short_r_fraction(),
             PAPER_FETCH_STATS["short_r_fraction"]),
        ],
    )
    profile_note = (
        "\nprofile-derived short-funct set: %s"
        % ", ".join(funct.name for funct in recode)
    )
    return stats, table3 + "\n\n" + comparison + profile_note


def profile_recode_table(workloads=None, scale=1, slots=8, store=None):
    """Derive a fresh top-N funct recode table from suite traces."""
    stats = collect_fetch_statistics(workloads, scale, store=store)
    return build_recode_table(stats.funct_counts, slots=slots)
