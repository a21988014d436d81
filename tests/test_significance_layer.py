"""Tests for the shared significance layer (pipeline.siginfo).

The heart is the activity differential suite: the activity model is a
count-weighted reduction over the trace's distinct significance
signatures, and it must report field-wise the same
:class:`ActivityReport` as the original per-record loop
(:mod:`activity_oracle`) for every model configuration — including a
custom compressor, a small custom hierarchy (which exercises the L1D
fill column) and a static-tag model.  Around it: the layer's own
invariants, sharing through :class:`TraceRecords`, and the
``significance.layer`` build accounting of a session (one layer per
distinct scheme cold, none warm).
"""

import pytest
from activity_oracle import oracle_process
from test_kernels import DIFF_WORKLOADS

from repro.analysis.tag_table import build_tag_table
from repro.core.compress import STATIC_BYTE_SCHEME
from repro.core.extension import BYTE_SCHEME, HALFWORD_SCHEME
from repro.core.icompress import InstructionCompressor
from repro.obs import tracing
from repro.pipeline import ALL_ORGANIZATIONS, InOrderPipeline
from repro.pipeline.activity import ActivityModel
from repro.pipeline.kernel import TABULAR_KERNEL
from repro.pipeline.siginfo import (
    TraceRecords,
    compute_siginfo,
    significance_layer,
)
from repro.sim.cache import CacheConfig
from repro.sim.hierarchy import HierarchyConfig
from repro.study.experiments import canonical_experiment_ids
from repro.study.session import ExperimentSession
from repro.workloads import get_workload

#: A small 2-way L1D with 16-byte lines: many fills, a different tag width.
SMALL_HIERARCHY = HierarchyConfig(l1d=CacheConfig("L1D", 1024, 2, 16))

#: Model configurations held to the per-record oracle.
ACTIVITY_CONFIGS = {
    "byte": lambda workload: ActivityModel(scheme=BYTE_SCHEME),
    "halfword": lambda workload: ActivityModel(scheme=HALFWORD_SCHEME),
    "byte-ext-in-memory": lambda workload: ActivityModel(
        ext_bits_in_memory=True
    ),
    "pc16": lambda workload: ActivityModel(pc_block_bits=16),
    "custom-compressor": lambda workload: ActivityModel(
        compressor=InstructionCompressor(short_functs=())
    ),
    "small-hierarchy": lambda workload: ActivityModel(
        hierarchy_config=SMALL_HIERARCHY, ext_bits_in_memory=True
    ),
    "static-tags": lambda workload: ActivityModel(
        scheme=STATIC_BYTE_SCHEME,
        static_tags=build_tag_table(workload.program()),
    ),
}


@pytest.fixture(scope="module")
def diff_traces():
    return {name: get_workload(name).trace() for name in DIFF_WORKLOADS}


@pytest.fixture(scope="module")
def shared_traces(diff_traces):
    """The same traces as memo-carrying lists, shared across cases."""
    return {
        name: TraceRecords(records, workload=name)
        for name, records in diff_traces.items()
    }


# ------------------------------------------------- activity differential


class TestActivityEqualsOracle:
    @pytest.mark.parametrize("workload_name", DIFF_WORKLOADS)
    @pytest.mark.parametrize("config", sorted(ACTIVITY_CONFIGS))
    def test_reduction_equals_per_record_loop(
        self, diff_traces, shared_traces, workload_name, config
    ):
        model = ACTIVITY_CONFIGS[config](get_workload(workload_name))
        expected = oracle_process(
            model, diff_traces[workload_name], name=workload_name
        )
        # ActivityReport.__eq__ is field-wise: name, per-stage baseline
        # and compressed bit counts, and the instruction count.
        assert model.process(
            shared_traces[workload_name], name=workload_name
        ) == expected
        assert model.process(
            diff_traces[workload_name], name=workload_name
        ) == expected

    def test_accepts_an_iterator(self, diff_traces):
        records = diff_traces["synth_small"]
        model = ActivityModel()
        assert model.process(iter(records)) == oracle_process(model, records)

    def test_empty_trace(self):
        model = ActivityModel()
        assert model.process([]) == oracle_process(model, [])


# ------------------------------------------------------ layer invariants


class TestSignificanceLayer:
    def test_counts_cover_every_record(self, diff_traces):
        records = diff_traces["synth_small"]
        layer = significance_layer(records, BYTE_SCHEME)
        assert len(layer.ids) == len(records)
        assert sum(layer.counts) == len(records)
        assert len(layer.signatures) == len(layer.examples)
        # A trace revisits few distinct signatures — the paper's premise.
        assert len(layer.signatures) < len(records) // 20

    def test_signature_matches_the_siginfo_oracle(self, diff_traces):
        records = diff_traces["synth_small"]
        layer = significance_layer(records, HALFWORD_SCHEME)
        for record, sid in zip(records, layer.ids):
            signature = layer.signatures[sid]
            info = compute_siginfo(record, scheme=HALFWORD_SCHEME)
            assert signature.word == record.instr.word
            assert signature.src_max == info.max_src_blocks
            assert signature.src_sum == sum(info.src_blocks)
            assert signature.result_blocks == info.result_blocks
            if record.mem_addr is not None:
                assert min(
                    signature.mem_value_blocks,
                    max(1, signature.mem_size // 2),
                ) == info.mem_blocks

    def test_trace_records_memoize_per_scheme(self, diff_traces):
        records = TraceRecords(diff_traces["synth_small"])
        assert records == diff_traces["synth_small"]
        byte_layer = significance_layer(records, BYTE_SCHEME)
        assert significance_layer(records, BYTE_SCHEME) is byte_layer
        assert significance_layer(records, HALFWORD_SCHEME) is not byte_layer

    def test_plain_lists_build_a_fresh_layer(self, diff_traces):
        records = diff_traces["synth_small"]
        assert significance_layer(records) is not significance_layer(records)

    def test_shared_layer_simulations_equal_fresh_ones(self, diff_traces):
        records = diff_traces["synth_small"]
        shared = TraceRecords(records)
        for organization in ALL_ORGANIZATIONS:
            assert InOrderPipeline(organization).run(shared) == (
                InOrderPipeline(organization).run(records)
            )


# ------------------------------------------------------ build accounting


def _layer_builds(session, experiment_ids):
    tracer = tracing.start_trace()
    try:
        session.run(experiment_ids)
    finally:
        tracing.set_tracer(None)
    return [
        event["args"] for event in tracer.events
        if event["name"] == "significance.layer"
    ]


def test_session_builds_one_layer_per_scheme(tmp_path):
    workloads = [get_workload("synth_small")]
    experiment_ids = canonical_experiment_ids()
    # Pinned to the tabular kernel: the reference kernel expands inline
    # and builds no layer.
    cold = _layer_builds(
        ExperimentSession(
            workloads=workloads, cache_dir=str(tmp_path), kernel=TABULAR_KERNEL
        ),
        experiment_ids,
    )
    # baseline32's block32, the byte organizations' and the byte activity
    # model's byte3, halfword_serial's and Table 6's block16.
    assert sorted(build["scheme"] for build in cold) == [
        "block16", "block32", "byte3",
    ]
    for build in cold:
        assert build["workload"] == "synth_small"
        assert build["records"] > build["signatures"] > 0
    warm = _layer_builds(
        ExperimentSession(
            workloads=workloads, cache_dir=str(tmp_path), kernel=TABULAR_KERNEL
        ),
        experiment_ids,
    )
    assert warm == []
