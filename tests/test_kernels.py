"""Tests for the pluggable pipeline-kernel API.

The heart is the differential-equivalence suite: for every organization
crossed with a synthetic and a real workload, the ``reference`` and
``tabular`` kernels must produce field-wise equal ``PipelineResult``s —
including predictor runs, ``stage_excess`` and the hierarchy statistics.
Around it: the kernel registry (names, defaults, the ``REPRO_KERNEL``
environment variable, the ``--kernel`` CLI flag), kernel identity in
unit-scheduler keys so cached results never mix backends, the guard
against organizations whose imperative timing hooks diverge from their
declarative plans, the hardened ``PipelineResult.from_dict`` payload
validation, and the ``repro list`` enumeration subcommand.
"""

import json

import pytest

from repro.cli import main
from repro.pipeline import (
    ALL_ORGANIZATIONS,
    InOrderPipeline,
    PipelineResult,
    get_organization,
    simulate,
)
from repro.pipeline.base import RESULT_SCHEMA_VERSION
from repro.pipeline.kernel import (
    ENV_KERNEL,
    REFERENCE_KERNEL,
    TABULAR_KERNEL,
    ExpandedTrace,
    default_kernel_name,
    get_kernel,
    kernel_names,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.pipeline.organizations import ByteSerialOrg
from repro.pipeline.predictor import BimodalPredictor
from repro.sim.hierarchy_model import ENV_HIERARCHY, MEMO_HIERARCHY
from repro.study.scheduler import BIMODAL_VARIANT, SimUnit
from repro.study.result_store import ResultStore
from repro.workloads import get_workload
from repro.workloads.base import Workload

ORGANIZATION_NAMES = tuple(org.name for org in ALL_ORGANIZATIONS)

#: The differential corpus: one synthetic and one real workload.
DIFF_WORKLOADS = ("synth_small", "rawcaudio")

#: Organizations of the predictor-differential cases (the Section 3 set).
PREDICTOR_DIFF_ORGANIZATIONS = (
    "baseline32",
    "byte_serial",
    "parallel_skewed_bypass",
)


@pytest.fixture(autouse=True)
def _neutral_kernel_selection(monkeypatch):
    # These tests pin down default-selection semantics, so an ambient
    # $REPRO_KERNEL (e.g. the CI kernel-matrix leg) must not leak in;
    # env-variable behaviour is tested by setting it explicitly.  The
    # process default is restored afterwards because set_default_kernel
    # (exercised directly and via the --kernel CLI flag) is global.
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    monkeypatch.delenv(ENV_HIERARCHY, raising=False)
    yield
    set_default_kernel(None)


@pytest.fixture(scope="module")
def diff_traces():
    return {name: get_workload(name).trace() for name in DIFF_WORKLOADS}


def _run(records, organization, kernel, predictor=None):
    return InOrderPipeline(
        organization, predictor=predictor, kernel=kernel
    ).run(records)


# ------------------------------------------------- differential equivalence


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("workload_name", DIFF_WORKLOADS)
    @pytest.mark.parametrize("org_name", ORGANIZATION_NAMES)
    def test_tabular_equals_reference(self, diff_traces, workload_name, org_name):
        records = diff_traces[workload_name]
        organization = get_organization(org_name)
        reference = _run(records, organization, REFERENCE_KERNEL)
        tabular = _run(records, organization, TABULAR_KERNEL)
        # PipelineResult.__eq__ is field-wise: stalls, stage_excess,
        # hierarchy_stats and predictor_accuracy all participate.
        assert tabular == reference

    @pytest.mark.parametrize("org_name", PREDICTOR_DIFF_ORGANIZATIONS)
    def test_tabular_equals_reference_with_predictor(self, diff_traces, org_name):
        records = diff_traces["synth_small"]
        organization = get_organization(org_name)
        reference = _run(
            records, organization, REFERENCE_KERNEL, predictor=BimodalPredictor()
        )
        tabular = _run(
            records, organization, TABULAR_KERNEL, predictor=BimodalPredictor()
        )
        assert tabular == reference
        assert tabular.predictor_accuracy == reference.predictor_accuracy
        assert tabular.predictor_accuracy is not None

    def test_stage_excess_and_bottleneck_agree(self, diff_traces):
        records = diff_traces["rawcaudio"]
        organization = get_organization("byte_serial")
        reference = _run(records, organization, REFERENCE_KERNEL)
        tabular = _run(records, organization, TABULAR_KERNEL)
        assert tabular.stage_excess == reference.stage_excess
        assert tabular.bottleneck() == reference.bottleneck()

    def test_simulate_accepts_kernel_names(self, diff_traces):
        records = diff_traces["synth_small"]
        assert simulate("baseline32", records, kernel=TABULAR_KERNEL) == simulate(
            "baseline32", records, kernel=REFERENCE_KERNEL
        )


# ----------------------------------------------------------------- registry


class TestKernelRegistry:
    def test_builtin_kernels_registered(self):
        assert REFERENCE_KERNEL in kernel_names()
        assert TABULAR_KERNEL in kernel_names()

    def test_get_kernel_unknown_name(self):
        with pytest.raises(KeyError) as excinfo:
            get_kernel("systolic")
        assert "tabular" in str(excinfo.value)  # available names are listed

    def test_default_is_tabular(self):
        # ROADMAP's "make tabular the default once soak-tested": the
        # differential suite and the per-kernel CI legs are the soak.
        assert default_kernel_name() == TABULAR_KERNEL

    def test_env_variable_selects_default(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, REFERENCE_KERNEL)
        assert default_kernel_name() == REFERENCE_KERNEL

    def test_unknown_env_kernel_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "systolic")
        with pytest.raises(ValueError):
            default_kernel_name()

    def test_set_default_kernel_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, TABULAR_KERNEL)
        set_default_kernel(REFERENCE_KERNEL)
        assert default_kernel_name() == REFERENCE_KERNEL
        set_default_kernel(None)
        assert default_kernel_name() == TABULAR_KERNEL

    def test_set_default_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_default_kernel("systolic")

    def test_resolve_kernel_accepts_instances(self):
        kernel = get_kernel(TABULAR_KERNEL)
        assert resolve_kernel(kernel) is kernel
        assert resolve_kernel(TABULAR_KERNEL) is kernel
        assert resolve_kernel(None) is get_kernel(default_kernel_name())

    def test_register_kernel_rejects_duplicate_names(self):
        class Impostor:
            name = REFERENCE_KERNEL

        with pytest.raises(ValueError):
            register_kernel(Impostor)

    def test_tabular_rejects_foreign_expansion(self, diff_traces):
        # simulate() must receive the same kernel's expand() output.
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        passthrough = get_kernel(REFERENCE_KERNEL).expand(records, organization)
        pipeline = InOrderPipeline(organization)
        with pytest.raises(ValueError):
            get_kernel(TABULAR_KERNEL).simulate(passthrough, pipeline.hierarchy)

    def test_tabular_rejects_imperative_timing_overrides(self, diff_traces):
        # An organization that bypasses the declarative plans would
        # silently diverge between kernels; expansion refuses it.
        class LegacyOrg(ByteSerialOrg):
            name = "legacy"

            def address_ready(self, record, info, ex_start, ex_end):
                return ex_start + 2

        records = diff_traces["synth_small"]
        with pytest.raises(ValueError) as excinfo:
            get_kernel(TABULAR_KERNEL).expand(records, LegacyOrg())
        assert "address_plan" in str(excinfo.value)

    def test_expanded_trace_repr(self, diff_traces):
        records = diff_traces["synth_small"]
        organization = get_organization("baseline32")
        expanded = get_kernel(TABULAR_KERNEL).expand(records, organization)
        assert isinstance(expanded, ExpandedTrace)
        assert expanded.count == len(records)
        assert "baseline32" in repr(expanded)


# -------------------------------------------------- scheduler/store keying


class TestKernelKeying:
    def test_simunit_defaults_to_process_kernel(self):
        set_default_kernel(REFERENCE_KERNEL)
        assert SimUnit("w", 1, "baseline32").kernel == REFERENCE_KERNEL
        set_default_kernel(None)
        assert SimUnit("w", 1, "baseline32").kernel == TABULAR_KERNEL

    def test_simunit_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            SimUnit("w", 1, "baseline32", None, "systolic")

    def test_descriptor_carries_the_kernel(self):
        unit = SimUnit("w", 1, "baseline32", BIMODAL_VARIANT, TABULAR_KERNEL)
        assert unit.descriptor() == {
            "kind": "pipeline",
            "organization": "baseline32",
            "variant": BIMODAL_VARIANT,
            "kernel": TABULAR_KERNEL,
            "hierarchy": MEMO_HIERARCHY,
        }
        assert unit.slug() == "baseline32+bimodal"
        assert unit.label() == "w@1/baseline32+bimodal"

    def test_store_entries_do_not_mix_kernels(self, tmp_path):
        workload = Workload(
            "w", lambda scale: "int main() { return 0; }", lambda scale: "", "t"
        )
        store = ResultStore(tmp_path)
        reference_unit = SimUnit("w", 1, "baseline32", None, REFERENCE_KERNEL)
        tabular_unit = SimUnit("w", 1, "baseline32", None, TABULAR_KERNEL)
        assert store.path_for(workload, reference_unit) != store.path_for(
            workload, tabular_unit
        )
        store.store(workload, reference_unit, {"cycles": 1})
        assert store.load(workload, tabular_unit) is None
        assert store.load(workload, reference_unit) == {"cycles": 1}


# ---------------------------------------------------- from_dict validation


class TestResultPayloadValidation:
    def _payload(self, **overrides):
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "name": "baseline32",
            "instructions": 10,
            "cycles": 12,
            "stalls": {"branch": 2},
            "hierarchy_stats": {},
            "stage_excess": {"if": 0},
            "predictor_accuracy": None,
        }
        payload.update(overrides)
        return payload

    def test_valid_payload_round_trips(self):
        result = PipelineResult.from_dict(self._payload())
        assert result.stall_fraction("branch") == 1.0

    @pytest.mark.parametrize("field", ["stalls", "stage_excess"])
    @pytest.mark.parametrize("bogus", [[1, 2], "stalls", 7, None])
    def test_non_dict_payloads_rejected(self, field, bogus):
        # A corrupted-but-checksummed entry must fail closed as a
        # ValueError, not surface as a TypeError inside stall_fraction.
        with pytest.raises(ValueError) as excinfo:
            PipelineResult.from_dict(self._payload(**{field: bogus}))
        assert field in str(excinfo.value)


# ------------------------------------------------------------ CLI surface


class TestKernelCli:
    def test_list_enumerates_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "organizations:" in out
        assert "parallel_skewed_bypass" in out
        assert "workloads:" in out
        assert "rawcaudio" in out
        assert "kernels:" in out
        assert "tabular (default)" in out
        assert "reference" in out
        assert "tabular" in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fig10" in payload["experiments"]
        assert payload["organizations"] == list(ORGANIZATION_NAMES)
        assert "synth_small" in payload["workloads"]
        assert set(payload["kernels"]) >= {REFERENCE_KERNEL, TABULAR_KERNEL}
        assert payload["default_kernel"] == TABULAR_KERNEL

    def test_unknown_kernel_flag_exits_2(self, capsys):
        assert main(["fig4", "--kernel", "systolic"]) == 2
        err = capsys.readouterr().err
        assert "systolic" in err
        assert "tabular" in err  # available kernels are listed

    def test_unknown_env_kernel_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "systolic")
        assert main(["fig4", "--workloads", "synth_small"]) == 2
        assert ENV_KERNEL in capsys.readouterr().err

    def test_kernel_flag_output_is_byte_identical(self, capsys):
        args = ["fig4", "--workloads", "synth_small"]
        assert main(args + ["--kernel", REFERENCE_KERNEL]) == 0
        reference_out = capsys.readouterr().out
        assert main(args + ["--kernel", TABULAR_KERNEL]) == 0
        tabular_out = capsys.readouterr().out
        assert tabular_out == reference_out

    def test_kernel_flag_is_session_scoped(self, capsys):
        # --kernel must not mutate the process default: a later bare
        # session in the same process still simulates under 'tabular'.
        assert main(
            ["fig4", "--workloads", "synth_small", "--kernel", REFERENCE_KERNEL]
        ) == 0
        capsys.readouterr()
        assert default_kernel_name() == TABULAR_KERNEL
        from repro.study.session import ExperimentSession

        assert ExperimentSession(workloads=[]).kernel == TABULAR_KERNEL

    def test_jobs_run_still_reports_sim_timings(self, capsys):
        # Simulations run inside forked unit workers; their measured
        # times must ride back to the parent's sim_timings counters.
        args = [
            "fig4",
            "--workloads",
            "synth_small",
            "--jobs",
            "2",
            "--format",
            "json",
            "--kernel",
            TABULAR_KERNEL,
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["sim_misses"].values()) == 3
        timing = payload["sim_timings"][TABULAR_KERNEL]
        assert timing["units"] == 3
        assert timing["seconds"] > 0

    def test_session_kernel_conflicts_with_prebuilt_broker(self):
        from repro.study.scheduler import ResultBroker
        from repro.study.session import ExperimentSession, TraceStore

        store = TraceStore()
        store.results = ResultBroker(store, kernel=REFERENCE_KERNEL)
        # No explicit request: the session adopts the broker's kernel.
        assert ExperimentSession(workloads=[], store=store).kernel == (
            REFERENCE_KERNEL
        )
        with pytest.raises(ValueError):
            ExperimentSession(workloads=[], store=store, kernel=TABULAR_KERNEL)

    def test_json_reports_kernel_and_timings(self, capsys):
        args = [
            "fig4",
            "--workloads",
            "synth_small",
            "--format",
            "json",
            "--kernel",
            TABULAR_KERNEL,
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == TABULAR_KERNEL
        timing = payload["sim_timings"][TABULAR_KERNEL]
        assert timing["units"] == 3  # baseline + two serial organizations
        assert timing["instructions"] > 0
        assert timing["seconds"] > 0
        assert timing["instructions_per_second"] > 0
