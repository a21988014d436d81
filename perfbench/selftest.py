"""Tests of the benchmark itself (not collected by the repo's test run).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The traced-run tests drive the real CLI on ``synth_small`` (a few
seconds), in a private tree under ``.perfbench_work/``.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SMALL = ("all", "--workloads", "synth_small", "--jobs", "1")


@pytest.fixture(scope="module")
def workdir():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass


@pytest.fixture(scope="module")
def small_runs(workdir):
    """One untraced and one traced cold ``synth_small`` run, own caches."""
    tree = run.make_tree(os.path.join(workdir, "tree"))
    plain = run.spawn(tree, SMALL + ("--cache-dir", os.path.join(tree, "c1")))
    spans_out = os.path.join(tree, "spans.json")
    traced = run.spawn(
        tree, SMALL + ("--cache-dir", os.path.join(tree, "c2")), spans_out,
    )
    with open(spans_out, encoding="utf-8") as handle:
        trace = json.load(handle)
    return plain, traced, trace


def test_traced_stdout_is_byte_identical(small_runs):
    plain, traced, _trace = small_runs
    assert plain.code == 0 and traced.code == 0
    assert plain.out and plain.out == traced.out


def test_traced_run_records_the_compute_layers(small_runs):
    _plain, _traced, trace = small_runs
    names = {span[0] for span in trace["spans"]}
    assert {"kernel.expand", "kernel.simulate", "activity.process",
            "walkers", "session.prepare", "result_store.store"} <= names
    assert trace["counts"]["hierarchy.memo_calls"] > 0
    assert trace["counts"]["walkers.records_fed"] > 0


def test_self_times_never_sum_past_the_traced_wall(small_runs):
    _plain, traced, trace = small_runs
    wall = traced.interval.end - traced.interval.start
    own = run.self_times(trace["spans"])
    assert all(seconds >= 0 for seconds in own.values())
    assert trace["import_s"] + sum(own.values()) <= wall
    values = run.layer_metrics(trace, wall)
    assert 0 < values["traced.coverage"] <= 1


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["d", 11.0, 12.0, -1],
    ]
    own = run.self_times(spans)
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert sum(own.values()) == 11.0


def test_wall_norm_uses_interleaved_reference_samples(monkeypatch):
    # One sample per second; the host gets twice as slow at t=20.  Each
    # interval must be scaled by the samples taken around it, not by a
    # single calibration taken at start-up.
    monkeypatch.setattr(run, "NEAREST_SAMPLES", 4)
    samples = [(t + 0.5, 1.0 if t < 20 else 2.0) for t in range(40)]
    early = run.Interval(2.0, 12.0)
    late = run.Interval(28.0, 38.0)
    assert run.normalized(samples, early) == 10.0
    assert run.normalized(samples, late) == 5.0
    # A short interval with no sample inside uses its nearest neighbours.
    assert run.local_reference(samples, run.Interval(30.1, 30.2)) == 2.0
    assert run.local_reference(samples, run.Interval(19.9, 20.2)) == 1.5
    invocations = [run.Child(0, b"", 1.0, i) for i in (early, late, late)]
    assert run.wall_norm(samples, invocations) == 5.0


def test_sampler_records_samples_while_the_host_works(workdir):
    path = os.path.join(workdir, "samples.txt")
    with run.Sampler(path) as sampler:
        start = run.clock()
        while run.clock() - start < 3.0:
            sum(range(10000))
    assert sampler.process.returncode is not None
    samples = sampler.samples()
    assert len(samples) >= run.NEAREST_SAMPLES
    assert all(start - 1.0 < mid < run.clock() for mid, _s in samples)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == [row[:4] for row in run.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [row[:3] for row in run.PER_LAYER]
    mapped = set(run.SELF_TIMES) | set(run.COUNTED)
    assert mapped <= {row[0] for row in run.PER_LAYER}


def test_compare_prints_medians_and_deltas(workdir):
    def result(value):
        return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"wall_norm": {"value": value,
                                                     "unit": "ratio"}}})

    base = os.path.join(workdir, "base.txt")
    new = os.path.join(workdir, "new.txt")
    with open(base, "w", encoding="utf-8") as handle:
        handle.write("noise\n%s\n%s\n%s\n" % (result(10), result(12), result(11)))
    with open(new, "w", encoding="utf-8") as handle:
        handle.write("%s\n" % result(9.9))
    out = io.StringIO()
    run.compare(base, new, out=out)
    row = [line for line in out.getvalue().splitlines()
           if line.startswith("wall_norm")][0].split()
    assert row[1:] == ["ratio", "11", "9.9", "-1.1", "-10.00%"]


def test_exits_nonzero_without_the_program(workdir):
    # A directory holding only BENCHMARK.json and perfbench/.
    bare = os.path.join(workdir, "bare")
    shutil.copytree(os.path.dirname(run.SHIM), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
