"""End-to-end and per-layer benchmark of ``repro all``.

Runs the fixed matrix ``repro all --workloads rawcaudio,synth_small
--scale 1`` through the real CLI, one fresh child process per invocation,
against a private copy of ``src/`` and a private cache directory, and
checks every invocation's stdout against the recorded digest.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE.txt NEW.txt

Workloads (:data:`WORKLOADS`):

* ``cold``: one ``--jobs 1`` invocation on an empty cache dir.
* ``warm``: set-up populates the cache with one cold invocation; the
  measured region is a batch of ``--jobs 2`` invocations.
* ``edit_warm``: set-up populates the cache, then appends one comment
  line to ``repro/pipeline/activity.py`` in the private copy; the measured
  region is one ``--jobs 1`` invocation.

Times are normalized by a host-speed clock: ``sampler.py`` runs next to
the measured processes for the whole run and times a fixed pure-Python
loop every 50 ms, and each timed interval is divided by the trimmed mean
loop time sampled during it (``wall_norm``).  On a shared host raw
wall time drifts with the other tenants, and the ratio drifts far less.

``--trace 1`` repeats the untraced measured region, then makes one traced
invocation through ``shim.py`` on a copy of the same set-up state and
reports the per-layer metrics (:data:`PER_LAYER`) instead of the
end-to-end ones (:data:`END_TO_END`).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--compare BASE NEW`` reads two files of such result lines (one run per
line; other lines are skipped) and prints, per metric, both medians, the
delta and the delta as a share of the base.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import py_compile  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import namedtuple  # noqa: E402

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIM = os.path.join(HERE, "shim.py")
SAMPLER = os.path.join(HERE, "sampler.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The ROADMAP's fixed matrix; its text output is a fixed point.
MATRIX = ("all", "--workloads", "rawcaudio,synth_small", "--scale", "1")
#: sha256 of the matrix's stdout (identical for every ``--jobs``).
EXPECTED_SHA256 = (
    "d3e19991fedec2afe55917ea79daf91a37688d86d08eeb2eaa93857520b9d68a"
)
HASH_SEED = "0"
EDIT_TARGET = os.path.join("repro", "pipeline", "activity.py")
CHILD_TIMEOUT_S = 150

#: Host-speed sampling: one reference loop every SAMPLE_PERIOD_S; an
#: interval is normalized by the samples taken during it, or by the
#: NEAREST_SAMPLES closest in time when fewer ran during it.  Their mean,
#: with TRIM_SHARE cut from each end, is the host's speed: loop times on a
#: shared host are a mix of a fast and a slow mode, and a mean follows the
#: mix linearly where a median jumps between the modes.
SAMPLE_PERIOD_S = 0.05
NEAREST_SAMPLES = 10
TRIM_SHARE = 0.1
#: Scale that turns a set-up's normalized time back into seconds: the
#: typical reference-loop time on the 2-core reference host while the
#: other core is busy.  ``setup_s`` is therefore seconds on that host, not on
#: whatever the host is doing at the moment.
REF_NOMINAL_S = 0.002
#: Warm invocations per measured second (about 0.25 s each).  The batch
#: size is fixed by ``--seconds``, not by the clock, so ``store_bytes``
#: (one run manifest per invocation) does not depend on the host's speed.
WARM_INVOCATIONS_PER_S = 4
#: Set-ups per cold run (the reported ``setup_s`` is their median).
#: warm and edit_warm set up once: their set-up is a full cold populate.
COLD_SETUP_REPEATS = 3

Workload = namedtuple("Workload", "name jobs populate edit batch why")

WORKLOADS = {
    w.name: w for w in (
        Workload("cold", 1, False, False, False,
                 "empty cache: every compute layer does its full work"),
        Workload("warm", 2, True, False, True,
                 "everything cached: import, cache keys, store lookups, "
                 "the experiment pool and rendering"),
        Workload("edit_warm", 1, True, True, False,
                 "one engine module touched: traces stay valid, results "
                 "are rewritten"),
    )
}

#: (name, unit, better, bound, why)
END_TO_END = (
    ("wall_norm", "ratio", "lower", 0.25,
     "wall time of the measured invocation over the reference-loop time "
     "sampled during it; warm: median over the batch"),
    ("setup_s", "s", "lower", 0.25,
     "set-up time on the host-normalized clock, in reference-host seconds "
     "(cold: median of 3 tree set-ups; warm, edit_warm: tree plus one cold "
     "populate)"),
    ("peak_rss_mb", "MB", "lower", 0.05,
     "largest child max-RSS in the measured region, from os.wait4"),
    ("store_bytes", "bytes", "lower", 0.05,
     "bytes under the cache dir after the measured region, run manifests "
     "included"),
)

#: (name, unit, better, why).  ``_s`` times are self times of the layer's
#: spans unless the reason says otherwise.
PER_LAYER = (
    ("cli.import_s", "s", "lower", "import repro.cli in a fresh interpreter"),
    ("workloads.source_calls", "count", "lower",
     "Workload.source calls; each regenerates MiniC source and inputs"),
    ("workloads.source_s", "s", "lower", "Workload.source"),
    ("trace_cache.source_hash_calls", "count", "lower",
     "source_hash calls, one per cache key"),
    ("trace_cache.source_hash_s", "s", "lower", "trace_cache.source_hash"),
    ("session.render_s", "s", "lower",
     "ExperimentSession.run (or run_iter) minus prepare_units, inclusive"),
    ("session.prepare_s", "s", "lower",
     "ExperimentSession.prepare_units, inclusive"),
    ("minic.compile_s", "s", "lower", "Workload.program"),
    ("sim.interpret_s", "s", "lower", "Workload.run"),
    ("sim.interpret_records", "count", "lower",
     "trace records produced by the interpreter"),
    ("tracefile.encode_s", "s", "lower", "tracefile.encode_records"),
    ("tracefile.encoded_bytes", "bytes", "lower",
     "payload bytes from encode_records"),
    ("kernel.expand_calls", "count", "lower", "TabularKernel.expand calls"),
    ("kernel.expand_s", "s", "lower", "TabularKernel.expand"),
    ("kernel.expand_records_per_s", "1/s", "higher",
     "records expanded per second of expand self time"),
    ("kernel.simulate_s", "s", "lower", "TabularKernel.simulate"),
    ("kernel.simulate_ips", "1/s", "higher",
     "instructions simulated per second of simulate self time"),
    ("activity.process_calls", "count", "lower", "ActivityModel.process calls"),
    ("activity.process_s", "s", "lower", "ActivityModel.process"),
    ("activity.records_per_s", "1/s", "higher",
     "records per second of process self time"),
    ("hierarchy.memo_calls", "count", "higher",
     "MemoHierarchy stall lookups (counted, not timed)"),
    ("hierarchy.reference_calls", "count", "lower",
     "MemoryHierarchy accesses (counted, not timed)"),
    ("walkers.records_fed", "count", "lower",
     "TraceWalker.feed calls (counted, not timed)"),
    ("walkers.s", "s", "lower",
     "fused walk groups, streaming decode included"),
    ("analysis.analyze_s", "s", "lower", "analysis.analyze_program"),
    ("analysis.tag_table_s", "s", "lower", "analysis.build_tag_table"),
    ("tracefile.decode_s", "s", "lower", "tracefile.load_trace"),
    ("tracefile.decoded_records", "count", "lower",
     "records from load_trace plus streamed by iter_records"),
    ("trace_cache.load_calls", "count", "lower", "TraceCache.load calls"),
    ("trace_cache.load_hits", "count", "higher", "TraceCache.load hits"),
    ("result_store.load_calls", "count", "lower", "ResultStore.load calls"),
    ("result_store.load_hits", "count", "higher", "ResultStore.load hits"),
    ("result_store.store_calls", "count", "lower", "ResultStore.store calls"),
    ("result_store.store_bytes_written", "bytes", "lower",
     "bytes of the result entries written"),
    ("scheduler.units_requested", "count", "lower",
     "units passed to ResultBroker.run_units, before dedupe"),
    ("scheduler.units_computed", "count", "lower",
     "units run_units computed"),
    ("scheduler.hit_ratio", "ratio", "higher",
     "store hits over store hits plus computed units"),
    ("runlog.write_s", "s", "lower", "runlog.write_runlog"),
    ("runlog.bytes", "bytes", "lower", "run manifest size"),
    ("supervisor.tasks", "count", "lower",
     "tasks handed to SupervisedExecutor.run"),
    ("supervisor.retries", "count", "lower", "unit_retries counter"),
    ("host.wall_s", "s", "lower",
     "raw seconds of one untraced measured invocation (warm: median)"),
    ("host.calib_s", "s", "lower",
     "reference-loop time during the measured invocations (median)"),
    ("traced.overhead", "ratio", "lower",
     "traced minus untraced wall_norm"),
    ("traced.coverage", "ratio", "higher",
     "share of the traced wall covered by import and top-level layer spans"),
)

#: Per-layer ``_s`` metrics that are self times: metric -> shim layer.
SELF_TIMES = {
    "workloads.source_s": "workloads.source",
    "trace_cache.source_hash_s": "trace_cache.source_hash",
    "minic.compile_s": "minic.compile",
    "sim.interpret_s": "sim.interpret",
    "tracefile.encode_s": "tracefile.encode",
    "kernel.expand_s": "kernel.expand",
    "kernel.simulate_s": "kernel.simulate",
    "activity.process_s": "activity.process",
    "walkers.s": "walkers",
    "analysis.analyze_s": "analysis.analyze",
    "analysis.tag_table_s": "analysis.tag_table",
    "tracefile.decode_s": "tracefile.decode",
    "runlog.write_s": "runlog.write",
}

#: Per-layer metrics that are the shim's counters of the same name.
COUNTED = (
    "workloads.source_calls", "trace_cache.source_hash_calls",
    "sim.interpret_records", "tracefile.encoded_bytes", "kernel.expand_calls",
    "activity.process_calls", "hierarchy.memo_calls",
    "hierarchy.reference_calls", "walkers.records_fed",
    "tracefile.decoded_records", "trace_cache.load_calls",
    "trace_cache.load_hits", "result_store.load_calls",
    "result_store.load_hits", "result_store.store_calls",
    "result_store.store_bytes_written", "scheduler.units_requested",
    "scheduler.units_computed", "runlog.bytes", "supervisor.tasks",
    "supervisor.retries",
)


class SetupError(RuntimeError):
    """Set-up could not produce the state a workload measures."""


# ------------------------------------------------------------ host clock

Interval = namedtuple("Interval", "start end")


class Sampler:
    """``sampler.py`` in a child process for the length of a ``with``."""

    def __init__(self, path):
        self.path = path
        self.process = None

    def __enter__(self):
        self.process = subprocess.Popen(
            [sys.executable, SAMPLER, self.path, repr(SAMPLE_PERIOD_S)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            cwd=os.path.dirname(self.path),
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
        return self

    def __exit__(self, *exc_info):
        self.process.terminate()
        self.process.wait()

    def samples(self):
        """``[(midpoint, seconds)]`` for every complete sample so far."""
        samples = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) == 2 and line.endswith("\n"):
                    start, seconds = float(fields[0]), float(fields[1])
                    samples.append((start + seconds / 2, seconds))
        if len(samples) < NEAREST_SAMPLES:
            raise SetupError("host-speed sampler produced %d samples"
                             % len(samples))
        return samples


def local_reference(samples, interval):
    """Trimmed mean reference-loop time around ``interval``.

    Uses every sample taken during the interval, or the
    :data:`NEAREST_SAMPLES` closest to it in time when fewer ran during it,
    so each interval is scaled by the host's speed at that moment, not at
    start-up.
    """
    def distance(sample):
        return max(0.0, interval.start - sample[0], sample[0] - interval.end)

    inside = [sample for sample in samples if distance(sample) == 0.0]
    if len(inside) < NEAREST_SAMPLES:
        inside = sorted(samples, key=distance)[:NEAREST_SAMPLES]
    times = sorted(seconds for _mid, seconds in inside)
    cut = int(len(times) * TRIM_SHARE)
    return statistics.fmean(times[cut:len(times) - cut])


def normalized(samples, interval):
    """``interval``'s length in reference-loop units."""
    return (interval.end - interval.start) / local_reference(samples, interval)


# --------------------------------------------------------------- children

class Child(namedtuple("Child", "code out rss_mb interval")):
    """One finished child: exit code, stdout, max RSS and its interval."""

    @property
    def ok(self):
        """True when a run of :data:`MATRIX` exited 0 with the recorded
        stdout."""
        return (self.code == 0
                and hashlib.sha256(self.out).hexdigest() == EXPECTED_SHA256)


def child_env(tree):
    """Environment for a child: the private tree (also its temp dir), a
    fixed hash seed, no bytecode writes and none of the program's
    ``REPRO_*`` overrides."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = tree
    return env


def spawn(tree, cli_args, spans_out=None):
    """Run ``repro <cli_args>`` in a fresh process on the private tree.

    With ``spans_out`` the run goes through the traced shim.  The child's
    own rusage comes from ``os.wait4`` (``RUSAGE_CHILDREN`` would also
    carry every earlier child of this process).
    """
    prefix = ["-m", "repro.cli"] if spans_out is None else [SHIM, spans_out, "--"]
    argv = [sys.executable, *prefix, *cli_args]
    with open(os.path.join(tree, "stderr.log"), "ab") as errors:
        start = clock()
        process = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=errors, cwd=tree, env=child_env(tree),
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        timer.start()
        try:
            out = process.stdout.read()
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
            process.stdout.close()
        end = clock()
    process.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, out, usage.ru_maxrss / 1024.0, Interval(start, end))


def invoke(tree, cache, jobs, spans_out=None):
    """One run of :data:`MATRIX` (check it with :attr:`Child.ok`)."""
    return spawn(
        tree, MATRIX + ("--jobs", str(jobs), "--cache-dir", cache), spans_out
    )


def tree_bytes(path):
    """Bytes of every file under ``path``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for filename in filenames:
            total += os.path.getsize(os.path.join(dirpath, filename))
    return total


# ----------------------------------------------------------------- set-up

def make_tree(directory):
    """Copy ``src/`` into ``directory`` and byte-compile the copy."""
    os.makedirs(directory)
    source = os.path.join(directory, "src")
    shutil.copytree(
        os.path.join(ROOT, "src"), source,
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
    )
    if not compileall.compile_dir(source, quiet=1):
        raise SetupError("byte-compiling the private tree failed")
    return directory


def set_up(workload, workdir, seed):
    """Build the state ``workload`` measures.

    Returns ``(tree, cache, intervals)``: ``intervals`` times each set-up
    made (only the last one's tree is kept).
    """
    repeats = 1 if workload.populate else COLD_SETUP_REPEATS
    intervals = []
    for attempt in range(repeats):
        start = clock()
        tree = make_tree(os.path.join(workdir, "tree%d" % attempt))
        cache = os.path.join(tree, "cache")
        populate = invoke(tree, cache, 1) if workload.populate else None
        if populate is not None and not populate.ok:
            with open(os.path.join(tree, "stderr.log"), "rb") as handle:
                tail = handle.read()[-2000:].decode("utf-8", "replace")
            raise SetupError(
                "populate run: exit %d, stdout sha256 %s (expected %s)\n%s"
                % (populate.code, hashlib.sha256(populate.out).hexdigest(),
                   EXPECTED_SHA256, tail)
            )
        if workload.edit:
            target = os.path.join(tree, "src", EDIT_TARGET)
            with open(target, "a", encoding="utf-8") as handle:
                handle.write("# perfbench edit, seed %d\n" % seed)
            py_compile.compile(target, doraise=True)
        intervals.append(Interval(start, clock()))
        if attempt + 1 < repeats:
            shutil.rmtree(tree)
    return tree, cache, intervals


def measure(workload, tree, cache, seconds):
    """The untraced measured region; returns its invocations."""
    count = max(3, seconds * WARM_INVOCATIONS_PER_S) if workload.batch else 1
    return [invoke(tree, cache, workload.jobs) for _ in range(count)]


def wall_norm(samples, invocations):
    """The workload's ``wall_norm``: the median normalized invocation."""
    return statistics.median(
        normalized(samples, inv.interval) for inv in invocations
    )


def self_times(spans):
    """``{layer: seconds}``: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            covered[parent] += end - start
    totals = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        if end is not None:
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


def durations(spans, name):
    """Total inclusive seconds of the spans called ``name``."""
    return sum(end - start for span_name, start, end, _ in spans
               if span_name == name and end is not None)


def layer_metrics(trace, traced_wall):
    """Per-layer values from a shim trace document (no host metrics)."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    values = {metric: own.get(layer, 0.0) for metric, layer in SELF_TIMES.items()}
    values.update({metric: counts.get(metric, 0) for metric in COUNTED})
    values["cli.import_s"] = trace["import_s"]
    prepare = durations(spans, "session.prepare")
    values["session.prepare_s"] = prepare
    values["session.render_s"] = durations(spans, "session.run") - prepare
    for rate, (work, seconds) in {
        "kernel.expand_records_per_s": ("kernel.expand_records", "kernel.expand_s"),
        "kernel.simulate_ips": ("kernel.simulate_instructions", "kernel.simulate_s"),
        "activity.records_per_s": ("activity.records", "activity.process_s"),
    }.items():
        values[rate] = counts.get(work, 0) / values[seconds] if values[seconds] else 0.0
    hits = counts.get("scheduler.disk_hits", 0)
    looked_up = hits + values["scheduler.units_computed"]
    values["scheduler.hit_ratio"] = hits / looked_up if looked_up else 0.0
    roots = sum(end - start for _n, start, end, parent in spans
                if parent < 0 and end is not None)
    values["traced.coverage"] = (trace["import_s"] + roots) / traced_wall
    return values


def run(workload, seed, seconds, traced, workdir):
    """One benchmark run; returns the result object to print."""
    os.makedirs(workdir)
    with Sampler(os.path.join(workdir, "host-samples.txt")) as sampler:
        tree, cache, setups = set_up(workload, workdir, seed)
        traced_cache = os.path.join(tree, "cache-traced")
        if traced and workload.populate:
            shutil.copytree(cache, traced_cache)
        invocations = measure(workload, tree, cache, seconds)
        store_bytes = tree_bytes(cache)
        if traced:
            spans_out = os.path.join(tree, "spans.json")
            traced_inv = invoke(tree, traced_cache, workload.jobs, spans_out)
        samples = sampler.samples()
    metrics = {}
    checks_ok = True
    if traced:
        invocations.append(traced_inv)
        with open(spans_out, encoding="utf-8") as handle:
            trace = json.load(handle)
        traced_wall = traced_inv.interval.end - traced_inv.interval.start
        values = layer_metrics(trace, traced_wall)
        measured = invocations[:-1]
        values["host.wall_s"] = statistics.median(
            inv.interval.end - inv.interval.start for inv in measured
        )
        values["host.calib_s"] = statistics.median(
            local_reference(samples, inv.interval) for inv in measured
        )
        values["traced.overhead"] = (
            normalized(samples, traced_inv.interval)
            - wall_norm(samples, measured)
        )
        if workload.name == "warm":
            # A warm run must compute nothing and encode no trace.
            checks_ok = (
                values["scheduler.units_computed"] == 0
                and trace["counts"].get("tracefile.encode_calls", 0) == 0
            )
        for name, unit, _better, _why in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        values = {
            "wall_norm": wall_norm(samples, invocations),
            "setup_s": REF_NOMINAL_S * statistics.median(
                normalized(samples, interval) for interval in setups
            ),
            "peak_rss_mb": max(inv.rss_mb for inv in invocations),
            "store_bytes": store_bytes,
        }
        for name, unit, _better, _bound, _why in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    failed = sum(not inv.ok for inv in invocations)
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------- compare

def read_results(path):
    """Result objects from a file of benchmark output lines."""
    results = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                document = json.loads(line)
            except ValueError:
                continue
            if isinstance(document, dict) and "metrics" in document:
                results.append(document)
    if not results:
        raise SystemExit("%s: no benchmark result lines" % path)
    return results


def compare(base_path, new_path, out=sys.stdout):
    """Print per-metric medians of two result files and their deltas."""
    base, new = read_results(base_path), read_results(new_path)
    names = [n for n in base[0]["metrics"] if n in new[0]["metrics"]]
    width = max([len(n) for n in names] + [6])
    print("%-*s  %-6s %14s %14s %14s %9s  (runs: base %d, new %d)"
          % (width, "metric", "unit", "base", "new", "delta", "rel",
             len(base), len(new)), file=out)
    for name in names:
        old = statistics.median(r["metrics"][name]["value"] for r in base
                                if name in r["metrics"])
        now = statistics.median(r["metrics"][name]["value"] for r in new
                                if name in r["metrics"])
        rel = "%+8.2f%%" % (100.0 * (now - old) / old) if old else "      n/a"
        print("%-*s  %-6s %14.6g %14.6g %+14.6g %s"
              % (width, name, base[0]["metrics"][name]["unit"], old, now,
                 now - old, rel), file=out)


# ------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no src/repro/cli.py under %s" % ROOT, file=sys.stderr)
        return 2
    workdir = os.path.join(
        WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    )
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir)
    except SetupError as error:
        print("perfbench: set-up failed: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
