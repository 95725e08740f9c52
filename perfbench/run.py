"""circhess benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload fuzz-sparse --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; circhess is imported from `src` there.
The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; each metric has a `value` and a `unit`.

With --trace 0 the end-to-end metrics are reported (see BENCHMARK.json).
Call times are in "ref", durations of a reference loop timed beside the
calls (see refclock.py), because a shared host's speed drifts by tens of
percent between and within runs:
  throughput_per_ref  fuzz: candidates examined (from the search reports)
                      per ref of search() time; pipeline: commands that
                      passed the gate per ref of command time
  call_p50_ref,       latency of one top-level call (a search() call or a
  call_p90_ref        CLI command), nearest rank; a failed call counts as
                      infinitely slow.  fuzz-sparse and pipeline make at
                      least 100 calls a run; fuzz-exhaustive makes one
  peak_rss_mb         peak resident set size of the benchmark process
  setup_s             median over repeats of: fresh import, field
                      construction, input generation and input files
With --trace 1 a traced run reports the per-layer metrics instead: spans
around every public circhess function, Matrix counters, payload-operation
counts per candidate or command from a separate counting pass, and the
tracer's own overhead.

Failed operations (a raised exception, a nonzero exit or an output that
fails the correctness gate) count in `failed` and make `correct` false.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from refclock import RefClock, WallClock  # noqa: E402
from tracer import FIELD_KINDS, FIELD_OPS, FieldOpCounter, Tracer, TracerError  # noqa: E402

WORKLOADS = ("fuzz-exhaustive", "fuzz-sparse", "pipeline")

# per-layer span metrics: metric name -> span name
SPAN_SECONDS = {
    "systems.split_form_build_s": "systems.split_form_build",
    "linalg.primitive_idempotents_s": "linalg.primitive_idempotents",
    "systems.verify_ch_axioms_s": "systems.verify_ch_axioms",
    "systems.ingest_pair_s": "systems.ingest_pair",
    "recurrence.recurrence_status_s": "recurrence.recurrence_status",
    "families.classify_family_s": "families.classify_family",
    "bases.build_basis_catalog_s": "bases.build_basis_catalog",
    "bases.transition_s": "bases.transition",
    "bases.represent_s": "bases.represent",
    "bases.standard_form_entries_s": "bases.standard_form_entries",
    "bases.psi_check_s": "bases.psi_check",
}
SPAN_CALLS = {
    "systems.split_form_build_calls": "systems.split_form_build",
    "linalg.primitive_idempotents_calls": "linalg.primitive_idempotents",
    "systems.verify_ch_axioms_calls": "systems.verify_ch_axioms",
    "linalg.determinant_calls": "linalg.determinant",
    "linalg.matrix_inverse_calls": "linalg.matrix_inverse",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, seed, seconds, sizes, src, workdir):
    """Fresh import plus the workload's inputs."""
    ch = wl.import_circhess(src)
    if workload == "pipeline":
        return ch, wl.pipeline_setup(ch, seed, sizes, workdir)
    # more configs than a run can use; making one costs microseconds
    return ch, wl.fuzz_setup(ch, workload, seed, sizes, sizes.min_calls + 50 * seconds)


def timed_run(workload, seed, seconds, sizes, src, workdir, outcome):
    setup_times = []
    for _ in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        ch, inputs = setup(workload, seed, seconds, sizes, src, workdir)
        setup_times.append(time.perf_counter() - t0)
    wl.ext_fuzz(ch, seed, sizes)  # untimed; reported by traced runs
    with RefClock() as clock:
        deadline = time.perf_counter() + seconds
        if workload == "pipeline":
            calls = wl.pipeline_pass(ch, inputs, outcome, clock, deadline=deadline,
                                     min_calls=sizes.min_calls)
            done = sum(c[-1] for c in calls)  # commands that passed the gate
        else:
            calls = wl.fuzz_pass(inputs, outcome, clock, deadline=deadline,
                                 min_calls=sizes.min_calls)
            done = sum(c[2] for c in calls if c[-1])  # candidates examined
    refs = [clock.refs(c[0], c[1]) for c in calls]
    throughput = done / sum(refs)
    # a failed call counts as slower than any limit
    refs = [r if c[-1] else math.inf for r, c in zip(refs, calls)]
    return {
        "throughput_per_ref": (throughput, "1/ref"),
        "call_p50_ref": (statistics.median(refs), "ref"),
        "call_p90_ref": (percentile(refs, 0.9), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _layer_metrics(tracer: Tracer, candidates: int, ch_found: int):
    inclusive, self_time = tracer.totals()
    calls = tracer.calls
    hits = tracer.direct_children("search.search", "systems.split_form_build")
    status_calls = calls["recurrence.recurrence_status"]
    m = {
        "search.self_s": (self_time["search.search"], "s"),
        "search.candidates": (candidates, "count"),
        "search.probe_hits": (hits, "count"),
        "search.probe_hit_ratio": (hits / candidates if candidates else 0.0, "ratio"),
        "search.oracle_confirm_ratio": (ch_found / hits if hits else 0.0, "ratio"),
        "linalg.matrix_new_count": (calls["linalg.matrix_new"], "count"),
        "linalg.matrix_mul_count": (calls["linalg.matrix_mul"], "count"),
        "recurrence.recurrent_ratio": (
            tracer.recurrent / status_calls if status_calls else 0.0, "ratio"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.commands": (calls["cli.main"], "count"),
    }
    for metric, span in SPAN_SECONDS.items():
        m[metric] = (inclusive[span], "s")
    for metric, span in SPAN_CALLS.items():
        m[metric] = (calls[span], "count")
    return m


def _require(cond: bool, what: str):
    if not cond:
        raise TracerError(f"traced counts contradict the code: {what}")


def traced_run(workload, seed, seconds, sizes, src, workdir, outcome):
    """A traced pass for the per-layer metrics, a field-op counting pass,
    and the tracer's overhead: an untraced and a traced pass over the same
    fixed sample, in refs."""
    ch, inputs = setup(workload, seed, seconds, sizes, src, workdir)
    ext_failed = wl.ext_fuzz(ch, seed, sizes)
    clock, tracer, counter = WallClock(), Tracer(), FieldOpCounter()
    if workload == "pipeline":
        def sample_pass(clk, instrument=None):
            return wl.pipeline_pass(ch, inputs[:1], outcome, clk, ncycles=1,
                                    instrument=instrument)

        calls = sample_pass(clock, tracer)
        ingests = sum(kind == "ingest" for case in inputs[0] for kind, _ in case.commands)
        _require(tracer.calls["cli.main"] == len(calls), "cli.main calls != commands run")
        _require(tracer.calls["systems.ingest_pair"] == ingests,
                 "ingest_pair calls != raw-pair verify commands")
        metrics = _layer_metrics(tracer, 0, 0)
        per = len(sample_pass(clock, counter))
    else:
        exhaustive = workload == "fuzz-exhaustive"
        spec = ch.field_from_string(wl.FUZZ_FIELD)
        d = sizes.exhaustive_d if exhaustive else sizes.sparse_d
        # fuzz-exhaustive's one pass takes a minute, so its overhead pair
        # runs on a seeded random sample of the GF(5) space instead
        sample = wl.random_configs(
            ch, spec, d, seed, sizes.trace_calls,
            sizes.exhaustive_sample_trials if exhaustive else sizes.sparse_trials)

        def sample_pass(clk, instrument=None):
            return wl.fuzz_pass(inputs, outcome, clk, configs=sample, instrument=instrument)

        calls = (wl.fuzz_pass(inputs, outcome, clock, instrument=tracer) if exhaustive
                 else sample_pass(clock, tracer))
        ch_found = sum(c[3] for c in calls)
        metrics = _layer_metrics(tracer, sum(c[2] for c in calls), ch_found)
        hits = metrics["search.probe_hits"][0]
        _require(tracer.calls["search.search"] == len(calls), "search calls != searches run")
        _require(hits == tracer.calls["systems.split_form_build"],
                 "oracle builds outside search's probe hits")
        if inputs.expect is not None:
            _require(hits == inputs.expect[1], f"probe hits {hits} != {inputs.expect[1]}")
        outcome.record(hits == ch_found, f"probe/oracle disagree: {ch_found} of {hits}")
        count_cfg = wl.random_configs(ch, spec, d, seed, 1, sizes.count_trials)
        per = sum(c[2] for c in wl.fuzz_pass(inputs, outcome, clock, configs=count_cfg,
                                              instrument=counter))
    for kind in FIELD_KINDS.values():
        for op in FIELD_OPS:
            key = f"fields.{kind}.{op}"
            metrics[key] = (counter.counts[key] / per if per else 0.0, "count/op")
    with RefClock() as refclock:
        # plain, traced, traced, plain: cancels a linear drift
        passes = [sample_pass(refclock, instrument)
                  for instrument in (None, Tracer(), Tracer(), None)]
    refs = [sum(refclock.refs(c[0], c[1]) for c in calls) for calls in passes]
    metrics["search.ext_fuzz_failed"] = (int(ext_failed), "count")
    metrics["trace.overhead_ratio"] = ((refs[1] + refs[2]) / (refs[0] + refs[3]), "ratio")
    return metrics


def run(workload, seed, seconds, trace, src, workdir, sizes=wl.FULL):
    outcome = wl.Outcome()
    body = traced_run if trace else timed_run
    metrics = body(workload, seed, seconds, sizes, src, workdir, outcome)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "circhess" / "__init__.py").is_file():
        print(f"error: no circhess sources under {src}", file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
