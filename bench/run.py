"""trustvet benchmark: time to a verdict, corpus throughput and model build.

Run from the root of a trustvet checkout:

    python3 bench/run.py --workload assess-long --seed 1 --seconds 23 --trace 0

Workloads (see workloads.py): assess-long, assess-imported, evaluate-corpus,
build-models. Each is a closed loop with one client in one process. The
seed makes the inputs; the program sees only the generated inputs.

With --trace 0 the command measures the end-to-end metrics with tracing
off. While it times anything, a fixed gauge (gauge.py) reads the machine's
speed every 100 ms, and the gated times are reported on the scale of a
reference machine, so that a neighbour slowing the shared host does not
read as a regression; the wall-clock figures are printed beside them.

With --trace 1 it first runs untraced for half the time, then repeats the
same operations with spans recorded around trustvet's public functions
(spans.py), and reports per-layer metrics, growth exponents and the tracing
overhead. Spans are written to .bench/spans-<workload>-seed<n>.jsonl.

Every result is checked outside the timed region. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 0 only when every check passed, 1 when one failed and 2 when the
checkout lacks the sources.

    python3 bench/run.py --record-digests

recomputes the reference digests in bench/digests.json. Only do that when a
change is meant to alter the bytes trustvet produces.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import gauge

# One client in one thread: without these, numpy's BLAS starts a worker
# thread per core, which then competes with the client for the few cores.
# Set before trustvet (and so numpy) is imported; set-up interpreters
# inherit them.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DIGESTS = HERE / "digests.json"
OUTPUT = ROOT / ".bench"

SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
GROWTH_REPEATS = 5  # paired small/large timings per growth exponent

# The set-up interpreter times itself, then reads the gauge ten times: in
# the same process, so on the same core, and after the timed import, so
# that the gauge's own imports do not shorten it.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import trustvet, trustvet.cli
if len(sys.argv) > 3:
    trustvet.cli.load_ensemble(sys.argv[3])
elapsed = time.perf_counter() - start
assert trustvet.__file__.startswith(sys.argv[1]), trustvet.__file__
sys.path.insert(0, sys.argv[2])
import gauge
print(repr(elapsed), *(repr(gauge.reading()) for _ in range(10)))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trustvet" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print("error: src/trustvet or tests/oracles.py is missing; run from a trustvet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(TESTS))  # for the reference oracles only
    import trustvet

    if not Path(trustvet.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported trustvet from {trustvet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUTPUT.mkdir(exist_ok=True)
    work = OUTPUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.record_digests:
            return record_digests(workloads, work)
        return run(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- the measured run ---------------------------------------------------------------


class Sample(NamedTuple):
    index: int  # the input
    seconds: float  # wall-clock time of the operation
    scaled: float  # the same on the reference machine's scale (gauge.py)


def slower(samples: list[Sample]) -> float:
    """How many times slower than the reference machine the timed work ran."""
    return sum(s.seconds for s in samples) / sum(s.scaled for s in samples)


class Outcome:
    """Counts operations and failed checks for the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)


def run(args, workloads, work: Path) -> int:
    import trustvet.cli

    outcome = Outcome()
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    outcome.check("; ".join(workload.prepare()) or None)
    model_dir, ensemble_digests = workloads.train_ensemble(work)
    workload.ensemble = trustvet.cli.load_ensemble(model_dir)
    # build-models is checked on the ensemble's own ingest-and-train; the
    # other workloads on their reference inputs screened by that ensemble
    reference = workload.reference_digests() if workload.uses_ensemble else {"ensemble": ensemble_digests}
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name, digests in reference.items():
        outcome.check(None if digests == recorded[name]
                      else f"{name}: reference outputs differ from the recorded digests")
    setup = measure_setup(model_dir if workload.uses_ensemble else None)

    if args.trace:
        untraced = closed_loop(workload, outcome, seconds=args.seconds / 2)
        metrics = traced_run(workload, outcome, untraced, model_dir, args)
    else:
        samples = closed_loop(workload, outcome, seconds=args.seconds)
        metrics = end_to_end(workload, samples, setup, outcome)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def closed_loop(workload, outcome: Outcome, seconds: float | None = None,
                limit: int | None = None, tracer=None) -> list[Sample]:
    """Run operations one after another, cycling through the inputs in
    workload.order: every input once, then on while the next operation is
    expected to end within `seconds` of timed work (or until `limit`
    operations ran). Each operation is scaled by the gauge readings taken
    just before it, while it ran and just after it."""
    samples: list[Sample] = []
    busy = 0.0
    position = 0

    def more() -> bool:
        if limit is not None:
            return len(samples) < limit
        return position < len(workload.order) or busy + busy / len(samples) <= seconds

    sampler = gauge.Sampler()
    with sampler.active():
        while more():
            index = workload.order[position % len(workload.order)]
            first_visit = position < len(workload.order)
            position += 1
            if tracer is not None:
                tracer.request = position
                tracer.first_visit = first_visit
            before = gauge.reading()
            mark, spent = len(sampler.readings), sampler.spent
            start = perf_counter()
            try:
                if tracer is None:
                    result = workload.op(index)
                else:
                    with tracer.span("bench.request"):
                        result = workload.op(index)
                raised = None
            except Exception as error:  # a raising input is a failed operation, not a crash
                raised = error
            elapsed = perf_counter() - start - (sampler.spent - spent)
            readings = [before, *sampler.readings[mark:], gauge.reading()]
            if raised is not None:
                traceback.print_exception(raised)
                outcome.check(f"item {index} raised")
            else:
                outcome.check(workload.check(index, result))
            busy += elapsed
            samples.append(Sample(index, elapsed, gauge.scaled(elapsed, readings)))
    return samples


def measure_setup(model_dir: Path | None) -> list[Sample]:
    """Seconds to import trustvet and its CLI and load the ensemble, each in
    a fresh interpreter, scaled by the gauge readings it takes afterwards."""
    command = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)]
    if model_dir is not None:
        command.append(str(model_dir))
    values = []
    for index in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        seconds, *readings = map(float, done.stdout.split())
        values.append(Sample(index, seconds, gauge.scaled(seconds, readings)))
    return values


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(workload, samples: list[Sample], setup: list[Sample], outcome: Outcome) -> dict:
    """Gated times on the reference machine's scale (gauge.py); the
    wall-clock figures are printed beside them."""
    n = len(samples)
    items = sum(workload.items_per_op(s.index) for s in samples)

    def figures(field: str) -> dict[str, float]:
        times = [getattr(s, field) for s in samples]
        by_input: dict[int, list[float]] = {}
        for sample, time in zip(samples, times):
            by_input.setdefault(sample.index, []).append(time)
        high = tail(times)
        return {
            "setup_s": statistics.median(getattr(s, field) for s in setup),
            # Median over the inputs, each input counted once at its median
            # time, so the extra repeats a run fits in do not shift it.
            "p50_ms": 1000.0 * statistics.median(statistics.median(v) for v in by_input.values()),
            "tail_ms": float("nan") if high is None else 1000.0 * high[1],
            "per_s": items / sum(times),
            "calls_per_s": statistics.median(len(workload.items) / t for t in times),
            "ingest_s": statistics.median(p[0] * t / s.seconds for p, s, t in zip(workload.phases, samples, times))
            if workload.name == "build-models" else 0.0,
            "train_s": statistics.median(p[1] * t / s.seconds for p, s, t in zip(workload.phases, samples, times))
            if workload.name == "build-models" else 0.0,
        }

    scaled, wall = figures("scaled"), figures("seconds")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "latency_p50_ms": (scaled["p50_ms"], "ms"),
        "throughput_per_s": (scaled["per_s"], "items/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # the same numbers under the names each workload's users know them by
    shown = [("setup_s", "setup_s", f"s ({len(setup)} interpreters)")]
    if workload.item_unit == "predictions":
        high = tail([s.seconds for s in samples])
        shown += [
            ("assess_p50_ms", "p50_ms", f"ms ({n} samples of {len(workload.order)} inputs)"),
            ("assess_tail_ms", "tail_ms",
             "ms (under 11 samples, not reported)" if high is None else f"ms at p{high[0]:.1f} ({n} samples)"),
            ("assess_per_s", "per_s", "predictions/s"),
        ]
    elif workload.name == "evaluate-corpus":
        shown.append(("evaluate_records_per_s", "calls_per_s", f"records/s ({n} calls)"))
    else:
        shown += [("ingest_s", "ingest_s", f"s ({n} builds)"), ("train_s", "train_s", "s")]
    print(f"{workload.name}: {n} operations in {sum(s.seconds for s in samples):.2f} s, "
          f"{items} {workload.item_unit}")
    print("  inputs: " + ", ".join(f"{k} {v:.1f}" for k, v in workload.properties().items()))
    print(f"  environment: {environment()}")
    print(f"  machine: the gauge took {slower(samples):.3f} times its reference time while timed, "
          f"{slower(setup):.3f} times in set-up (gauge.py)")
    print(f"  {'':<24} {'scaled':>14} {'wall clock':>14}")
    for name, key, unit in shown:
        print(f"  {name:<24} {scaled[key]:>14.4f} {wall[key]:>14.4f} {unit}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'peak_rss_mb':<24} {rss_mb:>14.4f} {'':>14} MB")
    print(f"  {'failed_ratio':<24} {ratio:>14.4f} {'':>14} ratio ({outcome.failed}/{outcome.attempted})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def environment() -> str:
    import numpy
    import scipy
    from trustvet.config import RunConfig

    config = RunConfig()
    return (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}; run_evaluation workers resolve to {config.workers or 1} "
            f"(README says CPU count, {config.resolved_workers()})")


# --- the traced run -----------------------------------------------------------------


def traced_run(workload, outcome: Outcome, untraced, model_dir: Path, args) -> dict:
    import layers
    import trustvet.cli

    tracer = layers.install_tracer()
    try:
        if workload.uses_ensemble:
            workload.ensemble = trustvet.cli.load_ensemble(model_dir)
            for member in workload.ensemble:
                tracer.count_calls(member, "classify", "ensemble.classify_calls")
        traced = closed_loop(workload, outcome, limit=len(untraced), tracer=tracer)
    finally:
        tracer.restore()
    tracer.write(OUTPUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    overhead = sum(s.scaled for s in traced) / sum(s.scaled for s in untraced)
    growth = layers.growth_exponents(args.seed, GROWTH_REPEATS)
    metrics, problems = layers.layer_metrics(tracer, workload, overhead, growth, slower(traced))
    outcome.check("; ".join(problems) or None)
    for name, value in metrics.items():
        print(f"  {name:<36} {value['value']:>14.4f} {value['unit']}")
    return metrics


# --- recording the reference digests ------------------------------------------------


def record_digests(workloads, work: Path) -> int:
    import trustvet.cli

    model_dir, ensemble_digests = workloads.train_ensemble(work)
    doc = {"ensemble": ensemble_digests}
    ensemble = trustvet.cli.load_ensemble(model_dir)
    for cls in workloads.WORKLOADS.values():
        workload = cls(workloads.REFERENCE_SEED, work)
        workload.ensemble = ensemble
        doc.update(workload.reference_digests())
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
