"""spreadverify benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_bulk --seed 1 --seconds 20 --trace 0

The package is imported from ``./src``; nothing is installed.  With
``--trace 0`` the last line of standard output carries every end-to-end
metric named in ``BENCHMARK.json``; with ``--trace 1`` it carries every
per-layer metric.  The traced run first runs the same workload and seed
untraced in a child process for half the time, then runs it traced for the
other half, so the two can be compared for tracing overhead without building
any model twice in one process.  Spans are written to
``.bench_out/trace-<workload>-<seed>.tsv.gz``.

A run fails (exit code 1, no result) when ``./src/spreadverify`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "spreadverify" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spreadverify package under {src}; run from the repository root")
    sys.path.insert(0, str(src))


def _measure(workload: str, seed: int, seconds: float, tracer, out_dir: Path):
    """Set up several times, then run the measured loop on the last set-up."""
    from workloads import WORKLOADS, Record

    cls = WORKLOADS[workload]
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        # Earlier repeats draw from derived seeds so no model is rebuilt
        # equal by value in this process; the last one is the measured input.
        last = repeat == SETUP_REPEATS - 1
        rng = random.Random(seed if last else f"{seed}:setup:{repeat}")
        start = perf_counter()
        state = cls.setup(rng, out_dir)
        setup_s.append(perf_counter() - start)
    gc.collect()
    record = Record()
    state.run(seconds, record, tracer)
    _check_digest(out_dir, workload, seed, record)
    for problem in record.problems[:20]:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    return record, statistics.median(setup_s)


def _check_digest(out_dir: Path, workload: str, seed: int, record) -> None:
    """Verdicts of the run's fixed prefix must match every earlier run at this seed."""
    path = out_dir / "digests" / f"{workload}-{seed}.sha256"
    digest = record.digest.hexdigest()
    if path.exists():
        if path.read_text().strip() != digest:
            record.failed += 1
            record.problems.append(f"verdict digest {digest} differs from {path}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(digest + "\n")
    tmp.replace(path)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(values, blocks: int = 10) -> float:
    """Operations per second: the median over consecutive blocks of the run.

    The machine's speed drifts over seconds; one slow stretch moves one
    block's rate, not the median, as it would an overall mean.
    """
    size = max(1, len(values) // blocks)
    return _median([
        size / sum(values[i:i + size]) for i in range(0, len(values) - size + 1, size)
    ])


def _end_to_end(record, setup_s: float) -> dict[str, float]:
    verdicts = max(record.verdicts, 1)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verify_us_p50": _median(record.verify_s) * 1e6,
        "verify_per_s": _rate(record.verify_s),
        "case_us_p50": _median(record.case_s) * 1e6,
        "cases_per_s": _rate(record.case_s),
        "test_accuracy": record.predicted_right / verdicts,
        "test_robustness": record.robust / verdicts,
    }


def _untraced_child(args) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / 2), "--trace", "0",
    ]
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"perfbench: untraced reference run failed with code {child.returncode}")
    return json.loads(lines[-1])


def _result(record, metrics: dict[str, float], spec: list[dict], extra_failed=0, extra_attempted=0):
    failed = record.failed + extra_failed
    return {
        "correct": failed == 0,
        "attempted": record.attempted + extra_attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_bulk", "train_pipeline", "oracle_diff"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    if not args.trace:
        record, setup_s = _measure(args.workload, args.seed, args.seconds, None, out_dir)
        result = _result(record, _end_to_end(record, setup_s), spec["end_to_end"])
    else:
        from tracing import Tracer, layer_metrics

        untraced = _untraced_child(args)
        tracer = Tracer()
        tracer.install()
        try:
            record, _ = _measure(args.workload, args.seed, args.seconds / 2, tracer, out_dir)
        finally:
            tracer.uninstall()
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.tsv.gz")
        metrics = layer_metrics(tracer.spans, record.counts)
        reference = untraced["metrics"]["case_us_p50"]["value"]
        metrics["trace.overhead_share"] = _median(record.case_s) * 1e6 / reference - 1.0
        result = _result(
            record, metrics, spec["per_layer"],
            extra_failed=untraced["failed"], extra_attempted=untraced["attempted"],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the models that core's spread cache
    # pins takes seconds on oracle_diff and is not part of any measurement.
    os._exit(code)
