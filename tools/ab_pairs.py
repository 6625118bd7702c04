"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload verify_bulk --seconds 30 --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --metric verify_us_p50 verify_per_s

Each seed makes one pair: ``perfbench/run.py --trace 0`` runs once in each
checkout, the parent first in even-numbered pairs and the change first in
odd-numbered ones, so a drift in the machine's speed favours neither side.
Every run is printed as one JSON line when it ends.  Then, for each named
end-to-end metric (its unit and direction come from the change checkout's
``BENCHMARK.json``): each side's median and quartiles, the median and range
of the per-pair ratio change/parent, and the number of pairs the change
won, ties counting for neither.  A gain holds when the change wins at least
nine tenths of the pairs and the medians differ, in the better direction,
by more than the distance between the parent's quartiles.

Standard library only.  Exits 1 when a run fails or reports a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired summary of one metric; ``parent[i]`` and ``change[i]`` are pair i.

    ``better`` is ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_q1, c_median, c_q3 = _quartiles(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (p_median - c_median) > p_q3 - p_q1
    return {
        "pairs": len(parent),
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "ratio": {
            "median": statistics.median(ratios), "min": min(ratios), "max": max(ratios),
        },
        "wins": wins,
        "gain": gain,
    }


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit(f"ab_pairs: {checkout} seed {seed} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if result["failed"]:
        sys.stderr.write(done.stderr)
        sys.exit(f"ab_pairs: {checkout} seed {seed}: {result['failed']} operations failed")
    return result


def _report(name: str, unit: str, better: str, summary: dict) -> None:
    parent, change, ratio = summary["parent"], summary["change"], summary["ratio"]
    print(f"{name} ({unit}, {better} is better), {summary['pairs']} pairs")
    for side, stats in (("parent", parent), ("change", change)):
        print(f"  {side}  median {stats['median']:.6g}  "
              f"quartiles {stats['q1']:.6g} - {stats['q3']:.6g}")
    print(f"  change/parent  median {ratio['median']:.3f}  "
          f"range {ratio['min']:.3f} - {ratio['max']:.3f}")
    print(f"  change won {summary['wins']} of {summary['pairs']}; medians differ by "
          f"{abs(parent['median'] - change['median']):.6g}, parent quartile distance "
          f"{parent['q3'] - parent['q1']:.6g}: gain {'holds' if summary['gain'] else 'not shown'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--metric", nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    unknown = [name for name in args.metric if name not in metrics]
    if unknown:
        parser.error(f"not end-to-end metrics of BENCHMARK.json: {', '.join(unknown)}")

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for pair, seed in enumerate(args.seeds):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            result = _run(getattr(args, side), args.workload, seed, args.seconds)
            measured = {name: m["value"] for name, m in result["metrics"].items()}
            print(json.dumps({"pair": pair, "seed": seed, "side": side, "metrics": measured}),
                  flush=True)
            for name in args.metric:
                values[side].setdefault(name, []).append(measured[name])
    for name in args.metric:
        summary = summarize(values["parent"][name], values["change"][name],
                            metrics[name]["better"])
        _report(name, metrics[name]["unit"], metrics[name]["better"], summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
