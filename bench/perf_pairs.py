#!/usr/bin/env python3
"""Run alternating perfbench pairs on two checkouts and log every result.

Usage (from the repository root):

    python3 bench/perf_pairs.py --parent ../parent --change . \\
        --workload paper_fleet --seed 1 --seconds 20 --pairs 10 \\
        --append bench/trajectory.jsonl

Each pair runs `perfbench/run.py` once in each checkout; even pairs run the
parent first, odd pairs the change, so a drift in machine speed does not
favour one side. Every run's result line becomes one JSON object appended
to the `--append` file: the checkout's `git describe --always --dirty
--tags`, workload, seed, seconds, trace flag, pair index, side, the
correctness fields and the metric values. A summary (medians, quartiles
and pairs won per metric) goes to standard error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def describe(checkout):
    """`git describe` of a checkout, or "unknown" outside a git tree."""
    try:
        return subprocess.run(
            ["git", "-C", checkout, "describe", "--always", "--dirty",
             "--tags"], capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(checkout, args):
    """One perfbench run; returns its result object (last stdout line).

    A run whose outputs failed the fingerprint check still prints its
    result object (with "correct": false) and is logged like any other.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         repr(args.seconds), "--trace", args.trace],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perf_pairs: no result from {checkout}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--append", required=True)
    args = parser.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    labels = {side: describe(path) for side, path in sides.items()}
    values = {"parent": {}, "change": {}}
    with open(args.append, "a", encoding="utf-8") as log:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else [
                "change", "parent"]
            for side in order:
                result = run_once(sides[side], args)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                log.write(json.dumps({
                    "git": labels[side], "workload": args.workload,
                    "seed": args.seed, "seconds": args.seconds,
                    "trace": int(args.trace), "pair": pair, "side": side,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"], "metrics": metrics},
                    sort_keys=True) + "\n")
                log.flush()
                for name, value in metrics.items():
                    values[side].setdefault(name, []).append(value)
                print(f"pair {pair} {side}: correct={result['correct']} "
                      f"{metrics}", file=sys.stderr)

    for name, parent in values["parent"].items():
        change = values["change"][name]
        q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [
            parent[0]] * 3
        higher = sum(c > p for p, c in zip(parent, change))
        print(f"{name}: parent median {statistics.median(parent):.6g} "
              f"[{q[0]:.6g}, {q[2]:.6g}], change median "
              f"{statistics.median(change):.6g}; change higher in "
              f"{higher}/{len(parent)} pairs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
