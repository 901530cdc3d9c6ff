"""Paired benchmark runs of a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent REV --workload NAME [--workload NAME ...]
        [--pairs 10] [--seed 11] --out BENCH_<n>.json

Each pair runs the unmodified `perfbench/run.py --trace 0` for the
`run_seconds` of `BENCHMARK.json` once in a fresh clone of the parent commit
and once in this checkout (with its uncommitted changes), alternating which
side runs first; each pair's progress line gives every end-to-end metric of
both sides.  The output file holds, per
workload and seed, the median and quartiles of each end-to-end metric on
both sides, the pairs the change won, failure counts, and the provenance
line each side's perfbench printed.  Entries already in the file for other
workloads or seeds are kept, so one file can collect several invocations.

Run it from the root of a checkout on an otherwise idle machine; a pair
takes about twice `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end perfbench run in `tree`: its result line and provenance."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    provenance = next(line for line in lines if line.startswith("# provenance "))
    return {**json.loads(lines[-1]), "provenance": provenance}


def _summary(runs: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _side(runs: list[dict], metrics: dict, source: str) -> dict:
    return {"source": source,
            "provenance": runs[0]["provenance"],
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {m: _summary(runs, m) for m in metrics}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent = _git("rev-parse", args.parent)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    here = f"checkout at {_git('rev-parse', 'HEAD')}" + (" with uncommitted changes" if dirty else "")

    bench = json.loads(args.out.read_text()) if args.out.is_file() else {"runs": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        clone = Path(tmp) / "parent"
        _git("clone", "--quiet", "--no-checkout", str(ROOT), str(clone), cwd=tmp)
        _git("checkout", "--quiet", "--detach", parent, cwd=clone)
        for workload in args.workload:
            sides = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = clone if side == "parent" else ROOT
                    sides[side].append(_run(tree, workload, args.seed, spec["run_seconds"]))
                print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs}: " + "; ".join(
                    f"{s} " + ", ".join(f"{m} {sides[s][-1]['metrics'][m]['value']:.4g}"
                                        for m in metrics) for s in order), flush=True)
            wins = {}
            for m, decl in metrics.items():
                sign = 1 if decl["better"] == "lower" else -1
                wins[m] = sum(sign * (c["metrics"][m]["value"] - p["metrics"][m]["value"]) < 0
                              for p, c in zip(sides["parent"], sides["change"]))
            bench["runs"][f"{workload}/seed{args.seed}"] = {
                "workload": workload, "seed": args.seed, "pairs": args.pairs,
                "seconds": spec["run_seconds"],
                "parent": _side(sides["parent"], metrics, f"clone of {parent}"),
                "change": _side(sides["change"], metrics, here),
                "change_wins": wins,
            }
            args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
