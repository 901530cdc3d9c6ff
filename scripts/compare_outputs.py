"""Output identity of every shipped config and script between a parent commit and this checkout.

    python3 scripts/compare_outputs.py --parent REV [--out REPORT.json]

Runs each `configs/*.cfg` through the CLI with its own task at one worker
(`topo <task> --config FILE --workers 1 --out DIR`), and each
`scripts/run_*.py` in an empty working directory, once in a fresh clone of
the parent commit and once in this checkout (with its uncommitted changes),
both at one BLAS thread.  Every CSV file either run writes (`results.csv`,
`flow_seedN.csv`, `spectrum_seedN.csv`, and each script's own files) is
compared byte for byte; the report lists each file that differs, with its
largest absolute difference over the numeric fields, and each run whose exit
code differs.  It also holds each run's wall seconds, interpreter start
included: one run per side, reported and not compared.  Exit code 0 when
every output is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, _git


def _run(tree: Path, target: Path, out: Path) -> tuple[int, float]:
    """A config's own task through the CLI of `tree`, or the script of `tree` named
    like `target`, writing into `out`; its exit code and wall seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    if target.suffix == ".py":
        out.mkdir(parents=True)
        command, cwd = [sys.executable, str(tree / "scripts" / target.name)], out
    else:
        parser = configparser.ConfigParser()
        parser.read(target)
        command = [sys.executable, "-m", "topoinv.cli", parser["task"]["name"],
                   "--config", str(target), "--workers", "1", "--out", str(out)]
        cwd = tree
    start = time.perf_counter()
    code = subprocess.run(command, cwd=cwd, env=env, capture_output=True).returncode
    return code, time.perf_counter() - start


def _largest_difference(a: Path, b: Path) -> float | str:
    """max |x - y| over the numeric fields of two CSV files of the same shape."""
    rows_a, rows_b = (list(csv.reader(p.open())) for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "shape differs"
    largest = 0.0
    for x, y in zip(sum(rows_a, []), sum(rows_b, [])):
        if x == y:
            continue
        try:
            largest = max(largest, abs(float(x) - float(y)))
        except ValueError:
            return f"text differs: {x!r} vs {y!r}"
    return largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", type=Path, help="JSON file for the report")
    args = parser.parse_args(argv)
    report = {"parent": _git("rev-parse", args.parent), "identical": [], "differs": {},
              "exit_codes": {}, "wall_s": {}}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        clone = Path(tmp) / "parent"
        _git("clone", "--quiet", "--no-checkout", str(ROOT), str(clone), cwd=tmp)
        _git("checkout", "--quiet", "--detach", report["parent"], cwd=clone)
        targets = (sorted((ROOT / "configs").glob("*.cfg"))
                   + sorted((ROOT / "scripts").glob("run_*.py")))
        for target in targets:
            outs = {side: Path(tmp) / side / target.stem for side in ("parent", "change")}
            runs = {side: _run(clone if side == "parent" else ROOT, target, out)
                    for side, out in outs.items()}
            codes = {side: code for side, (code, _) in runs.items()}
            seconds = {side: round(wall, 3) for side, (_, wall) in runs.items()}
            report["exit_codes"][target.name] = codes
            report["wall_s"][target.name] = seconds
            names = sorted({p.name for out in outs.values() for p in out.glob("*.csv")})
            for name in names:
                key = f"{target.stem}/{name}"
                a, b = (out / name for out in outs.values())
                if not (a.is_file() and b.is_file()):
                    report["differs"][key] = "written on one side only"
                elif a.read_bytes() == b.read_bytes():
                    report["identical"].append(key)
                else:
                    report["differs"][key] = _largest_difference(a, b)
            differs = [f"{k} {v}" for k, v in report["differs"].items()
                       if k.startswith(target.stem + "/")]
            print(f"{target.name}: exit {codes['parent']} -> {codes['change']}, "
                  f"{seconds['parent']:.2f} -> {seconds['change']:.2f} s; "
                  + (", ".join(differs) or "every CSV identical"), flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    same_codes = all(c["parent"] == c["change"] for c in report["exit_codes"].values())
    return 0 if same_codes and not report["differs"] else 1


if __name__ == "__main__":
    sys.exit(main())
