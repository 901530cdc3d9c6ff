"""Benchmark of topoinv: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `topoinv` from `src/`
and reads the shipped `configs/`.  Workloads, metrics and units are declared
in `BENCHMARK.json` and described in `perfbench/README.md`.

`--trace 0` repeats the workload's job list for about `--seconds` seconds
and reports the end-to-end metrics.  `--trace 1` runs the job list four
times (through the pool, serially to warm up, serially under the tracer,
serially untraced as the reference) and reports per-layer metrics.  Either
way the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  Earlier lines carry provenance and
per-job notes; the full record, with every sample, goes to
`.perfbench_out/<workload>-seed<N>-trace<T>/result.json`.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "probe_setup.py"
# BLAS and OpenMP pools are pinned to one thread; parallelism comes from the harness pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus fresh probe processes


def _parse(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _provenance(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    import topoinv

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": _cpu_model(), "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "topoinv": topoinv.__version__, "commit": _git_commit(), "seed": seed,
    }


def _probe_setup(workload: str, seed: int, nproc: int) -> float:
    done = subprocess.run([sys.executable, str(PROBE), workload, str(seed), str(nproc)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _one_pass(jobs, out: Path, workers=None, tracer=None):
    """Run the job list once; returns (seconds, outcomes, diagonalize digests per job)."""
    import workloads

    outcomes, digests = [], []
    start = time.perf_counter()
    for job in jobs:
        first = len(tracer.digests) if tracer else 0
        outcomes.append(workloads.run_job(job, out / job.label,
                                          job.workers if workers is None else workers))
        digests.append(tracer.digests[first:] if tracer else [])
    return time.perf_counter() - start, outcomes, digests


def _problems(jobs, outcomes):
    return [f"{job.label}: {msg}" for job, o in zip(jobs, outcomes) for msg in o.problems]


def _timed(jobs, seconds: float, out: Path):
    """Repeat the job list at least twice, then while the next pass is expected
    to end within `seconds`."""
    start = time.perf_counter()
    walls, outcomes = [], []
    realization = {job.label: [] for job in jobs}
    while True:
        wall, pass_outcomes, _ = _one_pass(jobs, out)
        walls.append(wall)
        outcomes.extend(pass_outcomes)
        for job, outcome in zip(jobs, pass_outcomes):
            realization[job.label] += [r.wall_time for r in outcome.records]
        if len(walls) >= 2 and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    # jobs differ in size, so a pooled median would fall between two jobs' times
    per_job = [statistics.median(times) for times in realization.values() if times]
    metrics = {
        "wall_s": statistics.median(walls),
        "realization_p50_s": statistics.geometric_mean(per_job) if per_job else 0.0,
    }
    detail = {"pass_wall_s": walls, "realization_s": realization}
    return metrics, outcomes, _problems(jobs * len(walls), outcomes), detail


def _differing_csv(a: Path, b: Path) -> list:
    """CSV files that differ or are missing between two output trees."""
    names = sorted({p.relative_to(a) for p in a.rglob("*.csv")}
                   | {p.relative_to(b) for p in b.rglob("*.csv")})
    return [str(n) for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and filecmp.cmp(a / n, b / n, shallow=False))]


def _traced(jobs, out: Path, declared):
    from tracing import LAYERS, Tracer

    workers = max(job.workers for job in jobs)
    pool_wall, pool_outcomes, _ = _one_pass(jobs, out / "pool")
    # the first serial pass in this process warms its allocator; the second is the reference
    _, warm_outcomes, _ = _one_pass(jobs, out / "warm", workers=1)
    tracer = Tracer()
    with tracer.installed():
        traced_wall, traced_outcomes, digests = _one_pass(jobs, out / "traced", workers=1,
                                                          tracer=tracer)
    ref_wall, ref_outcomes, _ = _one_pass(jobs, out / "serial", workers=1)
    outcomes = pool_outcomes + warm_outcomes + traced_outcomes + ref_outcomes
    problems = _problems(jobs * 4, outcomes)
    for other in ("pool", "warm", "traced"):
        for name in _differing_csv(out / "serial", out / other):
            problems.append(f"{other}/{name} differs from the untraced serial run")

    stats = tracer.layer_stats()
    metrics = {}
    for layer, names in LAYERS.items():
        for fn in names:
            entry = stats.get(f"{layer}.{fn}", {"calls": 0, "self_s": 0.0})
            if layer != "harness":
                metrics[f"{layer}.{fn}.calls"] = entry["calls"]
            metrics[f"{layer}.{fn}.self_s"] = entry["self_s"]
    all_digests = [d for job_digests in digests for d in job_digests]
    metrics["spectral.diagonalize.distinct_frac"] = (
        len(set(all_digests)) / len(all_digests) if all_digests else 0.0)
    realization = sum(r.wall_time for o in pool_outcomes for r in o.records)
    metrics["harness.pool_efficiency"] = realization / (workers * pool_wall)
    metrics["trace.overhead_frac"] = traced_wall / ref_wall - 1.0
    if set(metrics) != set(declared):
        raise RuntimeError("per-layer metrics disagree with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")

    per_job = []
    for job, outcome, job_digests in zip(jobs, traced_outcomes, digests):
        per_job.append({"job": job.label, "realizations": len(outcome.records),
                        "diagonalize_calls": len(job_digests),
                        "distinct_matrices": len(set(job_digests))})
    detail = {"pass_wall_s": {"pool": pool_wall, "traced": traced_wall, "serial": ref_wall},
              "workers": workers, "eigensolves": per_job,
              "spans": len(tracer.spans)}
    return metrics, outcomes, problems, detail


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is imported, here or in any child
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "topoinv" / "__init__.py").is_file():
        print(f"error: no topoinv package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    nproc = len(os.sched_getaffinity(0))

    start = time.perf_counter()
    import workloads
    jobs = workloads.build_jobs(args.workload, args.seed, ROOT, nproc)
    setup = [time.perf_counter() - start]

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    provenance = _provenance(args.seed, nproc)
    print("# provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, outcomes, problems, detail = _traced(jobs, out, declared)
        for row in detail["eigensolves"]:
            print(f"# eigensolves {row['job']}: {row['diagonalize_calls']} diagonalize calls, "
                  f"{row['distinct_matrices']} distinct matrices, "
                  f"{row['realizations']} realizations", flush=True)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, outcomes, problems, detail = _timed(jobs, args.seconds, out)
        setup += [_probe_setup(args.workload, args.seed, nproc)
                  for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        detail["setup_s"] = setup

    for msg in problems:
        print(f"# FAILED {msg}", flush=True)
    failed = sum(1 for o in outcomes if o.problems)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "provenance": provenance, "detail": detail,
         "problems": problems}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
