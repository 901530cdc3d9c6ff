"""Print the set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/probe_setup.py WORKLOAD SEED NPROC

Set-up is the import of `topoinv` plus building and validating the
workload's `ExperimentConfig`s, as `run.py` does it before timing starts.
`run.py` starts this with the thread variables already pinned.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    workload, seed, nproc = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads
    workloads.build_jobs(workload, seed, ROOT, nproc)
    print(repr(time.perf_counter() - start))
