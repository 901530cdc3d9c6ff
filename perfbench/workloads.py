"""Workload job lists and their correctness gates.

A workload is a fixed list of jobs.  Each job is one call into the public
harness (`run_experiment` or `sweep`) on an `ExperimentConfig`, plus a gate
that checks the job's output against the bound the acceptance tests use for
the same quantity.  Realization seeds and sweep grids come from the
workload seed; the same seed always gives the same jobs.

Importing this module imports `topoinv`, so the caller times the import as
part of set-up and puts the package on `sys.path` first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import traceback
from pathlib import Path
from typing import Callable

from topoinv import harness
from topoinv.harness import ExperimentConfig
from topoinv.serialize import parse_config, read_config_file

HARPER_B12 = "2.0943951023931953"  # one third of a flux quantum per cell


@dataclasses.dataclass(frozen=True)
class Job:
    label: str
    config: ExperimentConfig
    workers: int
    gate: Callable  # (records, aggregate, rows) -> list of problems
    sweep: tuple[str, tuple[str, ...]] | None = None  # (param_path, values)


@dataclasses.dataclass
class Outcome:
    records: list
    problems: list


def _config(sections: dict, realizations: int, base_seed: int) -> ExperimentConfig:
    sections = {name: dict(items) for name, items in sections.items()}
    sections["ensemble"] = {"realizations": str(realizations), "base_seed": str(base_seed)}
    return ExperimentConfig.from_sections(sections)


# --- gates: bounds as in tests/test_acceptance.py ------------------------------

def _per_record(check):
    def gate(records, aggregate, rows):
        return [f"seed {r.seed}: {msg}" for r in records for msg in check(r.values)]
    return gate


def _gate_laughlin(v):  # criterion 06
    if not v["spectral_flow"] == v["pair_index"] == 1:
        yield f"spectral_flow {v['spectral_flow']} pair_index {v['pair_index']}, want 1 and 1"


def _gate_chern(v):  # criterion 02, harness quantization tolerance
    if v["rounded"] != 1 or v["quantization_error"] > 0.1:
        yield f"chern {v['value']!r}, want 1 within 0.1"


def _gate_veg(v):  # criterion 10
    if not v["difference"] < 1e-2:
        yield f"|veg - direct| = {v['difference']!r}, want < 1e-2"


def _gate_one(v):  # criterion 08 at mass 1.0 (z2 parity, spin Chern)
    if v["rounded"] != 1:
        yield f"invariant {v['value']!r}, want 1"


def _gate_bbc(v):  # criterion 03
    if not v["difference"] < 0.05:
        yield f"|bulk - edge| = {v['difference']!r}, want < 0.05"


def _gate_current_mean(records, aggregate, rows):  # criterion 04
    mean = aggregate["value_mean"]
    return [] if abs(mean - 1.0) < 0.02 else [f"edge current mean {mean!r}, want 1 +- 0.02"]


def _gate_ssh_rows(records, aggregate, rows):  # criterion 01
    problems = []
    for _, m, seed, key, value in rows:
        if key != "value":
            continue
        want = 1 if abs(float(m)) < 1 else 0
        if round(value) != want or abs(value - round(value)) >= 1e-6:
            problems.append(f"m={m} seed {seed}: winding {value!r}, want {want}")
    return problems


def _gate_kitaev_rows(records, aggregate, rows):  # criterion 07
    problems = []
    for _, mu, seed, key, value in rows:
        if key != "rounded":
            continue
        want = 1 if abs(float(mu)) < 1 else 0
        if value != want:
            problems.append(f"mu={mu} seed {seed}: parity {value}, want {want}")
    return problems


# --- job lists -------------------------------------------------------------------

def _grid(rng: random.Random, count: int) -> tuple[str, ...]:
    """Signed values, half inside |x| <= 0.6 and half in 1.4 <= |x| <= 2.5.

    Both sweeps change phase at |x| = 1, where the gap closes; the grid
    keeps clear of it so every point has a certified gap.
    """
    inner = [rng.uniform(0.0, 0.6) for _ in range(count // 2)]
    outer = [rng.uniform(1.4, 2.5) for _ in range(count - count // 2)]
    return tuple(f"{rng.choice((-1, 1)) * x:.3f}" for x in sorted(inner + outer))


def build_jobs(workload: str, seed: int, root: Path, nproc: int) -> list[Job]:
    """The job list of one workload; `root` is the checkout holding `configs/`."""
    rng = random.Random(f"{workload}:{seed}")

    def base_seed():
        return rng.randrange(1_000_000)

    def shipped(name):
        return read_config_file(root / "configs" / name)

    if workload == "flux_pump":
        # One realization of the shipped ensemble (seeds 0-4, as criterion 06):
        # spectral_flow raises BranchAmbiguityError on some other realization
        # seeds (12, 14 and 15 among 0-18).
        laughlin = shipped("qwz_laughlin.cfg")
        ens = laughlin["ensemble"]
        realization = int(ens["base_seed"]) + rng.randrange(int(ens["realizations"]))
        return [Job("laughlin", _config(laughlin, 1, realization), 1,
                    _per_record(_gate_laughlin))]
    if workload == "bulk_kernels":
        veg = shipped("qwz_veg.cfg")
        # 14x14 takes 23 s per call; 10x10 keeps the same 64-node loop and gate
        veg["lattice"] = {"sizes": "10 10"}
        chern = parse_config("[model]\nname = qwz\nmass = 1.0\n"
                             "[lattice]\nsizes = 24 24\nboundary = open open\n"
                             "[disorder]\nstrength = 0.5\nseed = 2\n"
                             "[task]\nname = chern\nmu = 0.0\n")
        spin = parse_config("[model]\nname = kane_mele_qsh\nmass = 1.0\nrashba = 0.1\n"
                            "[lattice]\nsizes = 12 12\n"
                            "[disorder]\nstrength = 0.2\nseed = 29\n"
                            "[task]\nname = spin-chern\nmu = 0.0\n")
        return [
            Job("veg", _config(veg, 1, base_seed()), 1, _per_record(_gate_veg)),
            Job("chern", _config(chern, 1, base_seed()), 1, _per_record(_gate_chern)),
            Job("z2", _config(shipped("kane_mele_z2.cfg"), 1, base_seed()), 1,
                _per_record(_gate_one)),
            Job("spin-chern", _config(spin, 1, base_seed()), 1, _per_record(_gate_one)),
        ]
    if workload == "edge_ensemble":
        bbc = parse_config(f"[model]\nname = harper\nb12 = {HARPER_B12}\n"
                           "[lattice]\nsizes = 24 24\nboundary = periodic open\n"
                           "[disorder]\nstrength = 0.3\nseed = 13\n"
                           "[task]\nname = bbc\nmu_states = 192\n")
        # circumference 33: the periodic companion must hold a whole number of flux quanta
        current = parse_config(f"[model]\nname = harper\nb12 = {HARPER_B12}\n"
                               "[lattice]\nsizes = 33 32\nboundary = periodic open\n"
                               "[disorder]\nstrength = 0.3\nseed = 17\n"
                               "[task]\nname = boundary-current\nmu_states = 352\n")
        return [
            Job("bbc", _config(bbc, 2, base_seed()), nproc, _per_record(_gate_bbc)),
            Job("boundary-current", _config(current, 2, base_seed()), nproc,
                _gate_current_mean),
        ]
    if workload == "small_sweep":
        ssh = parse_config("[model]\nname = ssh\nm = 0.0\n[lattice]\nsizes = 256\n"
                           "[task]\nname = winding\nmu = 0.0\nindex_set = 1\n")
        kitaev = parse_config("[model]\nname = kitaev_chain\nmu = 0.0\nw_strength = 0.3\n"
                              "[lattice]\nsizes = 64\n[task]\nname = kitaev-halfflux\n")
        return [
            # ssh is clean, so one realization per mass: no duplicate eigensolves
            Job("ssh", _config(ssh, 1, base_seed()), nproc, _gate_ssh_rows,
                sweep=("model.m", _grid(rng, 6))),
            Job("kitaev-halfflux", _config(kitaev, 4, base_seed()), nproc, _gate_kitaev_rows,
                sweep=("model.mu", _grid(rng, 12))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@contextlib.contextmanager
def _captured_records():
    """Collect the records `sweep` gets from `run_experiment` and drops."""
    inner = harness.run_experiment
    captured = []

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        captured.extend(result[0])
        return result

    harness.run_experiment = capture
    try:
        yield captured
    finally:
        harness.run_experiment = inner


def run_job(job: Job, out_dir: Path, workers: int) -> Outcome:
    """Run one job into `out_dir` and gate its output; never raises.

    Calls go through the `harness` module attributes so that a tracer that
    rebinds them sees every call.
    """
    config = dataclasses.replace(job.config, out_dir=out_dir)
    expected = config.realizations
    try:
        if job.sweep is not None:
            expected *= len(job.sweep[1])
            with _captured_records() as captured:
                rows = harness.sweep(config, *job.sweep, workers=workers)
            records, problems = list(captured), job.gate(captured, None, rows)
        else:
            records, aggregate, quantized_ok = harness.run_experiment(config, workers=workers)
            problems = job.gate(records, aggregate, None)
            if not quantized_ok:
                problems.append("harness quantization gate failed")
    except Exception as exc:  # a failing job is counted, the run goes on
        traceback.print_exc()
        return Outcome([], [f"{type(exc).__name__}: {exc}"])
    if len(records) != expected:
        problems.append(f"{len(records)} realizations, want {expected}")
    return Outcome(records, problems)
