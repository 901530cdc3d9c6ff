"""Experiment orchestration: configs, task registry, ensembles, persistence.

A task maps one disorder realization to a flat dict of values.  An
ensemble, or a whole sweep's grid points x realizations, fans out over one
process pool (worker count from TOPO_WORKERS, default all cores), and the
results fold back in (grid point, seed) order, so parallel and serial runs
produce byte-identical tables.  A sweep still folds each grid point through
`run_experiment`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import boundary as bd
from . import flow as fl
from . import invariants as iv
from . import spectral as sp
from .errors import BadDimensionError, ConfigError
from .models import OPEN, PERIODIC, build_hamiltonian, classify_caz
from .serialize import (
    config_number,
    model_from_config,
    read_config_file,
    save_spectrum_csv,
    write_csv,
    write_json,
)

WORKERS_ENV = "TOPO_WORKERS"


@dataclasses.dataclass
class ExperimentConfig:
    sections: dict
    task: str
    task_params: dict
    realizations: int
    base_seed: int
    out_dir: Path | None
    quant_tol: float

    @classmethod
    def from_sections(cls, sections: dict) -> "ExperimentConfig":
        task_sec = dict(sections.get("task", {}))
        task = task_sec.pop("name", None)
        if task not in TASKS:
            raise ConfigError(f"[task] name must be one of {', '.join(TASKS)}; got {task!r}")
        ens = sections.get("ensemble", {})
        realizations = config_number("ensemble", "realizations", ens.get("realizations", 1), int)
        if realizations < 1:
            raise ConfigError("[ensemble] realizations must be >= 1")
        base_seed = config_number("ensemble", "base_seed", ens.get("base_seed", 0), int)
        if base_seed < 0:
            raise ConfigError(f"[ensemble] base_seed must be >= 0, got {base_seed}")
        out = sections.get("output", {}).get("dir")
        tol = config_number("tolerances", "quantization",
                            sections.get("tolerances", {}).get("quantization", 0.1))
        # validate the model and task values eagerly so config errors surface before work
        dim = model_from_config(sections).lattice.hilbert_dim
        params = {key: _task_value(key, text) for key, text in task_sec.items()}
        if "mu" in params and "mu_states" in params:
            raise ConfigError("task.mu and task.mu_states both set the Fermi level; give one")
        if not 1 <= params.get("mu_states", 1) <= dim - 1:
            raise ConfigError(f"task.mu_states must be between 1 and {dim - 1}, "
                              f"got {params['mu_states']}")
        return cls(sections=sections, task=task, task_params=params,
                   realizations=realizations, base_seed=base_seed,
                   out_dir=Path(out) if out else None, quant_tol=tol)

    def model(self):
        return model_from_config(self.sections)


@dataclasses.dataclass(frozen=True)
class ResultRecord:
    task: str
    fingerprint: str
    seed: int
    sizes: tuple[int, ...]
    values: dict
    wall_time: float


_TASK_KEYS = {"mu": float, "mu_states": int, "n_t": int, "k_step": int,
              "index_set": tuple, "generator": tuple}


def _task_value(key: str, text: str):
    """A [task] value with its number(s) converted; ConfigError if no task reads the
    key, a value is not a number, or a count (n_t, k_step) is below 1."""
    kind = _TASK_KEYS.get(key)
    if kind is None:
        raise ConfigError(f"[task] {key} is read by no task; "
                          f"known keys: name, {', '.join(_TASK_KEYS)}")
    if kind is tuple:
        return tuple(config_number("task", key, x, int) for x in text.split())
    value = config_number("task", key, text, kind)
    if key in ("n_t", "k_step") and value < 1:
        raise ConfigError(f"task.{key} must be >= 1, got {value}")
    return value


def _level(params: dict) -> dict:
    """The Fermi-level keyword of every task: states=mu_states, else mu (checked on load)."""
    if "mu_states" in params:
        return {"states": params["mu_states"]}
    return {"mu": params.get("mu", 0.0)}


# --- task implementations ---------------------------------------------------

def _task_spectrum(model, params, seed):
    sample = build_hamiltonian(model, seed)
    eig = sp.diagonalize(sample, vectors=False)
    w = eig.eigenvalues
    out = {"e_min": float(w[0]), "e_max": float(w[-1])}
    if "mu" in params or "mu_states" in params:
        mu = sp.fermi_level(w, **_level(params))
        lo, hi = sp.detect_gap(eig, mu)
        out.update(gap_lo=lo, gap_hi=hi, gap_width=hi - lo)
    out["_spectrum"] = [float(v) for v in w]
    return out


def _values(res, **extra):
    return {"value": res.value, "rounded": res.rounded,
            "quantization_error": res.error_proxy, **extra}


def _projection(model, params, seed):
    """Fermi projection from the occupied eigenpairs only."""
    return sp.occupied_projection(build_hamiltonian(model, seed), **_level(params))


def _task_chern(model, params, seed):
    P = _projection(model, params, seed)
    return _values(iv.chern_projection(P, params.get("index_set", (1, 2))))


def _task_winding(model, params, seed):
    U = iv.fermi_unitary(_projection(model, params, seed))
    return _values(iv.chern_unitary(U, params.get("index_set", (1,))))


def _task_z2(model, params, seed):
    P = _projection(model.with_boundaries(OPEN), params, seed)
    res = iv.z2_kernel_parity(iv.trs_fredholm(P))
    return _values(res, margin=res.extra["margin"])


def _task_spin_chern(model, params, seed):
    P = _projection(model, params, seed)
    s_z = model.metadata.get("s_z")
    if s_z is None:
        raise ConfigError("model carries no spin operator; spin-chern undefined")
    res = iv.spin_chern(P, np.asarray(s_z))
    return _values(res, spin_gap=res.extra["spin_gap"],
                   sum_rule_residue=res.extra["sum_rule_residue"])


def _task_bbc(model, params, seed):
    # the torus companion's occupied solve gives the bulk projection and certifies the gap
    P = _projection(model.with_boundaries(PERIODIC), params, seed)
    half = bd.make_half_space(model, realization_seed=seed, bulk=P)
    bulk = iv.chern_projection(P, (1, 2))
    f = sp.SwitchFunction("exp", half.bulk_gap)
    edge = bd.boundary_winding(bd.exp_map(half, f))
    return {"bulk": bulk.value, "edge": edge.value,
            "difference": abs(bulk.value - edge.value)}


def _task_boundary_current(model, params, seed):
    if model.lattice.dimension == 1:
        raise BadDimensionError("the edge current needs d >= 2: a d = 1 edge is a point")
    # the gap of the torus companion is certified from level counts
    half = bd.make_half_space(model, realization_seed=seed, **_level(params))
    f = sp.SwitchFunction("exp", half.bulk_gap)
    value = bd.boundary_current(half, f)
    return {"value": value, "rounded": int(round(value)),
            "quantization_error": abs(value - round(value))}


def _task_streda(model, params, seed):
    del seed  # field derivative runs on the clean model
    I = params.get("index_set", ())
    lhs, rhs = iv.streda_derivative(model, I, k_step=params.get("k_step", 1))
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-12)
    return {"lhs": lhs, "rhs": rhs, "difference": abs(lhs - rhs), "relative": rel}


def _task_laughlin(model, params, seed):
    if model.lattice.dimension != 2:
        raise BadDimensionError("the flux pump needs a d = 2 sample")
    sample = build_hamiltonian(model.with_boundaries(OPEN), seed)
    n = model.lattice.linear_sizes
    path = fl.FluxPath(base=sample, plaquette=(n[0] // 2, n[1] // 2))
    # the base decomposition serves mu, the pair index and the flow at t = 0
    mu = sp.fermi_level(path.base_eigen.eigenvalues, **_level(params))
    sf = fl.spectral_flow(path, mu)
    pi = iv.pair_index(sp.fermi_projection(path.base_eigen, mu))
    return {"spectral_flow": sf.net, "pair_index": pi.rounded,
            "pair_index_raw": pi.value,
            "quantization_error": float(abs(sf.net - pi.rounded)),
            "_flow_trace": fl.flow_trace(sf)}


def _task_kitaev_halfflux(model, params, seed):
    res = fl.halfflux_kernel_parity(model, seed)
    return {"value": float(res["parity"]), "rounded": res["parity"],
            "quantization_error": 0.0,
            "near_zero_total": res["near_zero_total"],
            "near_zero_localized": res["near_zero_localized"]}


def _task_veg(model, params, seed):
    # the resolvents need every eigenpair, not only the occupied ones
    eig = sp.diagonalize(build_hamiltonian(model, seed))
    P = sp.fermi_projection(eig, sp.fermi_level(eig.eigenvalues, **_level(params)))
    res = iv.veg_invariant(P, n_t=params.get("n_t", 64))
    direct = iv.chern_projection(P, (1, 2))
    return {"value": res.value, "direct": direct.value,
            "difference": abs(res.value - direct.value),
            "quantization_error": res.error_proxy}


def _task_pairing_range(model, params, seed):
    del seed
    measured, predicted = iv.pairing_range_check(
        model, params.get("index_set", ()), params.get("generator", (1, 2)))
    return {"measured": measured, "predicted": predicted,
            "difference": abs(measured - predicted)}


def _task_caz(model, params, seed):
    sample = build_hamiltonian(model, seed)
    label, j = classify_caz(sample)
    return {"label": label, "value": float(j), "rounded": j, "quantization_error": 0.0}


class Task(NamedTuple):
    run: Callable  # (model, params, seed) -> values of one realization
    gate: str | None  # value held to [tolerances] quantization; None: no gate


TASKS = {
    "spectrum": Task(_task_spectrum, None),
    "chern": Task(_task_chern, "quantization_error"),
    "winding": Task(_task_winding, "quantization_error"),
    "z2": Task(_task_z2, "quantization_error"),
    "spin-chern": Task(_task_spin_chern, "quantization_error"),
    "bbc": Task(_task_bbc, "difference"),
    "boundary-current": Task(_task_boundary_current, "quantization_error"),
    "streda": Task(_task_streda, "relative"),
    "laughlin": Task(_task_laughlin, "quantization_error"),
    "kitaev-halfflux": Task(_task_kitaev_halfflux, "quantization_error"),
    "veg": Task(_task_veg, "quantization_error"),
    "pairing-range": Task(_task_pairing_range, "difference"),
    "caz": Task(_task_caz, "quantization_error"),
}


def fails_gate(task: str, key: str, value, tol: float) -> bool:
    """Whether one reported value is the task's gate quantity and exceeds tol."""
    return key == TASKS[task].gate and not float(value) <= tol


def _run_one(payload):
    sections, task, params, seed = payload
    model = model_from_config(sections)
    t0 = time.perf_counter()
    values = TASKS[task].run(model, params, seed)
    wall = time.perf_counter() - t0
    return ResultRecord(task=task, fingerprint=model.fingerprint(), seed=seed,
                        sizes=model.lattice.linear_sizes, values=values, wall_time=wall)


def worker_count() -> int:
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    return count


def _realize(configs: list[ExperimentConfig],
             workers: int | None) -> list[list[ResultRecord]]:
    """Every realization of every config, through one pool when there are more
    than one worker and more than one realization in all, else serially.

    Returns one list of records per config, in seed order.
    """
    payloads = [(c.sections, c.task, c.task_params, c.base_seed + i)
                for c in configs for i in range(c.realizations)]
    n_workers = workers if workers is not None else worker_count()
    if n_workers < 1:
        raise ConfigError(f"workers (--workers) must be >= 1, got {n_workers}")
    if n_workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            flat = list(pool.map(_run_one, payloads))
    else:
        flat = [_run_one(p) for p in payloads]
    # map keeps payload order, so each config's run of records is in seed order
    it = iter(flat)
    return [[next(it) for _ in range(c.realizations)] for c in configs]


def run_experiment(config: ExperimentConfig, workers: int | None = None, *,
                   records: list[ResultRecord] | None = None):
    """Run the configured task over the ensemble.

    Returns (records, aggregate, quantized_ok).  Aggregation is a
    deterministic fold in seed order; worker count never changes values.
    Given `records` (the ensemble already realized, in seed order), it only
    folds them: aggregate, quantization gate and outputs.
    """
    if records is None:
        records = _realize([config], workers)[0]

    numeric_keys = sorted({k for r in records for k, v in r.values.items()
                           if isinstance(v, (int, float)) and not k.startswith("_")})
    aggregate = {}
    for key in numeric_keys:
        vals = [float(r.values[key]) for r in records if key in r.values]
        aggregate[f"{key}_mean"] = sum(vals) / len(vals)
        aggregate[f"{key}_spread"] = max(vals) - min(vals)
    quantized_ok = not any(fails_gate(config.task, k, v, config.quant_tol)
                           for r in records for k, v in r.values.items())

    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        _write_outputs(config, records, aggregate, quantized_ok)
    return records, aggregate, quantized_ok


def _write_outputs(config: ExperimentConfig, records, aggregate, quantized_ok):
    rows = [(rec.task, rec.fingerprint, rec.seed, "x".join(map(str, rec.sizes)), key, value)
            for rec in records for key, value in sorted(rec.values.items())
            if not key.startswith("_")]
    rows += [(config.task, "aggregate", -1, "-", key, aggregate[key]) for key in sorted(aggregate)]
    write_csv(config.out_dir / "results.csv", "task,fingerprint,seed,sizes,key,value", rows)
    write_json(config.out_dir / "results.json", {
        "task": config.task,
        "quantized_ok": quantized_ok,
        "aggregate": aggregate,
        "records": [{
            "seed": r.seed,
            "fingerprint": r.fingerprint,
            "sizes": list(r.sizes),
            "wall_time": r.wall_time,
            "values": {k: v for k, v in r.values.items() if not k.startswith("_")},
        } for r in records],
    })
    for rec in records:
        if "_spectrum" in rec.values:
            save_spectrum_csv(config.out_dir / f"spectrum_seed{rec.seed}.csv",
                              np.array(rec.values["_spectrum"]))
        if "_flow_trace" in rec.values:
            write_csv(config.out_dir / f"flow_seed{rec.seed}.csv", "t,eigenvalue,branch",
                      rec.values["_flow_trace"])


def sweep(config: ExperimentConfig, param_path: str, values, workers: int | None = None):
    """run_experiment per grid point of one dotted config parameter.

    Every grid point's config is built and validated before any realization
    runs.  All grid points x realizations then share one pool, and each grid
    point's records fold through `run_experiment`, in grid order.

    Returns long-format rows (param, value, seed, key, val); an empty grid
    yields an empty table.
    """
    if "." not in param_path:
        raise ConfigError("sweep parameter must be 'section.key'")
    section, key = param_path.split(".", 1)
    values = list(values)
    subs = []
    for value in values:
        sections = {s: dict(kv) for s, kv in config.sections.items()}
        sections.setdefault(section, {})[key] = str(value)
        sub = ExperimentConfig.from_sections(sections)
        subs.append(dataclasses.replace(sub, out_dir=None, quant_tol=config.quant_tol))
    rows = []
    for value, sub, realized in zip(values, subs, _realize(subs, workers)):
        records, _, _ = run_experiment(sub, records=realized)
        for rec in records:
            for k, v in sorted(rec.values.items()):
                if k.startswith("_"):
                    continue
                rows.append((param_path, value, rec.seed, k, v))
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(config.out_dir / "sweep.csv", "param,value,seed,key,result", rows)
    return rows


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_sections(read_config_file(path))
