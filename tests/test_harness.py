import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from topoinv import harness, models
from topoinv.errors import ConfigError
from topoinv.harness import ExperimentConfig, run_experiment, sweep
from topoinv.models import MODEL_NAMES, OPEN, build_hamiltonian, make_named_model
from topoinv.serialize import (
    config_from_model,
    load_matrix,
    model_from_config,
    parse_config,
    save_matrix,
    save_matrix_csv,
    serialize_config,
    write_csv,
)
from topoinv.spectral import diagonalize

SSH_CFG = """
[model]
name = ssh
m = 0.5

[lattice]
sizes = 64

[task]
name = winding
mu = 0.0
index_set = 1

[ensemble]
realizations = 1
base_seed = 0
"""

KITAEV_CFG = """
[model]
name = kitaev_chain
mu = 0.0
w_strength = 0.0

[lattice]
sizes = 64

[task]
name = kitaev-halfflux

[ensemble]
realizations = 2
base_seed = 0
"""


def config_of(text, **over):
    sections = parse_config(text)
    for dotted, value in over.items():
        sec, key = dotted.split("__")
        sections.setdefault(sec, {})[key] = str(value)
    return ExperimentConfig.from_sections(sections)


def test_matrix_container_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    p = tmp_path / "m.timx"
    save_matrix(p, m)
    assert np.array_equal(load_matrix(p), m)
    save_matrix_csv(tmp_path / "m.csv", m)
    assert (tmp_path / "m.csv").read_text().startswith("row,col,re,im")


def test_write_csv_reads_back_every_float(tmp_path):
    # str of a Python or numpy float is its repr: the written values read back exactly
    values = [0.1, -0.0, np.float64(1 / 3), np.float64(-2.5e-300), np.inf, -np.inf, np.nan]
    write_csv(tmp_path / "v.csv", "index,value,label", [(i, v, "x") for i, v in enumerate(values)])
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert lines[0] == "index,value,label" and len(lines) == len(values) + 1
    for i, (line, v) in enumerate(zip(lines[1:], values)):
        index, text, label = line.split(",")
        assert (int(index), label, text) == (i, "x", repr(float(v)))
        assert np.float64(text).tobytes() == np.float64(v).tobytes()


def test_config_round_trip_custom_model():
    model = make_named_model("kitaev_chain", sizes=16, mu=0.3, w_strength=0.2)
    sections = config_from_model(model)
    text = serialize_config(sections)
    rebuilt = model_from_config(parse_config(text))
    assert rebuilt.lattice == model.lattice
    assert np.array_equal(rebuilt.field.B, model.field.B)
    assert np.array_equal(rebuilt.onsite, model.onsite)
    assert len(rebuilt.hoppings) == len(model.hoppings)
    for (a1, t1), (a2, t2) in zip(sorted(rebuilt.hoppings, key=lambda p: p[0]),
                                  sorted(model.hoppings, key=lambda p: p[0])):
        assert a1 == a2 and np.array_equal(t1, t2)
    assert np.array_equal(rebuilt.symmetry.s_ph, model.symmetry.s_ph)
    # second round trip is byte-identical
    assert serialize_config(config_from_model(rebuilt)) == text


def test_run_experiment_winding():
    records, aggregate, ok = run_experiment(config_of(SSH_CFG), workers=1)
    assert ok
    assert records[0].values["rounded"] == 1
    assert aggregate["value_mean"] == pytest.approx(1.0, abs=1e-6)


def test_run_experiment_quantization_failure():
    # near the transition the raw pairing of a tiny sample misses the integer
    # by more than a strict tolerance
    cfg = config_of(SSH_CFG, model__m="0.995", lattice__sizes="8",
                    tolerances__quantization="0.02")
    _, _, ok = run_experiment(cfg, workers=1)
    assert not ok


def test_run_experiment_spin_chern_open_sample():
    # an open sample is traced over its core window, as the chern task is;
    # the all-site trace of an open sample vanishes
    cfg = config_of("""
[model]
name = kane_mele_qsh
mass = 1.0
rashba = 0.1

[lattice]
sizes = 12 12
boundary = open open

[task]
name = spin-chern
mu = 0.0

[ensemble]
realizations = 1
base_seed = 0
""")
    records, _, ok = run_experiment(cfg, workers=1)
    assert records[0].values["rounded"] == 1
    assert ok


def test_invalid_ensemble_rejected():
    with pytest.raises(ConfigError):
        config_of(SSH_CFG, ensemble__realizations="0")
    with pytest.raises(ConfigError):
        config_of(SSH_CFG.replace("name = winding", "name = bogus"))


def test_sweep_ssh_masses():
    cfg = config_of(SSH_CFG, lattice__sizes="256")
    rows = sweep(cfg, "model.m", ["-2", "-0.5", "0", "0.5", "2"], workers=1)
    windings = [v for (_, _, _, k, v) in rows if k == "rounded"]
    assert windings == [0, 1, 1, 1, 0]
    raws = [v for (_, _, _, k, v) in rows if k == "value"]
    assert all(abs(v - round(v)) < 1e-6 for v in raws)


def test_sweep_kitaev_parities():
    cfg = config_of(KITAEV_CFG, ensemble__realizations="1")
    rows = sweep(cfg, "model.mu", ["0", "0.5", "2"], workers=1)
    parities = [int(v) for (_, _, _, k, v) in rows if k == "rounded"]
    assert parities == [1, 1, 0]


def test_sweep_empty_grid():
    assert sweep(config_of(SSH_CFG), "model.m", [], workers=1) == []


SWEEP_GRIDS = {
    # 9 payloads, not a multiple of 2 workers
    "kitaev": (KITAEV_CFG, {"model__w_strength": "0.3", "ensemble__realizations": "3"},
               "model.mu", ["0", "0.5", "2"]),
    "ssh": (SSH_CFG, {}, "model.m", ["-2", "0.5", "2"]),
}


@pytest.mark.parametrize("grid", sorted(SWEEP_GRIDS))
def test_sweep_csv_independent_of_workers(tmp_path, grid):
    text, over, param, values = SWEEP_GRIDS[grid]
    outs = []
    for workers in (1, 2, 3):
        cfg = config_of(text, output__dir=str(tmp_path / str(workers)), **over)
        rows = sweep(cfg, param, values, workers=workers)
        outs.append((tmp_path / str(workers) / "sweep.csv").read_bytes())
        order = [(values.index(value), seed) for _, value, seed, _, _ in rows]
        assert order == sorted(order)
        assert len(set(order)) == len(values) * cfg.realizations
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_feeds_perfbench_record_capture(monkeypatch, workers):
    """perfbench counts a sweep's realizations by rebinding `harness.run_experiment`:
    it must see one call per grid point, each with that point's records."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls = []
    inner = harness.run_experiment

    def counted(config, *args, **kwargs):
        result = inner(config, *args, **kwargs)
        calls.append((config, result[0]))
        return result

    monkeypatch.setattr(harness, "run_experiment", counted)
    cfg = config_of(KITAEV_CFG, model__w_strength="0.3", ensemble__base_seed="5")
    grid = ["0", "0.5", "2", "-0.3"]
    with workloads._captured_records() as captured:
        harness.sweep(cfg, "model.mu", grid, workers=workers)
    assert len(captured) == len(grid) * cfg.realizations
    assert [config.sections["model"]["mu"] for config, _ in calls] == grid
    for config, records in calls:
        assert [r.seed for r in records] == [5, 6]
        assert {r.fingerprint for r in records} == {config.model().fingerprint()}


def test_sweep_bad_grid_value_runs_nothing(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "_run_one", lambda payload: runs.append(payload))
    with pytest.raises(ConfigError, match="model.m must be a number, got 'abc'"):
        sweep(config_of(SSH_CFG), "model.m", ["0.5", "abc"], workers=1)
    assert runs == []


def test_outputs_bit_reproducible(tmp_path):
    outs = []
    for run in ("a", "b"):
        cfg = config_of(KITAEV_CFG, output__dir=str(tmp_path / run))
        run_experiment(cfg, workers=1)
        outs.append((tmp_path / run / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_parallel_serial_equality(tmp_path):
    outs = []
    for run, workers in (("s", 1), ("p", 2)):
        cfg = config_of(KITAEV_CFG, output__dir=str(tmp_path / run))
        run_experiment(cfg, workers=workers)
        outs.append((tmp_path / run / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_results_json_written(tmp_path):
    cfg = config_of(SSH_CFG, output__dir=str(tmp_path))
    run_experiment(cfg, workers=1)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results.json").exists()


def test_flow_csv_written(tmp_path):
    cfg = config_of("""
[model]
name = qwz
mass = 1.0

[lattice]
sizes = 10 10

[task]
name = laughlin
mu = 0.0

[ensemble]
realizations = 1
base_seed = 0
""", output__dir=str(tmp_path))
    run_experiment(cfg, workers=1)
    flow = tmp_path / "flow_seed0.csv"
    assert flow.exists()
    assert flow.read_text().startswith("t,eigenvalue,branch")


LAUGHLIN_CFG = """
[model]
name = qwz
mass = 1.0

[lattice]
sizes = 10 10

[disorder]
strength = 0.3
seed = 23

[task]
name = laughlin
mu = 0.0

[ensemble]
realizations = 2
base_seed = 0
"""


def test_flow_csv_independent_of_workers_and_repeats(tmp_path):
    # the shift-invert band solves start from a fixed vector, so neither the
    # process nor the solves made before decide the bytes
    outs = []
    for run, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = config_of(LAUGHLIN_CFG, output__dir=str(tmp_path / run))
        run_experiment(cfg, workers=workers)
        outs.append([(tmp_path / run / f"flow_seed{seed}.csv").read_bytes() for seed in (0, 1)])
    assert outs[0] == outs[1] == outs[2]


def cli(*args):
    return subprocess.run([sys.executable, "-m", "topoinv.cli", *args],
                          capture_output=True, text=True)


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize alone costs about a fifth of the import, paid by every run
    proc = subprocess.run([sys.executable, "-c", "import sys, topoinv; "
                           "print('scipy.optimize' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_models_list():
    proc = cli("models", "list")
    assert proc.returncode == 0
    assert "kitaev_chain" in proc.stdout


def test_cli_winding_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SSH_CFG)
    proc = cli("winding", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "rounded=1" in proc.stdout
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SSH_CFG.replace("realizations = 1", "realizations = 0"))
    proc = cli("winding", "--config", str(cfg))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_cli_quantization_exit_code(tmp_path):
    cfg = tmp_path / "edge.cfg"
    text = SSH_CFG.replace("m = 0.5", "m = 0.995").replace("sizes = 64", "sizes = 8")
    text += "\n[tolerances]\nquantization = 0.02\n"
    cfg.write_text(text)
    proc = cli("winding", "--config", str(cfg))
    assert proc.returncode == 2


def test_named_model_disorder_section_keeps_particle_hole():
    text = KITAEV_CFG + "\n[disorder]\nfamily = symmetry-constrained-matrix\nstrength = 0.3\nseed = 4\n"
    records, _, ok = run_experiment(config_of(text), workers=1)
    assert ok and [r.values["rounded"] for r in records] == [1, 1]


def test_cli_unknown_model_key(tmp_path, capsys):
    from topoinv.cli import main

    cfg = tmp_path / "typo.cfg"
    cfg.write_text(SSH_CFG.replace("m = 0.5", "mm = 0.5"))
    assert main(["winding", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "known: m" in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_worker_environment(tmp_path, capsys, monkeypatch, value):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SSH_CFG)
    monkeypatch.setenv("TOPO_WORKERS", value)
    assert main(["winding", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "TOPO_WORKERS" in err


HARPER_BBC_CFG = """
[model]
name = harper
b12 = 2.0943951023931953

[lattice]
sizes = 24 24
boundary = periodic open

[task]
name = bbc
mu_states = 192
"""

HARPER_STREDA_CFG = """
[model]
name = harper
b12 = 0.0872664625997165

[lattice]
sizes = 24 24

[task]
name = streda
"""


@pytest.mark.parametrize("task", ["bbc", "streda"])
def test_cli_gate_of_difference_tasks(tmp_path, task):
    from topoinv.cli import main

    text = {"bbc": HARPER_BBC_CFG, "streda": HARPER_STREDA_CFG}[task]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([task, "--config", str(cfg)]) == 0
    cfg.write_text(text + "\n[tolerances]\nquantization = 1e-12\n")
    assert main([task, "--config", str(cfg)]) == 2


def test_cli_streda_without_field_is_an_error(tmp_path, capsys):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(HARPER_STREDA_CFG.replace("b12 = 0.0872664625997165", "b12 = 0.0")
                   .replace("sizes = 24 24", "sizes = 8 8"))
    assert main(["streda", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: field ")


@pytest.mark.parametrize("tolerance, code", [("0.1", 0), ("1e-12", 2)])
def test_cli_sweep_exit_code(tmp_path, tolerance, code):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    text = SSH_CFG.replace("sizes = 64", "sizes = 8")
    cfg.write_text(text + f"\n[tolerances]\nquantization = {tolerance}\n")
    argv = ["sweep", "--config", str(cfg), "--param", "model.m", "--values=-0.5,0.5"]
    assert main(argv) == code


@pytest.mark.parametrize("argv, message", [
    (["winding", "--config", "CFG", "--bogus"], "topo: unrecognized arguments: --bogus"),
    (["sweep", "--config", "CFG", "--param", "model.m", "--values", "-1.5,0.5"],
     "topo sweep: argument --values: expected one argument"),
], ids=["unknown option", "negative grid without ="])
def test_cli_usage_error_exits_1(tmp_path, capsys, argv, message):
    # argparse would print its usage and exit 2, the code of a failed gate
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SSH_CFG.replace("sizes = 64", "sizes = 8"))
    assert main([str(cfg) if a == "CFG" else a for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("old, new, entry", [
    ("m = 0.5", "m = abc", "model.m"),
    ("realizations = 1", "realizations = two", "ensemble.realizations"),
    ("mu = 0.0", "mu = abc", "task.mu"),
    ("mu = 0.0", "mu_states = abc", "task.mu_states"),
    ("index_set = 1", "index_set = x", "task.index_set"),
    ("index_set = 1", "n_t = abc", "task.n_t"),
    ("index_set = 1", "k_step = 1.5", "task.k_step"),
    ("index_set = 1", "generator = x", "task.generator"),
])
def test_cli_non_numeric_config_value(tmp_path, capsys, old, new, entry):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SSH_CFG.replace(old, new))
    assert main(["winding", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and entry in err and repr(new.split(" = ")[1]) in err


CUSTOM_CHAIN_CFG = (Path(__file__).parent.parent / "configs" / "custom_chain.cfg").read_text()


@pytest.mark.parametrize("old, new, message", [
    ("onsite = 0.0 0.0", "onsite = 0.0 abc", "hoppings.onsite must be a number, got 'abc'"),
    ("onsite = 0.0 0.0  0.0 -0.5  0.0 0.5  0.0 0.0", "onsite = 0.0 0.0",
     "hoppings.onsite must hold 4 complex entries (2 x 2), got 1"),
    ("hop0 = 1 |", "hop0 = x |", "hoppings.hop0 must be an integer, got 'x'"),
    ("hop1 = -1 | 0.0 0.0  0.0 0.0", "hop1 = -1 | 0.0 0.0",
     "hoppings.hop1 must hold 4 complex entries (2 x 2), got 3"),
    ("b = 0.0", "b = zero", "field.b must be a number, got 'zero'"),
    ("b = 0.0", "b = 0.0 0.0", "field.b must hold 1 real entries (1 x 1), got 2"),
    ("s_ch = 1.0 0.0  0.0 0.0 ;", "s_ch = 1.0 0.0  0.0 O.0 ;",
     "symmetry.s_ch must be a number, got 'O.0'"),
    ("eta_tr = 1", "eta_tr = one", "symmetry.eta_tr must be an integer, got 'one'"),
])
def test_cli_bad_custom_matrix_entry(tmp_path, capsys, old, new, message):
    from topoinv.cli import main

    assert old in CUSTOM_CHAIN_CFG
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CUSTOM_CHAIN_CFG.replace(old, new))
    assert main(["winding", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


QWZ_6 = "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 6 6\n"
HARPER_8 = "[model]\nname = harper\nb12 = 0.7853981633974483\n[lattice]\nsizes = 8 8\n"
SSH_8 = "[model]\nname = ssh\nm = 0.5\n[lattice]\nsizes = 8\n"


# one task per kind of Fermi-level reader: the occupied solve (winding; its ids are
# the bare counts), the half-space sample, the full decomposition, the eigenvalues
# alone, and a task that reads none
_MU_STATES_CASES = [pytest.param("winding", SSH_CFG.replace("sizes = 64", "sizes = 32"), k,
                                 63, id=k) for k in ("0", "64", "-3")]
_MU_STATES_CASES += [pytest.param(task, QWZ_6 + f"[task]\nname = {task}\nmu = 0.0\n", k, 71,
                                  id=f"{task}-{k}")
                     for task in ("boundary-current", "laughlin", "spectrum", "caz")
                     for k in ("0", "72")]


@pytest.mark.parametrize("task, text, k, top", _MU_STATES_CASES)
def test_cli_mu_states_out_of_range(tmp_path, capsys, task, text, k, top):
    """A mu_states outside [1, dim - 1] is refused when the config loads, with one
    message whichever task the config names."""
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("mu = 0.0", f"mu_states = {k}"))
    assert main([task, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: task.mu_states must be between 1 and {top}")


@pytest.mark.parametrize("task, text, message", [
    ("veg", QWZ_6 + "[task]\nname = veg\nmu = 0.0\nn_t = 0\n", "task.n_t must be >= 1, got 0"),
    ("streda", HARPER_8 + "[task]\nname = streda\nk_step = 0\n", "task.k_step must be >= 1, got 0"),
    ("winding", SSH_8 + "[task]\nname = winding\nmu = nan\n", "task.mu must be finite, got 'nan'"),
    ("winding", SSH_8.replace("m = 0.5", "m = inf") + "[task]\nname = winding\nmu = 0.0\n",
     "model.m must be finite, got 'inf'"),
    ("z2", QWZ_6 + "[task]\nname = z2\nmu = 0.0\n", "no time-reversal operator declared"),
    ("streda", SSH_8 + "[task]\nname = streda\n", "the field derivative needs the axes 1 and 2"),
    ("spectrum", SSH_8 + "[task]\nname = spectrum\nmu = 5.0\nmu_states = 8\n",
     "task.mu and task.mu_states both set the Fermi level; give one"),
], ids=["veg-n_t-0", "streda-k_step-0", "winding-mu-nan", "ssh-m-inf", "z2-qwz", "streda-ssh",
        "spectrum-mu-and-mu_states"])
def test_cli_invalid_config_is_an_error(tmp_path, capsys, task, text, message):
    """Configs that once ended in a traceback end in an error line and exit 1."""
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([task, "--config", str(cfg), "--workers", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("name, param", [("ssh", "m = 0.5"), ("kitaev_chain", "mu = 0.5")])
def test_cli_boundary_current_refuses_d1(tmp_path, capsys, name, param):
    """A chain has no edge for a current to run along: boundary-current ends in
    an error line, as bbc does, not in a quantized-looking 0."""
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[model]\nname = {name}\n{param}\n[lattice]\nsizes = 8\n"
                   "[task]\nname = boundary-current\n")
    assert main(["boundary-current", "--config", str(cfg), "--workers", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: the edge current needs d >= 2")


ZOO_SIZES = {1: "8", 2: "6 6", 3: "4 4 4"}
ZOO_CASES = [pytest.param(task, name, "", id=f"{task}-{name}")
             for name in MODEL_NAMES for task in harness.TASKS]
# gapped d = 1 chains that reach the z2 kernels
ZOO_CASES += [pytest.param("z2", "ssh", "m = 2.0", id="z2-ssh-m2"),
              pytest.param("z2", "kitaev_chain", "mu = 2.0", id="z2-kitaev_chain-mu2")]


@pytest.mark.parametrize("task, name, param", ZOO_CASES)
def test_every_task_on_every_zoo_model_exits_cleanly(tmp_path, capsys, task, name, param):
    """No task lets an exception escape the CLI on any shipped model: it computes
    (exit 0 or 2) or refuses with an error line (exit 1)."""
    from topoinv.cli import main

    sizes = ZOO_SIZES[make_named_model(name).lattice.dimension]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[model]\nname = {name}\n{param}\n[lattice]\nsizes = {sizes}\n"
                   f"[task]\nname = {task}\n")
    code = main([task, "--config", str(cfg), "--workers", "1"])
    assert code in (0, 1, 2)
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")


# values a config entry may hold: finite (-10 lies below every zoo spectrum, 1e308
# overflows any sum of squares), zero, negative, not finite, not a number
KANE_MELE_4 = "[model]\nname = kane_mele_qsh\n[lattice]\nsizes = 4 4\n"
CONFIG_VALUES = ["0.7", "3", "1", "0", "-1", "-0.4", "-10", "1e308", "nan", "inf", "-inf",
                 "1e400", "x", "1 2"]


@st.composite
def malformed_configs(draw):
    """(task, config text): a zoo model with some of its keys or an unknown one,
    lattice sizes <= 8, and a [task] section with some of the known keys or an
    unknown one."""
    name = draw(st.sampled_from(MODEL_NAMES))
    d = make_named_model(name).lattice.dimension
    value = st.sampled_from(CONFIG_VALUES)
    model_keys = st.sampled_from(sorted(models._ZOO[name][1]) + ["strength"])
    task_keys = st.sampled_from(sorted(harness._TASK_KEYS) + ["plaquette"])
    top = {1: 8, 2: 6, 3: 3}[d]
    sizes = draw(st.lists(st.integers(2, top), min_size=d, max_size=d)
                 | st.lists(st.integers(-1, top), min_size=1, max_size=d + 1))
    task = draw(st.sampled_from(sorted(harness.TASKS)))
    lines = [f"[model]\nname = {name}"]
    lines += [f"{k} = {v}" for k, v in draw(st.dictionaries(model_keys, value, max_size=2)).items()]
    lines += ["[lattice]", "sizes = " + " ".join(map(str, sizes)), "[task]", f"name = {task}"]
    lines += [f"{k} = {v}" for k, v in draw(st.dictionaries(task_keys, value, max_size=2)).items()]
    return task, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed_configs())
# tracebacks the search found: a flux count or an eigensolve that overflows, and an
# empty occupied space (mu below the spectrum) under a fiber operator
@example(case=("chern", "[model]\nname = harper\nb12 = 1e308\n[lattice]\nsizes = 6 6\n"))
@example(case=("chern", "[model]\nname = qwz\nmass = 1e308\n[lattice]\nsizes = 4 4\n"))
@example(case=("spin-chern", KANE_MELE_4 + "[task]\nname = spin-chern\nmu = -10\n"))
@example(case=("z2", KANE_MELE_4 + "[task]\nname = z2\nmu = -10\n"))
def test_malformed_config_exits_cleanly(tmp_path, capsys, monkeypatch, case):
    """Whatever a config holds, the CLI computes (exit 0 or 2) or refuses with a
    TopoError's error line (exit 1); no exception escapes, and no pool starts."""
    from topoinv.cli import main

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    task, text = case
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    capsys.readouterr()
    code = main([task, "--config", str(cfg), "--workers", "1"])
    assert code in (0, 1, 2)
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")


def test_every_error_type_is_raised():
    """Every error class but the base is raised somewhere in the package, so none is dead."""
    package = Path(__file__).resolve().parent.parent / "src" / "topoinv"
    tree = ast.parse((package / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"TopoError"}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert declared <= raised, sorted(declared - raised)


def _perfbench_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_exist():
    """Every function the perfbench tracer rebinds exists in its topoinv module, so a
    rename cannot silently drop a layer from a traced run."""
    tracing = _perfbench_tracing()
    missing = [f"topoinv.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"topoinv.{layer}"), name, None))]
    assert not missing


def test_tracer_counts_each_laughlin_eigensolve(monkeypatch):
    """The tracer hashes each `diagonalize` input's dense matrix: on the laughlin
    task every solve is of a distinct matrix, one per flux value solved plus the
    base sample.  A sample whose matrix were not a dense array would hash by
    identity, not content, and break this count."""
    from topoinv import flow

    solved = []
    sample_at = flow.FluxPath.sample_at

    def spy(path, t):
        sample = sample_at(path, t)
        assert isinstance(sample.matrix, np.ndarray)
        solved.append(t)
        return sample

    monkeypatch.setattr(flow.FluxPath, "sample_at", spy)
    tracer = _perfbench_tracing().Tracer()
    with tracer.installed():
        out = harness._task_laughlin(make_named_model("qwz", sizes=10, mass=1.0), {"mu": 0.0}, 0)
    assert out["spectral_flow"] == out["pair_index"] == 1
    assert len(solved) == len(set(solved)) > 20
    assert len(tracer.digests) == len(set(tracer.digests)) == len(solved) + 1


# one small config for each task that no other test runs through the harness
TASK_CONFIGS = {
    "spectrum": "[model]\nname = ssh\nm = 0.5\n[lattice]\nsizes = 8\n[task]\nname = spectrum\nmu = 0.0\n",
    "chern": "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 8 8\n[task]\nname = chern\nmu = 0.0\n",
    "z2": "[model]\nname = kane_mele_qsh\nmass = 1.0\nrashba = 0.1\n[lattice]\nsizes = 10 10\n"
          "[task]\nname = z2\nmu = 0.0\n",
    "spin-chern": "[model]\nname = kane_mele_qsh\nmass = 1.0\nrashba = 0.1\n[lattice]\nsizes = 8 8\n"
                  "[task]\nname = spin-chern\nmu = 0.0\n",
    "boundary-current": f"[model]\nname = harper\nb12 = {2 * np.pi / 3!r}\n[lattice]\nsizes = 12 12\n"
                        "boundary = periodic open\n[task]\nname = boundary-current\nmu_states = 48\n",
    "veg": "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 6 6\n[task]\nname = veg\nmu = 0.0\nn_t = 16\n",
    "pairing-range": f"[model]\nname = harper\nb12 = {2 * np.pi / 3!r}\n[lattice]\nsizes = 12 12\n"
                     "[task]\nname = pairing-range\nindex_set = 1 2\n",
    "caz": "[model]\nname = ssh\nm = 0.5\n[lattice]\nsizes = 8\n[task]\nname = caz\n",
}


@pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
def test_cli_runs_task(tmp_path, capsys, task):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(TASK_CONFIGS[task])
    assert main([task, "--config", str(cfg)]) in (0, 2)
    assert capsys.readouterr().out.startswith("seed 0: ")


@pytest.mark.parametrize("model, label", [("ssh", "AIII"), ("kitaev_chain", "BDI")])
def test_cli_caz_label(tmp_path, model, label):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[model]\nname = {model}\n[lattice]\nsizes = 16\n[task]\nname = caz\n")
    proc = cli("caz", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert f"label={label} " in proc.stdout


@pytest.mark.parametrize("old, new, flags, entry", [
    ("base_seed = 0", "base_seed = -1", [], "[ensemble] base_seed"),
    ("base_seed = 0", "base_seed = 0", ["--seed", "-3"], "--seed"),
    ("[ensemble]", "[disorder]\nstrength = 0.1\nseed = -2\n\n[ensemble]", [], "[disorder] seed"),
    ("base_seed = 0", "base_seed = 0", ["--workers", "0"], "--workers"),
    ("base_seed = 0", "base_seed = 0", ["--workers", "-4"], "--workers"),
])
def test_cli_rejects_negative_seed_or_worker_count(tmp_path, capsys, old, new, flags, entry):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    text = SSH_CFG.replace("sizes = 64", "sizes = 8").replace("realizations = 1", "realizations = 2")
    cfg.write_text(text.replace(old, new))
    assert main(["winding", "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and entry in err


@pytest.mark.parametrize("line", ["mu_stats = 16", "mu_state = 4", "plaquette = 4 4"])
def test_cli_rejects_task_key_no_task_reads(tmp_path, capsys, line):
    from topoinv.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(SSH_CFG.replace("mu = 0.0", f"mu = 0.0\n{line}"))
    assert main(["winding", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [task] {line.split()[0]} is read by no task")


def test_laughlin_reads_mu_states():
    config = config_of("[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 10 10\n"
                       "[task]\nname = laughlin\nmu_states = 102\n")
    model = config.model()
    w = diagonalize(build_hamiltonian(model.with_boundaries(OPEN), 0)).eigenvalues
    run = harness.TASKS["laughlin"].run
    # the 102nd and 103rd levels are edge levels above mu = 0, inside the bulk gap
    by_states = run(model, config.task_params, 0)
    assert by_states == run(model, {"mu": float(0.5 * (w[101] + w[102]))}, 0)
    assert by_states["pair_index_raw"] != run(model, {"mu": 0.0}, 0)["pair_index_raw"]
