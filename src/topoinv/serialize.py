"""File formats: binary matrix container, CSV exports, text model configs.

The matrix container is little-endian: 4-byte magic "TIMX", uint32 version,
two uint64 dims, then row-major complex128 payload.  Configs are INI-style
sections with whitespace-separated numeric lists; complex matrices are rows
of re/im pairs, rows separated by ';'.  Writing uses repr precision so a
parse/serialize round trip is lossless.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import (
    DisorderSpec,
    LatticeSpec,
    MagneticFieldSpec,
    ModelDefinition,
    SymmetrySpec,
    make_named_model,
)

_MAGIC = b"TIMX"
_VERSION = 1


def save_matrix(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(matrix, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(_VERSION, dtype="<u4").tobytes())
        fh.write(np.array(m.shape[0], dtype="<u8").tobytes())
        fh.write(np.array(m.shape[1] if m.ndim > 1 else 1, dtype="<u8").tobytes())
        fh.write(m.astype("<c16").tobytes())


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ConfigError(f"{path}: not a matrix container")
        version = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if version != _VERSION:
            raise ConfigError(f"{path}: unsupported container version {version}")
        rows = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        cols = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        data = np.frombuffer(fh.read(), dtype="<c16")
        if data.size != rows * cols:
            raise ConfigError(f"{path}: truncated payload")
        return data.reshape(rows, cols).astype(np.complex128)


def write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row: its fields as `str`, comma-separated
    (for a float that is `repr`, so the values read back exactly)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    """Human-readable dump: row, col, re, im; for inspection only."""
    m = np.asarray(matrix, dtype=complex)
    write_csv(path, "row,col,re,im",
              ((i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(m)))


def save_spectrum_csv(path, eigenvalues: np.ndarray) -> None:
    write_csv(path, "index,eigenvalue", enumerate(map(float, eigenvalues)))


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _fmt_matrix_complex(m: np.ndarray) -> str:
    rows = []
    for row in np.atleast_2d(m):
        rows.append(" ".join(f"{complex(v).real!r} {complex(v).imag!r}" for v in row))
    return " ; ".join(rows)


def _square(section: str, key: str, entries: list, n: int, what: str) -> np.ndarray:
    if len(entries) != n * n:
        raise ConfigError(f"{section}.{key} must hold {n * n} {what} entries ({n} x {n}), "
                          f"got {len(entries)}")
    return np.array(entries).reshape(n, n)


def _parse_matrix_complex(section: str, key: str, text: str, n: int) -> np.ndarray:
    """n x n complex matrix of the config entry section.key: 're im' pairs, row-major,
    with rows optionally separated by ';'."""
    entries = []
    for chunk in text.split(";"):
        nums = [config_number(section, key, x) for x in chunk.split()]
        if len(nums) % 2:
            raise ConfigError(f"{section}.{key}: matrix row has odd number of entries: {chunk!r}")
        entries += [complex(re, im) for re, im in zip(nums[::2], nums[1::2])]
    return _square(section, key, entries, n, "complex")


def _parse_matrix_real(section: str, key: str, text: str, n: int) -> np.ndarray:
    """n x n real matrix of the config entry section.key, row-major, rows optionally ';'-separated."""
    entries = [config_number(section, key, x) for x in text.replace(";", " ").split()]
    return _square(section, key, entries, n, "real")


def parse_config(text: str) -> dict:
    """Parse the INI text into a nested dict of sections; values stay strings."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return {section: dict(cp.items(section)) for section in cp.sections()}


def serialize_config(sections: dict) -> str:
    out = io.StringIO()
    for section, items in sections.items():
        out.write(f"[{section}]\n")
        for key, value in items.items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def read_config_file(path) -> dict:
    return parse_config(Path(path).read_text())


def config_number(section: str, key: str, value, kind=float):
    """kind(value) for the config entry section.key; ConfigError when it does not
    convert or is not finite."""
    try:
        number = kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {noun}, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return number


def model_from_config(sections: dict) -> ModelDefinition:
    """Build the model a config describes: a named model or a custom one."""
    model_sec = sections.get("model", {})
    lattice_sec = sections.get("lattice", {})
    sizes = None
    boundary = None
    if "sizes" in lattice_sec:
        sizes = tuple(config_number("lattice", "sizes", x, int)
                      for x in lattice_sec["sizes"].split())
    if "boundary" in lattice_sec:
        boundary = tuple(lattice_sec["boundary"].split())
    disorder = None
    if "disorder" in sections:
        dsec = sections["disorder"]
        seed = config_number("disorder", "seed", dsec.get("seed", 0), int)
        if seed < 0:
            raise ConfigError(f"[disorder] seed must be >= 0, got {seed}")
        disorder = DisorderSpec(
            family=dsec.get("family", "diagonal-scalar"),
            strength=config_number("disorder", "strength", dsec.get("strength", 0.0)),
            seed=seed,
        )
    name = model_sec.get("name", "custom")
    if name != "custom":
        params = {k: config_number("model", k, v) for k, v in model_sec.items() if k != "name"}
        return make_named_model(name, sizes=sizes, boundary=boundary,
                                disorder=disorder, **params)
    # custom model: lattice + field + hoppings + onsite (+ symmetry)
    try:
        dimension = config_number("lattice", "dimension", lattice_sec["dimension"], int)
        fiber = config_number("lattice", "fiber", lattice_sec["fiber"], int)
    except KeyError as exc:
        raise ConfigError(f"custom model needs lattice.{exc.args[0]}") from exc
    if sizes is None or boundary is None:
        raise ConfigError("custom model needs lattice.sizes and lattice.boundary")
    lattice = LatticeSpec(dimension, sizes, boundary, fiber)
    if "field" in sections and "b" in sections["field"]:
        field = MagneticFieldSpec(_parse_matrix_real("field", "b", sections["field"]["b"], dimension))
    else:
        field = MagneticFieldSpec.zero(dimension)
    hop_sec = sections.get("hoppings", {})
    hoppings = []
    onsite = np.zeros((fiber, fiber), dtype=complex)
    for key, value in hop_sec.items():
        if key == "onsite":
            onsite = _parse_matrix_complex("hoppings", key, value, fiber)
            continue
        if "|" not in value:
            raise ConfigError(f"hopping {key!r} must be 'displacement | matrix entries'")
        disp_text, mat_text = value.split("|", 1)
        disp = tuple(config_number("hoppings", key, x, int) for x in disp_text.split())
        mat = _parse_matrix_complex("hoppings", key, mat_text, fiber)
        hoppings.append((disp, mat))
    sym = SymmetrySpec()
    if "symmetry" in sections:
        ssec = sections["symmetry"]
        kw = {}
        for op in ("s_tr", "s_ph", "s_ch"):
            if op in ssec:
                kw[op] = _parse_matrix_complex("symmetry", op, ssec[op], fiber)
        kw["eta_tr"] = config_number("symmetry", "eta_tr", ssec.get("eta_tr", 1), int)
        kw["eta_ph"] = config_number("symmetry", "eta_ph", ssec.get("eta_ph", 1), int)
        sym = SymmetrySpec(**kw)
    if disorder is None:
        disorder = DisorderSpec()
    return ModelDefinition(lattice, field, tuple(hoppings), onsite, disorder, sym,
                           name=model_sec.get("label", "custom"))


def config_from_model(model: ModelDefinition) -> dict:
    """Sections reproducing the model; inverse of model_from_config for customs."""
    sections = {
        "model": {"name": "custom", "label": model.name},
        "lattice": {
            "dimension": str(model.lattice.dimension),
            "sizes": " ".join(str(n) for n in model.lattice.linear_sizes),
            "boundary": " ".join(model.lattice.boundary),
            "fiber": str(model.lattice.fiber),
        },
        "field": {"b": " ; ".join(_fmt_floats(row) for row in model.field.B)},
        "disorder": {
            "family": model.disorder.family,
            "strength": repr(model.disorder.strength),
            "seed": str(model.disorder.seed),
        },
    }
    hop = {}
    for k, (a, t) in enumerate(model.hoppings):
        hop[f"hop{k}"] = f"{' '.join(str(c) for c in a)} | {_fmt_matrix_complex(t.ravel())}"
    hop["onsite"] = _fmt_matrix_complex(model.onsite.ravel())
    sections["hoppings"] = hop
    sym = model.symmetry
    ssec = {}
    for op_name in ("s_tr", "s_ph", "s_ch"):
        op = getattr(sym, op_name)
        if op is not None:
            ssec[op_name] = _fmt_matrix_complex(op.ravel())
    if ssec:
        ssec["eta_tr"] = str(sym.eta_tr)
        ssec["eta_ph"] = str(sym.eta_ph)
        sections["symmetry"] = ssec
    return sections


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
