"""Momentum-space oracle for the real-space pairings, used only by the tests.

Brute-force Bloch sums on refining grids: the lattice field-strength
(link-plaquette) sum for I = (1, 2), and the winding of the chiral block
determinant for I = (1,) in d = 1.
"""

from fractions import Fraction

import numpy as np

from topoinv.errors import BadDimensionError, NotChiralError, NotConvergedError
from topoinv.invariants import InvariantResult, _make_result, _validate_index_set
from topoinv.models import PERIODIC, ModelDefinition, chiral_sectors

_ORACLE_NK_START = 6  # chern_kspace_oracle: first momentum grid of the Chern sum
_ORACLE_TOL = 1e-3  # chern_kspace_oracle: stability and quantization tolerance


def _bloch_builder(model: ModelDefinition):
    """Bloch matrix h(k) after magnetic cell reduction; returns (h, cell, bands_per_k)."""
    if model.disorder.strength != 0.0:
        raise ValueError("momentum-space oracle requires a disorder-free model")
    if any(b != PERIODIC for b in model.lattice.boundary):
        raise ValueError("momentum-space oracle requires a full torus")
    d = model.lattice.dimension
    L = model.lattice.fiber
    B = model.field.B
    if d == 1 or np.abs(B).max() < 1e-14:
        def h(k):
            out = model.onsite.astype(complex).copy()
            for a, t in model.hoppings:
                out = out + np.exp(-1j * np.dot(k, a)) * t
            return out
        return h, 1
    if d != 2:
        raise BadDimensionError("magnetic Bloch reduction implemented for d <= 2")
    frac = Fraction(B[0, 1] / (2 * np.pi)).limit_denominator(256)
    if abs(B[0, 1] / (2 * np.pi) - frac) > 1e-9:
        raise ValueError("flux per plaquette is not a small rational multiple of 2*pi")
    q = frac.denominator

    def h(k):
        out = np.zeros((q * L, q * L), dtype=complex)
        for j in range(q):
            out[j * L:(j + 1) * L, j * L:(j + 1) * L] += model.onsite
        for a, t in model.hoppings:
            a1, a2 = a
            for j in range(q):
                j2 = (j + a2) % q
                cell_shift = (j + a2 - j2) // q
                phase = np.exp(1j * a1 * B[0, 1] * j) * np.exp(-1j * (k[0] * a1 + k[1] * cell_shift))
                out[j2 * L:(j2 + 1) * L, j * L:(j + 1) * L] += phase * t
        return out
    return h, q


def _fhs_sum(h, nk: int, nband: int) -> float:
    ks = np.linspace(0, 2 * np.pi, nk, endpoint=False)
    frames = np.empty((nk, nk), dtype=object)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            _, v = np.linalg.eigh(h((k1, k2)))
            frames[i, j] = v[:, :nband]
    total = 0.0
    for i in range(nk):
        for j in range(nk):
            a = frames[i, j]
            b = frames[(i + 1) % nk, j]
            c = frames[(i + 1) % nk, (j + 1) % nk]
            d = frames[i, (j + 1) % nk]
            loop = (np.linalg.det(a.conj().T @ b) * np.linalg.det(b.conj().T @ c)
                    * np.linalg.det(c.conj().T @ d) * np.linalg.det(d.conj().T @ a))
            total += np.angle(loop)
    # plaquette-field orientation is opposite to the position-commutator cocycle
    return -total / (2 * np.pi)


def _winding_1d(h, nk: int, s_ch: np.ndarray) -> float:
    plus, minus = chiral_sectors(s_ch)
    ks = np.linspace(0, 2 * np.pi, nk, endpoint=False)
    prev = None
    total = 0.0
    first = None
    for k in ks:
        hw, hv = np.linalg.eigh(h((k,)))
        occ = hv[:, hw < 0]
        p = occ @ occ.conj().T
        blk = 2.0 * (minus.conj().T @ p @ plus)
        det = np.linalg.det(blk)
        ang = np.angle(det)
        if first is None:
            first = ang
        if prev is not None:
            dd = ang - prev
            total += (dd + np.pi) % (2 * np.pi) - np.pi
        prev = ang
    dd = first - prev
    total += (dd + np.pi) % (2 * np.pi) - np.pi
    return total / (2 * np.pi)


def chern_kspace_oracle(model: ModelDefinition, bands: int, I) -> InvariantResult:
    """Brute-force momentum-space pairing on refining grids until stable.

    Even |I| = 2: lattice field-strength (link-plaquette) sum over the lowest
    `bands` Bloch bands of the (magnetic) unit cell.  Odd |I| = 1: winding of
    the chiral block determinant.  The orientation matches the real-space
    cocycle, so the two routes are directly comparable.
    """
    d = model.lattice.dimension
    I = _validate_index_set(I, d)
    h, q = _bloch_builder(model)
    if I == (1, 2):
        nk = _ORACLE_NK_START
        prev = None
        for _ in range(6):
            val = _fhs_sum(h, nk, bands)
            if prev is not None and abs(val - prev) < _ORACLE_TOL \
                    and abs(val - round(val)) < _ORACLE_TOL:
                return _make_result(val, nk=nk)
            prev = val
            nk *= 2
        raise NotConvergedError(f"momentum-space sum did not stabilize (last {prev})")
    if I == (1,) and d == 1:
        if model.symmetry.s_ch is None:
            raise NotChiralError("winding oracle needs a chiral operator")
        nk = max(_ORACLE_NK_START * 8, 64)
        prev = None
        for _ in range(5):
            val = _winding_1d(h, nk, model.symmetry.s_ch)
            if prev is not None and abs(val - prev) < _ORACLE_TOL \
                    and abs(val - round(val)) < _ORACLE_TOL:
                return _make_result(val, nk=nk)
            prev = val
            nk *= 2
        raise NotConvergedError(f"winding sum did not stabilize (last {prev})")
    raise BadDimensionError("momentum-space oracle supports I = (1,) in d=1 and I = (1, 2)")
