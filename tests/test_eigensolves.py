"""Each task diagonalizes every distinct matrix of a realization exactly once."""

import hashlib
import sys

import pytest

from topoinv import harness, spectral
from topoinv.harness import ExperimentConfig
from topoinv.serialize import parse_config

HARPER_CYLINDER = ("[model]\nname = harper\nb12 = 2.0943951023931953\n"
                   "[lattice]\nsizes = 24 24\nboundary = periodic open\n")

CONFIGS = {
    "bbc": HARPER_CYLINDER + "[task]\nname = bbc\nmu_states = 192\n",
    "boundary-current": HARPER_CYLINDER + "[task]\nname = boundary-current\nmu_states = 192\n",
    "laughlin": "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 10 10\n"
                "[task]\nname = laughlin\nmu = 0.0\n",
    "chern": "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 8 8\n"
             "[task]\nname = chern\nmu = 0.0\n",
    "winding": "[model]\nname = ssh\nm = 0.5\n[lattice]\nsizes = 64\n"
               "[task]\nname = winding\nmu = 0.0\nindex_set = 1\n",
    # scalar disorder breaks the chain's chirality: the dense occupied solve
    "winding-scalar-disorder": "[model]\nname = ssh\nm = 0.5\n[lattice]\nsizes = 64\n"
                               "[disorder]\nfamily = diagonal-scalar\nstrength = 0.3\n"
                               "[task]\nname = winding\nmu = 0.0\nindex_set = 1\n",
    "z2": "[model]\nname = kane_mele_qsh\nmass = 1.0\nrashba = 0.1\n[lattice]\nsizes = 14 14\n"
          "[task]\nname = z2\nmu = 0.0\n",
    "spin-chern": "[model]\nname = kane_mele_qsh\nmass = 1.0\nrashba = 0.1\n"
                  "[lattice]\nsizes = 12 12\n[task]\nname = spin-chern\nmu = 0.0\n",
    "kitaev-halfflux": "[model]\nname = kitaev_chain\nmu = 0.5\nw_strength = 0.3\n"
                       "[lattice]\nsizes = 64\n[task]\nname = kitaev-halfflux\n",
    "veg": "[model]\nname = qwz\nmass = 1.0\n[lattice]\nsizes = 8 8\n"
           "[task]\nname = veg\nmu = 0.0\n",
}


@pytest.fixture
def solved(monkeypatch):
    """Digests of the matrices passed to `diagonalize`, in call order."""
    digests = []
    inner = spectral.diagonalize

    def counting(sample, *args, **kwargs):
        digests.append(hashlib.blake2b(sample.matrix.tobytes(), digest_size=16).digest())
        return inner(sample, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "topoinv" and getattr(module, "diagonalize", None) is inner:
            monkeypatch.setattr(module, "diagonalize", counting)
    return digests


@pytest.mark.parametrize("task", sorted(CONFIGS))
def test_each_matrix_diagonalized_once(task, solved):
    config = ExperimentConfig.from_sections(parse_config(CONFIGS[task]))
    harness.TASKS[config.task].run(config.model(), config.task_params, 0)
    assert solved, "the task made no eigensolve through diagonalize"
    assert len(solved) == len(set(solved))
