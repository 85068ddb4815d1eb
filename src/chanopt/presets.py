"""Named demonstration families, one command away.

Each preset is one spec document for the command line
(``--spec preset:<name>``), so the headline demonstrations (the damping
counterexample, separable-sufficiency of qubit diagonal mixtures, and the
entanglement-breaking families that still reward entangled inputs) need no
hand-written input files.
"""
from __future__ import annotations

import copy

import numpy as np

from .channels import weyl_ops


def eb_povm_elements():
    """Three-outcome unit-rank qubit POVM with its complement partner: the
    plus elements are |v><v| / 2 for v = (1, 1/2), (1, -1/2) and the rest of
    the identity, (3/4) |1><1|; each minus element is (tr M) 1 - M."""
    plus = [
        np.array([[0.5, 0.25], [0.25, 0.125]]),
        np.array([[0.5, -0.25], [-0.25, 0.125]]),
        np.array([[0.0, 0.0], [0.0, 0.75]]),
    ]
    minus = [np.trace(m).real * np.eye(2) - m for m in plus]
    return plus, minus


def _pairs(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# Trace preservation pins |theta| = 1/sqrt(2) at d=2; the sign picks between
# the identity and the phase flip, and that pair is the whole real family.
_DIAG_THETA = 2.0 ** -0.5

_EB_PLUS, _EB_MINUS = eb_povm_elements()
_E1 = np.array([1.0, 2.0]) / np.sqrt(5.0)
_E2 = np.array([2.0, -1.0]) / np.sqrt(5.0)

_DOCUMENTS = {
    "damp-counterexample": {
        "family": {
            "kind": "damp",
            "p": 1.0,
            "xis": [0.5, 0.0],
            "labels": ["xi-half", "xi-zero"],
        },
        "inputs": {
            "excited": {"kind": "basis", "indices": [1]},
            "entangled": {"kind": "phi_d"},
        },
        "analysis": {
            "command": "sweep",
            "inputs": ["excited", "entangled"],
            "points": 200,
            "s_max": 3.0,
            "extra_s": [0.5],
        },
    },
    "diag-qubit": {
        "family": {
            "kind": "diag",
            "d": 2,
            "thetas": [[[_DIAG_THETA, 0.0]], [[-_DIAG_THETA, 0.0]]],
            "labels": ["identity", "phase-flip"],
        },
        "analysis": {"command": "ent-advantage"},
    },
    # both members entanglement breaking; weight ratios all distinct, so no
    # product-balance condition can hold and entanglement still pays
    "eb-needs-ent-gp": {
        "family": {
            "kind": "gp",
            "d": 2,
            "xis": [[0.35, 0.3, 0.15], [0.3, 0.25, 0.3]],
            "labels": ["plus", "minus"],
        },
        "analysis": {"command": "ent-advantage"},
    },
    "eb-needs-ent-povm": {
        "family": {
            "kind": "measurement",
            "structure": "ortho",
            "povms": [[_pairs(m) for m in _EB_PLUS], [_pairs(m) for m in _EB_MINUS]],
            "labels": ["plus", "minus"],
        },
        "analysis": {"command": "ent-advantage"},
    },
    "eb-needs-ent-weyl": {
        "family": {
            "kind": "measurement",
            "unitaries": [_pairs(u) for u in weyl_ops(2)],
            "m_plus": _pairs(0.7 * np.outer(_E1, _E1) + 0.3 * np.outer(_E2, _E2)),
            "m_minus": _pairs(0.2 * np.outer(_E1, _E1) + 0.8 * np.outer(_E2, _E2)),
        },
        "analysis": {"command": "ent-advantage"},
    },
}


def preset_names() -> list[str]:
    return sorted(_DOCUMENTS)


def preset_document(name: str) -> dict:
    """The CLI spec document of the preset; a fresh copy on every call."""
    if name not in _DOCUMENTS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return copy.deepcopy(_DOCUMENTS[name])
