import numpy as np
import pytest

from chanopt.channels import choi_of, validate_cptp
from chanopt.cli import parse_family
from chanopt.entanglement import (
    entanglement_breaking_gp,
    meas_separable_check,
    separable_suffices,
)
from chanopt.numerics import max_abs
from chanopt.presets import eb_povm_elements, preset_document, preset_names
from conftest import bloch_state, fibonacci_sphere, preset_family

ALL = [
    "damp-counterexample",
    "diag-qubit",
    "eb-needs-ent-gp",
    "eb-needs-ent-povm",
    "eb-needs-ent-weyl",
]


def test_names_enumerate_builders():
    assert preset_names() == ALL


def test_unknown_preset_lists_choices():
    with pytest.raises(KeyError, match="damp-counterexample"):
        preset_document("no-such")


@pytest.mark.parametrize("name", ALL)
def test_members_are_cptp(name):
    fam = preset_family(name)
    for _, ch in fam.members:
        assert validate_cptp(ch).valid


@pytest.mark.parametrize("name", ALL)
def test_document_rebuilds_same_family(name):
    fam = preset_family(name)
    doc = preset_document(name)
    rebuilt = parse_family(doc["family"])
    assert rebuilt.kind == fam.kind
    assert rebuilt.labels() == fam.labels()
    for (_, a), (_, b) in zip(fam.members, rebuilt.members):
        assert max_abs(choi_of(a).matrix - choi_of(b).matrix) < 1e-12


def test_damp_counterexample_members():
    fam = preset_family("damp-counterexample")
    assert fam.labels() == ["xi-half", "xi-zero"]
    doc = preset_document("damp-counterexample")
    assert doc["analysis"]["extra_s"] == [0.5]


def test_diag_qubit_is_identity_and_phase_flip(rng):
    fam = preset_family("diag-qubit")
    chs = dict(fam.members)
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    assert max_abs(chs["identity"].apply(rho) - rho) < 1e-12
    z = np.diag([1.0, -1.0])
    assert max_abs(chs["phase-flip"].apply(rho) - z @ rho @ z) < 1e-12
    v = separable_suffices(fam)
    assert v.suffices and v.axis_name == "x"


def test_eb_gp_breaks_entanglement_yet_needs_it():
    fam = preset_family("eb-needs-ent-gp")
    for theta in fam.params["thetas"]:
        assert entanglement_breaking_gp(theta)
    v = separable_suffices(fam)
    assert not v.suffices
    assert v.witness.gap > 1e-3


def test_eb_povm_elements_structure():
    plus, minus = eb_povm_elements()
    assert max_abs(sum(plus) - np.eye(2)) < 1e-12
    assert max_abs(sum(minus) - np.eye(2)) < 1e-12
    for p, m in zip(plus, minus):
        assert max_abs(m - (np.trace(p).real * np.eye(2) - p)) < 1e-12


def test_eb_povm_no_product_input_matches():
    fam = preset_family("eb-needs-ent-povm")
    for r in fibonacci_sphere(30):
        assert not meas_separable_check(fam, bloch_state(r)).matches_phi


def test_eb_weyl_no_product_input_matches():
    fam = preset_family("eb-needs-ent-weyl")
    assert fam.params["structure"] == "rotated"
    for r in fibonacci_sphere(30):
        assert not meas_separable_check(fam, bloch_state(r)).matches_phi
