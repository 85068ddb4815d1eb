import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanopt
from chanopt import repetition
from chanopt.channels import ConstraintViolation, apply_extended, make_family, weyl_ops
from chanopt.cli import _COMMANDS, _check_count, _jsonable, _samples_csv, _sweep_csv, main
from chanopt.comparison import gap_curve
from chanopt.entanglement import product_candidates
from chanopt.geometry import ang_sample, ang_solve_triangle, closure_residual
from chanopt.numerics import DIM_GUARD, SystemShape, max_abs, max_entangled
from chanopt.optimal_inputs import IrrepBlocks, PureState
from chanopt.repetition import Strategy, repeated_output

SQRT_HALF = float(np.sqrt(0.5))


def mat_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def weyl_group_json():
    return [[mat_json(u), mat_json(u)] for u in weyl_ops(2)]


def run(tmp_path, doc, command, *flags):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return main([command, "--spec", str(spec), "--out", str(tmp_path), *flags])


def report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


GP_DOC = {
    "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.4]]}
}


# ---------------------------------------------------------------------------
# validate


def test_validate_reports_members(tmp_path, capsys):
    assert run(tmp_path, GP_DOC, "validate") == 0
    out = report(tmp_path, "validate-report.json")
    assert out["command"] == "validate"
    assert out["din"] == 2 and out["dout"] == 2
    for label in ("gp0", "gp1"):
        member = out["members"][label]
        assert member["trace_preserving"] and member["cp"]
        assert member["min_choi_eig"] >= -1e-9
    # stdout carries the same JSON
    assert json.loads(capsys.readouterr().out) == out


def test_validate_with_group_flags(tmp_path):
    doc = dict(GP_DOC, group=weyl_group_json())
    assert run(tmp_path, doc, "validate") == 0
    out = report(tmp_path, "validate-report.json")
    assert out["covariant"] is True


def test_missing_field_is_parse_error(tmp_path, capsys):
    assert run(tmp_path, {"family": {"d": 2}}, "validate") == 2
    err = capsys.readouterr().err
    assert "family.kind" in err


def test_constraint_violation_is_validation_error(tmp_path):
    doc = {"family": {"kind": "cdep", "d": 2, "thetas": [0.5]}}
    assert run(tmp_path, doc, "validate") == 3


def test_inputs_as_list_is_parse_error(tmp_path, capsys):
    doc = dict(GP_DOC, inputs=[{"kind": "phi_d"}], analysis={"inputs": ["a", "b"]})
    assert run(tmp_path, doc, "compare") == 2
    assert "at inputs:" in capsys.readouterr().err


def test_basis_index_out_of_range_is_parse_error(tmp_path, capsys):
    doc = dict(
        GP_DOC,
        inputs={"ent": {"kind": "phi_d"}, "ground": {"kind": "basis", "indices": [5]}},
        analysis={"inputs": ["ent", "ground"]},
    )
    assert run(tmp_path, doc, "compare") == 2
    assert "inputs.ground.indices" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [5, "ab", ["a", 1]])
def test_labels_must_be_list_of_strings(tmp_path, capsys, labels):
    doc = {"family": {"kind": "damp", "p": 0.5, "xis": [0.0, 0.5], "labels": labels}}
    assert run(tmp_path, doc, "validate") == 2
    assert "family.labels" in capsys.readouterr().err


def test_unreadable_spec_is_parse_error(tmp_path):
    assert main(["validate", "--spec", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--spec", str(bad)]) == 2
    bad.write_text('["top", "level", "list"]')
    assert main(["validate", "--spec", str(bad)]) == 2


def test_spec_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"family": "\xe9"}'.encode("latin-1"))
    assert main(["validate", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("spec error at spec: cannot read ")


def test_unknown_preset_is_parse_error(tmp_path):
    assert main(["validate", "--spec", "preset:nope", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# compare


def damp_doc():
    return {
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
        "analysis": {"command": "compare", "inputs": ["excited", "entangled"]},
    }


def test_compare_finds_incomparable_witness(tmp_path):
    assert run(tmp_path, damp_doc(), "compare") == 0
    out = report(tmp_path, "compare-report.json")
    assert out["relation"] == "incomparable"
    assert abs(out["witness_s"] - 0.5) < 1e-9
    assert abs(out["gap"] - (SQRT_HALF - 0.5)) < 1e-9
    assert out["candidate"] == "excited" and out["challenger"] == "entangled"


def test_compare_grid_flag(tmp_path):
    assert run(tmp_path, damp_doc(), "compare", "--grid", "64") == 0
    assert report(tmp_path, "compare-report.json")["relation"] == "incomparable"


def test_compare_needs_two_inputs(tmp_path):
    doc = damp_doc()
    doc["analysis"]["inputs"] = ["excited"]
    assert run(tmp_path, doc, "compare") == 2


def test_compare_unknown_input_name(tmp_path):
    doc = damp_doc()
    doc["analysis"]["inputs"] = ["excited", "nope"]
    assert run(tmp_path, doc, "compare") == 2


# ---------------------------------------------------------------------------
# certify


def test_certify_group_correction(tmp_path):
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "group": weyl_group_json(),
        "inputs": {"target": {"kind": "basis", "indices": [1]}},
        "analysis": {
            "protocol": "group-correction",
            "blocks": [2],
            "target": "target",
        },
    }
    assert run(tmp_path, doc, "certify") == 0
    out = report(tmp_path, "certify-report.json")
    assert out["pass"] is True
    assert out["max_residual"] <= 1e-8


def test_certify_unital_qubit(tmp_path):
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "analysis": {
            "protocol": "unital-qubit",
            "p": [0.7, 0.3],
            "v": mat_json(np.eye(2)),
        },
    }
    assert run(tmp_path, doc, "certify") == 0
    assert report(tmp_path, "certify-report.json")["pass"] is True


def test_certify_measurement_basis_input(tmp_path):
    m = np.diag([0.8, 0.4, 0.3])
    comp = np.eye(3) - m
    doc = {
        "family": {
            "kind": "measurement",
            "povms": [[mat_json(m), mat_json(comp)], [mat_json(comp), mat_json(m)]],
            "labels": ["plus", "minus"],
        },
        "inputs": {"probe": {"kind": "basis", "indices": [0]}},
        "analysis": {"protocol": "measurement", "input": "probe"},
    }
    assert run(tmp_path, doc, "certify") == 0
    out = report(tmp_path, "certify-report.json")
    assert out["relation"] == "dominates"
    assert out["method"] == "sweep-sufficient-commuting"


def test_certify_unknown_protocol(tmp_path, capsys):
    # named before the malformed input
    doc = dict(GP_DOC, analysis={"protocol": "nope"}, inputs={"a": 5})
    assert run(tmp_path, doc, "certify") == 2
    assert capsys.readouterr().err.startswith("spec error at analysis.protocol: unknown protocol 'nope'")


# ---------------------------------------------------------------------------
# ent-advantage


def test_ent_advantage_diag_preset(tmp_path):
    assert main(
        ["ent-advantage", "--spec", "preset:diag-qubit", "--out", str(tmp_path)]
    ) == 0
    out = report(tmp_path, "ent-advantage-report.json")
    assert out["suffices"] is True
    assert out["axis"] == "x"
    assert out["condition"] == 1
    assert out["entanglement_breaking"] == {"identity": False, "phase-flip": False}


def test_ent_advantage_eb_gp_preset(tmp_path):
    assert main(
        ["ent-advantage", "--spec", "preset:eb-needs-ent-gp", "--out", str(tmp_path)]
    ) == 0
    out = report(tmp_path, "ent-advantage-report.json")
    assert out["suffices"] is False
    assert out["entanglement_breaking"] == {"plus": True, "minus": True}
    assert out["witness"]["gap"] > 1e-3


def ent_report(tmp_path, family):
    assert run(tmp_path, {"family": family}, "ent-advantage") == 0
    return report(tmp_path, "ent-advantage-report.json")


def test_ent_advantage_omits_a_zero_margin_witness(tmp_path):
    # one axis ties the entangled curve below s = 1, another above
    out = ent_report(tmp_path, {"kind": "gp", "d": 2, "xis": [[0, 0.1, 0], [0, 0, 0.1]]})
    assert out["suffices"] is False
    assert "witness" not in out


def damp_half_xis(x):
    """xis (weights of X, XZ, Z) of the damp member at p = 1/2, a Pauli channel."""
    return [(1 - x) / 4, (1 - x) / 4, (1 - np.sqrt(x)) ** 2 / 4]


@pytest.mark.parametrize(
    "family, xis, suffices",
    [
        (
            {"kind": "gp", "d": 2, "thetas": [[0.4, 0.3, 0.1, 0.2], [0.7, 0.1, 0.1, 0.1]]},
            [[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]],
            False,
        ),
        (
            {"kind": "gp", "d": 2, "thetas": [[0.7, 0.3, 0.0, 0.0], [0.55, 0.45, 0.0, 0.0]]},
            [[0.0, 0.0, 0.3], [0.0, 0.0, 0.45]],
            True,
        ),
        (
            {"kind": "damp", "p": 0.5, "xis": [0.3, 0.8]},
            [damp_half_xis(0.3), damp_half_xis(0.8)],
            False,
        ),
    ],
    ids=["gp-thetas-witness", "gp-thetas-suffices", "damp-half-recovered"],
)
def test_ent_advantage_weights_match_same_mixture_by_xis(tmp_path, family, xis, suffices):
    labels = ["a", "b"]
    got = ent_report(tmp_path, dict(family, labels=labels))
    want = ent_report(tmp_path, {"kind": "gp", "d": 2, "xis": xis, "labels": labels})
    assert got["suffices"] is want["suffices"] is suffices
    for key in ("condition", "axis", "entanglement_breaking"):
        assert got[key] == want[key]
    assert ("witness" in got) is ("witness" in want) is not suffices
    if not suffices:
        for key in ("s", "pair"):
            assert got["witness"][key] == want["witness"][key]
        assert abs(got["witness"]["gap"] - want["witness"]["gap"]) <= 1e-12


@pytest.mark.parametrize("name", ["eb-needs-ent-povm", "eb-needs-ent-weyl"])
def test_ent_advantage_measurement_presets(tmp_path, name):
    assert main(
        ["ent-advantage", "--spec", f"preset:{name}", "--out", str(tmp_path)]
    ) == 0
    out = report(tmp_path, "ent-advantage-report.json")
    assert out["any_separable_match"] is False
    assert out["match_state"] is None
    assert out["candidates"] == {"eb-needs-ent-povm": 3, "eb-needs-ent-weyl": 2}[name]


def rotated_family_json():
    return {
        "kind": "measurement",
        "m_plus": mat_json(np.diag([0.7, 0.3])),
        "m_minus": mat_json(np.diag([0.3, 0.7])),
        "unitaries": [mat_json(u) for u in weyl_ops(2)],
    }


def qutrit_rotated_family_json():
    return {
        "kind": "measurement",
        "m_plus": mat_json(np.diag([0.5, 0.3, 0.2])),
        "m_minus": mat_json(np.diag([0.2, 0.3, 0.5])),
        "unitaries": [mat_json(u) for u in weyl_ops(3)],
    }


@pytest.mark.parametrize(
    "family", [rotated_family_json(), qutrit_rotated_family_json()], ids=["d2", "d3"]
)
def test_ent_advantage_rotated_family_matches_a_candidate(tmp_path, family):
    out = ent_report(tmp_path, family)
    fam = make_family("measurement", family)
    assert out["any_separable_match"] is True
    assert out["candidates"] == fam.din
    got = np.array([complex(*z) for z in out["match_state"]])
    assert any(max_abs(got - psi) <= 1e-11 for psi in product_candidates(fam))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_damp_preset(tmp_path):
    assert main(
        ["sweep", "--spec", "preset:damp-counterexample", "--out", str(tmp_path)]
    ) == 0
    out = report(tmp_path, "sweep-report.json")
    assert out["pairs"] == [["xi-half", "xi-zero"]]
    lines = (tmp_path / "sweep-curves.csv").read_text().strip().splitlines()
    assert lines[0] == "input,member_plus,member_minus,s,norm,is_breakpoint"
    assert len(lines) == out["rows"] + 1
    by_key = {}
    for ln in lines[1:]:
        name, _, _, s, norm, flag = ln.split(",")
        by_key[(name, float(s))] = (float(norm), int(flag))
    # closed-form spot checks at the witness point
    norm, flag = by_key[("excited", 0.5)]
    assert abs(norm - 0.5) < 1e-12 and flag == 1
    norm, _ = by_key[("entangled", 0.5)]
    assert abs(norm - SQRT_HALF) < 1e-12
    # curves start at 1 (s = 0 is the plain trace norm of a state difference)
    assert abs(by_key[("excited", 0.0)][0] - 1.0) < 1e-12


def test_curve_csv_round_trip():
    a, b = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
    c = gap_curve(a, b, grid=[0.0, 0.5, 1.0])
    lines = _sweep_csv([("in", "p", "m", c)]).strip().splitlines()
    assert lines[0] == "input,member_plus,member_minus,s,norm,is_breakpoint"
    assert len(lines) == len(c.s_values) + 1
    body = [ln.split(",") for ln in lines[1:]]
    for (name, la, lb, s_str, n_str, flag), s, nv in zip(body, c.s_values, c.norms):
        assert (name, la, lb) == ("in", "p", "m")
        assert float(s_str) == s
        assert float(n_str) == nv
        assert int(flag) == int(any(abs(s - bp) < 1e-15 for bp in c.breakpoints))
    # both breakpoints are flagged: 0.3 / 0.6 on the grid, 0.7 / 0.4 merged into it
    assert sum(int(row[-1]) for row in body) == 2


def test_sweep_rejects_unknown_input(tmp_path):
    doc = damp_doc()
    doc["analysis"] = {"inputs": ["nope"]}
    assert run(tmp_path, doc, "sweep") == 2


# ---------------------------------------------------------------------------
# ang


def ang_doc(query, x, **extra):
    doc = {"x": x, "analysis": {"query": query, **extra.pop("analysis", {})}}
    doc.update(extra)
    return doc


def test_ang_nonempty(tmp_path):
    assert run(tmp_path, ang_doc("nonempty", [1.0, 1.0, 1.0]), "ang") == 0
    assert report(tmp_path, "ang-report.json")["nonempty"] is True
    assert run(tmp_path, ang_doc("nonempty", [3.0, 1.0, 1.0]), "ang") == 0
    assert report(tmp_path, "ang-report.json")["nonempty"] is False


def test_ang_solve(tmp_path):
    assert run(tmp_path, ang_doc("solve", [1.0, 1.0, 1.0]), "ang") == 0
    out = report(tmp_path, "ang-report.json")
    assert len(out["solutions"]) == 2
    assert max(out["residuals"]) <= 1e-9
    # deterministic ordering of the conjugate pair
    assert out["solutions"][0][0][1] <= out["solutions"][1][0][1]


def test_ang_sample_needs_seed(tmp_path):
    doc = ang_doc("sample", [1.0, 0.8, 0.6, 0.9], analysis={"n": 10})
    assert run(tmp_path, doc, "ang") == 2
    assert run(tmp_path, doc, "ang", "--seed", "7") == 0
    out = report(tmp_path, "ang-report.json")
    assert out["n"] == 10
    assert out["max_residual"] <= 1e-9
    csv = (tmp_path / "ang-samples.csv").read_text()
    assert csv.splitlines()[0].startswith("index,re_omega1")
    assert len(csv.strip().splitlines()) == 11


def test_ang_sample_deterministic(tmp_path):
    doc = ang_doc("sample", [1.0, 0.8, 0.6, 0.9], analysis={"n": 10})
    run(tmp_path, doc, "ang", "--seed", "7")
    first = (tmp_path / "ang-samples.csv").read_bytes()
    run(tmp_path, doc, "ang", "--seed", "7")
    assert (tmp_path / "ang-samples.csv").read_bytes() == first


def test_ang_parallel(tmp_path):
    doc = ang_doc("parallel", [1.0, 0.8, 0.6, 0.9], x_prime=[2.0, 1.6, 1.2, 1.8])
    assert run(tmp_path, doc, "ang", "--seed", "7") == 0
    assert report(tmp_path, "ang-report.json")["subset_holds"] is True
    doc = ang_doc("parallel", [1.0, 0.8, 0.6, 0.9], x_prime=[1.0, 0.8, 0.6, 1.4])
    assert run(tmp_path, doc, "ang", "--seed", "7") == 0
    out = report(tmp_path, "ang-report.json")
    assert out["subset_holds"] is False
    assert len(out["violating_sample"]) == 3


def test_samples_csv_shape():
    x = [1.0, 0.8, 0.6, 0.9]
    samples = ang_sample(x, 4, seed=2)
    lines = _samples_csv(samples, closure_residual(x, samples)).strip().splitlines()
    assert lines[0] == "index,re_omega1,im_omega1,re_omega2,im_omega2,re_omega3,im_omega3,residual"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "0"
    w1 = complex(float(cells[1]), float(cells[2]))
    assert w1 == samples[0, 0]
    assert float(cells[-1]) <= 1e-9


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_ang_sample_residuals_round_like_one_closure(tmp_path, d):
    # each residual cell is the complex abs() of that one row's closure sum,
    # to the last bit: a stacked np.abs rounds some rows differently
    x = np.linspace(1.0, 0.4, d).tolist()
    doc = ang_doc("sample", x, analysis={"n": 300})
    assert run(tmp_path, doc, "ang", "--seed", str(d)) == 0
    lines = (tmp_path / "ang-samples.csv").read_text().splitlines()[1:]
    assert len(lines) == 300
    for line in lines:
        cells = line.split(",")
        parts = [float(c) for c in cells[1:-1]]
        row = np.array([complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
        z = (np.array(x[:-1]) * row).sum() + x[-1]
        assert cells[-1] == repr(abs(complex(z)))


@pytest.mark.parametrize("x", [[1.0, 0.8, 0.6], [1.2, 0.7, 0.9]])
def test_ang_parallel_triangle_reports_first_violating_row(tmp_path, x):
    # both conjugate solutions leave the set of a real x', so the first row
    # in solve order is the one reported
    doc = ang_doc("parallel", x, x_prime=[x[0], x[1], 1.5 * x[2]])
    assert run(tmp_path, doc, "ang") == 0
    out = report(tmp_path, "ang-report.json")
    assert out["subset_holds"] is False
    first = ang_solve_triangle(x)[0]
    assert out["violating_sample"] == [[float(f"{v:.12g}") for v in (w.real, w.imag)] for w in first]


def test_ang_parallel_needs_seed_when_sampling(tmp_path, capsys):
    doc = ang_doc("parallel", [1.0, 0.8, 0.6, 0.9], x_prime=[2.0, 1.6, 1.2, 1.8])
    assert run(tmp_path, doc, "ang") == 2
    assert "--seed" in capsys.readouterr().err
    # three lengths use the exact triangle solutions and draw nothing
    doc = ang_doc("parallel", [1.0, 0.9, 0.7], x_prime=[2.0, 1.8, 1.4])
    assert run(tmp_path, doc, "ang") == 0


def test_ang_unknown_query(tmp_path, capsys):
    # named before the malformed lengths
    assert run(tmp_path, ang_doc("nope", "x"), "ang") == 2
    assert capsys.readouterr().err.startswith("spec error at analysis.query: unknown query 'nope'")


# ---------------------------------------------------------------------------
# repeat


def test_repeat_adaptive(tmp_path):
    doc = {
        "family": rotated_family_json(),
        "inputs": {
            "zero": {"kind": "basis", "indices": [0]},
            "one": {"kind": "basis", "indices": [1]},
            "bell": {"kind": "phi_d"},
        },
        "analysis": {
            "analysis": "adaptive",
            "prior": 0.5,
            "blocks": [1, 1],
            "menus": [["zero", "one", "bell"], ["zero", "one", "bell"]],
        },
    }
    assert run(tmp_path, doc, "repeat") == 0
    out = report(tmp_path, "repeat-report.json")
    assert out["improvement"] <= 1e-9
    assert out["adaptive_risk"] >= 0.0


def test_repeat_sequential_certificate_needs_seed(tmp_path):
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "group": weyl_group_json(),
        "inputs": {"bell": {"kind": "phi_d"}},
        "analysis": {
            "analysis": "sequential-certificate",
            "blocks": [2],
            "strategy": {
                "mode": "sequential",
                "n": 2,
                "input": "bell",
                "interleavers": "random-unitary",
            },
        },
    }
    assert run(tmp_path, doc, "repeat") == 2
    assert run(tmp_path, doc, "repeat", "--seed", "3") == 0
    out = report(tmp_path, "repeat-report.json")
    assert out["pass"] is True
    assert out["max_residual"] <= 1e-8


def test_repeat_output_identity_rewire(tmp_path):
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "inputs": {"bell": {"kind": "phi_d"}},
        "analysis": {
            "analysis": "output",
            "member": "gp0",
            "strategy": {
                "mode": "sequential",
                "n": 3,
                "input": "bell",
                "interleavers": "identity-rewire",
            },
        },
    }
    assert run(tmp_path, doc, "repeat") == 0
    out = report(tmp_path, "repeat-report.json")
    assert abs(out["trace"] - 1.0) < 1e-9
    assert out["min_eig"] >= -1e-9
    assert out["dim"] == 4


def identical_output_doc(n):
    return {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "inputs": {"bell": {"kind": "phi_d"}},
        "analysis": {
            "analysis": "output",
            "member": "gp0",
            "strategy": {"mode": "identical", "n": n, "input": "bell"},
        },
    }


def test_repeat_identical_output_matches_dense_state(tmp_path):
    assert run(tmp_path, identical_output_doc(3), "repeat") == 0
    out = report(tmp_path, "repeat-report.json")
    ch = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]}).members[0][1]
    bell = PureState(max_entangled(2), SystemShape((2, 2)))
    rho = repeated_output(ch, Strategy("identical", 3, bell))
    lam = np.linalg.eigvalsh(rho)
    assert out["dim"] == 64
    assert abs(out["trace"] - np.trace(rho).real) < 1e-12
    assert abs(out["min_eig"] - lam.min()) < 1e-12
    assert abs(out["max_eig"] - lam.max()) < 1e-12


def test_repeat_identical_output_never_forms_the_joint_state(tmp_path):
    # a 4096-dimensional joint state: a dense eigendecomposition of it takes
    # over a minute, its spectrum from omega's eigenvalues a fraction of a second
    start = time.perf_counter()
    assert run(tmp_path, identical_output_doc(6), "repeat") == 0
    assert time.perf_counter() - start < 2.0
    out = report(tmp_path, "repeat-report.json")
    assert out["dim"] == 4096
    assert abs(out["trace"] - 1.0) < 1e-12
    assert abs(out["max_eig"] - 0.4**6) < 1e-12


def gp0():
    return make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]}).members[0][1]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_repeat_identical_output_values_are_omegas_spectrum_powered(tmp_path, n):
    # the report is omega's spectrum raised to the n-fold products by
    # _kron_power, number for number once rounded for emission
    assert run(tmp_path, identical_output_doc(n), "repeat") == 0
    bell = PureState(max_entangled(2), SystemShape((2, 2)))
    omega = repeated_output(gp0(), Strategy("identical", 1, bell))
    lam = repetition._kron_power(np.linalg.eigvalsh(0.5 * (omega + omega.conj().T)), n)
    want = _jsonable({
        "dim": int(lam.size),
        "trace": float(lam.sum()),
        "min_eig": float(lam.min()),
        "max_eig": float(lam.max()),
    })
    out = report(tmp_path, "repeat-report.json")
    assert {key: out[key] for key in want} == want


def pair_states(n, seed=22):
    rng = np.random.default_rng(seed)
    pairs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return pairs / np.linalg.norm(pairs, axis=1, keepdims=True)


def parallel_output_doc(vec, n):
    return {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "inputs": {
            "in": {
                "kind": "amplitudes",
                "values": [[float(z.real), float(z.imag)] for z in vec],
                "dims": [2, 2] * n,
            }
        },
        "analysis": {
            "analysis": "output",
            "member": "gp0",
            "strategy": {"mode": "parallel", "n": n, "input": "in"},
        },
    }


def test_repeat_parallel_product_output_never_forms_the_joint_state(tmp_path):
    # six product use pairs: a 4096-dimensional joint state, whose dense
    # eigendecomposition alone takes well over ten seconds
    pairs = pair_states(6)
    doc = parallel_output_doc(reduce(np.kron, pairs), 6)
    start = time.perf_counter()
    assert run(tmp_path, doc, "repeat") == 0
    assert time.perf_counter() - start < 2.0
    out = report(tmp_path, "repeat-report.json")
    tops = [
        np.linalg.eigvalsh(apply_extended(gp0(), np.outer(v, v.conj()), SystemShape((2, 2)))).max()
        for v in pairs
    ]
    assert out["dim"] == 4096
    assert abs(out["trace"] - 1.0) < 1e-12
    assert abs(out["max_eig"] - np.prod(tops)) < 1e-12


def test_repeat_parallel_grouped_output_builds_only_the_entangled_group(tmp_path):
    # six use pairs, the first two sharing a generic 16-dimensional state:
    # only that group is dense, and the 4096-dimensional joint state, whose
    # dense eigendecomposition alone takes well over ten seconds, is never
    # formed
    group = pair_states(4, seed=5).reshape(-1) / 2
    pairs = pair_states(4)
    doc = parallel_output_doc(reduce(np.kron, [group, *pairs]), 6)
    start = time.perf_counter()
    assert run(tmp_path, doc, "repeat") == 0
    assert time.perf_counter() - start < 2.0
    out = report(tmp_path, "repeat-report.json")
    dense_group = PureState(group, SystemShape((2, 2, 2, 2)))
    tops = [np.linalg.eigvalsh(repetition._block_outputs(gp0(), dense_group, 2, 2)).max()] + [
        np.linalg.eigvalsh(apply_extended(gp0(), np.outer(v, v.conj()), SystemShape((2, 2)))).max()
        for v in pairs
    ]
    assert out["dim"] == 4096
    assert abs(out["trace"] - 1.0) < 1e-12
    assert abs(out["max_eig"] - np.prod(tops)) < 1e-12


def test_repeat_sequential_fresh_swap_output_matches_identical(tmp_path):
    # n = 5 Bell pairs laid out (in_1, r_1, ..., in_5, r_5): the fresh-swap
    # chain reorders the factors of omega^(x 5), so the spectra agree
    bell5 = reduce(np.kron, [max_entangled(2).real] * 5)
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]},
        "inputs": {"in": {"kind": "amplitudes", "values": bell5.tolist(), "dims": [2, 512]}},
        "analysis": {
            "analysis": "output",
            "member": "gp0",
            "strategy": {"mode": "sequential", "n": 5, "input": "in", "interleavers": "fresh-swap", "ref_dim": 2},
        },
    }
    assert run(tmp_path, doc, "repeat") == 0
    seq = report(tmp_path, "repeat-report.json")
    assert run(tmp_path, identical_output_doc(5), "repeat") == 0
    ident = report(tmp_path, "repeat-report.json")
    assert seq["dim"] == ident["dim"] == 1024
    for key in ("trace", "min_eig", "max_eig"):
        assert abs(seq[key] - ident[key]) < 1e-12, key


@pytest.mark.parametrize("entangled", [False, True])
def test_repeat_parallel_output_matches_dense_spectrum(tmp_path, monkeypatch, entangled):
    pairs = pair_states(3)
    if entangled:
        # the first two pairs share a generic 16-dimensional state
        pairs = [pair_states(4, seed=5).reshape(-1) / 2, pairs[2]]
    vec = reduce(np.kron, pairs)
    dense_state = PureState(vec, SystemShape((2, 2) * 3))
    lam = np.linalg.eigvalsh(repetition._block_outputs(gp0(), dense_state, 2, 3))
    dense = []
    real = repetition._block_outputs
    monkeypatch.setattr(repetition, "_block_outputs", lambda *a: dense.append(a) or real(*a))
    assert run(tmp_path, parallel_output_doc(vec, 3), "repeat") == 0
    assert len(dense) == int(entangled)
    out = report(tmp_path, "repeat-report.json")
    assert out["dim"] == lam.size == 64
    for key, value in (("trace", lam.sum()), ("min_eig", lam.min()), ("max_eig", lam.max())):
        assert abs(out[key] - value) < 1e-12, key


# two Bell pairs laid out (in_1, r_1, in_2, r_2)
BELL_PAIRS = [0.5 if i in (0, 3, 12, 15) else 0.0 for i in range(16)]
OUTPUT_STRATEGIES = {
    "identical": ({"kind": "phi_d"}, {"mode": "identical", "n": 3}),
    "parallel": (
        {"kind": "amplitudes", "values": BELL_PAIRS, "dims": [2, 2, 2, 2]},
        {"mode": "parallel", "n": 2},
    ),
    "sequential": (
        {"kind": "amplitudes", "values": BELL_PAIRS, "dims": [2, 8]},
        {"mode": "sequential", "n": 2, "interleavers": "fresh-swap", "ref_dim": 2},
    ),
}


def test_repeat_output_reports_are_byte_identical(tmp_path):
    # each pass runs in its own interpreter under its own hash seed, so
    # output that varies from process to process shows as a difference
    for name, (state, strategy) in OUTPUT_STRATEGIES.items():
        doc = dict(
            identical_output_doc(1),
            inputs={"in": state},
            analysis={"analysis": "output", "member": "gp0", "strategy": dict(strategy, input="in")},
        )
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from chanopt.cli import main\n"
        "for name in sys.argv[2:]:\n"
        "    spec, out = f'{name}.json', f'{sys.argv[1]}/{name}'\n"
        "    assert main(['repeat', '--spec', spec, '--out', out]) == 0\n"
    )
    src = str(Path(chanopt.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])

    def reports(out, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-c", script, out, *OUTPUT_STRATEGIES],
            cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        root = tmp_path / out
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    first = reports("first", "1")
    assert len(first) == len(OUTPUT_STRATEGIES)
    assert reports("second", "2") == first


def test_repeat_unknown_analysis(tmp_path, capsys):
    # named before the malformed input
    doc = dict(GP_DOC, analysis={"analysis": "nope"}, inputs={"a": 5})
    assert run(tmp_path, doc, "repeat") == 2
    assert capsys.readouterr().err.startswith("spec error at analysis.analysis: unknown analysis 'nope'")


# ---------------------------------------------------------------------------
# emission details


def test_reports_are_deterministic(tmp_path):
    doc = damp_doc()
    run(tmp_path, doc, "compare")
    first = (tmp_path / "compare-report.json").read_bytes()
    run(tmp_path, doc, "compare")
    assert (tmp_path / "compare-report.json").read_bytes() == first


def test_floats_are_12_significant_digits(tmp_path):
    run(tmp_path, damp_doc(), "compare")
    text = (tmp_path / "compare-report.json").read_text()
    out = json.loads(text)
    assert out["gap"] == float(f"{np.sqrt(2) / 2 - 0.5:.12g}")


def test_states_with_amplitudes_and_ref_dim(tmp_path):
    doc = {
        "family": {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.4]]},
        "inputs": {
            "pair": {"kind": "basis", "indices": [0, 1], "ref_dim": 3},
            "plus": {
                "kind": "amplitudes",
                "values": [SQRT_HALF, SQRT_HALF],
                "dims": [2],
            },
        },
        "analysis": {"command": "compare", "inputs": ["pair", "plus"]},
    }
    assert run(tmp_path, doc, "compare") == 0


# ---------------------------------------------------------------------------
# spec boundary: every malformed spec exits 2 naming the field (3 for values
# out of range), never 1 with a traceback


def family_doc(**family):
    return {"family": family}


DAMP = {"kind": "damp", "p": 0.5, "xis": [0.0, 0.5]}
GP3 = {"kind": "gp", "d": 3, "thetas": [[1 / 9] * 9]}
ROTATED = rotated_family_json()
ONE_GP = {"kind": "gp", "d": 2, "xis": [[0.1, 0.2, 0.3]]}


def _near_tp_kraus():
    # K = sqrt(I + 9e-9 [[1, 1], [1, 1]]): sum K^dag K misses I by 9e-9
    # entrywise, within the family's 1e-8 slack, yet K maps |+> to an output
    # of trace 1 + 1.8e-8
    w, v = np.linalg.eigh(np.eye(2) + 0.9e-8 * np.ones((2, 2)))
    return mat_json((v * np.sqrt(w)) @ v.T)


NEAR_TP = {"kind": "custom", "kraus": [[_near_tp_kraus()], [mat_json(np.eye(2))]]}


def with_analysis(family, analysis, inputs=None, **extra):
    doc = {"family": family, "analysis": analysis, **extra}
    if inputs is not None:
        doc["inputs"] = inputs
    return doc


EB_INPUTS = {"e": {"kind": "phi_d"}, "b": {"kind": "basis", "indices": [0]}}
AB_INPUTS = {"a": {"kind": "basis", "indices": [0]}, "b": {"kind": "basis", "indices": [1]}}
OUTPUT_STRATEGY = {"mode": "sequential", "n": 2, "input": "e", "interleavers": "fresh-swap"}

# (command, document, extra flags, exit code, field path)
MALFORMED = {
    "d-null": ("validate", family_doc(**dict(GP3, d=None)), (), 2, "family.d"),
    "d-string": ("validate", family_doc(**dict(GP3, d="two")), (), 2, "family.d"),
    "d-fraction": ("validate", family_doc(**dict(ONE_GP, d=2.7)), (), 2, "family.d"),
    "d-bool": ("validate", family_doc(**dict(ONE_GP, d=True)), (), 2, "family.d"),
    "d-negative": ("validate", family_doc(kind="cdep", d=-1, thetas=[0.1]), (), 3, "family.d"),
    "gp-d-one": ("validate", family_doc(kind="gp", d=1, thetas=[[1.0]]), (), 3, "family.d"),
    "d-above-guard-gp": ("validate", family_doc(**dict(GP3, d=65)), (), 3, "family.d"),
    "d-above-guard-cdep": ("validate", family_doc(kind="cdep", d=200, thetas=[0.0]), (), 3, "family.d"),
    "gp-d3-with-xis": ("validate", family_doc(kind="gp", d=3, xis=[[0.1, 0.2, 0.3]]), (), 2, "family.thetas"),
    "gp-d2-short-theta": ("validate", family_doc(kind="gp", d=2, thetas=[[0]]), (), 3, "family.thetas[0]"),
    "thetas-number": ("validate", family_doc(**dict(GP3, thetas=5)), (), 2, "family.thetas"),
    "xi-entry-bool": ("validate", family_doc(**dict(ONE_GP, xis=[[0.1, True, 0.3]])), (), 2, "family.xis[0][1]"),
    "xis-number": ("validate", family_doc(**dict(ONE_GP, xis=5)), (), 2, "family.xis"),
    "p-string": ("validate", family_doc(**dict(DAMP, p="0.5")), (), 2, "family.p"),
    "p-list": ("validate", family_doc(**dict(DAMP, p=[1])), (), 2, "family.p"),
    "unitaries-empty": ("validate", family_doc(kind="unitary", unitaries=[]), (), 2, "family.unitaries"),
    "kraus-empty-set": ("validate", family_doc(kind="custom", kraus=[[]]), (), 2, "family.kraus[0]"),
    "kraus-set-number": ("validate", family_doc(kind="custom", kraus=[[mat_json(np.eye(2))], 7]), (), 2, "family.kraus[1]"),
    "weights-number": ("validate", family_doc(kind="ou", unitaries=[mat_json(np.eye(2))], weights=3), (), 2, "family.weights"),
    "phase-pair-short": ("validate", family_doc(kind="qubit-phase", thetas=[[0.1]]), (), 2, "family.thetas[0]"),
    "labels-duplicate": ("validate", family_doc(**dict(DAMP, labels=["a", "a"])), (), 2, "family.labels[1]"),
    "labels-empty": ("validate", family_doc(**dict(DAMP, labels=[])), (), 2, "family.labels"),
    "rotated-label-count": ("validate", family_doc(**dict(ROTATED, labels=["a", "b", "c"])), (), 3, "family.labels"),
    "rotated-without-unitaries": (
        "validate",
        family_doc(kind="measurement", structure="rotated", povms=[[mat_json(np.eye(2))]]),
        (), 2, "family.unitaries",
    ),
    # unitaries select the rotated form only when no structure is given
    "structure-plain-with-unitaries": (
        "validate", family_doc(**dict(ROTATED, structure="plain")), (), 2, "family.structure",
    ),
    "structure-unknown": (
        "validate",
        family_doc(kind="measurement", structure="bogus", povms=[[mat_json(np.eye(2))]]),
        (), 2, "family.structure",
    ),
    "diag-not-trace-preserving": (
        "validate", family_doc(kind="diag", d=2, thetas=[[SQRT_HALF], [0.5]]), (), 3, "family.thetas[1]",
    ),
    "cdep-out-of-range": ("validate", family_doc(kind="cdep", d=2, thetas=[0.1, 0.5]), (), 3, "family.thetas[1]"),
    "damp-p-out-of-range": ("validate", family_doc(**dict(DAMP, p=1.5)), (), 3, "family.p"),
    "damp-xi-out-of-range": ("validate", family_doc(**dict(DAMP, xis=[0.0, 1.5])), (), 3, "family.xis[1]"),
    "phase-norm": ("validate", family_doc(kind="qubit-phase", thetas=[[0.1, 0.2], [0.9, 0.9]]), (), 3, "family.thetas[1]"),
    "ou-weights": (
        "validate",
        family_doc(kind="ou", unitaries=[mat_json(np.eye(2)), mat_json(np.diag([1, -1]))], weights=[[0.5, 0.5], [0.7, 0.7]]),
        (), 3, "family.weights[1]",
    ),
    "ou-not-orthogonal": (
        "validate", family_doc(kind="ou", unitaries=[mat_json(np.eye(2))] * 2, weights=[[0.5, 0.5]]), (), 3, "family.unitaries",
    ),
    "povm-incomplete": (
        "validate", family_doc(kind="measurement", povms=[[mat_json(np.eye(2))], [mat_json(np.diag([1, 0]))]]), (), 3, "family.povms[1]",
    ),
    "povm-not-psd": (
        "validate",
        family_doc(kind="measurement", povms=[[mat_json(np.diag([1.5, 0.5])), mat_json(np.diag([-0.5, 0.5]))]]),
        (), 3, "family.povms[0]",
    ),
    "povm-shape": (
        "validate", family_doc(kind="measurement", povms=[[mat_json(np.eye(2)), mat_json(np.eye(3))]]), (), 3, "family.povms[0]",
    ),
    "kraus-shape": (
        "validate", family_doc(kind="custom", kraus=[[mat_json(np.eye(2)), mat_json(np.ones((3, 2)))]]), (), 3, "family.kraus[0]",
    ),
    "kraus-member-dims": (
        "validate", family_doc(kind="custom", kraus=[[mat_json(np.eye(2))], [mat_json(np.eye(3))]]), (), 3, "family.kraus[1]",
    ),
    "kraus-not-cptp": (
        "validate", family_doc(kind="custom", kraus=[[mat_json(np.eye(2))], [mat_json(2 * np.eye(2))]]), (), 3, "family.kraus[1]",
    ),
    "kraus-not-cptp-labelled": (
        "validate", family_doc(kind="custom", kraus=[[mat_json(2 * np.eye(2))]], labels=["big"]), (), 3, "family.kraus[0]",
    ),
    "rotated-m-plus-shape": ("validate", family_doc(**dict(ROTATED, m_plus=mat_json(np.eye(3)))), (), 2, "family.m_plus"),
    "rotated-m-minus-shape": ("validate", family_doc(**dict(ROTATED, m_minus=mat_json(np.eye(3)))), (), 2, "family.m_minus"),
    "rotated-unitary-shape": (
        "validate", family_doc(**dict(ROTATED, unitaries=ROTATED["unitaries"] + [mat_json(np.eye(3))])), (), 3, "family.unitaries[4]",
    ),
    # twice the Weyl set, weighted 3/2 and 1/2, meets the twirl identity but
    # holds no unitary, so the rotated inputs U_0 v_j would not be unit vectors
    "rotated-not-unitary": (
        "ent-advantage",
        family_doc(**dict(ROTATED, unitaries=[mat_json(np.sqrt(w) * u) for w in (1.5, 0.5) for u in weyl_ops(2)])),
        (), 3, "family.unitaries[0]",
    ),
    "sweep-s-max-list": ("sweep", with_analysis(DAMP, {"s_max": [1]}, EB_INPUTS), (), 2, "analysis.s_max"),
    "sweep-points-string": ("sweep", with_analysis(DAMP, {"points": "x"}, EB_INPUTS), (), 2, "analysis.points"),
    "sweep-points-huge": ("sweep", with_analysis(DAMP, {"points": 1e12}, EB_INPUTS), (), 3, "analysis.points"),
    "sweep-points-above-guard": ("sweep", with_analysis(DAMP, {"points": 30000000}, EB_INPUTS), (), 3, "analysis.points"),
    "sweep-points-negative": ("sweep", with_analysis(DAMP, {"points": -1}, EB_INPUTS), (), 3, "analysis.points"),
    "sweep-inputs-string": ("sweep", with_analysis(DAMP, {"inputs": "eb"}, EB_INPUTS), (), 2, "analysis.inputs"),
    "compare-input-list": ("compare", with_analysis(DAMP, {"inputs": [["e"], "b"]}, EB_INPUTS), (), 2, "analysis.inputs[0]"),
    "sweep-s-max-negative": ("sweep", with_analysis(DAMP, {"s_max": -1}, EB_INPUTS), (), 3, "analysis.s_max"),
    "sweep-extra-s-negative": (
        "sweep", with_analysis(DAMP, {"extra_s": [0.5, -0.5]}, EB_INPUTS), (), 3, "analysis.extra_s[1]",
    ),
    "sweep-grid-empty": ("sweep", with_analysis(DAMP, {"points": 0}, EB_INPUTS), (), 3, "analysis.points"),
    "sweep-analysis-false": ("sweep", dict(family_doc(**DAMP), analysis=False, inputs=EB_INPUTS), (), 2, "analysis"),
    "sweep-analysis-list": ("sweep", dict(family_doc(**DAMP), analysis=[], inputs=EB_INPUTS), (), 2, "analysis"),
    "sweep-inputs-zero": ("sweep", dict(family_doc(**DAMP), inputs=0), (), 2, "inputs"),
    "compare-inputs-list": ("compare", with_analysis(DAMP, {"inputs": ["e", "b"]}, []), (), 2, "inputs"),
    "compare-grid-negative": (
        "compare", with_analysis(DAMP, {"inputs": ["e", "b"]}, EB_INPUTS), ("--grid", "-1"), 3, "flags.--grid",
    ),
    "compare-grid-zero": (
        "compare", with_analysis(DAMP, {"inputs": ["e", "b"]}, EB_INPUTS), ("--grid", "0"), 3, "flags.--grid",
    ),
    # 1.1e6 grid points of 4 x 4 outputs would stack 1.76e7 entries, above 4096^2
    "compare-grid-above-guard": (
        "compare", with_analysis(DAMP, {"inputs": ["e", "b"]}, EB_INPUTS), ("--grid", "1100000"), 3, "flags.--grid",
    ),
    "compare-one-member": ("compare", with_analysis(ONE_GP, {"inputs": ["e", "b"]}, EB_INPUTS), (), 3, "family"),
    "xis-short": ("validate", family_doc(**dict(ONE_GP, xis=[[0.1]])), (), 3, "family.xis[0]"),
    "xis-off-simplex": ("validate", family_doc(**dict(ONE_GP, xis=[[0.6, 0.6, 0.0]])), (), 3, "family.xis[0]"),
    "ent-plain-not-complement": (
        "ent-advantage",
        family_doc(kind="measurement", povms=[[mat_json(np.diag([1, 0])), mat_json(np.diag([0, 1]))]] * 2),
        (), 3, "family",
    ),
    "ent-rotated-base-not-commuting": (
        "ent-advantage",
        family_doc(**dict(ROTATED, m_minus=mat_json([[0.5, 0.2], [0.2, 0.5]]))),
        (), 3, "family",
    ),
    "ent-damp-not-weyl-mixture": ("ent-advantage", family_doc(**dict(DAMP, p=1.0)), (), 3, "family"),
    "prior-null": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "prior": None, "blocks": [1], "menus": [["a"]]}, AB_INPUTS),
        (), 2, "analysis.prior",
    ),
    "menus-string": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "blocks": [1, 1], "menus": "ab"}, AB_INPUTS),
        (), 2, "analysis.menus",
    ),
    "blocks-fraction": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "blocks": [1.5], "menus": [["a"]]}, AB_INPUTS),
        (), 2, "analysis.blocks[0]",
    ),
    "certify-blocks-string": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": "2", "target": "a"}, AB_INPUTS, group=weyl_group_json()),
        (), 2, "analysis.blocks",
    ),
    "certify-p-single": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [1.0], "v": mat_json(np.eye(2))}),
        (), 2, "analysis.p",
    ),
    "certify-input-list": (
        "certify",
        with_analysis(ROTATED, {"protocol": "measurement", "input": ["a"]}, AB_INPUTS),
        (), 2, "analysis.input",
    ),
    "dims-number": (
        "compare",
        with_analysis(DAMP, {"inputs": ["a", "b"]}, {"a": {"kind": "amplitudes", "values": [1, 0], "dims": 2}, "b": {"kind": "phi_d"}}),
        (), 2, "inputs.a.dims",
    ),
    "ref-dim-string": (
        "compare",
        with_analysis(DAMP, {"inputs": ["a", "b"]}, {"a": {"kind": "basis", "indices": [0, 1], "ref_dim": "3"}, "b": {"kind": "phi_d"}}),
        (), 2, "inputs.a.ref_dim",
    ),
    "ref-dim-above-guard": (
        "compare",
        with_analysis(DAMP, {"inputs": ["a", "b"]}, {"a": {"kind": "basis", "indices": [0, 1], "ref_dim": 10**6}, "b": {"kind": "phi_d"}}),
        (), 3, "inputs.a.ref_dim",
    ),
    "strategy-n-fraction": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=2.5, ref_dim=2)}, EB_INPUTS),
        (), 2, "analysis.strategy.n",
    ),
    "strategy-ref-dim-above-guard": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, ref_dim=5000)}, EB_INPUTS),
        (), 3, "analysis.strategy.ref_dim",
    ),
    "strategy-identical-n-huge": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "identical", "n": 10**8, "input": "e"}}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-identical-n-trivial-joint-dim": (
        "repeat",
        with_analysis(
            {"kind": "custom", "kraus": [[[[1, 0]], [[0, 1]]]], "labels": ["tr"]},
            {"analysis": "output", "member": "tr", "strategy": {"mode": "identical", "n": 200000, "input": "a"}},
            {"a": {"kind": "basis", "indices": [0, 0], "ref_dim": 1}},
        ),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-fresh-swap-n-huge": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=12, ref_dim=2)}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-fresh-swap-joint-dim-above-guard": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=13, ref_dim=1)}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    # the input fits the guard, its 3^8-dimensional joint output does not
    "strategy-parallel-joint-output-above-guard": (
        "repeat",
        with_analysis(
            {"kind": "measurement", "povms": [[mat_json(np.diag([0.5, 0.0])), mat_json(np.diag([0.5, 0.5])), mat_json(np.diag([0.0, 0.5]))]]},
            {"analysis": "output", "member": "meas0", "strategy": {"mode": "parallel", "n": 8, "input": "a"}},
            {"a": {"kind": "amplitudes", "values": [1.0] + [0.0] * 255, "dims": [2, 1] * 8}},
        ),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-rewire-n-above-steps": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=3 * 10**6, interleavers="identity-rewire")}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-rewire-n-above-guard": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=4097, interleavers="identity-rewire")}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-random-n-above-steps": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, n=3 * 10**6, interleavers="random-unitary")}, EB_INPUTS),
        ("--seed", "7"), 3, "analysis.strategy.n",
    ),
    "blocks-huge": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "blocks": [10**8, 1], "menus": [["a"], ["a"]]}, AB_INPUTS),
        (), 3, "analysis.blocks",
    ),
    "group-u-shape": (
        "validate",
        with_analysis(ONE_GP, {}, group=[[mat_json(np.eye(3)), mat_json(np.eye(2))]]),
        (), 2, "group[0][0]",
    ),
    "group-v-shape": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": [2], "target": "a"}, AB_INPUTS,
                      group=weyl_group_json() + [[mat_json(np.eye(2)), mat_json(np.eye(3))]]),
        (), 2, "group[4][1]",
    ),
    "input-bare-dim": (
        "compare",
        with_analysis(DAMP, {"inputs": ["e", "a"]}, {"a": {"kind": "amplitudes", "values": [1, 0, 0], "dims": [3]}, "e": {"kind": "phi_d"}}),
        (), 2, "inputs.a",
    ),
    "input-three-factors": (
        "sweep",
        with_analysis(DAMP, {"inputs": ["e", "a"]}, {"a": {"kind": "amplitudes", "values": [1, 0, 0, 0], "dims": [2, 2, 1]}, "e": {"kind": "phi_d"}}),
        (), 2, "inputs.a",
    ),
    "certify-target-dim": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": [2], "target": "a"},
                      {"a": {"kind": "amplitudes", "values": [1, 0, 0, 0], "dims": [1, 4]}}, group=weyl_group_json()),
        (), 2, "inputs.a",
    ),
    "ang-n-string": ("ang", ang_doc("sample", [1.0, 0.8, 0.6, 0.9], analysis={"n": "5"}), ("--seed", "7"), 2, "analysis.n"),
    "ang-n-huge": ("ang", ang_doc("sample", [1.0, 0.8, 0.6, 0.9], analysis={"n": 10**12}), ("--seed", "7"), 3, "analysis.n"),
    "ang-n-zero": ("ang", ang_doc("sample", [1.0, 0.8, 0.6, 0.9], analysis={"n": 0}), ("--seed", "7"), 3, "analysis.n"),
    "ang-parallel-n-huge": (
        "ang",
        ang_doc("parallel", [1.0, 0.8, 0.6, 0.9], x_prime=[1.0, 0.8, 0.6, 0.8], analysis={"n": 10**12}),
        ("--seed", "7"), 3, "analysis.n",
    ),
    "ang-parallel-no-closure": ("ang", ang_doc("parallel", [3.0, 1.0, 1.0], x_prime=[3.0, 1.0, 1.0]), (), 3, "x"),
    "ang-sample-degenerate": ("ang", ang_doc("sample", [5.0, 1.0, 1.0, 1.0]), ("--seed", "7"), 3, "x"),
    "ang-solve-negative": ("ang", ang_doc("solve", [1.0, -1.0, 1.0]), (), 3, "x"),
    "ang-parallel-short-x-prime": ("ang", ang_doc("parallel", [1.0, 0.9, 0.7], x_prime=[1.0, 0.9]), (), 3, "x_prime"),
    "ang-nonempty-two-lengths": ("ang", ang_doc("nonempty", [1.0, 1.0]), (), 3, "x"),
    "strategy-n-zero": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "identical", "n": 0, "input": "e"}}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-parallel-n-zero": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "parallel", "n": 0, "input": "e"}}, EB_INPUTS),
        (), 3, "analysis.strategy.n",
    ),
    "strategy-mode-unknown": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "junk", "n": 1, "input": "e"}}, EB_INPUTS),
        (), 2, "analysis.strategy.mode",
    ),
    "menus-fewer-than-blocks": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "blocks": [1, 1], "menus": [["a"]]}, AB_INPUTS),
        (), 3, "analysis.menus",
    ),
    "blocks-zero": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "blocks": [1, 0], "menus": [["a"], ["a"]]}, AB_INPUTS),
        (), 3, "analysis.blocks[1]",
    ),
    "prior-above-one": (
        "repeat",
        with_analysis(ROTATED, {"analysis": "adaptive", "prior": 1.5, "blocks": [1], "menus": [["a"]]}, AB_INPUTS),
        (), 3, "analysis.prior",
    ),
    "certify-p-not-probability": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [0.7, 0.7], "v": mat_json(np.eye(2))}),
        (), 3, "analysis.p",
    ),
    "certify-v-not-unitary": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [0.5, 0.5], "v": mat_json(2 * np.eye(2))}),
        (), 3, "analysis.v",
    ),
    "certify-blocks-sum": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": [3], "target": "a"}, AB_INPUTS, group=weyl_group_json()),
        (), 3, "analysis.blocks",
    ),
    "certify-blocks-several": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": [1, 1], "target": "a"}, AB_INPUTS, group=weyl_group_json()),
        (), 3, "analysis.blocks",
    ),
    "sequential-blocks-sum": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "sequential-certificate", "blocks": [3], "strategy": dict(OUTPUT_STRATEGY, interleavers="identity-rewire")},
                      EB_INPUTS, group=weyl_group_json()),
        (), 3, "analysis.blocks",
    ),
    "sequential-blocks-several": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "sequential-certificate", "blocks": [1, 1], "strategy": dict(OUTPUT_STRATEGY, interleavers="identity-rewire")},
                      EB_INPUTS, group=weyl_group_json()),
        (), 3, "analysis.blocks",
    ),
    # a missing top-level field is named by its bare key
    "family-missing": ("validate", {"inputs": {}}, (), 2, "family"),
    "certify-group-missing": (
        "certify", with_analysis(ONE_GP, {"protocol": "group-correction", "blocks": [2], "target": "a"}, AB_INPUTS), (), 2, "group",
    ),
    "ang-x-missing": ("ang", {"analysis": {"query": "nonempty"}}, (), 2, "x"),
    "ang-x-prime-missing": ("ang", ang_doc("parallel", [1.0, 0.9, 0.7]), (), 2, "x_prime"),
    "amplitudes-not-unit-norm": (
        "certify",
        with_analysis(ROTATED, {"protocol": "measurement", "input": "a"}, {"a": {"kind": "amplitudes", "values": [1, 1], "dims": [2]}}),
        (), 3, "inputs.a",
    ),
    "amplitudes-length": (
        "compare",
        with_analysis(DAMP, {"inputs": ["a", "e"]}, {"a": {"kind": "amplitudes", "values": [1, 0], "dims": [3]}, "e": {"kind": "phi_d"}}),
        (), 3, "inputs.a",
    ),
    # within the old 1e-9 sum slack, but phi_pv's norm would miss 1 by more than 1e-10
    "certify-p-sum-off-norm": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [0.5, 0.5 + 8e-10], "v": mat_json(np.eye(2))}),
        (), 3, "analysis.p",
    ),
    # V V^dag within 1e-9 of the identity, but its second column 4e-10 longer than a unit vector
    "certify-v-almost-unitary": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [0.0, 1.0], "v": [[1, 0], [0, 1 + 4e-10]]}),
        (), 3, "analysis.v",
    ),
    "certify-p-negative": (
        "certify",
        with_analysis(ONE_GP, {"protocol": "unital-qubit", "p": [-1e-13, 1.0], "v": mat_json(np.eye(2))}),
        (), 3, "analysis.p",
    ),
    "ang-seed-negative": ("ang", ang_doc("sample", [1.0, 0.8, 0.6, 0.9]), ("--seed", "-1"), 3, "flags.--seed"),
    "sweep-near-tp-family": (
        "sweep",
        with_analysis(NEAR_TP, {"points": 5}, {"a": {"kind": "amplitudes", "values": [SQRT_HALF, SQRT_HALF], "dims": [2]}}),
        (), 3, "family",
    ),
    # every command reads analysis and inputs, and both must be objects
    "validate-analysis-not-object": ("validate", with_analysis(DAMP, False), (), 2, "analysis"),
    "validate-inputs-not-object": ("validate", with_analysis(DAMP, {}, 0), (), 2, "inputs"),
    "ent-advantage-inputs-not-object": ("ent-advantage", with_analysis(DAMP, {}, 0), (), 2, "inputs"),
    "ang-analysis-not-object": ("ang", {"x": [1, 1, 1], "analysis": []}, (), 2, "analysis"),
    "ang-inputs-not-object": ("ang", ang_doc("nonempty", [1, 1, 1], inputs=0), (), 2, "inputs"),
    "random-interleavers-seed-negative": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, interleavers="random-unitary")}, EB_INPUTS),
        ("--seed", "-1"), 3, "flags.--seed",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_names_field(tmp_path, capsys, case):
    command, doc, flags, code, path = MALFORMED[case]
    assert run(tmp_path, doc, command, *flags) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"spec error at {path}:")
    else:
        assert err.startswith(f"validation error: {path}: ")


# a family, group or strategy that the analysis cannot take: the library's
# error names the field at fault. (command, document, field path)
MISMATCHED = {
    "group-not-unitary": (
        "validate", dict(family_doc(**ONE_GP), group=[[mat_json(2 * np.eye(2)), mat_json(np.eye(2))]]), "group",
    ),
    "group-not-covariant": (
        "certify",
        with_analysis(dict(DAMP, p=1.0), {"protocol": "group-correction", "blocks": [2], "target": "a"}, AB_INPUTS,
                      group=weyl_group_json()),
        "group",
    ),
    "sequential-group-not-covariant": (
        "repeat",
        with_analysis(dict(DAMP, p=1.0), {"analysis": "sequential-certificate", "blocks": [2],
                                          "strategy": dict(OUTPUT_STRATEGY, interleavers="identity-rewire")},
                      EB_INPUTS, group=weyl_group_json()),
        "group",
    ),
    "sequential-certificate-identical-strategy": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "sequential-certificate", "blocks": [2],
                               "strategy": {"mode": "identical", "n": 1, "input": "e"}},
                      EB_INPUTS, group=weyl_group_json()),
        "analysis.strategy.mode",
    ),
    "adaptive-three-members": (
        "repeat",
        with_analysis(
            {"kind": "measurement", "povms": [[mat_json(np.eye(2))]] * 3},
            {"analysis": "adaptive", "blocks": [1], "menus": [["a"]]}, AB_INPUTS,
        ),
        "family",
    ),
    "adaptive-menu-state-three-factors": (
        "repeat",
        with_analysis(
            ROTATED, {"analysis": "adaptive", "blocks": [1, 1], "menus": [["a"], ["t"]]},
            dict(AB_INPUTS, t={"kind": "amplitudes", "values": [1, 0, 0, 0, 0, 0, 0, 0], "dims": [2, 2, 2]}),
        ),
        "analysis.menus[1]",
    ),
    "output-identical-bare-input": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "identical", "n": 2, "input": "b"}},
                      EB_INPUTS),
        "analysis.strategy.input",
    ),
    "output-parallel-phi": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": {"mode": "parallel", "n": 2, "input": "e"}},
                      EB_INPUTS),
        "analysis.strategy.input",
    ),
    "output-sequential-bare-input": (
        "repeat",
        with_analysis(ONE_GP, {"analysis": "output", "member": "gp0", "strategy": dict(OUTPUT_STRATEGY, input="b", interleavers="identity-rewire")},
                      EB_INPUTS),
        "analysis.strategy.input",
    ),
    "adaptive-not-measurement": (
        "repeat", with_analysis(ONE_GP, {"analysis": "adaptive", "blocks": [1], "menus": [["a"]]}, AB_INPUTS), "family",
    ),
    "certify-measurement-not-measurement": (
        "certify", with_analysis(ONE_GP, {"protocol": "measurement", "input": "a"}, AB_INPUTS), "family",
    ),
    "certify-unital-not-unital": (
        "certify",
        with_analysis(dict(DAMP, p=1.0), {"protocol": "unital-qubit", "p": [0.5, 0.5], "v": mat_json(np.eye(2))}),
        "family",
    ),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_mismatch_names_field(tmp_path, capsys, case):
    command, doc, path = MISMATCHED[case]
    assert run(tmp_path, doc, command) == 3
    assert capsys.readouterr().err.startswith(f"validation error: {path}: ")


# (mode, n, input factor dims) that do not fit the mode's layout: one
# (channel x reference) pair for identical and sequential, n for parallel
BAD_LAYOUTS = {
    "identical-bare": ("identical", 2, [2]),
    "identical-wrong-channel": ("identical", 2, [3, 2]),
    "identical-two-pairs": ("identical", 2, [2, 2, 2, 2]),
    "parallel-bare": ("parallel", 2, [2]),
    "parallel-wrong-channel": ("parallel", 2, [3, 2, 2, 2]),
    "parallel-three-pairs": ("parallel", 2, [2, 2, 2, 2, 2, 2]),
    "parallel-mixed-channels": ("parallel", 2, [2, 2, 3, 2]),
    "sequential-bare": ("sequential", 2, [2]),
    "sequential-wrong-channel": ("sequential", 2, [3, 2]),
    "sequential-two-pairs": ("sequential", 2, [2, 2, 2, 2]),
}


@pytest.mark.parametrize("case", sorted(BAD_LAYOUTS))
def test_one_layout_rule_one_verdict(tmp_path, capsys, case):
    """The library and every repeat analysis reject a strategy input that
    does not fit its mode with the same error, named at the input."""
    mode, n, dims = BAD_LAYOUTS[case]
    values = np.eye(int(np.prod(dims)))[0]
    strategy = {"mode": mode, "n": n, "input": "x", "interleavers": "identity-rewire"}
    inputs = {"x": {"kind": "amplitudes", "values": values.tolist(), "dims": dims}}
    gp2 = dict(ONE_GP, xis=[[0.1, 0.2, 0.3], [0.25, 0.05, 0.15]])
    docs = [with_analysis(gp2, {"analysis": "output", "member": "gp0", "strategy": strategy}, inputs)]
    if mode == "sequential":
        docs.append(with_analysis(gp2, {"analysis": "sequential-certificate", "blocks": [2], "strategy": strategy},
                                  inputs, group=weyl_group_json()))
    errors = []
    for doc in docs:
        assert run(tmp_path, doc, "repeat") == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: analysis.strategy.input: ")
        errors.append(err.strip().split(": ", 2)[2])

    fam = make_family("gp", gp2)
    interleavers = repetition.identity_rewire_interleavers(2, 2, n) if mode == "sequential" else ()
    strat = Strategy(mode, n, PureState(values, SystemShape(tuple(dims))), interleavers)
    with pytest.raises(ValueError) as exc:
        repeated_output(fam.members[0][1], strat)
    errors.append(str(exc.value))
    with pytest.raises(ValueError) as exc:
        repetition.identical_matches_sequential(fam, [(u, u) for u in weyl_ops(2)], IrrepBlocks((2,)), strat)
    if mode == "sequential":
        errors.append(str(exc.value))
    assert len(set(errors)) == 1, errors


# every kind at its smallest dimension: d = 1, or 1x1 matrices where the
# kind takes matrices (damp and qubit-phase are qubit families), one label
# per member
SMALLEST = {
    "gp": {"kind": "gp", "d": 1, "thetas": [[1.0]], "labels": ["m0"]},
    "damp": dict(DAMP, labels=["m0", "m1"]),
    "diag": {"kind": "diag", "d": 1, "thetas": [[]], "labels": ["m0"]},
    "cdep": {"kind": "cdep", "d": 1, "thetas": [0.1], "labels": ["m0"]},
    "ou": {"kind": "ou", "unitaries": [[[1]]], "weights": [[1.0]], "labels": ["m0"]},
    "qubit-phase": {"kind": "qubit-phase", "thetas": [[0.1, 0.2]], "labels": ["m0"]},
    "measurement-plain": {"kind": "measurement", "povms": [[[[1]]]], "labels": ["m0"]},
    "measurement-rotated": {
        "kind": "measurement", "unitaries": [[[1]]], "m_plus": [[1]], "m_minus": [[1]], "labels": ["m0", "m1"],
    },
    "unitary": {"kind": "unitary", "unitaries": [[[1]]], "labels": ["m0"]},
    "custom": {"kind": "custom", "kraus": [[[[1]]]], "labels": ["m0"]},
}
# every command that takes a family, under each of its analyses
SMALLEST_ANALYSES = [
    ("validate", {}),
    ("compare", {"inputs": ["e", "b"]}),
    ("certify", {"protocol": "measurement", "input": "b"}),
    ("certify", {"protocol": "group-correction", "blocks": [1], "target": "b"}),
    ("certify", {"protocol": "unital-qubit", "p": [1.0, 0.0], "v": mat_json(np.eye(2))}),
    ("ent-advantage", {}),
    ("sweep", {}),
    ("repeat", {"analysis": "adaptive", "blocks": [1], "menus": [["b"]]}),
    ("repeat", {"analysis": "output", "member": "m0", "strategy": {"mode": "identical", "n": 2, "input": "e"}}),
    ("repeat", {"analysis": "sequential-certificate", "blocks": [1],
                "strategy": {"mode": "sequential", "n": 2, "input": "e", "interleavers": "identity-rewire"}}),
]


@pytest.mark.parametrize("kind", sorted(SMALLEST))
def test_every_kind_at_its_smallest_dimension_exits_cleanly(tmp_path, kind):
    # main raises on a bug, so a traceback fails here too
    for command, analysis in SMALLEST_ANALYSES:
        doc = with_analysis(SMALLEST[kind], analysis, EB_INPUTS, group=[[[[1]], [[1]]]])
        assert run(tmp_path, doc, command, "--seed", "7") in (0, 2, 3), (command, analysis)


@pytest.mark.parametrize("d", [1, 3, 4, 5, 64])
def test_count_guard_is_exact_in_entries(d):
    # n items of d x d entries pass up to DIM_GUARD^2 entries and not past
    # them, also where d does not divide the guard
    most = DIM_GUARD**2 // d**2
    _check_count("analysis.n", most, 1, d)
    with pytest.raises(ConstraintViolation, match="analysis.n"):
        _check_count("analysis.n", most + 1, 1, d)
    _check_count("analysis.points", 0, 0, d)


def test_a_bug_is_not_reported_as_a_validation_error(tmp_path, monkeypatch):
    # a ValueError raised outside _at names no field: it is a fault of the
    # program, not of the spec, and propagates rather than exiting 3
    def broken(*fields):
        raise ValueError("not a spec problem")

    monkeypatch.setitem(_COMMANDS, "validate", broken)
    with pytest.raises(ValueError, match="not a spec problem"):
        run(tmp_path, GP_DOC, "validate")


def test_certify_measurement_input_with_many_trivial_factors(tmp_path):
    # 14 tensor factors, 13 of them trivial, get the bare input's verdict
    reports = []
    for dims in ([2], [2] + [1] * 13):
        inputs = {"a": {"kind": "amplitudes", "values": [1, 0], "dims": dims}}
        doc = with_analysis(ROTATED, {"protocol": "measurement", "input": "a"}, inputs)
        assert run(tmp_path, doc, "certify") == 0
        reports.append(report(tmp_path, "certify-report.json"))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# fixed tolerances: nothing loosens a threshold from the command line


def test_tol_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--spec", "preset:damp-counterexample", "--out", str(tmp_path), "--tol", "0.3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_damp_counterexample_stays_incomparable(tmp_path):
    assert main(["compare", "--spec", "preset:damp-counterexample", "--out", str(tmp_path)]) == 0
    out = report(tmp_path, "compare-report.json")
    assert out["relation"] == "incomparable"
    assert abs(out["witness_s"] - 0.5) < 1e-9


# damping towards |0> (p = 1) breaks covariance under X; at p = 1/2 it would not
@pytest.mark.parametrize(
    "family,accepted", [(dict(DAMP, p=1.0), False), (ONE_GP, True)], ids=["damp", "gp"]
)
def test_validate_covariance_agrees_with_certify(tmp_path, family, accepted):
    """validate's covariance flags say whether certify's group correction
    accepts the group: both read the same check at the same tolerance."""
    doc = with_analysis(
        family, {"protocol": "group-correction", "blocks": [2], "target": "a"}, AB_INPUTS, group=weyl_group_json()
    )
    assert run(tmp_path, doc, "validate") == 0
    flags = report(tmp_path, "validate-report.json")
    assert (flags["covariant"] or flags["contravariant"]) is accepted
    assert run(tmp_path, doc, "certify") == (0 if accepted else 3)


# Each field gets either a value of roughly the right shape (so that some
# examples get past the type checks into the constructors) or arbitrary
# JSON. Integers stay small, so every dimension drawn is far under the
# DIM_GUARD bound and each example builds in milliseconds.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
_REAL = st.sampled_from([0, 1, 0.0, 0.1, 0.25, 0.5, 1.0, -0.5, 2.7])
_REALS = st.lists(_REAL, min_size=1, max_size=4)
_ENTRY = st.sampled_from([0, 1, -1, 0.5, [0, 1], [0.5, -0.5]])
_MATRIX = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=3)
)
_MATRICES = st.lists(_MATRIX, min_size=1, max_size=3)
_SHAPED = {
    "d": st.integers(0, 3) | _REAL,
    "p": _REAL,
    "xis": st.lists(_REALS, max_size=3) | _REALS,
    "thetas": st.lists(_REALS, max_size=3) | _REALS,
    "weights": st.lists(_REALS, max_size=3),
    "unitaries": _MATRICES,
    "m_plus": _MATRIX,
    "m_minus": _MATRIX,
    "povms": st.lists(_MATRICES, max_size=3),
    "kraus": st.lists(_MATRICES, max_size=3),
    "structure": st.sampled_from(["plain", "rotated", "ortho"]),
    "labels": st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
}
# the fields each kind reads; "junk" is an unknown kind
_KIND_FIELDS = {
    "gp": ("d", "xis", "thetas"),
    "damp": ("p", "xis"),
    "diag": ("d", "thetas"),
    "cdep": ("d", "thetas"),
    "ou": ("unitaries", "weights"),
    "qubit-phase": ("thetas",),
    "measurement": ("povms", "structure", "unitaries", "m_plus", "m_minus"),
    "unitary": ("unitaries",),
    "custom": ("kraus",),
    "junk": ("d",),
}


def _mostly(shaped, junk=_JSON):
    """shaped four times in five, junk otherwise."""
    return st.integers(0, 4).flatmap(lambda i: shaped if i else junk)


def _family(kind):
    fields = {k: _mostly(_SHAPED[k]) for k in _KIND_FIELDS[kind]}
    labels = {"labels": _mostly(_SHAPED["labels"])}
    return st.fixed_dictionaries({"kind": st.just(kind), **fields}, optional=labels) | (
        st.fixed_dictionaries({"kind": st.just(kind)}, optional={**fields, **labels})
    )


_FAMILY = _mostly(
    st.sampled_from(sorted(_KIND_FIELDS)).flatmap(_family),
    junk=_JSON | st.fixed_dictionaries({"kind": _JSON}),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(family=_FAMILY)
def test_any_family_node_exits_cleanly(family):
    with tempfile.TemporaryDirectory() as out:
        spec = Path(out) / "spec.json"
        spec.write_text(json.dumps({"family": family}))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["validate", "--spec", str(spec), "--out", out])
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("spec error at family")
    if code == 3:
        assert err.getvalue().startswith("validation error: family")


# Whole documents under every command: a family that mostly builds, named
# inputs, the analysis fields that command reads, a group and angle lengths,
# each well shaped 19 times in 20, so that most examples get past parsing
# into the analyses. Counts stay small, so every example runs in
# milliseconds.
def _seldom_junk(shaped, junk=_JSON):
    return st.integers(0, 19).flatmap(lambda i: shaped if i else junk)


_NAME = _seldom_junk(st.sampled_from(["a", "b", "e"]), junk=st.just("zz") | _JSON)
_STATE = _seldom_junk(
    st.sampled_from([
        {"kind": "phi_d"},
        {"kind": "basis", "indices": [0]},
        {"kind": "basis", "indices": [0, 1]},
        {"kind": "basis", "indices": [1, 0], "ref_dim": 1},
        {"kind": "basis", "indices": [0, 2], "ref_dim": 3},
        {"kind": "amplitudes", "values": [1, 0], "dims": [2]},
        {"kind": "amplitudes", "values": [SQRT_HALF, SQRT_HALF], "dims": [2]},
        {"kind": "amplitudes", "values": [0, 1, 0, 0], "dims": [2, 2]},
        {"kind": "amplitudes", "values": [1, 0, 0, 0, 0, 0, 0, 0], "dims": [2, 2, 2]},
    ]),
    junk=_JSON | st.sampled_from([
        {"kind": "basis", "indices": [2]},
        {"kind": "amplitudes", "values": [1, 0, 0, 0], "dims": [2, 1, 2]},
        {"kind": "amplitudes", "values": [1, 0, 0], "dims": [3]},
        {"kind": "amplitudes", "values": [1, 1], "dims": [2]},
        {"kind": "amplitudes", "values": [1, 0], "dims": [3]},
    ]),
)
_NAMES = st.lists(_NAME, min_size=1, max_size=3)
_SMALL = st.integers(-1, 4)
_UNITARY = st.sampled_from([mat_json(u) for u in weyl_ops(2)] + [mat_json(np.eye(3))])


def _object(**fields):
    """An object with every field present, each seldom junk."""
    return st.fixed_dictionaries({k: _seldom_junk(v) for k, v in fields.items()})


_ANALYSIS = {
    "validate": st.just({}),
    "compare": _object(inputs=st.lists(_NAME, min_size=2, max_size=2)),
    "certify": _object(
        protocol=st.sampled_from(["group-correction", "unital-qubit", "measurement", "junk"]),
        blocks=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        target=_NAME,
        input=_NAME,
        p=st.sampled_from([[0.7, 0.3], [0.5, 0.5], [1.0, 0.0], [0.6, 0.6]]),
        v=_UNITARY,
    ),
    "ent-advantage": st.just({}),
    "sweep": _object(inputs=_NAMES, points=_SMALL, s_max=_REAL, extra_s=_REALS),
    "ang": _object(query=st.sampled_from(["nonempty", "solve", "sample", "parallel", "junk"]), n=_SMALL),
    "repeat": _object(
        analysis=st.sampled_from(["adaptive", "sequential-certificate", "output", "junk"]),
        prior=_REAL,
        blocks=_seldom_junk(
            st.lists(st.integers(1, 2), min_size=1, max_size=2),
            junk=st.lists(st.integers(-1, 2), min_size=1, max_size=3),
        ),
        menus=st.lists(_NAMES, min_size=1, max_size=2),
        member=st.sampled_from(["gp0", "plus", "a", "zz"]),
        strategy=_object(
            mode=st.sampled_from(["identical", "parallel", "sequential", "junk"]),
            n=_SMALL,
            input=_NAME,
            interleavers=st.sampled_from(["identity-rewire", "fresh-swap", "random-unitary", "junk"]),
            ref_dim=_SMALL,
        ),
    ),
}


def _document(command):
    return _object(
        family=st.sampled_from([ONE_GP, GP_DOC["family"], DAMP, ROTATED, GP3, NEAR_TP]),
        inputs=st.fixed_dictionaries({"a": _STATE, "b": _STATE, "e": _STATE}),
        analysis=_ANALYSIS[command],
        group=st.sampled_from([
            weyl_group_json(),
            weyl_group_json(),
            [[mat_json(np.eye(2)), mat_json(np.eye(2))]],
            [[mat_json(np.eye(3)), mat_json(np.eye(2))]],
            [[mat_json(np.eye(2)), mat_json(np.eye(3))]],
            [[mat_json(np.eye(2))]],
        ]),
        x=_REALS,
        x_prime=_REALS,
    )


# a third of the examples take --seed -1, which main rejects before it
# reads the document, so 225 examples put about 150 documents through
@settings(max_examples=225, derandomize=True, deadline=None)
@given(
    case=st.sampled_from(sorted(_ANALYSIS)).flatmap(lambda c: st.tuples(st.just(c), _document(c))),
    seed=st.sampled_from([(), ("--seed", "7"), ("--seed", "-1")]),
)
def test_any_document_exits_cleanly(case, seed):
    command, doc = case
    with tempfile.TemporaryDirectory() as out:
        spec = Path(out) / "spec.json"
        spec.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([command, "--spec", str(spec), "--out", out, *seed])
    assert code in (0, 2, 3)
    if code == 2:
        # spec error at <path>: ..., the path rooted at a document key, flags or spec
        message = err.getvalue()
        assert message.startswith("spec error at "), message
        path = message.removeprefix("spec error at ").split(": ", 1)[0]
        assert re.split(r"[.\[]", path, maxsplit=1)[0] in {*doc, "flags", "spec"}, message
    if code == 3:
        # validation error: <path>: ..., the path rooted at a document key
        message = err.getvalue()
        assert message.startswith("validation error: "), message
        path = message.removeprefix("validation error: ").split(": ", 1)[0]
        assert re.split(r"[.\[]", path, maxsplit=1)[0] in {*doc, "flags"}, message
        assert " " not in path, message
