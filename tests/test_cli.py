import json

import numpy as np
import pytest

from chanopt.channels import weyl_ops
from chanopt.cli import main

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


def test_certify_unknown_protocol(tmp_path):
    doc = dict(GP_DOC, analysis={"protocol": "nope"})
    assert run(tmp_path, doc, "certify") == 2


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


@pytest.mark.parametrize("name", ["eb-needs-ent-povm", "eb-needs-ent-weyl"])
def test_ent_advantage_measurement_presets(tmp_path, name):
    assert main(
        ["ent-advantage", "--spec", f"preset:{name}", "--out", str(tmp_path)]
    ) == 0
    out = report(tmp_path, "ent-advantage-report.json")
    assert out["any_separable_match"] is False
    assert out["checked_points"] == 200


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


def test_ang_parallel_needs_seed_when_sampling(tmp_path, capsys):
    doc = ang_doc("parallel", [1.0, 0.8, 0.6, 0.9], x_prime=[2.0, 1.6, 1.2, 1.8])
    assert run(tmp_path, doc, "ang") == 2
    assert "--seed" in capsys.readouterr().err
    # three lengths use the exact triangle solutions and draw nothing
    doc = ang_doc("parallel", [1.0, 0.9, 0.7], x_prime=[2.0, 1.8, 1.4])
    assert run(tmp_path, doc, "ang") == 0


def test_ang_unknown_query(tmp_path):
    assert run(tmp_path, ang_doc("nope", [1.0, 1.0, 1.0]), "ang") == 2


# ---------------------------------------------------------------------------
# repeat


def rotated_family_json():
    return {
        "kind": "measurement",
        "m_plus": mat_json(np.diag([0.7, 0.3])),
        "m_minus": mat_json(np.diag([0.3, 0.7])),
        "unitaries": [mat_json(u) for u in weyl_ops(2)],
    }


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


def test_repeat_unknown_analysis(tmp_path):
    doc = dict(GP_DOC, analysis={"analysis": "nope"})
    assert run(tmp_path, doc, "repeat") == 2


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
