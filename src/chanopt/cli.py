"""Batch front end: spec documents in, JSON reports and CSV tables out.

One JSON document names a channel family, its inputs, and an analysis; the
command decides which report gets written. Reports are deterministic: keys
sorted, floats at 12 significant digits, and any sampling takes its seed
from a mandatory flag rather than the clock.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .channels import (
    ConstraintViolation,
    apply_extended,
    is_covariant,
    make_family,
    validate_cptp,
)
from .comparison import dominance_check, gap_curve
from .entanglement import (
    bloch_state,
    entanglement_breaking_gp,
    family_gp_params,
    fibonacci_sphere,
    meas_separable_check,
    separable_suffices,
)
from .geometry import (
    ang_nonempty,
    ang_parallel_property,
    ang_sample,
    ang_solve_triangle,
    closure_residual,
    samples_to_csv,
)
from .numerics import SystemShape, basis_vector, hermitian_eig, max_abs, max_entangled
from .optimal_inputs import (
    IrrepBlocks,
    PureState,
    group_correction_protocol,
    measurement_input_certify,
    phi_pv,
    unital_qubit_protocol,
)
from .presets import preset_document
from .repetition import (
    AdaptivePlan,
    Strategy,
    adaptive_vs_identical,
    fresh_swap_interleavers,
    identical_matches_sequential,
    identity_rewire_interleavers,
    random_unitary_interleavers,
    repeated_output,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class SpecError(Exception):
    """Structural problem in the spec document, located by field path."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


_MISSING = object()


def _get(node: dict, key: str, where: str, default=_MISSING):
    if key in node:
        return node[key]
    if default is _MISSING:
        raise SpecError(f"{where}.{key}", "missing required field")
    return default


def _complex_from(node, where: str) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    if (
        isinstance(node, (list, tuple))
        and len(node) == 2
        and all(isinstance(v, (int, float)) for v in node)
    ):
        return complex(node[0], node[1])
    raise SpecError(where, "expected a real number or an [re, im] pair")


def _vector_from(node, where: str) -> np.ndarray:
    if not isinstance(node, (list, tuple)) or not node:
        raise SpecError(where, "expected a nonempty list")
    return np.array([_complex_from(v, f"{where}[{i}]") for i, v in enumerate(node)])


def _matrix_from(node, where: str) -> np.ndarray:
    if not isinstance(node, (list, tuple)) or not node:
        raise SpecError(where, "expected a nonempty list of rows")
    rows = [_vector_from(r, f"{where}[{i}]") for i, r in enumerate(node)]
    if len({len(r) for r in rows}) != 1:
        raise SpecError(where, "rows have unequal lengths")
    return np.array(rows)


def _real_list(node, where: str) -> list[float]:
    if not isinstance(node, (list, tuple)):
        raise SpecError(where, "expected a list of numbers")
    out = []
    for i, v in enumerate(node):
        if not isinstance(v, (int, float)):
            raise SpecError(f"{where}[{i}]", "expected a real number")
        out.append(float(v))
    return out


def parse_family(node):
    where = "family"
    if not isinstance(node, dict):
        raise SpecError(where, "expected an object")
    kind = _get(node, "kind", where)
    params: dict = {}
    if "labels" in node:
        labels = node["labels"]
        if not isinstance(labels, list):
            raise SpecError(f"{where}.labels", "expected a list of strings")
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise SpecError(f"{where}.labels[{i}]", "expected a string")
        params["labels"] = list(labels)

    if kind == "gp":
        params["d"] = int(_get(node, "d", where))
        if "xis" in node:
            params["xis"] = [
                _real_list(x, f"{where}.xis[{i}]") for i, x in enumerate(node["xis"])
            ]
        else:
            params["thetas"] = [
                _real_list(t, f"{where}.thetas[{i}]")
                for i, t in enumerate(_get(node, "thetas", where))
            ]
    elif kind == "damp":
        params["p"] = float(_get(node, "p", where))
        params["xis"] = _real_list(_get(node, "xis", where), f"{where}.xis")
    elif kind == "diag":
        params["d"] = int(_get(node, "d", where))
        params["thetas"] = [
            _vector_from(t, f"{where}.thetas[{i}]")
            for i, t in enumerate(_get(node, "thetas", where))
        ]
    elif kind == "cdep":
        params["d"] = int(_get(node, "d", where))
        params["thetas"] = _real_list(_get(node, "thetas", where), f"{where}.thetas")
    elif kind == "ou":
        params["unitaries"] = [
            _matrix_from(u, f"{where}.unitaries[{i}]")
            for i, u in enumerate(_get(node, "unitaries", where))
        ]
        params["weights"] = [
            _real_list(w, f"{where}.weights[{i}]")
            for i, w in enumerate(_get(node, "weights", where))
        ]
    elif kind == "qubit-phase":
        params["thetas"] = [
            _real_list(t, f"{where}.thetas[{i}]")
            for i, t in enumerate(_get(node, "thetas", where))
        ]
    elif kind == "measurement":
        if "unitaries" in node:
            params["unitaries"] = [
                _matrix_from(u, f"{where}.unitaries[{i}]")
                for i, u in enumerate(node["unitaries"])
            ]
            params["m_plus"] = _matrix_from(_get(node, "m_plus", where), f"{where}.m_plus")
            params["m_minus"] = _matrix_from(
                _get(node, "m_minus", where), f"{where}.m_minus"
            )
        else:
            params["povms"] = [
                [
                    _matrix_from(m, f"{where}.povms[{i}][{j}]")
                    for j, m in enumerate(povm)
                ]
                for i, povm in enumerate(_get(node, "povms", where))
            ]
            if "structure" in node:
                params["structure"] = str(node["structure"])
    elif kind == "unitary":
        params["unitaries"] = [
            _matrix_from(u, f"{where}.unitaries[{i}]")
            for i, u in enumerate(_get(node, "unitaries", where))
        ]
    elif kind == "custom":
        params["kraus"] = [
            [_matrix_from(k, f"{where}.kraus[{i}][{j}]") for j, k in enumerate(ops)]
            for i, ops in enumerate(_get(node, "kraus", where))
        ]
    else:
        raise SpecError(f"{where}.kind", f"unknown kind {kind!r}")
    return make_family(kind, params)


def _index(node, dim: int, where: str) -> int:
    ok = isinstance(node, (int, float)) and not isinstance(node, bool) and 0 <= node < dim
    if not ok or node != int(node):
        raise SpecError(where, f"expected an integer in [0, {dim})")
    return int(node)


def parse_state(node, fam, where: str) -> PureState:
    if not isinstance(node, dict):
        raise SpecError(where, "expected an object")
    kind = _get(node, "kind", where)
    d = fam.din
    if kind == "phi_d":
        return PureState(max_entangled(d), SystemShape((d, d)))
    if kind == "basis":
        idx = _get(node, "indices", where)
        if not isinstance(idx, (list, tuple)) or not 1 <= len(idx) <= 2:
            raise SpecError(f"{where}.indices", "expected one or two indices")
        dims = (d,) if len(idx) == 1 else (d, int(node.get("ref_dim", d)))
        vec = np.ones(1)
        for i, dim in enumerate(dims):
            k = _index(idx[i], dim, f"{where}.indices[{i}]")
            vec = np.kron(vec, basis_vector(dim, k))
        return PureState(vec, SystemShape(dims))
    if kind == "amplitudes":
        values = _vector_from(_get(node, "values", where), f"{where}.values")
        dims = tuple(int(x) for x in _get(node, "dims", where))
        return PureState(values, SystemShape(dims))
    raise SpecError(f"{where}.kind", f"unknown state kind {kind!r}")


def _named_states(doc, fam) -> dict[str, PureState]:
    nodes = doc.get("inputs") or {}
    if not isinstance(nodes, dict):
        raise SpecError("inputs", "expected an object mapping names to states")
    out = {}
    for name, node in nodes.items():
        out[name] = parse_state(node, fam, f"inputs.{name}")
    return out


def _state_outputs(fam, st: PureState) -> list[np.ndarray]:
    dims = st.shape.factor_dims
    rho = st.density()
    if len(dims) == 1:
        if dims[0] != fam.din:
            raise SpecError("inputs", "bare input does not match the family input")
        return [ch.apply(rho) for _, ch in fam.members]
    if len(dims) == 2 and dims[0] == fam.din:
        return [apply_extended(ch, rho, st.shape) for _, ch in fam.members]
    raise SpecError("inputs", "input must be bare or (channel x reference)")


def _parse_group(node, where: str):
    if not isinstance(node, (list, tuple)) or not node:
        raise SpecError(where, "expected a nonempty list of [U, V] pairs")
    group = []
    for i, pair in enumerate(node):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SpecError(f"{where}[{i}]", "expected an [U, V] pair")
        group.append(
            (
                _matrix_from(pair[0], f"{where}[{i}][0]"),
                _matrix_from(pair[1], f"{where}[{i}][1]"),
            )
        )
    return group


# ---------------------------------------------------------------------------
# Deterministic report emission


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig12(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_sig12(obj.real), _sig12(obj.imag)]
    return obj


def _emit(out_dir: Path, name: str, payload: dict) -> str:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    sys.stdout.write(text)
    return text


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


# ---------------------------------------------------------------------------
# Commands


def _cmd_validate(doc, fam, args, out_dir):
    members = {}
    for label, ch in fam.members:
        rep = validate_cptp(ch, args.tol)
        members[label] = {
            "trace_preserving": rep.trace_preserving,
            "cp": rep.cp,
            "min_choi_eig": rep.min_choi_eig,
        }
    payload = {
        "command": "validate",
        "kind": fam.kind,
        "din": fam.din,
        "dout": fam.dout,
        "members": members,
    }
    if "group" in doc:
        group = _parse_group(doc["group"], "group")
        payload["covariant"] = is_covariant(fam, group, args.tol * 10)
        payload["contravariant"] = is_covariant(
            fam, group, args.tol * 10, contravariant=True
        )
    _emit(out_dir, "validate-report.json", payload)
    return EXIT_OK


def _analysis(doc) -> dict:
    node = doc.get("analysis") or {}
    if not isinstance(node, dict):
        raise SpecError("analysis", "expected an object")
    return node


def _cmd_compare(doc, fam, args, out_dir):
    ana = _analysis(doc)
    names = _get(ana, "inputs", "analysis")
    if len(names) != 2:
        raise SpecError("analysis.inputs", "compare needs exactly two input names")
    states = _named_states(doc, fam)
    for n in names:
        if n not in states:
            raise SpecError("analysis.inputs", f"unknown input {n!r}")
    grid = None
    if args.grid:
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, args.grid)])
    verdict = dominance_check(
        _state_outputs(fam, states[names[0]]),
        _state_outputs(fam, states[names[1]]),
        grid=grid,
        tol=args.tol,
    )
    payload = {
        "command": "compare",
        "candidate": names[0],
        "challenger": names[1],
        "relation": verdict.relation,
        "witness_s": verdict.witness_s,
        "gap": verdict.gap,
        "method": verdict.method,
    }
    _emit(out_dir, "compare-report.json", payload)
    return EXIT_OK


def _cmd_certify(doc, fam, args, out_dir):
    ana = _analysis(doc)
    protocol = _get(ana, "protocol", "analysis")
    states = _named_states(doc, fam)

    if protocol == "group-correction":
        group = _parse_group(_get(doc, "group", "document"), "group")
        blocks = IrrepBlocks(tuple(_get(ana, "blocks", "analysis")))
        target_name = _get(ana, "target", "analysis")
        if target_name not in states:
            raise SpecError("analysis.target", f"unknown input {target_name!r}")
        target = states[target_name].density()
        simulated = group_correction_protocol(fam, group, blocks, target)
        direct = dict(zip(fam.labels(), _state_outputs(fam, states[target_name])))
        residuals = {lab: max_abs(simulated[lab] - direct[lab]) for lab in simulated}
        worst = max(residuals.values())
        payload = {
            "command": "certify",
            "protocol": protocol,
            "residuals": residuals,
            "max_residual": worst,
            "pass": bool(worst <= args.tol * 10),
        }
    elif protocol == "unital-qubit":
        p = _real_list(_get(ana, "p", "analysis"), "analysis.p")
        v = _matrix_from(_get(ana, "v", "analysis"), "analysis.v")
        outputs = unital_qubit_protocol(fam, p, v)
        target = phi_pv(p, v)
        direct = dict(zip(fam.labels(), _state_outputs(fam, target)))
        residuals = {lab: max_abs(outputs[lab] - direct[lab]) for lab in outputs}
        worst = max(residuals.values())
        payload = {
            "command": "certify",
            "protocol": protocol,
            "residuals": residuals,
            "max_residual": worst,
            "pass": bool(worst <= args.tol * 10),
        }
    elif protocol == "measurement":
        name = _get(ana, "input", "analysis")
        if name not in states:
            raise SpecError("analysis.input", f"unknown input {name!r}")
        verdict = measurement_input_certify(fam, states[name], tol=args.tol * 10)
        payload = {
            "command": "certify",
            "protocol": protocol,
            "input": name,
            "relation": verdict.relation,
            "witness_s": verdict.witness_s,
            "gap": verdict.gap,
            "method": verdict.method,
        }
    else:
        raise SpecError("analysis.protocol", f"unknown protocol {protocol!r}")
    _emit(out_dir, "certify-report.json", payload)
    return EXIT_OK


def _cmd_ent_advantage(doc, fam, args, out_dir):
    ana = _analysis(doc)
    if fam.kind == "measurement":
        n_points = int(ana.get("bloch_points", 200))
        if fam.din != 2:
            raise SpecError(
                "analysis", "measurement scan is implemented for qubit inputs"
            )
        match_at = None
        for r in fibonacci_sphere(n_points):
            res = meas_separable_check(fam, bloch_state(r))
            if res.matches_phi:
                match_at = [float(v) for v in r]
                break
        payload = {
            "command": "ent-advantage",
            "kind": "measurement",
            "any_separable_match": match_at is not None,
            "match_bloch": match_at,
            "checked_points": n_points,
        }
        _emit(out_dir, "ent-advantage-report.json", payload)
        return EXIT_OK

    verdict = separable_suffices(fam)
    gp_params = family_gp_params(fam)
    eb = {
        lab: entanglement_breaking_gp(xi)
        for lab, xi in zip(fam.labels(), gp_params)
    }
    payload = {
        "command": "ent-advantage",
        "kind": fam.kind,
        "suffices": verdict.suffices,
        "condition": verdict.condition,
        "axis": verdict.axis_name,
        "entanglement_breaking": eb,
    }
    if verdict.witness is not None:
        payload["witness"] = {
            "pair": list(verdict.witness.pair),
            "s": verdict.witness.s,
            "gap": verdict.witness.gap,
        }
    _emit(out_dir, "ent-advantage-report.json", payload)
    return EXIT_OK


def _cmd_sweep(doc, fam, args, out_dir):
    ana = _analysis(doc)
    states = _named_states(doc, fam)
    names = ana.get("inputs") or list(states)
    if not names:
        raise SpecError("analysis.inputs", "sweep needs at least one input")
    points = int(ana.get("points", 200))
    s_max = float(ana.get("s_max", 3.0))
    extra = _real_list(ana.get("extra_s", []), "analysis.extra_s")
    grid = np.unique(np.concatenate([np.linspace(0.0, s_max, points), extra]))

    labels = fam.labels()
    lines = ["input,member_plus,member_minus,s,norm,is_breakpoint"]
    for name in names:
        if name not in states:
            raise SpecError("analysis.inputs", f"unknown input {name!r}")
        outs = dict(zip(labels, _state_outputs(fam, states[name])))
        for la, lb in combinations(labels, 2):
            table = gap_curve(outs[la], outs[lb], grid=grid).to_csv().splitlines()[1:]
            lines += [f"{name},{la},{lb},{row}" for row in table]
    _write(out_dir, "sweep-curves.csv", "\n".join(lines) + "\n")
    payload = {
        "command": "sweep",
        "inputs": list(names),
        "pairs": [list(p) for p in combinations(labels, 2)],
        "rows": len(lines) - 1,
        "csv": "sweep-curves.csv",
    }
    _emit(out_dir, "sweep-report.json", payload)
    return EXIT_OK


def _cmd_ang(doc, args, out_dir):
    ana = _analysis(doc)
    query = _get(ana, "query", "analysis")
    x = _real_list(_get(doc, "x", "document"), "x")
    payload: dict = {"command": "ang", "query": query, "x": x}
    if query == "nonempty":
        payload["nonempty"] = ang_nonempty(x)
    elif query == "solve":
        sols = ang_solve_triangle(x)
        payload["solutions"] = [
            [[w.real, w.imag] for w in s.omegas]
            for s in sorted(sols, key=lambda s: tuple((w.real, w.imag) for w in s.omegas))
        ]
        payload["residuals"] = [
            closure_residual(x, s)
            for s in sorted(sols, key=lambda s: tuple((w.real, w.imag) for w in s.omegas))
        ]
    elif query == "sample":
        if args.seed is None:
            raise SpecError("flags", "--seed is required for sampling queries")
        n = int(ana.get("n", 50))
        samples = ang_sample(x, n, args.seed)
        _write(out_dir, "ang-samples.csv", samples_to_csv(x, samples))
        payload["n"] = n
        payload["max_residual"] = max(closure_residual(x, s) for s in samples)
        payload["csv"] = "ang-samples.csv"
    elif query == "parallel":
        xp = _real_list(_get(doc, "x_prime", "document"), "x_prime")
        n = int(ana.get("n", 50))
        if len(x) >= 4 and args.seed is None:
            raise SpecError("flags", "--seed is required for sampling queries")
        shadow = ang_parallel_property(x, xp, n=n, tol=args.tol * 1e3, seed=args.seed)
        payload["x_prime"] = xp
        payload["subset_holds"] = shadow.subset_holds
        if shadow.violating_sample is not None:
            payload["violating_sample"] = [
                [w.real, w.imag] for w in shadow.violating_sample.omegas
            ]
    else:
        raise SpecError("analysis.query", f"unknown query {query!r}")
    _emit(out_dir, "ang-report.json", payload)
    return EXIT_OK


def _parse_strategy(node, fam, states, where: str, args) -> Strategy:
    if not isinstance(node, dict):
        raise SpecError(where, "expected an object")
    mode = _get(node, "mode", where)
    n = int(_get(node, "n", where))
    input_name = _get(node, "input", where)
    if input_name not in states:
        raise SpecError(f"{where}.input", f"unknown input {input_name!r}")
    st = states[input_name]
    interleavers = ()
    if mode == "sequential" and n > 1:
        spec = _get(node, "interleavers", where)
        dims = st.shape.factor_dims
        if len(dims) != 2:
            raise SpecError(f"{where}.input", "sequential input needs two factors")
        dr = dims[1]
        if spec == "identity-rewire":
            interleavers = identity_rewire_interleavers(fam.din, dr, n)
        elif spec == "fresh-swap":
            d_ref = int(_get(node, "ref_dim", where))
            interleavers = fresh_swap_interleavers(fam.din, d_ref, n)
        elif spec == "random-unitary":
            if args.seed is None:
                raise SpecError("flags", "--seed is required for random interleavers")
            interleavers = random_unitary_interleavers(fam.din, dr, n, args.seed)
        else:
            raise SpecError(f"{where}.interleavers", f"unknown preset {spec!r}")
    return Strategy(mode=mode, n=n, input=st, interleavers=tuple(interleavers))


def _cmd_repeat(doc, fam, args, out_dir):
    ana = _analysis(doc)
    analysis = _get(ana, "analysis", "analysis")
    states = _named_states(doc, fam)

    if analysis == "adaptive":
        prior = float(ana.get("prior", 0.5))
        blocks = [int(b) for b in _get(ana, "blocks", "analysis")]
        menu_names = _get(ana, "menus", "analysis")
        menus = []
        for i, menu in enumerate(menu_names):
            entry = []
            for name in menu:
                if name not in states:
                    raise SpecError(f"analysis.menus[{i}]", f"unknown input {name!r}")
                entry.append(states[name])
            menus.append(tuple(entry))
        plan = AdaptivePlan(tuple(blocks), tuple(menus))
        risks = adaptive_vs_identical(fam, prior, plan)
        payload = {
            "command": "repeat",
            "analysis": analysis,
            "adaptive_risk": risks["adaptive_risk"],
            "identical_risk": risks["identical_risk"],
            "improvement": risks["identical_risk"] - risks["adaptive_risk"],
        }
    elif analysis == "sequential-certificate":
        group = _parse_group(_get(doc, "group", "document"), "group")
        blocks = IrrepBlocks(tuple(_get(ana, "blocks", "analysis")))
        strat = _parse_strategy(
            _get(ana, "strategy", "analysis"), fam, states, "analysis.strategy", args
        )
        residuals = identical_matches_sequential(fam, group, blocks, strat)
        worst = max(residuals.values())
        payload = {
            "command": "repeat",
            "analysis": analysis,
            "residuals": residuals,
            "max_residual": worst,
            "pass": bool(worst <= args.tol * 10),
        }
    elif analysis == "output":
        member = _get(ana, "member", "analysis")
        labels = fam.labels()
        if member not in labels:
            raise SpecError("analysis.member", f"unknown member {member!r}")
        strat = _parse_strategy(
            _get(ana, "strategy", "analysis"), fam, states, "analysis.strategy", args
        )
        ch = dict(fam.members)[member]
        rho = repeated_output(ch, strat)
        lam, _ = hermitian_eig(rho)
        payload = {
            "command": "repeat",
            "analysis": analysis,
            "member": member,
            "dim": int(rho.shape[0]),
            "trace": float(np.trace(rho).real),
            "min_eig": float(lam.min()),
            "max_eig": float(lam.max()),
        }
    else:
        raise SpecError("analysis.analysis", f"unknown analysis {analysis!r}")
    _emit(out_dir, "repeat-report.json", payload)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _load_document(spec: str) -> dict:
    if spec.startswith("preset:"):
        try:
            return preset_document(spec.split(":", 1)[1])
        except KeyError as exc:
            raise SpecError("spec", str(exc)) from exc
    path = Path(spec)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError("spec", f"cannot read {spec}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("spec", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec", "top level must be an object")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chanopt",
        description="Channel-family comparison and optimal-input analyses.",
    )
    parser.add_argument(
        "command",
        choices=[
            "validate",
            "compare",
            "certify",
            "ent-advantage",
            "sweep",
            "ang",
            "repeat",
        ],
    )
    parser.add_argument("--spec", required=True, help="spec JSON path or preset:<name>")
    parser.add_argument("--out", default=".", help="report directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        doc = _load_document(args.spec)
        if args.command == "ang":
            return _cmd_ang(doc, args, out_dir)
        fam = parse_family(_get(doc, "family", "document"))
        handler = {
            "validate": _cmd_validate,
            "compare": _cmd_compare,
            "certify": _cmd_certify,
            "ent-advantage": _cmd_ent_advantage,
            "sweep": _cmd_sweep,
            "repeat": _cmd_repeat,
        }[args.command]
        return handler(doc, fam, args, out_dir)
    except SpecError as exc:
        print(f"spec error at {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConstraintViolation, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
