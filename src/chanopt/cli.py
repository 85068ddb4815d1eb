"""Batch front end: spec documents in, JSON reports and CSV tables out.

One JSON document names a channel family, its inputs, and an analysis; the
command decides which report gets written. Each command maps the document
to a report payload and its CSV tables, and main writes them; this module
is the only one that turns results into report text. Reports are
deterministic: keys sorted, floats at 12 significant digits, and any
sampling takes its seed from a mandatory flag rather than the clock.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

# these five are called through their module objects, which the package
# runs on first use, so that each command runs only the modules it calls
from . import comparison, entanglement, geometry, optimal_inputs, repetition
from .channels import (
    ConstraintViolation,
    SpecError,
    _at,
    _check_dims,
    _Fields,
    _int_from,
    _items,
    _list_of,
    _matrix_from,
    _one_of,
    _real_from,
    _real_list,
    _real_pair,
    _square,
    _str_from,
    _vector_from,
    apply_extended,
    covariance,
    make_family,
    use_layout,
    validate_cptp,
)
from .numerics import (
    DIM_GUARD,
    PureState,
    SystemShape,
    basis_vector,
    exceeds_dim_guard,
    max_abs,
    max_entangled,
    sorted_unique,
)
from .presets import preset_document

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3

# Largest residual a simulation certificate may carry and still pass.
CERTIFICATE_TOL = 1e-8


def parse_family(node):
    return make_family(_Fields(node, "family")("kind"), node)


def _index(node, dim: int, where: str) -> int:
    k = _int_from(node, where)
    if not 0 <= k < dim:
        raise SpecError(where, f"expected an integer in [0, {dim})")
    return k


def parse_state(node, fam, where: str) -> PureState:
    f = _Fields(node, where)
    kind = f("kind", _one_of(("phi_d", "basis", "amplitudes")))
    d = fam.din
    if kind == "phi_d":
        return PureState(max_entangled(d), SystemShape((d, d)))
    if kind == "basis":
        idx = f("indices")
        if not isinstance(idx, (list, tuple)) or not 1 <= len(idx) <= 2:
            raise SpecError(f"{where}.indices", "expected one or two indices")
        dims = (d,) if len(idx) == 1 else (d, f("ref_dim", _int_from, d))
        _check_dims(f"{where}.ref_dim", *dims)
        vec = np.ones(1)
        for i, dim in enumerate(dims):
            k = _index(idx[i], dim, f"{where}.indices[{i}]")
            vec = np.kron(vec, basis_vector(dim, k))
        return PureState(vec, SystemShape(dims))
    values = f("values", _vector_from)
    dims = f("dims", _list_of(_int_from))
    _check_dims(f"{where}.dims", *dims)
    with _at(where):
        return PureState(values, SystemShape(tuple(dims)))


def _named_states(inputs: _Fields, fam) -> dict[str, PureState]:
    return {name: parse_state(node, fam, f"inputs.{name}") for name, node in inputs.node.items()}


def _named(states: dict, name: str, where: str):
    """states[name]; an unknown name is a spec error at where."""
    if name not in states:
        raise SpecError(where, f"unknown input {name!r}")
    return states[name]


def _state_outputs(fam, st: PureState, where: str) -> list[np.ndarray]:
    with _at(where):
        use_layout(st.shape, fam.din)
    rho = st.density()
    return [apply_extended(ch, rho, st.shape) for _, ch in fam.members]


def _check_count(where: str, n: int, low: int, d: int) -> None:
    """Reject a grid or sample count below low, or one whose n items of
    d x d entries would outgrow a state at the joint-dimension guard
    (n d^2 > DIM_GUARD^2), before anything of that size is allocated."""
    # n d^2 entries fill a square of side ceil(d sqrt(n)), a joint dimension
    side = math.isqrt(n * d * d - 1) + 1 if n > 0 else 0
    if n < low or exceeds_dim_guard([side]):
        raise ConstraintViolation(
            f"{where}: {n} is outside [{low}, {DIM_GUARD}^2 / {d}^2]"
        )


def _group(doc, fam):
    """The document's [U, V] pairs, U on the family input and V on its output."""

    def read_pair(node, where: str) -> tuple:
        pair = _items(node, where)
        if len(pair) != 2:
            raise SpecError(where, "expected an [U, V] pair")
        return _square(fam.din)(pair[0], f"{where}[0]"), _square(fam.dout)(pair[1], f"{where}[1]")

    return doc("group", _list_of(read_pair))


def _seed(args, use: str) -> int:
    if args.seed is None:
        raise SpecError("flags", f"--seed is required for {use}")
    return args.seed


def _single_block(ana: _Fields, fam) -> optimal_inputs.IrrepBlocks:
    """analysis.blocks, which the measure-and-correct protocol needs to be
    one invariant block spanning the family input."""
    with _at("analysis.blocks"):
        blocks = optimal_inputs.IrrepBlocks(tuple(ana("blocks", _list_of(_int_from))))
        blocks.check_single(fam.din)
    return blocks


def _certificate(residuals: dict) -> dict:
    worst = max(residuals.values())
    return {"residuals": residuals, "max_residual": worst, "pass": bool(worst <= CERTIFICATE_TOL)}


def _verdict(v) -> dict:
    return {"relation": v.relation, "witness_s": v.witness_s, "gap": v.gap, "method": v.method}


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


def _sweep_csv(curves) -> str:
    """sweep-curves.csv from (input, member_plus, member_minus, SweepCurve)
    rows; is_breakpoint is 1 where s is a breakpoint to 15 places."""
    lines = ["input,member_plus,member_minus,s,norm,is_breakpoint"]
    for name, la, lb, curve in curves:
        bp = set(np.round(curve.breakpoints, 15))
        for s, nv in zip(curve.s_values.tolist(), curve.norms.tolist()):
            flag = 1 if round(s, 15) in bp else 0
            lines.append(f"{name},{la},{lb},{s!r},{nv!r},{flag}")
    return "\n".join(lines) + "\n"


def _samples_csv(samples: np.ndarray, residuals: np.ndarray) -> str:
    """ang-samples.csv from an (n, d-1) array of closures and their residuals."""
    omegas = "".join(f",re_omega{i},im_omega{i}" for i in range(1, samples.shape[1] + 1))
    lines = [f"index{omegas},residual"]
    # a complex row viewed as floats is re w1, im w1, re w2, ...
    for idx, (cells, res) in enumerate(zip(samples.view(float).tolist(), residuals.tolist())):
        lines.append(",".join([str(idx), *map(repr, cells), repr(res)]))
    return "\n".join(lines) + "\n"


def _emit(out_dir: Path, command: str, payload: dict, tables: dict[str, str]) -> None:
    """Write the command's CSV tables and <command>-report.json under
    out_dir, and echo the report to stdout."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (out_dir / name).write_text(text)
    text = json.dumps(_jsonable({"command": command, **payload}), sort_keys=True, indent=2) + "\n"
    (out_dir / f"{command}-report.json").write_text(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands: (document, analysis, inputs, family, args) -> (report payload,
# CSV tables by name)


def _cmd_validate(doc, ana, inputs, fam, args):
    members = {}
    for label, ch in fam.members:
        rep = validate_cptp(ch)
        members[label] = {
            "trace_preserving": rep.trace_preserving,
            "cp": rep.cp,
            "min_choi_eig": rep.min_choi_eig,
        }
    payload = {"kind": fam.kind, "din": fam.din, "dout": fam.dout, "members": members}
    if "group" in doc:
        group = _group(doc, fam)
        with _at("group"):
            payload["covariant"], payload["contravariant"] = covariance(fam, group)
    return payload, {}


def _cmd_compare(doc, ana, inputs, fam, args):
    names = ana("inputs", _list_of(_str_from))
    if len(names) != 2:
        raise SpecError("analysis.inputs", "compare needs exactly two input names")
    states = _named_states(inputs, fam)
    pair = [_named(states, n, "analysis.inputs") for n in names]
    outputs = [_state_outputs(fam, st, f"inputs.{n}") for n, st in zip(names, pair)]
    grid = None
    if args.grid is not None:
        _check_count("flags.--grid", args.grid, 1, max(out[0].shape[0] for out in outputs))
        grid = comparison.default_grid(args.grid)
    # the inputs and the grid are checked: only the family can be rejected
    with _at("family"):
        verdict = comparison.dominance_check(*outputs, grid=grid)
    return {"candidate": names[0], "challenger": names[1], **_verdict(verdict)}, {}


def _cmd_certify(doc, ana, inputs, fam, args):
    protocol = ana("protocol", _one_of(("measurement", "group-correction", "unital-qubit")))
    states = _named_states(inputs, fam)

    if protocol == "measurement":
        name = ana("input", _str_from)
        psi = _named(states, name, "analysis.input")
        with _at(f"inputs.{name}"):
            use_layout(psi.shape, fam.din)
        # the input fits the family: only the family can be rejected
        with _at("family"):
            verdict = optimal_inputs.measurement_input_certify(fam, psi)
        return {"protocol": protocol, "input": name, **_verdict(verdict)}, {}
    if protocol == "group-correction":
        group = _group(doc, fam)
        blocks = _single_block(ana, fam)
        target_name = ana("target", _str_from)
        target = _named(states, target_name, "analysis.target")
        direct = _state_outputs(fam, target, f"inputs.{target_name}")
        # blocks and target are checked: only the group can be rejected
        with _at("group"):
            sims = optimal_inputs.group_correction_simulator(fam, group, blocks)
        simulated = {label: sim(target.density()) for label, sim in sims.items()}
    else:
        with _at("analysis.p"):
            p = optimal_inputs._probability_pair(ana("p", _real_pair))
        with _at("analysis.v"):
            v = optimal_inputs._qubit_unitary(ana("v", _matrix_from))
        with _at("family"):
            simulated = optimal_inputs.unital_qubit_protocol(fam, p, v)
        # p sums to 1 within the norm slack: only an almost unitary v can
        # leave the target off unit norm
        with _at("analysis.v"):
            target = optimal_inputs.phi_pv(p, v)
        direct = _state_outputs(fam, target, "analysis.v")
    residuals = {lab: max_abs(simulated[lab] - out) for lab, out in zip(fam.labels(), direct)}
    return {"protocol": protocol, **_certificate(residuals)}, {}


def _cmd_ent_advantage(doc, ana, inputs, fam, args):
    # the family parsed: only its structure can rule the analysis out
    with _at("family"):
        if fam.kind == "measurement":
            candidates = entanglement.product_candidates(fam)
            matches = (
                psi for psi in candidates if entanglement.meas_separable_check(fam, psi).matches_phi
            )
            match = next(matches, None)
            payload = {
                "kind": "measurement",
                "any_separable_match": match is not None,
                "match_state": match,
                "candidates": len(candidates),
            }
            return payload, {}
        verdict = entanglement.separable_suffices(fam)
        thetas = entanglement.family_gp_params(fam)
    payload = {
        "kind": fam.kind,
        "suffices": verdict.suffices,
        "condition": verdict.condition,
        "axis": verdict.axis_name,
        "entanglement_breaking": {
            lab: entanglement.entanglement_breaking_gp(theta)
            for lab, theta in zip(fam.labels(), thetas)
        },
    }
    if verdict.witness is not None:
        payload["witness"] = {
            "pair": list(verdict.witness.pair),
            "s": verdict.witness.s,
            "gap": verdict.witness.gap,
        }
    return payload, {}


def _cmd_sweep(doc, ana, inputs, fam, args):
    states = _named_states(inputs, fam)
    names = ana("inputs", _list_of(_str_from), None) or list(states)
    if not names:
        raise SpecError("analysis.inputs", "sweep needs at least one input")
    chosen = [_named(states, name, "analysis.inputs") for name in names]
    points = ana("points", _int_from, 200)
    # extra_s may carry the whole grid, so zero points is allowed
    d_out = max(fam.dout * st.shape.dim // fam.din for st in chosen)
    _check_count("analysis.points", points, 0, d_out)
    s_max = ana("s_max", _real_from, 3.0)
    extra = ana("extra_s", _real_list, [])
    named = [("analysis.s_max", s_max)]
    named += [(f"analysis.extra_s[{i}]", s) for i, s in enumerate(extra)]
    for where, s in named:
        if s < 0:
            raise ConstraintViolation(f"{where}: s must be nonnegative")
    if points == 0 and not extra:
        raise ConstraintViolation("analysis.points: no points and no extra_s: empty s grid")
    grid = sorted_unique(np.concatenate([np.linspace(0.0, s_max, points), extra]))

    labels = fam.labels()
    curves = []
    for name, st in zip(names, chosen):
        outs = dict(zip(labels, _state_outputs(fam, st, f"inputs.{name}")))
        # the inputs and the grid are checked: only the family can be rejected
        with _at("family"):
            for la, lb in combinations(labels, 2):
                curves.append((name, la, lb, comparison.gap_curve(outs[la], outs[lb], grid=grid)))
    payload = {
        "inputs": list(names),
        "pairs": [list(p) for p in combinations(labels, 2)],
        "rows": sum(len(curve.s_values) for *_, curve in curves),
        "csv": "sweep-curves.csv",
    }
    return payload, {"sweep-curves.csv": _sweep_csv(curves)}


def _cmd_ang(doc, ana, inputs, fam, args):
    query = ana("query", _one_of(("nonempty", "solve", "sample", "parallel")))
    x = doc("x", _real_list)
    payload: dict = {"query": query, "x": x}
    tables = {}
    if query == "nonempty":
        with _at("x"):
            payload["nonempty"] = geometry.ang_nonempty(x)
    elif query == "solve":
        with _at("x"):
            sols = geometry.ang_solve_triangle(x)
        payload["solutions"] = sols
        payload["residuals"] = geometry.closure_residual(x, sols)
    elif query == "sample":
        seed = _seed(args, "sampling queries")
        n = ana("n", _int_from, 50)
        _check_count("analysis.n", n, 1, len(x))
        with _at("x"):
            samples = geometry.ang_sample(x, n, seed)
        residuals = geometry.closure_residual(x, samples)
        tables["ang-samples.csv"] = _samples_csv(samples, residuals)
        payload["n"] = n
        payload["max_residual"] = residuals.max()
        payload["csv"] = "ang-samples.csv"
    else:
        xp = doc("x_prime", _real_list)
        n = ana("n", _int_from, 50)
        _check_count("analysis.n", n, 1, len(x))
        seed = _seed(args, "sampling queries") if len(x) >= 4 else args.seed
        # a length mismatch is x_prime's fault; anything else is x's
        with _at("x" if len(xp) == len(x) else "x_prime"):
            shadow = geometry.ang_parallel_property(x, xp, n=n, seed=seed)
        payload["x_prime"] = xp
        payload["subset_holds"] = shadow.subset_holds
        if shadow.violating_sample is not None:
            payload["violating_sample"] = shadow.violating_sample
    return payload, tables


def _parse_strategy(node, fam, states, where: str, args) -> repetition.Strategy:
    """A strategy node; its layout and size are checked by repetition's one
    rule for each before any state or interleaver of its size is built."""
    f = _Fields(node, where)
    mode = f("mode", _one_of(repetition.STRATEGY_MODES))
    n = f("n", _int_from)
    st = _named(states, f("input", _str_from), f"{where}.input")
    if n < 1:
        raise ConstraintViolation(f"{where}.n: a strategy needs at least one use")
    with _at(f"{where}.input"):
        refs = repetition.strategy_layout(mode, n, st, fam.din)
    with _at(f"{where}.n"):
        repetition.strategy_guard(mode, n, refs, fam.dout)
    interleavers = ()
    if mode == "sequential" and n > 1:
        spec = f("interleavers", _one_of(("identity-rewire", "fresh-swap", "random-unitary")))
        if spec == "identity-rewire":
            interleavers = repetition.identity_rewire_interleavers(fam.din, refs[0], n)
        elif spec == "fresh-swap":
            d_ref = f("ref_dim", _int_from)
            _check_dims(f"{where}.ref_dim", fam.din, d_ref)
            with _at(f"{where}.n"):
                interleavers = repetition.fresh_swap_interleavers(fam.din, d_ref, n)
        else:
            seed = _seed(args, "random interleavers")
            _check_count(f"{where}.n", n, 1, fam.din * refs[0])
            interleavers = repetition.random_unitary_interleavers(fam.din, refs[0], n, seed)
    return repetition.Strategy(mode=mode, n=n, input=st, interleavers=tuple(interleavers))


def _cmd_repeat(doc, ana, inputs, fam, args):
    analysis = ana("analysis", _one_of(("adaptive", "sequential-certificate", "output")))
    states = _named_states(inputs, fam)

    if analysis == "adaptive":
        prior = ana("prior", _real_from, 0.5)
        blocks = ana("blocks", _list_of(_int_from))
        menus = [
            tuple(_named(states, name, f"analysis.menus[{i}]") for name in menu)
            for i, menu in enumerate(ana("menus", _list_of(_list_of(_str_from))))
        ]
        with _at("analysis.prior"):
            comparison._check_prior(prior)
        for i, size in enumerate(blocks):
            if size < 1:
                raise ConstraintViolation(f"analysis.blocks[{i}]: a block needs at least one use")
        # the identical risk it is compared with is that of the d x d entangled input
        with _at("analysis.blocks"):
            repetition.strategy_guard("identical", sum(blocks), (fam.din,), fam.dout)
        # the blocks are positive and each menu nonempty: only the menu count can be rejected
        with _at("analysis.menus"):
            plan = repetition.AdaptivePlan(tuple(blocks), tuple(menus))
        for i, (size, menu) in enumerate(zip(plan.block_sizes, plan.menus)):
            with _at(f"analysis.menus[{i}]"):
                for psi in menu:
                    use_layout(psi.shape, fam.din, size)
        # prior, blocks and menus are checked: only the family can be rejected
        with _at("family"):
            risks = repetition.adaptive_vs_identical(fam, prior, plan)
        payload = {
            "adaptive_risk": risks["adaptive_risk"],
            "identical_risk": risks["identical_risk"],
            "improvement": risks["identical_risk"] - risks["adaptive_risk"],
        }
    elif analysis == "sequential-certificate":
        group = _group(doc, fam)
        blocks = _single_block(ana, fam)
        strat = _parse_strategy(ana("strategy"), fam, states, "analysis.strategy", args)
        if strat.mode != "sequential":
            raise ConstraintViolation(
                "analysis.strategy.mode: certificate expects a sequential strategy"
            )
        # blocks and strategy are checked: only the group can be rejected
        with _at("group"):
            residuals = repetition.identical_matches_sequential(fam, group, blocks, strat)
            payload = _certificate(residuals)
    else:
        member = ana("member", _one_of(fam.labels()))
        strat = _parse_strategy(ana("strategy"), fam, states, "analysis.strategy", args)
        # the mode, n and layout are checked: only the interleavers' chain can be rejected
        with _at("analysis.strategy.input"):
            lam = repetition.output_spectrum(dict(fam.members)[member], strat)
        payload = {
            "member": member,
            "dim": int(lam.size),
            "trace": float(lam.sum()),
            "min_eig": float(lam.min()),
            "max_eig": float(lam.max()),
        }
    return {"analysis": analysis, **payload}, {}


# argparse's choices, in this order
_COMMANDS = {
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "ent-advantage": _cmd_ent_advantage,
    "sweep": _cmd_sweep,
    "ang": _cmd_ang,
    "repeat": _cmd_repeat,
}


# ---------------------------------------------------------------------------


def _load_document(spec: str) -> dict:
    if spec.startswith("preset:"):
        try:
            return preset_document(spec.split(":", 1)[1])
        except KeyError as exc:
            raise SpecError("spec", str(exc)) from exc
    path = Path(spec)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--spec", required=True, help="spec JSON path or preset:<name>")
    parser.add_argument("--out", default=".", help="report directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    args = parser.parse_args(argv)

    # A library ValueError becomes a ConstraintViolation only under _at, which
    # names the field at fault; any other exception is a bug and propagates.
    try:
        if args.seed is not None and args.seed < 0:
            raise ConstraintViolation("flags.--seed: expected a nonnegative integer")
        doc = _Fields(_load_document(args.spec), "")
        fam = None
        if args.command != "ang":
            fam = parse_family(doc("family"))
        ana = _Fields(doc("analysis", default={}), "analysis")
        inputs = _Fields(doc("inputs", default={}), "inputs")
        payload, tables = _COMMANDS[args.command](doc, ana, inputs, fam, args)
    except SpecError as exc:
        print(f"spec error at {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConstraintViolation as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(Path(args.out), args.command, payload, tables)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
