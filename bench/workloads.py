"""The four workloads: seeded inputs, the operations run on them, their checks.

A workload is a list of operations that make up one round. Each step of an
operation calls into chanopt through the package namespace at call time (``co.name``),
so that the tracer can wrap those names, and returns what the program
produced; its check then compares that against numbers the benchmark works
out itself (see checks.py). Where the costs of the program calls in a
workload differ by an order of magnitude, one operation is a fixed bundle of
them, so that the median latency never falls between two cost modes.

Seeds only move what the timings should not depend on: unitary frames,
mixing weights and pure states. Sizes, family shapes and the overlaps of the
feasibility instances are fixed, so one seed costs the same as another.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    check_breakpoints,
    check_choi,
    check_closures,
    check_curve,
    check_damp_sweep_csv,
    check_damp_verdict,
    check_density,
    choi_state,
    closure_residual,
    kraus_apply,
    overlap_feasible,
    partial_transpose_min_eig,
    require,
)

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"

WORKLOADS = ("sweep-verdicts", "certify-feasibility", "cli-presets", "repeat-scale")


@dataclass
class Op:
    """One operation: its program calls (steps), run in order and timed one
    by one, and the check of their outputs (a list, one entry per step)."""

    label: str
    steps: list[Callable[[], object]]
    check: Callable[[list], None]


@dataclass
class Workload:
    ops: list[Op]  # one round
    warmup: Op


# ---------------------------------------------------------------------------
# Seeded inputs


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def projector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def bell_vector() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def pure_pair(rng, d: int, overlap: float) -> list[np.ndarray]:
    """Two pure states with |<a|b>| = overlap in a Haar-random frame."""
    u = haar_unitary(rng, d)
    phase = np.exp(2j * np.pi * rng.random())
    a = u[:, 0]
    b = overlap * phase * u[:, 0] + np.sqrt(1.0 - overlap**2) * u[:, 1]
    return [projector(a), projector(b)]


def random_channel(rng, din: int, dout: int, n_kraus: int) -> np.ndarray:
    """Kraus operators cut from a random isometry, stacked (k, dout, din)."""
    g = rng.normal(size=(n_kraus * dout, din)) + 1j * rng.normal(size=(n_kraus * dout, din))
    q, _ = np.linalg.qr(g)
    return q.reshape(n_kraus, dout, din)


# Standard Paulis in the Weyl order [I, Z, X, XZ] that the gp weights use.
PAULIS = np.array(
    [np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]],
    dtype=complex,
)


def gp_xi(theta) -> list[float]:
    """The (xi1, xi2, xi3) spec of Weyl-order weights (xi0, xi3, xi1, xi2)."""
    return [float(theta[2]), float(theta[3]), float(theta[1])]


def gp_kraus(theta) -> np.ndarray:
    return np.array([np.sqrt(t) * p for t, p in zip(theta, PAULIS)])


# ---------------------------------------------------------------------------
# sweep-verdicts


def sweep_verdicts(co, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    members = 3 if tiny else 5
    bundles = 1 if tiny else 4
    shape = co.SystemShape((2, 2))
    bell = projector(bell_vector())

    damp = co.make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]})
    excited = np.diag([0.0, 1.0])
    damp_basis = [np.kron(ch.apply(excited), excited) for ch in damp.channels()]
    damp_ent = [co.apply_extended(ch, bell, shape) for ch in damp.channels()]
    pairs = list(combinations(range(members), 2))

    ops = []
    for b in range(bundles):
        # unital: conjugated Weyl mixtures, Bell against a random input
        kraus = []
        for _ in range(members):
            theta = rng.dirichlet(np.ones(4))
            left, right = haar_unitary(rng, 2), haar_unitary(rng, 2)
            kraus.append([left @ (np.sqrt(t) * p) @ right for t, p in zip(theta, PAULIS)])
        unital = co.make_family("custom", {"kraus": kraus})
        rho = projector(random_pure(rng, 4))
        u_cand = [co.apply_extended(ch, bell, shape) for ch in unital.channels()]
        u_chal = [co.apply_extended(ch, rho, shape) for ch in unital.channels()]

        # gp: Bell outputs are Bell-diagonal with the mixing weights as
        # eigenvalues, so every candidate pair commutes
        thetas = [rng.dirichlet(np.ones(4)) for _ in range(members)]
        gp = co.make_family("gp", {"d": 2, "xis": [gp_xi(t) for t in thetas]})
        rho = projector(random_pure(rng, 4))
        g_cand = [co.apply_extended(ch, bell, shape) for ch in gp.channels()]
        g_chal = [co.apply_extended(ch, rho, shape) for ch in gp.channels()]

        steps = [
            lambda u_cand=u_cand, u_chal=u_chal: co.dominance_check(u_cand, u_chal, certify=False),
            lambda g_cand=g_cand, g_chal=g_chal: co.dominance_check(g_cand, g_chal, certify=False),
            lambda g_cand=g_cand: [co.gap_curve(g_cand[i], g_cand[j]) for i, j in pairs],
            lambda: co.dominance_check(damp_basis, damp_ent, certify=False),
        ]

        def check(out, thetas=thetas):
            unital_v, gp_v, curves, damp_v = out
            # unital-qubit theorem: the Bell input is never beaten
            require(unital_v.relation != "dominated", "unital Bell outputs reported dominated")
            require(gp_v.relation in ("dominates", "equivalent"),
                    f"covariant Bell outputs reported {gp_v.relation!r}")
            for (i, j), curve in zip(pairs, curves):
                check_curve(curve.s_values, curve.norms, thetas[i], thetas[j])
                check_breakpoints(curve.breakpoints, thetas[i], thetas[j])
            check_damp_verdict(damp_v.relation, damp_v.witness_s, damp_v.gap)

        ops.append(Op(f"bundle{b}", steps, check))
    return Workload(ops, ops[0])


# ---------------------------------------------------------------------------
# certify-feasibility

# (source overlap, target overlap): the first is feasible, the second is not,
# both far enough from equality that the verdict is not a near miss
OVERLAPS = ((0.3, 0.7), (0.7, 0.3))
FEAS_DIMS = ((2, 2), (2, 3), (3, 2))


def certify_feasibility(co, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    dims = FEAS_DIMS[:1] if tiny else FEAS_DIMS
    bundles = 1 if tiny else 4
    members = 2 if tiny else 3

    ops = []
    for b in range(bundles):
        instances = [
            (pure_pair(rng, di, cs), pure_pair(rng, do, ct), di, do)
            for di, do in dims
            for cs, ct in OVERLAPS
        ]
        post = random_channel(rng, 2, 2, 2)
        cand = [projector(random_pure(rng, 2)) for _ in range(members)]
        chal = [kraus_apply(post, m) for m in cand]

        steps = [lambda src=src, tgt=tgt: co.cptp_feasible(src, tgt) for src, tgt, _, _ in instances]
        steps += [lambda cand=cand, chal=chal: co.dominance_check(cand, chal),
                  lambda cand=cand, chal=chal: co.dominance_check(chal, cand)]

        def check(out, instances=instances):
            *results, forward, reverse = out
            for (src, tgt, di, do), res in zip(instances, results):
                want = overlap_feasible(src, tgt)
                require(res.feasible == want,
                        f"{di}->{do} instance: feasible={res.feasible}, overlap criterion says {want}")
                if res.feasible:
                    check_choi(res.choi.matrix, di, do, src, tgt)
            require(forward.relation == "dominates",
                    f"family vs its post-processing: {forward.relation!r}")
            require(reverse.relation == "dominated",
                    f"post-processing vs its family: {reverse.relation!r}")

        ops.append(Op(f"bundle{b}", steps, check))
    return Workload(ops, ops[0])


# ---------------------------------------------------------------------------
# repeat-scale


def _block_compare_kron(big, left, right, rows: int = 256) -> float:
    """max |big - kron(left, right)| without forming the product."""
    r = right.shape[0]
    worst = 0.0
    for start in range(0, big.shape[0], rows):
        want = np.kron(left[start // r : (start + rows) // r], right)
        worst = max(worst, float(np.abs(big[start : start + rows] - want).max()))
    return worst


def repeat_scale(co, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 4])
    n_ident, n_par, n_seq, ref_dim = (2, 2, 2, 8) if tiny else (6, 5, 4, 512)

    theta = rng.dirichlet(np.ones(4))
    member = co.make_family("gp", {"d": 2, "xis": [gp_xi(theta)]}).channels()[0]
    kraus = gp_kraus(theta)
    omega = kraus_apply(kraus, projector(bell_vector()), rest=2)

    bell_in = co.PureState(bell_vector(), co.SystemShape((2, 2)))
    identical = co.Strategy("identical", n_ident, bell_in)

    pair_states = [random_pure(rng, 4) for _ in range(n_par)]
    parallel = co.Strategy(
        "parallel", n_par,
        co.PureState(reduce(np.kron, pair_states), co.SystemShape((2, 2) * n_par)),
    )

    # fresh-swap layout (in_1, r_1, ..., in_n, r_n) of n Bell pairs
    seq_vec = reduce(np.kron, [bell_vector()] * n_seq)
    sequential = co.Strategy(
        "sequential", n_seq,
        co.PureState(seq_vec, co.SystemShape((2, 4**n_seq // 2))),
        co.fresh_swap_interleavers(2, 2, n_seq),
    )

    ext_rho = projector(random_pure(rng, 2 * ref_dim))
    ext_shape = co.SystemShape((2, ref_dim))

    a, b = rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)
    meas = co.make_family(
        "measurement",
        {"m_plus": np.diag([a, 1 - a]), "m_minus": np.diag([b, 1 - b]),
         "unitaries": co.weyl_ops(2), "structure": "rotated"},
    )
    e0 = co.PureState(np.array([1.0, 0.0]), co.SystemShape((2,)))
    e1 = co.PureState(np.array([0.0, 1.0]), co.SystemShape((2,)))
    plus = co.PureState(np.array([1.0, 1.0]) / np.sqrt(2.0), co.SystemShape((2,)))
    menu = (e0, e1, plus, bell_in)
    blocks = (1, 1) if tiny else (1, 1, 1)
    plan = co.AdaptivePlan(blocks, (menu,) * len(blocks))
    prior = float(rng.uniform(0.3, 0.7))

    fam3 = co.make_family("gp", {"d": 3, "thetas": [rng.dirichlet(np.ones(9)) for _ in range(2)]})
    group3 = [(u, u) for u in co.weyl_ops(3)]
    phi3 = np.eye(3).reshape(-1) / np.sqrt(3.0)
    seq3 = co.Strategy(
        "sequential", 3, co.PureState(phi3, co.SystemShape((3, 3))),
        co.random_unitary_interleavers(3, 3, 3, int(rng.integers(2**31))),
    )

    steps = [
        lambda: co.repeated_output(member, identical),
        lambda: co.repeated_output(member, parallel),
        lambda: co.repeated_output(member, sequential),
        lambda: co.apply_extended(member, ext_rho, ext_shape),
        lambda: co.adaptive_vs_identical(meas, prior, plan),
        lambda: co.identical_matches_sequential(fam3, group3, co.IrrepBlocks((3,)), seq3),
    ]

    def check(out):
        ident, par, seq, ext, risks, residuals = out
        check_density(omega, where="single-use output")
        # identical = omega^(x n); PSD then follows from omega's
        err = _block_compare_kron(ident, reduce(np.kron, [omega] * (n_ident - 1)), omega)
        require(err <= 1e-12, f"identical output differs from the Kronecker power by {err:.3e}")
        require(abs(np.trace(ident) - 1.0) <= 1e-9, "identical output trace is not 1")

        want = reduce(np.kron, [kraus_apply(kraus, projector(v), rest=2) for v in pair_states])
        err = float(np.abs(par - want).max())
        require(err <= 1e-12, f"parallel output differs from the product by {err:.3e}")
        check_density(par, where="parallel output")

        # the fresh-swap chain reorders the identical output's factors, so
        # its spectrum is the n-fold products of omega's eigenvalues
        check_density(seq, where="sequential output")
        lam = np.linalg.eigvalsh(omega)
        want = np.sort(reduce(np.multiply.outer, [lam] * n_seq).reshape(-1))
        err = float(np.abs(np.linalg.eigvalsh(seq) - want).max())
        require(err <= 1e-9, f"sequential spectrum differs by {err:.3e}")

        err = float(np.abs(ext - kraus_apply(kraus, ext_rho, rest=ref_dim)).max())
        require(err <= 1e-12, f"apply_extended differs from the einsum by {err:.3e}")
        check_density(ext, where="extended output")

        require(risks["adaptive_risk"] >= risks["identical_risk"] - 1e-9,
                f"adaptive risk {risks['adaptive_risk']!r} beats identical {risks['identical_risk']!r}")
        worst = max(residuals.values())
        require(worst <= 1e-8, f"sequential certificate residual {worst:.3e}")

    op = Op("bundle", steps, check)
    return Workload([op], op)


# ---------------------------------------------------------------------------
# cli-presets

PRESETS = ("damp-counterexample", "diag-qubit", "eb-needs-ent-gp", "eb-needs-ent-povm", "eb-needs-ent-weyl")
COMMANDS = ("validate", "compare", "certify", "ent-advantage", "sweep", "ang", "repeat")

_R = 2.0**-0.5
# Kraus operators of the qubit Weyl-mixture presets, written out here so
# that the entanglement-breaking flags are checked against a partial
# transpose the benchmark computes itself
EB_PRESETS = {
    "diag-qubit": {
        "identity": np.array([np.diag([_R, _R]), np.diag([_R, _R])], dtype=complex),
        "phase-flip": np.array([np.diag([-_R, _R]), np.diag([_R, -_R])], dtype=complex),
    },
    "eb-needs-ent-gp": {
        "plus": gp_kraus([0.2, 0.15, 0.35, 0.3]),
        "minus": gp_kraus([0.15, 0.3, 0.3, 0.25]),
    },
}
SUFFICES = {"diag-qubit": True, "eb-needs-ent-gp": False}


def _report(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _check_invocation(cmd: str, spec: str, out_dir: Path) -> None:
    """Checks of one report, by command and spec."""
    if cmd == "validate":
        rep = _report(out_dir, "validate-report.json")
        for label, m in rep["members"].items():
            require(m["trace_preserving"] and m["cp"] and m["min_choi_eig"] >= -1e-9,
                    f"{spec}: member {label} fails CPTP")
    elif cmd == "sweep":
        rows = check_damp_sweep_csv((out_dir / "sweep-curves.csv").read_text())
        require(_report(out_dir, "sweep-report.json")["rows"] == rows, "sweep row count")
    elif cmd == "compare":
        rep = _report(out_dir, "compare-report.json")
        check_damp_verdict(rep["relation"], rep["witness_s"], rep["gap"])
    elif cmd == "ent-advantage":
        rep = _report(out_dir, "ent-advantage-report.json")
        preset = spec.split(":", 1)[1]
        if preset in EB_PRESETS:
            require(rep["suffices"] is SUFFICES[preset], f"{preset}: suffices={rep['suffices']}")
            for label, kraus in EB_PRESETS[preset].items():
                eb = partial_transpose_min_eig(choi_state(kraus), 2) >= -1e-12
                require(rep["entanglement_breaking"][label] is eb,
                        f"{preset}: entanglement-breaking flag of {label} is not {eb}")
        else:
            require(rep["any_separable_match"] is False, f"{preset}: a product input matched")
    elif cmd == "certify":
        rep = _report(out_dir, "certify-report.json")
        if rep["protocol"] == "measurement":
            require(rep["relation"] == "dominates", f"measurement certify: {rep['relation']!r}")
        else:
            require(rep["pass"] is True and rep["max_residual"] <= 1e-8,
                    f"{rep['protocol']} certify residual {rep['max_residual']!r}")
    elif cmd == "ang":
        rep = _report(out_dir, "ang-report.json")
        x = rep["x"]
        if rep["query"] == "solve":
            require(len(rep["solutions"]) == 2, "triangle needs two solutions")
            check_closures(x, [[complex(*w) for w in s] for s in rep["solutions"]])
        else:
            lines = (out_dir / "ang-samples.csv").read_text().splitlines()[1:]
            require(len(lines) == rep["n"], "sample count")
            for line in lines:
                cells = [float(c) for c in line.split(",")[1:-1]]
                om = [complex(cells[i], cells[i + 1]) for i in range(0, len(cells), 2)]
                require(closure_residual(x, om) <= 1e-9, "sample does not close")
    elif cmd == "repeat":
        rep = _report(out_dir, "repeat-report.json")
        require(rep["adaptive_risk"] >= rep["identical_risk"] - 1e-9,
                "adaptive repetition beats identical repetition")


def cli_invocations(seed: int, tiny: bool = False) -> list[list[str]]:
    inv = [["validate", "--spec", f"preset:{p}"] for p in PRESETS]
    inv += [["sweep", "--spec", "preset:damp-counterexample"],
            ["compare", "--spec", "preset:damp-counterexample"]]
    inv += [["ent-advantage", "--spec", f"preset:{p}"] for p in PRESETS[1:]]
    spec = lambda name: str(SPEC_DIR / name)  # noqa: E731
    inv += [
        ["certify", "--spec", spec("certify-group-d3.json")],
        ["certify", "--spec", spec("certify-unital-qubit.json")],
        ["certify", "--spec", spec("certify-measurement.json")],
        ["ang", "--spec", spec("ang-solve.json")],
        ["ang", "--spec", spec("ang-sample.json"), "--seed", str(seed)],
        ["repeat", "--spec", spec("repeat-adaptive.json")],
    ]
    if tiny:
        inv = [inv[5], inv[6]]
    return inv


def cli_presets(co, seed: int, tiny: bool = False, *, out_root: Path,
                in_process: bool = False, env: dict | None = None) -> Workload:
    """One operation per invocation. Subprocesses by default; in-process
    through chanopt.cli.main for the traced run."""
    first_bytes: dict[str, dict[str, bytes]] = {}
    ops = []
    for idx, argv in enumerate(cli_invocations(seed, tiny)):
        cmd, spec = argv[0], argv[2]
        out_dir = out_root / f"{idx:02d}-{cmd}"
        full = [*argv, "--out", str(out_dir)]

        if in_process:
            def run(full=full):
                with contextlib.redirect_stdout(io.StringIO()):
                    return co.cli.main(full), ""
        else:
            def run(full=full):
                proc = subprocess.run(
                    [sys.executable, "-m", "chanopt", *full], env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                return proc.returncode, proc.stderr

        def check(out, cmd=cmd, spec=spec, out_dir=out_dir, key=" ".join(argv)):
            code, stderr = out[0]
            require(code == 0, f"{key}: exit {code}: {stderr.strip()[-300:]}")
            _check_invocation(cmd, spec, out_dir)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            if key in first_bytes:
                require(files == first_bytes[key], f"{key}: reports differ from the first invocation")
            else:
                first_bytes[key] = files

        ops.append(Op(cmd, [run], check))
    # the sweep writes the largest report; its warm-up run is the first of
    # the byte-identity comparisons
    return Workload(ops, ops[5] if not tiny else ops[0])


def report_bytes(workload_out: Path) -> int:
    return sum(p.stat().st_size for p in workload_out.rglob("*") if p.is_file())


def build(name: str, co, seed: int, tiny: bool = False, **cli_kw) -> Workload:
    if name == "sweep-verdicts":
        return sweep_verdicts(co, seed, tiny)
    if name == "certify-feasibility":
        return certify_feasibility(co, seed, tiny)
    if name == "repeat-scale":
        return repeat_scale(co, seed, tiny)
    if name == "cli-presets":
        return cli_presets(co, seed, tiny, **cli_kw)
    raise ValueError(f"unknown workload {name!r}")

