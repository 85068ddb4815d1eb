import io
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from chanopt import comparison
from chanopt.channels import KrausChannel, apply_extended, make_family, weyl_ops
from chanopt.comparison import (
    COMMUTE_TOL,
    CPTP_STOP_TOL,
    _joint_spectrum,
    bayes_binary_risk,
    cptp_feasible,
    default_grid,
    dominance_check,
    gap_curve,
    sweep_norms,
)
from chanopt.numerics import DENSITY_TOL, SystemShape, is_density, max_abs, max_entangled, trace_norm
from conftest import haar_unitary, hermitian_sweep_oracle, random_density, random_pure


def phi_outputs(fam):
    phi = max_entangled(fam.din)
    shape = SystemShape((fam.din, fam.din))
    return [apply_extended(ch, np.outer(phi, phi.conj()), shape) for _, ch in fam.members]


def commutes(a, b) -> bool:
    return max_abs(a @ b - b @ a) <= COMMUTE_TOL


def bloch(r):
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)


# ---------------------------------------------------------------------------
# gap_curve


def test_curve_starts_at_one(rng):
    a, b = random_density(rng, 3), random_density(rng, 3)
    c = gap_curve(a, b, grid=[0.0, 1.0])
    assert abs(c.norms[0] - 1.0) < 1e-10


def test_equal_pair_curve_is_abs_one_minus_s(rng):
    a = random_density(rng, 2)
    grid = np.linspace(0, 3, 40)
    c = gap_curve(a, a, grid=grid)
    assert max_abs(np.array(c.norms) - np.abs(1 - np.array(c.s_values))) < 1e-10


def test_damp_entangled_closed_form():
    xi = 0.3
    fam = make_family("damp", {"p": 1.0, "xis": [xi, 0.0]})
    outs = phi_outputs(fam)
    grid = np.linspace(0, 3, 200)
    c = gap_curve(outs[0], outs[1], grid=grid)
    s = np.array(c.s_values)
    want = 0.5 * np.sqrt((1 - s + xi) ** 2 + 4 * s * xi) + 0.5 * np.abs(1 - xi - s)
    mask = np.isin(s, grid)
    assert max_abs(np.array(c.norms)[mask] - want[mask]) < 1e-9


def test_curve_recomputation_invariant(rng):
    a, b = random_density(rng, 3), random_density(rng, 3)
    c = gap_curve(a, b)
    for s, nv in zip(c.s_values, c.norms):
        assert abs(nv - trace_norm(a - s * b)) < 1e-10


def test_sweep_norms_match_trace_norm(rng):
    s = np.array([0.0, 0.3, 1.0, 7.5])
    a, b = random_density(rng, 3), random_density(rng, 3)
    want = [trace_norm(a - t * b) for t in s]
    assert max_abs(sweep_norms(a, b, s) - want) < 1e-12


def test_joint_eigenbasis_diagonalizes_both(rng):
    u = haar_unitary(rng, 3)
    a = u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T
    b = u @ np.diag([0.25, 0.25, 0.5]) @ u.conj().T
    vecs, p, q, r = _joint_spectrum(a, b)
    assert r < 1e-12
    assert max_abs(vecs.conj().T @ vecs - np.eye(3)) < 1e-12
    assert max_abs(a @ vecs - vecs * p) < 1e-12
    assert max_abs(b @ vecs - vecs * q) < 1e-12


def test_curve_convex_and_lipschitz(rng):
    a, b = random_density(rng, 2), random_density(rng, 2)
    grid = np.linspace(0, 4, 80)
    c = gap_curve(a, b, grid=grid)
    s, f = np.array(c.s_values), np.array(c.norms)
    for k in range(1, len(s) - 1):
        lam = (s[k] - s[k - 1]) / (s[k + 1] - s[k - 1])
        chord = (1 - lam) * f[k - 1] + lam * f[k + 1]
        assert f[k] <= chord + 1e-9
    assert np.all(np.abs(np.diff(f)) <= np.abs(np.diff(s)) + 1e-9)


def test_commuting_breakpoints_are_eigenvalue_ratios():
    a = np.diag([0.5, 0.5])
    b = np.diag([1.0, 0.0])
    c = gap_curve(a, b, grid=[0.0, 1.0])
    assert any(abs(bp - 0.5) < 1e-12 for bp in c.breakpoints)


def test_curve_rejects_bad_inputs(rng):
    a = random_density(rng, 2)
    with pytest.raises(ValueError):
        gap_curve(a, random_density(rng, 3))
    with pytest.raises(ValueError):
        gap_curve(a, a, grid=[-0.5])
    with pytest.raises(ValueError):
        gap_curve(np.eye(2), a)


# ---------------------------------------------------------------------------
# dominance_check


def test_identical_families_equivalent(rng):
    outs = [random_density(rng, 2), random_density(rng, 2)]
    v = dominance_check(outs, [m.copy() for m in outs])
    assert v.relation == "equivalent"


def test_damp_excited_vs_entangled_witness():
    fam = make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]})
    excited = np.diag([0.0, 1.0])
    cand = [ch.apply(excited) for _, ch in fam.members]
    chal = phi_outputs(fam)
    v = dominance_check(cand, chal)
    assert v.relation == "incomparable"
    assert abs(v.witness_s - 0.5) < 1e-9
    assert abs(v.gap - (np.sqrt(2) / 2 - 0.5)) < 1e-9


def test_dephasing_axis_input_equivalent_to_entangled():
    # collinear pair on the phase axis; the balance conditions hold, so the
    # equatorial product input reproduces the entangled curve exactly
    fam = make_family("gp", {"d": 2, "xis": [[0.0, 0.0, 0.3], [0.0, 0.0, 0.45]]})
    plus_x = bloch([1.0, 0.0, 0.0])
    cand = [ch.apply(plus_x) for _, ch in fam.members]
    chal = phi_outputs(fam)
    v = dominance_check(cand, chal)
    assert v.relation == "equivalent"


def test_dominates_with_commuting_candidate():
    fam = make_family("gp", {"d": 2, "xis": [[0.0, 0.0, 0.3], [0.0, 0.0, 0.45]]})
    cand = [ch.apply(bloch([1, 0, 0])) for _, ch in fam.members]
    chal = [ch.apply(bloch([0.5, 0, 0])) for _, ch in fam.members]
    v = dominance_check(cand, chal)
    assert v.relation == "dominates"
    assert v.method == "sweep-sufficient-commuting"
    # Helstrom consistency across a prior grid
    for prior in np.linspace(0, 1, 21):
        rc = bayes_binary_risk(cand[0], cand[1], prior)
        rh = bayes_binary_risk(chal[0], chal[1], prior)
        assert rc <= rh + 1e-9


def test_dominated_with_witness():
    fam = make_family("gp", {"d": 2, "xis": [[0.0, 0.0, 0.3], [0.0, 0.0, 0.45]]})
    cand = [ch.apply(bloch([0.5, 0, 0])) for _, ch in fam.members]
    chal = [ch.apply(bloch([1, 0, 0])) for _, ch in fam.members]
    v = dominance_check(cand, chal)
    assert v.relation == "dominated"
    assert v.witness_s is not None and v.gap > 0


def test_noncommuting_dominance_certified_by_feasibility():
    fam = make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]})
    cand = phi_outputs(fam)
    assert max_abs(cand[0] @ cand[1] - cand[1] @ cand[0]) > 1e-6
    # challenger: the same outputs after partial depolarizing, a plain
    # post-processing that the certificate route should find
    lam = 0.6
    chal = [lam * m + (1 - lam) * np.eye(4) / 4 for m in cand]
    v = dominance_check(cand, chal)
    assert v.relation == "dominates"
    assert v.method == "randomization-certificate"


def test_noncommuting_dominance_without_certificate_is_inconclusive():
    fam = make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]})
    cand = phi_outputs(fam)
    lam = 0.6
    chal = [lam * m + (1 - lam) * np.eye(4) / 4 for m in cand]
    v = dominance_check(cand, chal, certify=False)
    assert v.relation == "inconclusive"
    assert v.method == "sweep-necessary"


def test_noncommuting_pair_against_its_rotation_is_inconclusive(rng):
    # a unitary rotation keeps every trace norm, so neither curve beats the
    # other; the pairs are neither identical nor commuting, and a tie on
    # the sweep proves no channel either way
    cand = phi_outputs(make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]}))
    u = haar_unitary(rng, 4)
    chal = [u @ m @ u.conj().T for m in cand]
    v = dominance_check(cand, chal)
    assert (v.relation, v.method, v.witness_s, v.gap) == (
        "inconclusive", "sweep-necessary", None, None,
    )


def test_post_processed_family_is_dominated_with_certificate():
    # the candidate is the challenger after partial depolarizing: the
    # challenger's curve is higher, and the channel back is certified
    chal = phi_outputs(make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]}))
    cand = [0.6 * m + 0.4 * np.eye(4) / 4 for m in chal]
    v = dominance_check(cand, chal)
    assert (v.relation, v.method) == ("dominated", "randomization-certificate")
    assert v.witness_s is not None and v.gap > 1e-3


def test_multi_member_aggregation():
    fam = make_family(
        "gp", {"d": 2, "xis": [[0.0, 0.0, 0.1], [0.0, 0.0, 0.3], [0.0, 0.0, 0.45]]}
    )
    cand = [ch.apply(bloch([1, 0, 0])) for _, ch in fam.members]
    chal = phi_outputs(fam)
    assert dominance_check(cand, chal).relation == "equivalent"
    weaker = [ch.apply(bloch([0.5, 0, 0])) for _, ch in fam.members]
    assert dominance_check(cand, weaker).relation == "dominates"


def reference_pair_diff(cand, chal):
    """The union of both curves' grids, and the candidate curve minus the
    challenger's on it from a per-s trace_norm loop."""
    s_all = np.unique(np.concatenate([gap_curve(*cand).s_values, gap_curve(*chal).s_values]))
    fv = np.array([trace_norm(cand[0] - s * cand[1]) for s in s_all])
    gv = np.array([trace_norm(chal[0] - s * chal[1]) for s in s_all])
    return s_all, fv - gv


def reference_pair_verdict(cand, chal, tol=1e-9):
    """Relation, witness_s, gap and method of one member pair with
    certify=False, from reference_pair_diff."""
    s_all, diff = reference_pair_diff(cand, chal)
    cand_beats, chal_beats = (diff > tol).any(), (diff < -tol).any()
    cand_comm, chal_comm = commutes(*cand), commutes(*chal)
    k = int(np.argmax(-diff))
    if not cand_beats and not chal_beats:
        if cand_comm and chal_comm:
            return "equivalent", None, None, "sweep-sufficient-commuting"
        return "inconclusive", None, None, "sweep-necessary"
    if cand_beats and chal_beats:
        return "incomparable", s_all[k], -diff[k], "sweep-necessary"
    if cand_beats:
        if cand_comm:
            return "dominates", None, None, "sweep-sufficient-commuting"
        return "inconclusive", None, None, "sweep-necessary"
    method = "sweep-sufficient-commuting" if chal_comm else "sweep-necessary"
    return "dominated", s_all[k], -diff[k], method


def commuting_qubit_pair(rng):
    u = haar_unitary(rng, 2)
    p, q = rng.uniform(size=2)
    return [u @ np.diag([x, 1.0 - x]) @ u.conj().T for x in (p, q)]


def test_dominance_matches_per_s_reference(rng):
    cases = []
    for d in (2, 3):
        for _ in range(6):
            cases.append(([random_density(rng, d) for _ in range(2)],
                          [random_density(rng, d) for _ in range(2)]))
    for _ in range(12):
        cases.append((commuting_qubit_pair(rng), commuting_qubit_pair(rng)))
    relations = set()
    for cand, chal in cases:
        relation, witness, gap, method = reference_pair_verdict(cand, chal)
        v = dominance_check(cand, chal, certify=False)
        relations.add(relation)
        assert (v.relation, v.method, v.witness_s) == (relation, method, witness)
        if gap is None:
            assert v.gap is None
        else:
            assert abs(v.gap - gap) < 1e-12
    assert {"incomparable", "dominated"} <= relations


def reference_family_verdict(cand, chal, tol=1e-9):
    """Relation, witness_s, gap and method of a family with certify=False,
    from reference_pair_diff on every member pair: the challenger beating a
    pair refutes "dominates", the candidate beating one refutes "dominated",
    and the witness is the challenger's largest margin (first pair, then
    first s). A pair neither beats is settled only when both pairs commute
    (no member pair here is identical)."""
    pairs = [((cand[i], cand[j]), (chal[i], chal[j])) for i, j in combinations(range(len(cand)), 2)]
    data = [reference_pair_diff(*pair) for pair in pairs]
    beats = [bool((diff > tol).any()) for _, diff in data]
    beaten = [bool((diff < -tol).any()) for _, diff in data]
    witness = gap = None
    if any(beaten):
        s_all, diff = data[int(np.argmax([(-diff).max() for _, diff in data]))]
        k = int(np.argmax(-diff))
        witness, gap = s_all[k], -diff[k]
    if any(beats) and any(beaten):
        return "incomparable", witness, gap, "sweep-necessary"
    ties = [pair for pair, b, l in zip(pairs, beats, beaten) if not (b or l)]
    if not all(commutes(*c) and commutes(*h) for c, h in ties):
        return "inconclusive", witness, gap, "sweep-necessary"
    if any(beaten):
        exact = all(commutes(*h) for (_, h), l in zip(pairs, beaten) if l)
        return "dominated", witness, gap, "sweep-sufficient-commuting" if exact else "sweep-necessary"
    if all(commutes(*c) for (c, _), b in zip(pairs, beats) if b):
        return "dominates" if any(beats) else "equivalent", None, None, "sweep-sufficient-commuting"
    return "inconclusive", None, None, "sweep-necessary"


def test_three_member_families_match_per_s_reference(rng):
    """Seeded 3-member families against reference_family_verdict. The
    challenger's members share one Haar frame, their eigenvalues the
    candidate's plus N(0, 0.05) noise, or mixed with 0.1 of the uniform
    distribution (a classical garbling). The candidate's members each take
    that frame tilted by a random near-identity unitary (noncommuting pairs
    the sweep cannot certify) in every noisy qubit family and every odd
    case, and share it (a commuting family) otherwise. A tilted family the
    sweep refutes both ways without one pair beaten both ways is
    incomparable; a merge of per-pair verdicts called it inconclusive."""
    cases = []
    for d in (2, 3):
        for case in range(12):
            ps = rng.dirichlet(np.ones(d), size=3)
            qs = np.abs(ps + 0.05 * rng.normal(size=ps.shape)) if case < 8 else 0.9 * ps + 0.1 / d
            u = haar_unitary(rng, d)
            chal = [u @ np.diag(q / q.sum()) @ u.conj().T for q in qs]
            frames = [u] * 3
            if case % 2 or (d == 2 and case < 8):
                g = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
                frames = [u @ np.linalg.qr(np.eye(d) + 0.1 * x)[0] for x in g]
            cases.append(([v @ np.diag(p) @ v.conj().T for v, p in zip(frames, ps)], chal))
    relations, split = set(), 0
    for cand, chal in cases:
        relation, witness, gap, method = reference_family_verdict(cand, chal)
        v = dominance_check(cand, chal, certify=False)
        relations.add(relation)
        assert (v.relation, v.method, v.witness_s) == (relation, method, witness)
        assert gap is None if v.gap is None else abs(v.gap - gap) < 1e-12
        if relation == "incomparable" and not commutes(cand[0], cand[1]):
            sides = [
                reference_pair_verdict((cand[i], cand[j]), (chal[i], chal[j]))[0]
                for i, j in combinations(range(3), 2)
            ]
            split += "incomparable" not in sides
    assert split > 0
    assert {"incomparable", "dominated", "dominates", "inconclusive"} <= relations


def test_certification_runs_only_where_the_sweep_leaves_a_direction_open(rng, monkeypatch):
    """cptp_feasible is never called for a family the sweep refutes both
    ways, and is called once per pair when every pair needs a channel."""
    calls = []
    solver = comparison.cptp_feasible

    def spy(sources, targets):
        calls.append(len(sources))
        return solver(sources, targets)

    monkeypatch.setattr(comparison, "cptp_feasible", spy)
    # the candidate beats the noncommuting pair (0, 1), which the challenger
    # holds depolarized; the challenger's |1><1| beats it on pair (0, 2)
    cand = [bloch([0, 0, 1]), bloch([1, 0, 0]), bloch([0, 1, 0])]
    chal = [0.8 * m + 0.1 * np.eye(2) for m in cand[:2]] + [bloch([0, 0, -1])]
    v = dominance_check(cand, chal)
    assert v.relation == "incomparable" and v.gap > 1e-3
    assert calls == []

    # pure qubit states and their images under a random channel: each pair
    # is noncommuting on the certified side, both ways
    cand = [np.outer(x, x.conj()) for x in (random_pure(rng, 2) for _ in range(3))]
    ks = random_kraus(rng, 2, 2, 2)
    chal = [sum(k @ m @ k.conj().T for k in ks) for m in cand]
    for fams, relation in (((cand, chal), "dominates"), ((chal, cand), "dominated")):
        del calls[:]
        v = dominance_check(*fams)
        assert (v.relation, v.method) == (relation, "randomization-certificate")
        assert calls == [2, 2, 2]


def test_commuting_verdicts_hold_off_the_grid(rng):
    """A commuting "dominates" or "equivalent" holds at every s >= 0, not
    only on the grid it was decided on: diagonal qutrit pairs against their
    images under random 2-Kraus channels (dominated by construction) and
    against images of perturbed pairs (either way), checked on [0, 50] and a
    geometric tail to 1e6 by a per-s trace_norm loop (the diagonal curve in
    closed form). Rounding in a norm grows with s, hence the tolerance
    1e-9 max(1, s)."""
    s = np.concatenate([np.linspace(0.0, 50.0, 5000), np.geomspace(50.0, 1e6, 200)[1:]])
    relations = {"image": [], "perturbed": []}
    for case in range(6):
        p, q = rng.dirichlet(np.ones(3), size=2)
        kind = "image" if case < 3 else "perturbed"
        src = (p, q) if kind == "image" else [0.5 * (x + y) for x, y in zip((p, q), rng.dirichlet(np.ones(3), size=2))]
        ks = random_kraus(rng, 3, 3, 2)
        cand = [np.diag(p), np.diag(q)]
        chal = [sum(k @ np.diag(x) @ k.conj().T for k in ks) for x in src]
        chal_curve = np.array([trace_norm(chal[0] - t * chal[1]) for t in s])
        rel_diff = (np.abs(p - s[:, None] * q).sum(axis=1) - chal_curve) / np.maximum(1.0, s)
        for grid in ([0.0], [0.0, 1.0], None):
            v = dominance_check(cand, chal, grid=grid, certify=False)
            relations[kind].append(v.relation)
            if v.method != "sweep-sufficient-commuting":
                continue
            if v.relation in ("dominates", "equivalent"):
                assert rel_diff.min() >= -1e-9
            if v.relation == "equivalent":
                assert rel_diff.max() <= 1e-9
    assert set(relations["image"]) == {"dominates"}
    assert "dominates" in relations["perturbed"]
    assert set(relations["perturbed"]) - {"dominates"}


def sweep_routes(monkeypatch) -> list[str]:
    """Record, per pair that _sweep sweeps, whether _sweep_operands handed it
    on as a joint spectrum or as the matrices themselves."""
    routes = []
    kernel = comparison._sweep_operands

    def spy(pair, spectrum, s):
        ops = kernel(pair, spectrum, s)
        routes.append("spectrum" if np.ndim(ops[0]) == 1 else "matrices")
        return ops

    monkeypatch.setattr(comparison, "_sweep_operands", spy)
    return routes


# joint eigenvalues (p, q) of commuting pairs: generic, degenerate (in one
# member or in both on one subspace) and rank-deficient (disjoint supports,
# pure members)
COMMUTING_SPECTRA = [
    ([0.7, 0.3], [0.2, 0.8]),
    ([0.5, 0.5], [0.9, 0.1]),
    ([1.0, 0.0], [0.4, 0.6]),
    ([1.0, 0.0], [0.0, 1.0]),
    ([0.5, 0.3, 0.2], [0.1, 0.3, 0.6]),
    ([0.25, 0.25, 0.5], [0.4, 0.4, 0.2]),
    ([0.6, 0.4, 0.0], [0.0, 0.3, 0.7]),
    ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
    ([0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]),
    ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]),
    ([0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]),
]


def test_commuting_curve_reads_joint_eigenvalues(rng, monkeypatch):
    """gap_curve of a commuting pair at d = 2, 3, 4, each in a Haar frame,
    takes its norms from the joint eigenvalues, and they equal a per-s
    trace_norm within 1e-12 (1 + s)."""
    routes = sweep_routes(monkeypatch)
    for p, q in COMMUTING_SPECTRA:
        for _ in range(3):
            u = haar_unitary(rng, len(p))
            a, b = (u @ np.diag(x) @ u.conj().T for x in (p, q))
            c = gap_curve(a, b)
            want = np.array([trace_norm(a - t * b) for t in c.s_values])
            assert np.all(np.abs(c.norms - want) <= 1e-12 * (1.0 + c.s_values))
    assert routes == ["spectrum"] * (3 * len(COMMUTING_SPECTRA))


def test_commuting_pair_off_the_guard_takes_the_stacked_route(rng, monkeypatch):
    """b has two eigenvalues 1e-7 apart, too far apart to share a block of
    _joint_spectrum, and a couples their eigenvectors at 1e-10: the pair
    commutes within COMMUTE_TOL, but the joint basis leaves a residual of
    1e-10 in a, so the closed form is not proven to SWEEP_TOL / 10 and both
    gap_curve and the pair verdict sweep the matrices."""
    a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a[0, 1] = a[1, 0] = 1e-10
    b = np.diag([0.3, 0.3 + 1e-7, 0.4 - 1e-7])
    assert commutes(a, b)
    routes = sweep_routes(monkeypatch)
    c = gap_curve(a, b)
    assert routes == ["matrices"]
    want = np.array([trace_norm(a - t * b) for t in c.s_values])
    assert np.all(np.abs(c.norms - want) <= 1e-12 * (1.0 + c.s_values))

    chal = [random_density(rng, 3) for _ in range(2)]
    for cand, other in (([a, b], chal), (chal, [a, b])):
        relation, witness, gap, method = reference_pair_verdict(cand, other)
        del routes[:]
        v = dominance_check(cand, other, certify=False)
        assert routes == ["matrices", "matrices"]
        assert (v.relation, v.method, v.witness_s) == (relation, method, witness)
        assert gap is None if v.gap is None else abs(v.gap - gap) < 1e-12


def stacked_grids(monkeypatch) -> list[np.ndarray]:
    """Record the s values that every stacked eigvalsh inside comparison
    takes for each of its pairs, pair by pair in stack order."""
    grids = []
    kernel = comparison._stacked_eigvalsh

    def spy(a, b, pair, s):
        grids.extend(np.array(s[pair == j]) for j in dict.fromkeys(pair.tolist()))
        return kernel(a, b, pair, s)

    monkeypatch.setattr(comparison, "_stacked_eigvalsh", spy)
    return grids


def assert_matches_trace_norm(a, b, s):
    want = np.array([trace_norm(a - t * b) for t in s])
    assert np.all(np.abs(sweep_norms(a, b, s) - want) <= 1e-12 * (1.0 + s))


def weyl_pair(rng, thetas):
    """Outputs of two qubit Weyl mixtures (weights thetas) on one random pure
    two-qubit input: a - s b is semidefinite exactly where every weight
    difference theta_i - s theta'_i has one sign, so the commuting Bell
    outputs' kinks are the pencil boundaries of this pair."""
    psi = random_pure(rng, 4)
    kets = [np.kron(w, np.eye(2)) @ psi for w in weyl_ops(2)]
    return [sum(t * np.outer(k, k.conj()) for t, k in zip(theta, kets)) for theta in thetas]


def test_sweep_norms_match_trace_norm_on_every_route(rng):
    """The semidefinite ends in closed form and the stacked middle agree with
    a per-s trace_norm within 1e-12 (1 + s): d = 2..5 at every pair of ranks,
    pure, identical and disjoint pairs, a member whose support b does not
    reach (t = 1), grids with and without s = 0, and Weyl pairs whose pencil
    boundaries sit on grid points."""
    grid = default_grid()
    for d in range(2, 6):
        for ra in range(1, d + 1):
            for rb in range(1, d + 1):
                a, b = random_density(rng, d, ra), random_density(rng, d, rb)
                assert_matches_trace_norm(a, b, grid)
                assert_matches_trace_norm(b, a, grid[1:])
        a = random_density(rng, d)
        assert_matches_trace_norm(a, a, grid)
        e = np.eye(d)
        assert_matches_trace_norm(np.diag(e[0]), np.diag(e[-1]), grid)
        assert_matches_trace_norm(np.diag(e[0] + e[1]) / 2, np.diag(e[1] + e[-1]) / 2, grid)
    assert_matches_trace_norm(np.zeros((2, 2)), np.zeros((2, 2)), grid)
    for _ in range(10):
        thetas = rng.dirichlet(np.ones(4), size=2)
        s = np.unique(np.concatenate([grid, thetas[0] / thetas[1]]))
        assert_matches_trace_norm(*weyl_pair(rng, thetas), s)


def test_generic_pair_stacks_only_the_indefinite_middle(rng, monkeypatch):
    """A full-rank 4 x 4 pair sends to the stacked eigvalsh only s = 0, the
    grid points where a - s b is indefinite and the last grid point on each
    semidefinite side; every other point takes |tr a - s tr b|."""
    a, b = random_density(rng, 4), random_density(rng, 4)
    s = default_grid()
    lam = np.linalg.eigvalsh(a[None] - s[:, None, None] * b[None])
    psd, nsd = s[lam[:, 0] > 0], s[lam[:, -1] < 0]
    indefinite = s[(lam[:, 0] < 0) & (lam[:, -1] > 0)]
    grids = stacked_grids(monkeypatch)
    assert_matches_trace_norm(a, b, s)
    assert len(grids) == 1
    assert set(grids[0]) == {0.0, psd.max(), nsd.min(), *indefinite}
    # the three certifying points lead the stack, then every stacked s once
    assert len(grids[0]) == 6 + len(indefinite) < len(s)


def test_boundary_on_the_grid_keeps_the_closed_form(rng, monkeypatch):
    """At a Weyl pair's pencil boundary lambda_min(a - s b) is a rounding
    error of either sign; the certificate absorbs it instead of falling back
    to the whole grid."""
    grids = stacked_grids(monkeypatch)
    for _ in range(10):
        thetas = rng.dirichlet(np.ones(4), size=2)
        s = np.unique(np.concatenate([default_grid(), thetas[0] / thetas[1]]))
        sweep_norms(*weyl_pair(rng, thetas), s)
        assert len(grids) == 1 and len(grids.pop()) < len(s)


def member_below_zero(rng, d):
    """A d x d state whose lowest eigenvalue is -DENSITY_TOL / 2: it passes
    is_density, and a - s b need not be semidefinite where the guess says."""
    w, v = np.linalg.eigh(random_density(rng, d))
    w = np.concatenate([[-DENSITY_TOL / 2], w[1:]])
    return (v * (w / w.sum())) @ v.conj().T


def test_member_below_zero_is_refused_the_closed_form(rng, monkeypatch):
    """A member with an eigenvalue at -DENSITY_TOL / 2 still passes
    is_density, but a - s b need not be semidefinite where the guess says:
    the certificate fails and the whole grid is stacked."""
    a = member_below_zero(rng, 3)
    b = random_density(rng, 3)
    assert is_density(a)
    grids = stacked_grids(monkeypatch)
    c = gap_curve(a, b)
    assert np.array_equal(grids[-1], c.s_values)
    want = np.array([trace_norm(a - t * b) for t in c.s_values])
    assert np.all(np.abs(c.norms - want) <= 1e-12 * (1.0 + c.s_values))
    assert_matches_trace_norm(b, a, c.s_values)


def test_batch_matches_the_per_pair_sweep_bit_for_bit(rng, monkeypatch):
    """One _hermitian_sweeps call over pairs of every route gives each pair
    exactly the norms of the per-pair sweep it replaced: d = 2..5 at every
    pair of ranks, identical, disjoint, zero and t = 1 pairs, Weyl pairs
    with a pencil boundary on the grid, grids of several lengths (one of
    them empty), and a member below zero, whose failed certificate stacks
    its whole grid in the one extra eigvalsh of its dimension."""
    grid = default_grid()
    pairs, grids = [], []

    def add(a, b, s=grid):
        pairs.append((np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
        grids.append(s)

    for d in range(2, 6):
        for ra in range(1, d + 1):
            for rb in range(1, d + 1):
                add(random_density(rng, d, ra), random_density(rng, d, rb))
                add(random_density(rng, d, rb), random_density(rng, d, ra), grid[1:])
        a = random_density(rng, d)
        add(a, a)
        e = np.eye(d)
        add(np.diag(e[0]), np.diag(e[-1]))
        add(np.diag(e[0] + e[1]) / 2, np.diag(e[1] + e[-1]) / 2)
        add(np.zeros((d, d)), np.zeros((d, d)))
    for _ in range(5):
        thetas = rng.dirichlet(np.ones(4), size=2)
        add(*weyl_pair(rng, thetas), np.unique(np.concatenate([grid, thetas[0] / thetas[1]])))
    below = member_below_zero(rng, 3)
    add(below, random_density(rng, 3))
    add(random_density(rng, 3), random_density(rng, 3), grid[:0])
    calls = []
    kernel = comparison._stacked_eigvalsh

    def spy(a, b, pair, s):
        calls.append((len(a[0]), np.array(s[pair == pair[-1]])))
        return kernel(a, b, pair, s)

    monkeypatch.setattr(comparison, "_stacked_eigvalsh", spy)
    norms = comparison._hermitian_sweeps(pairs, grids)
    for (a, b), s, got in zip(pairs, grids, norms):
        assert np.array_equal(got, hermitian_sweep_oracle(a, b, s))
    # one stacked eigvalsh per dimension, and one more for the pair below zero
    assert [d for d, _ in calls] == [2, 3, 3, 4, 5]
    assert np.array_equal(calls[2][1], grid)


def test_noncommuting_family_takes_one_stacked_sweep(rng, monkeypatch):
    """A 5-member comparison of noncommuting qutrit families sends all 20
    member pairs through one stacked guess and one stacked eigvalsh."""
    cand = [random_density(rng, 3) for _ in range(5)]
    chal = [random_density(rng, 3) for _ in range(5)]
    sweeps, guesses = [], []
    kernel, guess = comparison._stacked_eigvalsh, comparison._semidefinite_ends

    def spy_sweep(a, b, pair, s):
        sweeps.append(len(set(pair.tolist())))
        return kernel(a, b, pair, s)

    def spy_guess(a, b):
        guesses.append(len(a))
        return guess(a, b)

    monkeypatch.setattr(comparison, "_stacked_eigvalsh", spy_sweep)
    monkeypatch.setattr(comparison, "_semidefinite_ends", spy_guess)
    dominance_check(cand, chal, certify=False)
    assert sweeps == [20] and guesses == [20]


def test_stacked_sweep_memory_is_bounded(rng):
    """Two 5-member families of full-rank states at d = 32: 20 noncommuting
    pairs, whose stacks peaked at 128 MB when held all at once."""
    cand, chal = ([random_density(rng, 32) for _ in range(5)] for _ in range(2))
    tracemalloc.start()
    try:
        dominance_check(cand, chal, certify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


@pytest.mark.parametrize("d,rows", [(32, None), (3, 1), (3, 7), (3, 50)])
def test_slabs_keep_the_single_stack_bits(rng, monkeypatch, d, rows):
    """The sweep's stack cut into slabs of rows matrices (the default slab
    at d = 32: 64 matrices) gives every norm the bits of one stack."""
    cand, chal = ([random_density(rng, d) for _ in range(2)] for _ in range(2))
    pairs = [((cand[0], cand[1]), (chal[0], chal[1]))]
    if rows is not None:
        monkeypatch.setattr(comparison, "_SLAB_ENTRIES", rows * d * d)
    got = comparison._sweep(pairs, default_grid())
    monkeypatch.setattr(comparison, "_SLAB_ENTRIES", 1 << 60)
    want = comparison._sweep(pairs, default_grid())
    for (_, _, s_got, norms_got), (_, _, s_want, norms_want) in zip(got, want):
        assert np.array_equal(s_got, s_want)
        assert all(np.array_equal(x, y) for x, y in zip(norms_got, norms_want))


def per_pair_sweep(groups, grid):
    """_sweep as it was before batching: group by group and pair by pair,
    the noncommuting pairs through hermitian_sweep_oracle."""
    out = []
    for group in groups:
        spectra = [_joint_spectrum(*pair) for pair in group]
        kinks = [comparison._breakpoints(spectrum) for spectrum in spectra]
        s = np.unique(np.concatenate([grid, *kinks]))
        norms = []
        for pair, spectrum in zip(group, spectra):
            a, b = comparison._sweep_operands(pair, spectrum, s)
            norms.append(sweep_norms(a, b, s) if np.ndim(a) == 1 else hermitian_sweep_oracle(a, b, s))
        out.append((spectra, kinks, s, norms))
    return out


def seeded_families(rng, members, kind):
    """(candidate, challenger) outputs of one of five kinds: independent
    random states, identical families, a commuting family against its image
    under a random channel (and the reverse), and a noncommuting family
    against its image."""
    d = int(rng.integers(2, 4))
    if kind == "random":
        return [random_density(rng, d) for _ in range(members)], [random_density(rng, d) for _ in range(members)]
    if kind == "identical":
        fam = [random_density(rng, d) for _ in range(members)]
        return fam, [m.copy() for m in fam]
    if kind == "noncommuting-image":
        src = [random_density(rng, d) for _ in range(members)]
    else:
        u = haar_unitary(rng, d)
        src = [u @ np.diag(p) @ u.conj().T for p in rng.dirichlet(np.ones(d), size=members)]
    ks = random_kraus(rng, d, d, 2)
    image = [sum(k @ m @ k.conj().T for k in ks) for m in src]
    return (image, src) if kind == "commuting-source" else (src, image)


def test_family_verdicts_match_the_per_pair_route(rng, monkeypatch):
    """On 300 seeded 2-, 3- and 5-member families of every route, the
    batched sweep gives every verdict field for field, witness_s and gap to
    the bit, as sweeping pair by pair with the per-pair kernel does."""
    kinds = ("random", "identical", "commuting-image", "commuting-source", "noncommuting-image")
    cases = [seeded_families(rng, m, kinds[k % 5]) for m in (2, 3, 5) for k in range(100)]
    batch = [dominance_check(c, h, certify=False) for c, h in cases]
    monkeypatch.setattr(comparison, "_sweep", per_pair_sweep)
    assert [dominance_check(c, h, certify=False) for c, h in cases] == batch
    assert {v.relation for v in batch} == {"dominates", "dominated", "equivalent", "incomparable", "inconclusive"}


def test_gap_curve_reports_the_kinks_it_merged(monkeypatch):
    """gap_curve finds a commuting pair's kinks once, merges them into the
    grid and reports those same kinks."""
    calls = []
    real = comparison._breakpoints

    def spy(spectrum):
        calls.append(spectrum)
        return real(spectrum)

    monkeypatch.setattr(comparison, "_breakpoints", spy)
    c = gap_curve(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), grid=[0.0, 1.0])
    assert len(calls) == 1
    assert c.breakpoints.tolist() == [0.5]
    assert c.s_values.tolist() == [0.0, 0.5, 1.0]


def test_density_errors_name_the_member():
    good, bad = np.eye(2) / 2, np.eye(2)
    with pytest.raises(ValueError, match="^rho_plus is not a density matrix$"):
        gap_curve(bad, good)
    with pytest.raises(ValueError, match="^rho_minus is not a density matrix$"):
        gap_curve(good, bad)
    with pytest.raises(ValueError, match="^state pair must share one dimension$"):
        gap_curve(good, np.eye(3) / 3)
    with pytest.raises(ValueError, match="^candidate_outputs contains a non-density matrix$"):
        dominance_check([good, bad], [good, good])
    with pytest.raises(ValueError, match="^challenger_outputs contains a non-density matrix$"):
        dominance_check([good, good], [good, bad])


def test_grid_must_be_finite(rng):
    a, b = random_density(rng, 2), random_density(rng, 2)
    with pytest.raises(ValueError, match="finite"):
        dominance_check([a, b], [b, a], grid=[np.inf], certify=False)
    with pytest.raises(ValueError, match="finite"):
        gap_curve(a, b, grid=[0.5, np.nan])


def test_dominance_rejects_non_density():
    with pytest.raises(ValueError):
        dominance_check([np.eye(2), np.eye(2) / 2], [np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(ValueError):
        dominance_check([np.eye(2) / 2], [np.eye(2) / 2])


# ---------------------------------------------------------------------------
# bayes_binary_risk


def test_bayes_risk_orthogonal_and_identical(rng):
    e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert abs(bayes_binary_risk(e0, e1, 0.5)) < 1e-12
    rho = random_density(rng, 2)
    for prior in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert abs(bayes_binary_risk(rho, rho, prior) - min(prior, 1 - prior)) < 1e-12


def test_bayes_risk_gp_eigen_oracle():
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.0, 0.0], [0.3, 0.0, 0.0]]})
    outs = phi_outputs(fam)
    lam = np.linalg.eigvalsh(0.5 * outs[0] - 0.5 * outs[1])
    want = 0.5 * (1.0 - np.abs(lam).sum())
    assert abs(bayes_binary_risk(outs[0], outs[1], 0.5) - want) < 1e-12


def test_bayes_risk_rejects_bad_prior(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError):
        bayes_binary_risk(rho, rho, 1.5)


# ---------------------------------------------------------------------------
# cptp_feasible


def test_feasible_identity_instance(rng):
    srcs = [random_density(rng, 2), random_density(rng, 2)]
    res = cptp_feasible(srcs, [m.copy() for m in srcs])
    assert res.feasible
    assert res.residual <= 1e-7


def test_feasible_choi_certificate_properties(rng):
    a, b = np.array([1.0, 0.0]), np.array([0.8, 0.6])
    c = np.array([1.0, 0.0])
    d = np.array([0.3, np.sqrt(1 - 0.09)])
    # source overlap 0.8 -> target overlap 0.3: infeasible
    res = cptp_feasible([np.outer(a, a), np.outer(b, b)], [np.outer(c, c), np.outer(d, d)])
    assert not res.feasible
    assert res.residual > 1e-7
    # reversed direction is feasible, with a certified Choi matrix
    res2 = cptp_feasible([np.outer(c, c), np.outer(d, d)], [np.outer(a, a), np.outer(b, b)])
    assert res2.feasible
    w = res2.choi.matrix
    assert np.linalg.eigvalsh(w).min() >= -1e-8
    assert max_abs(res2.choi.trace_out_output() - np.eye(2)) <= 1e-6
    # the certificate actually maps sources to targets
    assert max_abs(res2.choi.apply(np.outer(c, c)) - np.outer(a, a)) < 1e-6


def test_feasible_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        cptp_feasible([random_density(rng, 2)], [random_density(rng, 2), random_density(rng, 2)])


def pure_pair(rng, d, overlap):
    """Two projectors onto random pure states with |<a|c>| = overlap."""
    a, b = random_pure(rng, d), random_pure(rng, d)
    b = b - np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    c = overlap * a + np.sqrt(1.0 - overlap**2) * b
    return [np.outer(a, a.conj()), np.outer(c, c.conj())]


def random_kraus(rng, din, dout, rank):
    """Kraus operators of a random channel: blocks of a random isometry
    (rank is raised to the smallest that admits one)."""
    rank = max(rank, -(-din // dout))
    g = rng.normal(size=(rank * dout, din)) + 1j * rng.normal(size=(rank * dout, din))
    q, _ = np.linalg.qr(g)
    return [q[k * dout : (k + 1) * dout] for k in range(rank)]


def witness_separates(witness, sources, targets):
    """Farkas check from the sources and targets alone: every channel meeting
    the constraints has tr(Z W) = value, yet W >= 0 with tr W = d_in forces
    tr(Z W) >= d_in lambda_min(Z)."""
    din, dout = sources[0].shape[0], targets[0].shape[0]
    ys, x = witness.image_duals, witness.trace_dual
    assert len(ys) == len(sources)
    for m in (*ys, x):
        assert max_abs(m - m.conj().T) <= 1e-12
    z = sum(np.kron(y, rho.T) for y, rho in zip(ys, sources)) + np.kron(np.eye(dout), x)
    value = sum(np.trace(y @ sig).real for y, sig in zip(ys, targets)) + np.trace(x).real
    return value < din * np.linalg.eigvalsh(z).min()


@pytest.mark.parametrize("din,dout", [(2, 2), (2, 3), (3, 2)])
def test_infeasible_result_carries_checked_witness(rng, din, dout):
    src, tgt = pure_pair(rng, din, 0.8), pure_pair(rng, dout, 0.3)
    res = cptp_feasible(src, tgt)
    assert not res.feasible and res.status == "infeasible"
    assert res.iterations >= 1
    assert witness_separates(res.witness, src, tgt)
    assert cptp_feasible(src, tgt).iterations == res.iterations
    # the reverse direction is feasible and carries no witness
    back = cptp_feasible(tgt, src)
    assert back.feasible and back.status == "feasible" and back.witness is None
    assert back.residual <= 1e-7


def test_feasibility_never_certifies_a_feasible_instance(rng):
    instances = []
    for ranks in ((1, 2), (2, 2, 1)):
        fam = [random_density(rng, 2, rank) for rank in ranks]
        instances.append((fam, [m.copy() for m in fam]))
    for din, dout in ((2, 2), (2, 3), (3, 2)):
        for rank in (1, 2, 3):
            fam = [random_density(rng, din, r) for r in (1, din, 1)]
            ks = random_kraus(rng, din, dout, rank)
            instances.append((fam, [sum(k @ m @ k.conj().T for k in ks) for m in fam]))
        for source, target in ((0.9, 0.95), (0.4, 0.41), (0.1, 0.8)):
            instances.append((pure_pair(rng, din, source), pure_pair(rng, dout, target)))
    for src, tgt in instances:
        res = cptp_feasible(src, tgt)
        assert res.status in {"feasible", "unresolved"}
        assert res.feasible == (res.status == "feasible")
        assert res.witness is None
        if res.feasible:
            assert res.residual <= 1e-7


def test_near_miss_pair_is_never_feasible(rng):
    src, tgt = pure_pair(rng, 2, 0.51), pure_pair(rng, 2, 0.5)
    res = cptp_feasible(src, tgt)
    assert not res.feasible
    assert res.status in {"infeasible", "unresolved"}
    if res.status == "infeasible":
        assert witness_separates(res.witness, src, tgt)
    else:
        assert res.witness is None


def conjugated_weyl_pair(rng):
    """Two qubit Weyl mixtures, each followed by its own unitary: phi_d
    against a random (2,2) input, a Choi dimension of 16 (the pair-verdict
    cap)."""
    chans = []
    for _ in range(2):
        u, weights = haar_unitary(rng, 2), rng.dirichlet(np.ones(4))
        chans.append(KrausChannel.from_ops([np.sqrt(p) * u @ w for p, w in zip(weights, weyl_ops(2))]))
    shape = SystemShape((2, 2))
    phi, psi = max_entangled(2), random_pure(rng, 4)
    src, tgt = ([apply_extended(ch, np.outer(v, v.conj()), shape) for ch in chans] for v in (phi, psi))
    return [(src, tgt)]


def qutrit_identity(rng):
    """The identity map on one pure and one full-rank qutrit state."""
    fam = [random_density(rng, 3, 1), random_density(rng, 3)]
    return [(fam, [m.copy() for m in fam])]


def near_miss_qutrit_to_qubit(rng):
    """60 pure pairs, 3 -> 2, whose source overlap exceeds the target's by
    1e-3 to 1e-1: no channel exists, by a small margin."""
    instances = []
    for _ in range(60):
        target = rng.uniform(0.05, 0.85)
        source = target + 10 ** rng.uniform(-3, -1)
        instances.append((pure_pair(rng, 3, source), pure_pair(rng, 2, target)))
    return instances


# instances that once took seconds to minutes or ended unresolved, the
# statuses each must end in, and the seconds all of them may take together
SLOW_INSTANCES = {
    "two-qubit-pair": (conjugated_weyl_pair, {"feasible", "infeasible"}, 2.0),
    "qutrit-identity": (qutrit_identity, {"feasible"}, 1.0),
    "near-miss-3-to-2": (near_miss_qutrit_to_qubit, {"infeasible"}, 3.0),
}


@pytest.mark.parametrize("case", sorted(SLOW_INSTANCES))
def test_feasibility_resolves_within_time_bound(rng, case):
    build, statuses, seconds = SLOW_INSTANCES[case]
    instances = build(rng)
    start = time.perf_counter()
    results = [cptp_feasible(src, tgt) for src, tgt in instances]
    assert time.perf_counter() - start < seconds
    for (src, tgt), res in zip(instances, results):
        assert res.status in statuses
        if res.feasible:
            w = res.choi
            assert np.linalg.eigvalsh(w.matrix).min() >= -1e-8
            assert max_abs(w.trace_out_output() - np.eye(src[0].shape[0])) <= 1e-7
            for rho, sigma in zip(src, tgt):
                assert max_abs(w.apply(rho) - sigma) <= 1e-7
        else:
            assert witness_separates(res.witness, src, tgt)


def choi_maps(w, sources, targets, tol=1e-7) -> bool:
    """Whether the Choi matrix w on H_out (x) H_in is PSD and trace preserving
    and maps each source onto its target, L(rho)_ab = sum_ij w_(ai),(bj)
    rho_ij, all within tol."""
    din, dout = sources[0].shape[0], targets[0].shape[0]
    t = w.reshape(dout, din, dout, din)
    return bool(
        np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min() >= -tol
        and max_abs(np.einsum("aiaj->ij", t) - np.eye(din)) <= tol
        and all(max_abs(np.einsum("aibj,ij->ab", t, rho) - sigma) <= tol
                for rho, sigma in zip(sources, targets))
    )


def newton_instances():
    """40 seeded pure pairs at each of 2->2, 2->3 and 3->2 with overlaps
    0.3 -> 0.7 (feasible), the kind of instance the interior-point method
    resolves in 8-10 steps and a less accurate Newton solve (an SVD
    pseudo-inverse in place of lstsq) left unresolved."""
    rng = np.random.default_rng(2525)
    return [
        (pure_pair(rng, din, 0.3), pure_pair(rng, dout, 0.7))
        for din, dout in ((2, 2), (2, 3), (3, 2))
        for _ in range(40)
    ]


def test_newton_solve_resolves_every_seeded_pure_pair():
    for src, tgt in newton_instances():
        res = cptp_feasible(src, tgt)
        assert res.status == "feasible" and 1 <= res.iterations <= 12
        assert res.residual <= CPTP_STOP_TOL
        assert choi_maps(res.choi.matrix, src, tgt)


def test_newton_solve_refutes_every_mirrored_pure_pair():
    for src, tgt in newton_instances():
        res = cptp_feasible(tgt, src)
        assert res.status == "infeasible"
        assert witness_separates(res.witness, tgt, src)


def test_projected_start_that_is_a_channel_takes_no_step():
    """|0> and |+> onto their halfway depolarized images: the point of the
    constraints nearest the start is already a channel."""
    src = [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]
    tgt = [0.5 * m + 0.25 * np.eye(2) for m in src]
    res = cptp_feasible(src, tgt)
    assert res.status == "feasible" and res.iterations == 0 and res.witness is None
    assert res.residual <= CPTP_STOP_TOL
    assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == 0.0
    assert abs(g[1] - 1e-3) < 1e-15
    assert abs(g[-1] - 1e3) < 1e-9
    assert len(g) == 201
