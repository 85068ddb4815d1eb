import io
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from chanopt import comparison
from chanopt.channels import apply_extended, make_family, weyl_ops
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
from chanopt.optimal_inputs import pair_unitary_optimal_input
from chanopt.numerics import (
    DENSITY_TOL,
    SystemShape,
    is_density,
    max_abs,
    max_entangled,
    partial_trace,
    trace_norm,
)
from conftest import (
    FIXTURE_SEED,
    bloch,
    haar_unitary,
    hermitian_sweep_oracle,
    random_density,
    random_kraus,
    random_pure,
)
from corpus import (
    FAILURE_DRAWS,
    compressible_instances,
    conjugated_weyl_pair,
    image_of,
    near_miss_qutrit_to_qubit,
    newton_instances,
    pure_pair,
    pure_sources,
    qutrit_identity,
)


def phi_outputs(fam):
    phi = max_entangled(fam.din)
    shape = SystemShape((fam.din, fam.din))
    return [apply_extended(ch, np.outer(phi, phi.conj()), shape) for _, ch in fam.members]


def commutes(a, b) -> bool:
    return max_abs(a @ b - b @ a) <= COMMUTE_TOL


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


def hermitian_sweep(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 of one Hermitian pair, by the batched sweep."""
    return comparison._hermitian_sweeps([(a, b)], [np.asarray(s, dtype=float)])[0]


def test_sweep_norms_match_trace_norm(rng):
    s = np.array([0.0, 0.3, 1.0, 7.5])
    a, b = random_density(rng, 3), random_density(rng, 3)
    want = [trace_norm(a - t * b) for t in s]
    assert max_abs(hermitian_sweep(a, b, s) - want) < 1e-12


def test_joint_eigenbasis_diagonalizes_both(rng):
    u = haar_unitary(rng, 3)
    a = u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T
    b = u @ np.diag([0.25, 0.25, 0.5]) @ u.conj().T
    vecs, p, q, r = _joint_spectrum(a, b)
    assert r < 1e-12
    assert max_abs(vecs.conj().T @ vecs - np.eye(3)) < 1e-12
    assert max_abs(a @ vecs - vecs * p) < 1e-12
    assert max_abs(b @ vecs - vecs * q) < 1e-12


def commuting_pairs(rng):
    """((a, b), (weights of a, weights of b)) of commuting pairs at d = 1..5
    with a simple b spectrum, with zero eigenvalues and with a degenerate b
    whose eigenspace a splits; the last is Bell-diagonal, b with two equal
    weights."""
    cases = []
    for d in range(1, 6):
        u = haar_unitary(rng, d)
        weights = [rng.dirichlet(np.ones(d), size=2)]
        if d > 1:
            zeros = rng.dirichlet(np.ones(d), size=2)
            zeros[0, 0] = zeros[1, -1] = 0.0
            even = rng.dirichlet(np.ones(d), size=2)
            even[1, :2] = even[1, :2].mean()
            weights += [zeros / zeros.sum(axis=1, keepdims=True), even]
        cases += [(tuple(u @ np.diag(w) @ u.conj().T for w in pw), pw) for pw in weights]
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).T / np.sqrt(2)
    pw = np.array([[0.4, 0.1, 0.3, 0.2], [0.3, 0.3, 0.25, 0.15]])
    cases.append((tuple(bell @ np.diag(w) @ bell.T for w in pw), pw))
    return cases


def test_joint_spectrum_does_not_depend_on_its_batch(rng):
    """A commuting pair gets from _joint_spectrum alone the bits of its entry
    in one _sweep batch that mixes d = 1..5, simple and degenerate b spectra,
    zero eigenvalues and noncommuting pairs. Against a dense reference V is
    unitary and leaves both members diagonal within the r it returns, and
    (p, q) are the weights the pair was built from."""
    cases = commuting_pairs(rng)
    noncommuting = [(random_density(rng, d), random_density(rng, d)) for d in (2, 4)]
    pairs = [pair for pair, _ in cases] + noncommuting
    order = rng.permutation(len(pairs))
    ((spectra, _, _, _),) = comparison._sweep([[pairs[k] for k in order]], default_grid())
    batch = dict(zip(order.tolist(), spectra))
    for k, (a, b) in enumerate(noncommuting, start=len(cases)):
        assert batch[k] is None and _joint_spectrum(a, b) is None
    for k, ((a, b), weights) in enumerate(cases):
        alone = _joint_spectrum(a, b)
        assert all(np.array_equal(x, y) for x, y in zip(alone, batch[k]))
        v, p, q, r = alone
        assert r < 1e-12
        assert max_abs(np.einsum("ki,kj->ij", v.conj(), v) - np.eye(len(p))) < 1e-12
        for m, lam in ((a, p), (b, q)):
            assert max_abs(np.einsum("ki,kl,lj->ij", v.conj(), m, v) - np.diag(lam)) <= r + 1e-15
        got = sorted(zip(q.round(12), p.round(12)))
        assert got == sorted(zip(weights[1].round(12), weights[0].round(12)))


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


def test_challenger_win_without_a_certificate_is_inconclusive_both_ways():
    """Draw 1795, rounded to 6 digits, of seeded qubit pairs:
    np.random.default_rng(11); per draw, two candidate Bloch vectors, each
    of length U(0.3, 0.99) drawn first, then a direction from
    normal(size=3); then each challenger vector is r U(0.97, 1.03) +
    N(0, 0.01)^3, rescaled to length 0.999 if it reaches 1. The challenger
    beats on the grid, yet the candidate beats it at s = 0.73751, between
    the grid points 0.73168 and 0.78428; no pair is certified either way,
    so neither order makes a claim, with certify on or off. The witness is
    still the challenger's largest margin on the grid."""
    cand = [bloch([0.028088, 0.26954, 0.271766]), bloch([-0.299104, 0.472341, 0.428864])]
    chal = [bloch([0.013708, 0.246295, 0.266742]), bloch([-0.295564, 0.483449, 0.436863])]
    for certify in (True, False):
        v = dominance_check(cand, chal, certify=certify)
        assert (v.relation, v.method) == ("inconclusive", "sweep-necessary")
        assert abs(v.witness_s - 2.22194686094) < 1e-9 and abs(v.gap - 0.0310428216502) < 1e-12
        back = dominance_check(chal, cand, certify=certify)
        assert (back.relation, back.method, back.witness_s) == ("inconclusive", "sweep-necessary", None)
    prior = 1.0 / (1.0 + 0.7375087366725299)
    assert bayes_binary_risk(*chal, prior) - bayes_binary_risk(*cand, prior) > 6e-4


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
    if chal_comm:
        return "dominated", s_all[k], -diff[k], "sweep-sufficient-commuting"
    return "inconclusive", s_all[k], -diff[k], "sweep-necessary"


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
        if all(commutes(*h) for (_, h), l in zip(pairs, beaten) if l):
            return "dominated", witness, gap, "sweep-sufficient-commuting"
        return "inconclusive", witness, gap, "sweep-necessary"
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
    # is noncommuting on the certified side, both ways; pure sources are
    # decided by the overlap rule, their 10 % depolarized twins by the solver
    pure = [np.outer(x, x.conj()) for x in (random_pure(rng, 2) for _ in range(3))]
    ks = random_kraus(rng, 2, 2, 2)
    for cand, solved in ((pure, []), ([0.9 * m + 0.05 * np.eye(2) for m in pure], [2, 2, 2])):
        chal = [sum(k @ m @ k.conj().T for k in ks) for m in cand]
        for fams, relation in (((cand, chal), "dominates"), ((chal, cand), "dominated")):
            del calls[:]
            v = dominance_check(*fams)
            assert (v.relation, v.method) == (relation, "randomization-certificate")
            assert calls == solved


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
    assert np.all(np.abs(hermitian_sweep(a, b, s) - want) <= 1e-12 * (1.0 + s))


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
    """A full-rank 4 x 4 pair sends to the stacked eigvalsh, over its two
    rounds, only s = 0, the grid points where a - s b is indefinite and the
    last grid point on each semidefinite side, each once; every other point
    takes |tr a - s tr b|."""
    a, b = random_density(rng, 4), random_density(rng, 4)
    s = default_grid()
    lam = np.linalg.eigvalsh(a[None] - s[:, None, None] * b[None])
    psd, nsd = s[lam[:, 0] > 0], s[lam[:, -1] < 0]
    indefinite = s[(lam[:, 0] < 0) & (lam[:, -1] > 0)]
    grids = stacked_grids(monkeypatch)
    assert_matches_trace_norm(a, b, s)
    assert len(grids) == 2
    assert set(np.concatenate(grids)) == {0.0, psd.max(), nsd.min(), *indefinite}
    # the three certifying points lead the first stack; no point is stacked twice
    assert sum(map(len, grids)) == 3 + len(indefinite) < len(s)


def test_commuting_pairs_stack_one_eigh_per_dimension(rng, monkeypatch):
    """A dominance_check of two 5-member commuting families, candidates at
    d = 4 and challengers at d = 3, diagonalizes its 20 commuting pairs with
    one stacked eigh per dimension, not one eigh per pair and eigenspace."""
    cand, chal = (
        [u @ np.diag(w) @ u.conj().T for w in rng.dirichlet(np.ones(d), size=5)]
        for u, d in ((haar_unitary(rng, 4), 4), (haar_unitary(rng, 3), 3))
    )
    shapes = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    dominance_check(cand, chal, certify=False)
    assert shapes == [(10, 4, 4), (10, 3, 3)]


def test_boundary_on_the_grid_keeps_the_closed_form(rng, monkeypatch):
    """At a Weyl pair's pencil boundary lambda_min(a - s b) is a rounding
    error of either sign; the certificate absorbs it instead of falling back
    to the whole grid."""
    grids = stacked_grids(monkeypatch)
    for _ in range(10):
        thetas = rng.dirichlet(np.ones(4), size=2)
        s = np.unique(np.concatenate([default_grid(), thetas[0] / thetas[1]]))
        hermitian_sweep(*weyl_pair(rng, thetas), s)
        assert len(grids) == 2 and len(grids.pop()) + len(grids.pop()) < len(s)


def member_below_zero(rng, d):
    """A d x d state whose lowest eigenvalue is -DENSITY_TOL / 2: it passes
    is_density, and a - s b need not be semidefinite where the guess says."""
    w, v = np.linalg.eigh(random_density(rng, d))
    w = np.concatenate([[-DENSITY_TOL / 2], w[1:]])
    return (v * (w / w.sum())) @ v.conj().T


def test_member_below_zero_is_refused_the_closed_form(rng, monkeypatch):
    """A member with an eigenvalue at -DENSITY_TOL / 2 still passes
    is_density, but a - s b need not be semidefinite where the guess says:
    the certificate fails and the two rounds stack the whole grid."""
    a = member_below_zero(rng, 3)
    b = random_density(rng, 3)
    assert is_density(a)
    grids = stacked_grids(monkeypatch)
    c = gap_curve(a, b)
    assert len(grids) == 2 and np.array_equal(np.unique(np.concatenate(grids)), c.s_values)
    want = np.array([trace_norm(a - t * b) for t in c.s_values])
    assert np.all(np.abs(c.norms - want) <= 1e-12 * (1.0 + c.s_values))
    assert_matches_trace_norm(b, a, c.s_values)


def test_batch_matches_the_per_pair_sweep_bit_for_bit(rng, monkeypatch):
    """One _hermitian_sweeps call over pairs of every route gives each pair
    exactly the norms of the per-pair sweep it replaced: d = 2..5 at every
    pair of ranks, identical, disjoint, zero and t = 1 pairs, Weyl pairs
    with a pencil boundary on the grid, grids of several lengths (one of
    them empty), and a member below zero, whose failed certificate leaves
    its closed sides to the second round, so that the two rounds stack its
    whole grid."""
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
    # the row of the pair below zero in the stacks of the 3 x 3 pairs
    k_below = [len(a) for a, _ in pairs].count(3) - 1
    add(random_density(rng, 3), random_density(rng, 3), grid[:0])
    calls = []
    kernel = comparison._stacked_eigvalsh

    def spy(a, b, pair, s):
        calls.append((len(a[0]), np.array(s[pair == k_below])))
        return kernel(a, b, pair, s)

    monkeypatch.setattr(comparison, "_stacked_eigvalsh", spy)
    norms = comparison._hermitian_sweeps(pairs, grids)
    for (a, b), s, got in zip(pairs, grids, norms):
        assert np.array_equal(got, hermitian_sweep_oracle(a, b, s))
    # two stacked eigvalsh per dimension, one per round
    assert [d for d, _ in calls] == [2, 3, 4, 5] * 2
    assert np.array_equal(np.unique(np.concatenate([calls[1][1], calls[5][1]])), grid)


def sweep_verdict_families(rng, kind):
    """(candidate, challenger) outputs as the sweep-verdicts benchmark builds
    them: Bell against a random two-qubit input on a 5-member unital family
    (conjugated Weyl mixtures, both sides noncommuting) or a 5-member gp
    family (commuting Bell side), the damp basis input against Bell, or a
    3-member pure qubit family against its image under a random 2-Kraus
    channel, as certify-feasibility compares them."""
    shape, phi = SystemShape((2, 2)), max_entangled(2)
    bell = np.outer(phi, phi.conj())
    if kind == "pure":
        cand = [np.outer(v, v.conj()) for v in (random_pure(rng, 2) for _ in range(3))]
        ks = random_kraus(rng, 2, 2, 2)
        return cand, [sum(k @ m @ k.conj().T for k in ks) for m in cand]
    if kind == "damp":
        fam, excited = make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]}), np.diag([0.0, 1.0])
        return [np.kron(ch.apply(excited), excited) for ch in fam.channels()], [
            apply_extended(ch, bell, shape) for ch in fam.channels()
        ]
    if kind == "unital":
        kraus = []
        for theta in rng.dirichlet(np.ones(4), size=5):
            left, right = haar_unitary(rng, 2), haar_unitary(rng, 2)
            kraus.append([left @ (np.sqrt(t) * w) @ right for t, w in zip(theta, weyl_ops(2))])
        fam = make_family("custom", {"kraus": kraus})
    else:
        fam = make_family("gp", {"d": 2, "thetas": rng.dirichlet(np.ones(4), size=5).tolist()})
    psi = random_pure(rng, 4)
    return [apply_extended(ch, bell, shape) for ch in fam.channels()], [
        apply_extended(ch, np.outer(psi, psi.conj()), shape) for ch in fam.channels()
    ]


def test_noncommuting_family_stacks_a_third_of_the_full_sweep(rng, monkeypatch):
    """A 5-member comparison of noncommuting unital families sends its 20
    member pairs through one stacked guess and two stacked eigvalsh (the
    second only at the points the first round's bounds leave open), and
    stacks at most 35% of the matrices that sweeping every grid point does,
    as a sweep curve does: the certifying points and the whole indefinite
    middle of each pair."""
    cand, chal = sweep_verdict_families(rng, "unital")
    sweeps, guesses = [], []
    kernel, guess = comparison._stacked_eigvalsh, comparison._semidefinite_ends

    def spy_sweep(a, b, pair, s):
        sweeps.append((len(set(pair.tolist())), len(pair)))
        return kernel(a, b, pair, s)

    def spy_guess(a, b):
        guesses.append(len(a))
        return guess(a, b)

    monkeypatch.setattr(comparison, "_stacked_eigvalsh", spy_sweep)
    monkeypatch.setattr(comparison, "_semidefinite_ends", spy_guess)
    full = 0
    for fam in (cand, chal):
        for i, j in combinations(range(5), 2):
            hermitian_sweep(fam[i], fam[j], default_grid())
            full += sum(n for _, n in sweeps)
            del sweeps[:]
    del guesses[:]
    v = dominance_check(cand, chal, certify=False)
    assert v.relation != "dominated"
    assert len(sweeps) == 2 and sweeps[0][0] == 20 and guesses == [20]
    assert sum(n for _, n in sweeps) <= 0.35 * full


def test_convex_bounds_hold_at_every_point_left_out(rng):
    """On pairs of every rank at d = 2..5 and on grids reaching 1e8, the
    bounds _convex_bounds draws from every third (or every tenth) computed
    norm hold what sweeping every point gives at each point left out, with
    lo < hi there, and equal the norm where it is computed."""
    grids = (default_grid(), np.geomspace(1e-4, 1e8, 120))
    for d in range(2, 6):
        for ra, rb in ((1, 1), (1, d), (d, 1), (d, d), (2, d - 1)):
            a, b = random_density(rng, d, ra), random_density(rng, d, rb)
            for s, stride in ((grids[0], 3), (grids[1], 10)):
                full = hermitian_sweep(a, b, s)[None]
                f = np.where(np.arange(len(s)) % stride == 0, full, np.nan)
                fro = [np.linalg.norm(m)[None] for m in (a, b)]
                floor = np.abs(np.trace(a).real - s * np.trace(b).real)[None]
                lo, hi = comparison._convex_bounds(s[None], f, *comparison._norm_error(d, *fro), floor)
                out = np.isnan(f)
                assert np.all(lo[out] <= full[out]) and np.all(full[out] <= hi[out])
                assert np.all(lo[out] < hi[out])
                assert np.array_equal(lo[~out], full[~out]) and np.array_equal(hi[~out], full[~out])


def test_family_verdicts_match_the_full_sweep_on_the_benchmark_families(rng, monkeypatch):
    """On the benchmark's unital, gp and damp families and certify-
    feasibility's pure qubit families, each way round, with certify on and
    off and on grids of 9, 201 and 2001 points, the two-round sweep gives
    every verdict field for field, witness_s and gap to the bit, as
    sweeping every point of every pair with the per-pair kernel does."""
    cases = [sweep_verdict_families(rng, kind) for kind in ("unital", "gp", "damp", "pure", "pure")]
    calls = [
        (fams, grid, certify)
        for cand, chal in cases
        for fams in ((cand, chal), (chal, cand))
        for grid in (default_grid(), default_grid(8), default_grid(2000))
        for certify in (False, True)
    ]
    batch = [dominance_check(*fams, grid=grid, certify=certify) for fams, grid, certify in calls]
    monkeypatch.setattr(comparison, "_sweep", per_pair_sweep)
    assert [dominance_check(*fams, grid=grid, certify=certify) for fams, grid, certify in calls] == batch
    assert {v.relation for v in batch} >= {"dominates", "dominated", "incomparable"}


def test_round_off_at_large_s_is_no_witness():
    """At s = 1e7 both curves of two Ginibre families are s - 1 to within
    whole ulps of 1e7 (1.9e-9 each); a difference of that size is within
    the norms' error bound, not a point where the challenger beats. Seeds
    0-199 at d = 2, 3, 4 reported 77 such witnesses at s = 1e7 and 89 at
    1e10 when any difference beyond SWEEP_TOL counted."""
    for s in (1e7, 1e10):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = [2, 3, 4][seed % 3]
            cand, chal = ([random_density(rng, d) for _ in range(2)] for _ in range(2))
            v = dominance_check(cand, chal, grid=[s], certify=False)
            assert v.witness_s is None, (s, seed, v)


def test_joint_eigenvalue_above_round_off_keeps_its_kink():
    """A joint eigenvalue q of 1e-13 or 1e-14 is no round-off at qubit
    scale: below its kink s = 0.3 / q the challenger's curve is higher by
    only 2 q s, and beyond it by 0.6. Dropping every q <= 1e-12 read both
    orders as equivalent, ties settled up to the last grid point."""
    plus = np.diag([0.7, 0.3])
    for q in (1e-13, 1e-14):
        cand, chal = [plus, np.diag([1 - q, q])], [plus, np.diag([1.0, 0.0])]
        v = dominance_check(cand, chal)
        assert (v.relation, v.method) == ("dominated", "sweep-sufficient-commuting")
        assert v.witness_s == pytest.approx(0.3 / q) and abs(v.gap - 0.6) < 0.01
        assert dominance_check(chal, cand).relation == "dominates"


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


def per_pair_sweep(groups, grid, undecided=None):
    """_sweep as it was before batching: group by group and pair by pair,
    the noncommuting pairs through hermitian_sweep_oracle, every point of
    every grid computed whatever undecided asks for."""
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
    assert max_abs(partial_trace(w, SystemShape((2, 2)), keep=1) - np.eye(2)) <= 1e-6
    # the certificate actually maps sources to targets
    assert max_abs(res2.choi.apply(np.outer(c, c)) - np.outer(a, a)) < 1e-6


def test_feasible_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        cptp_feasible([random_density(rng, 2)], [random_density(rng, 2), random_density(rng, 2)])


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


def interior_point_pair(rng):
    """A mixed 2 -> 2 pair and its image under a random channel on which
    the projected start is no channel, so the solver takes interior-point
    steps (at least 2) to certify it."""
    while True:
        src = [random_density(rng, 2) for _ in range(2)]
        ks = random_kraus(rng, 2, 2, 2)
        tgt = [sum(k @ m @ k.conj().T for k in ks) for m in src]
        if cptp_feasible(src, tgt).iterations >= 2:
            return src, tgt


def test_step_cap_leaves_a_feasible_pair_unresolved(rng, monkeypatch):
    """With CPTP_MAX_ITERS = 1 a pair that needs two steps ends unresolved
    after one, with no channel and no witness, and the verdict that the
    channel certified becomes inconclusive."""
    src, tgt = interior_point_pair(rng)
    assert dominance_check(src, tgt).relation == "dominates"
    monkeypatch.setattr(comparison, "CPTP_MAX_ITERS", 1)
    res = cptp_feasible(src, tgt)
    assert (res.status, res.iterations, res.feasible, res.witness) == ("unresolved", 1, False, None)
    assert dominance_check(src, tgt).relation == "inconclusive"


@pytest.mark.parametrize("fail_at", [1, 2])
def test_failed_cholesky_leaves_the_pair_unresolved(rng, monkeypatch, fail_at):
    """A Cholesky factor that fails at step fail_at (round-off pushing an
    iterate off the cone) ends the search unresolved, after fail_at - 1
    completed steps: 0 when the first step fails."""
    src, tgt = interior_point_pair(rng)
    calls, cholesky = [], np.linalg.cholesky

    def spy(m):
        calls.append(m)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    res = cptp_feasible(src, tgt)
    assert (res.status, res.iterations, res.feasible, res.witness) == ("unresolved", fail_at - 1, False, None)


def test_near_miss_pair_is_never_feasible(rng):
    src, tgt = pure_pair(rng, 2, 0.51), pure_pair(rng, 2, 0.5)
    res = cptp_feasible(src, tgt)
    assert not res.feasible
    assert res.status in {"infeasible", "unresolved"}
    if res.status == "infeasible":
        assert witness_separates(res.witness, src, tgt)
    else:
        assert res.witness is None


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
            tr_out = partial_trace(w.matrix, SystemShape((w.dout, w.din)), keep=1)
            assert max_abs(tr_out - np.eye(src[0].shape[0])) <= 1e-7
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


def unreduced(src, tgt):
    """_interior_point on the whole cone at full size: no support
    compression and no face."""
    return comparison._interior_point(np.array(src), np.array(tgt), np.eye(len(src[0]) * len(tgt[0])))


def test_newton_solve_resolves_every_seeded_pure_pair():
    """The unreduced solve steps to each channel; cptp_feasible settles the
    same pairs with a channel checked at full size."""
    for src, tgt in newton_instances():
        res = unreduced(src, tgt)
        assert res.status == "feasible" and 1 <= res.iterations <= 12
        assert res.residual <= CPTP_STOP_TOL
        assert choi_maps(res.choi.matrix, src, tgt)
        res = cptp_feasible(src, tgt)
        assert (res.status, res.iterations) == ("feasible", 0) and res.residual <= CPTP_STOP_TOL
        assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)


def test_newton_solve_refutes_every_mirrored_pure_pair(monkeypatch):
    """Each mirror is refuted on its targets' face by one solve of at most
    one step, and the witness lifted from the face separates at full
    size."""
    calls = solves(monkeypatch)
    for src, tgt in newton_instances():
        calls.clear()
        res = cptp_feasible(tgt, src)
        assert res.status == "infeasible" and res.iterations <= 1
        assert len(calls) == 1 and calls[0][2] < len(src[0]) * len(tgt[0])
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


@pytest.mark.parametrize("din,dout", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_steps_start_on_the_constraints(rng, monkeypatch, din, dout):
    """Full-rank sources against their image under a random 2-Kraus
    channel, which nothing compresses, drawn until the projected start is
    no channel: the first iterate V_0 that the steps factor meets the
    constraints to round-off once shifted to trace d_in, and
    lambda_min(V_0) = d_in / n, the eigenvalue of the completely
    depolarizing channel's Choi matrix."""
    starts, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: starts.append(m[0].copy()) or cholesky(m))
    while not starts:
        src = [random_density(rng, din) for _ in range(2)]
        tgt = image_of(random_kraus(rng, din, dout, 2), src)
        assert cptp_feasible(src, tgt).status == "feasible"
    n = din * dout
    v0 = starts[0]
    assert abs(np.linalg.eigvalsh(v0)[0] - din / n) <= 1e-12
    w0 = (v0 - (np.trace(v0).real - din) / n * np.eye(n)).reshape(dout, din, dout, din)
    assert max_abs(np.einsum("aiaj->ij", w0) - np.eye(din)) <= 1e-12
    for rho, sigma in zip(src, tgt):
        assert max_abs(np.einsum("aibj,ij->ab", w0, rho) - sigma) <= 1e-12


def test_feasible_start_saves_steps_on_the_newton_instances():
    """From V_0 the unreduced solve takes 6-7 steps on each seeded feasible
    pure pair, where the start V = 1 took 8-10 (919 steps in all with the
    mirrors, 1199 from V = 1)."""
    pairs = newton_instances()
    steps = sum(unreduced(src, tgt).iterations + unreduced(tgt, src).iterations for src, tgt in pairs)
    assert steps <= 1000


def solves(monkeypatch):
    """A log of (source dimension, target dimension, face dimension,
    status) per _interior_point call that cptp_feasible makes."""
    calls, solve = [], comparison._interior_point

    def spy(src, tgt, face):
        res = solve(src, tgt, face)
        calls.append((src.shape[1], tgt.shape[1], face.shape[1], res.status))
        return res

    monkeypatch.setattr(comparison, "_interior_point", spy)
    return calls


def test_compressed_solve_agrees_with_the_full_one(rng, monkeypatch):
    """Every instance is solved on its sources' support and its targets'
    face first, at a smaller dimension, and ends in the status the
    unreduced solve reaches; a channel is checked at full size within
    CPTP_STOP_TOL and a witness separates at full size."""
    instances = compressible_instances(rng)
    full = [unreduced(src, tgt).status for src, tgt in instances]
    calls = solves(monkeypatch)
    statuses = set()
    for (src, tgt), want in zip(instances, full):
        calls.clear()
        res = cptp_feasible(src, tgt)
        din, dout = src[0].shape[0], tgt[0].shape[0]
        assert len(calls) == 1 and calls[0][2] < din * dout
        assert res.status == want
        assert (res.choi.din, res.choi.dout) == (din, dout)
        if res.feasible:
            assert res.residual <= CPTP_STOP_TOL
            assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)
        else:
            assert res.status == "infeasible" and witness_separates(res.witness, src, tgt)
        statuses.add(res.status)
    assert statuses == {"feasible", "infeasible"}


def test_compressed_solve_to_one_dimension():
    """Equal pure sources compress to a 1 -> 2 problem: feasible onto equal
    targets, and refuted, with a witness lifted to full size, onto two
    different ones; two qutrit sources onto one pure qubit state is 2 -> 1."""
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    res = cptp_feasible([zero, zero], [np.eye(2) / 2] * 2)
    assert (res.status, res.iterations) == ("feasible", 0)
    assert choi_maps(res.choi.matrix, [zero, zero], [np.eye(2) / 2] * 2, tol=CPTP_STOP_TOL)
    res = cptp_feasible([zero, zero], [zero, one])
    assert res.status == "infeasible" and witness_separates(res.witness, [zero, zero], [zero, one])
    src = [np.diag([1.0, 0.0, 0.0]), np.full((3, 3), 1 / 3)]
    res = cptp_feasible(src, [zero, zero])
    assert (res.status, res.iterations) == ("feasible", 0)
    assert choi_maps(res.choi.matrix, src, [zero, zero], tol=CPTP_STOP_TOL)


def test_targets_along_nearly_one_vector_are_solved_on_their_face(monkeypatch):
    """Targets along (1, +-1e-8): their sum has an eigenvalue of 2e-16, under
    the round-off cut, yet each target's own kernel keeps its 1e-8 entries.
    On the face of those kernels the channel from |0>, |1> is the projected
    start, and it maps the sources at full size."""
    calls = solves(monkeypatch)
    a, b = np.array([1.0, 1e-8]), np.array([1.0, -1e-8])
    tgt = [np.outer(v, v) / (v @ v) for v in (a, b)]
    src = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    res = cptp_feasible(src, tgt)
    assert calls == [(2, 2, 2, "feasible")]
    assert (res.status, res.iterations) == ("feasible", 0)
    assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)


def test_a_lift_that_fails_its_check_is_solved_again_at_full_size(monkeypatch):
    """diag(1 - 1e-14, 1e-14) onto diag(1 - 1e-16, 1e-16), whose kernel the
    round-off cut takes as |1>, and |1> onto diag(0.99, 0.01): the face
    gives |1> no image on |1>, which the second target needs, though M
    weighs that direction by only 1e-14. The face is refuted with a
    witness that no multiple of M lifts within the margin, so the
    unreduced problem is solved and its channel returned, with the steps
    of both solves counted."""
    calls = solves(monkeypatch)
    src = [np.diag([1.0 - 1e-14, 1e-14]), np.diag([0.0, 1.0])]
    tgt = [np.diag([1.0 - 1e-16, 1e-16]), np.diag([0.99, 0.01])]
    res = cptp_feasible(src, tgt)
    assert calls == [(2, 2, 2, "infeasible"), (2, 2, 4, "feasible")]
    assert res.status == "feasible" and res.residual <= CPTP_STOP_TOL
    assert res.iterations == unreduced(src, tgt).iterations
    assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)


def test_a_witness_that_fails_its_lift_is_solved_again_unreduced(monkeypatch):
    """A near-miss 3 -> 2 pure pair (seeded draw 22) is refuted on its face
    in 2 steps, but the lifted witness misses the full-size margin, so the
    unreduced problem is solved (4 steps) and its witness returned."""
    calls = solves(monkeypatch)
    src, tgt = near_miss_qutrit_to_qubit(np.random.default_rng(FIXTURE_SEED))[22]
    res = cptp_feasible(src, tgt)
    assert [call[2:] for call in calls] == [(2, "infeasible"), (6, "infeasible")]
    assert res.status == "infeasible" and witness_separates(res.witness, src, tgt)
    assert res.iterations == 6 == 2 + unreduced(src, tgt).iterations


def test_targets_with_an_empty_face_are_refuted_without_a_solve(rng, monkeypatch):
    """Full-rank qubit sources onto two different pure qutrit states: the
    kernels of the targets leave no face, so no channel exists, and the
    witness Y_k = Pi_k (the kernel projectors), F = 0 separates at full
    size with no interior-point call."""
    calls = solves(monkeypatch)
    src = [random_density(rng, 2) for _ in range(2)]
    tgt = pure_sources(rng, 3)
    res = cptp_feasible(src, tgt)
    assert calls == [] and (res.status, res.iterations) == ("infeasible", 0)
    assert witness_separates(res.witness, src, tgt)


# seeded instances of the solver failures recorded for earlier versions
# (tests/corpus.py draws them): (seed, draw, builder, status before the
# Schur matrix was factored once per step and the supports compressed,
# status now). A garbling has a channel, so it is never infeasible. The
# two-qubit pair (Bell outputs against a random input's) still stops on a
# failed Cholesky factor; the 2 -> 4 pair, once stopped by one at violation
# 5.6e-7, is feasible in 1 step on its targets' face. The 3 -> 4 garbling
# (violation 3.2e-9) and the qutrit garbling (1.5e-9) reached the step cap
# from the start V = 1; from the feasible start they are feasible in 3 and
# 2 steps.
SOLVER_FAILURES = {
    name: (*FAILURE_DRAWS[name], before, now)
    for name, before, now in (
        ("garbling-3-to-4", "unresolved", "feasible"),
        ("qutrit-garbling", "unresolved", "feasible"),
        ("pure-2-to-4", "unresolved", "feasible"),
        ("two-qubit-pair", "unresolved", "unresolved"),
    )
}


@pytest.mark.parametrize("case", sorted(SOLVER_FAILURES))
def test_seeded_solver_failures_are_pinned(case):
    seed, draw, build, _, now = SOLVER_FAILURES[case]
    rng = np.random.default_rng(seed)
    for k in range(draw + 1):
        src, tgt = build(rng, k)
    res = cptp_feasible(src, tgt)
    assert res.status == now
    if res.feasible:
        assert choi_maps(res.choi.matrix, src, tgt, tol=CPTP_STOP_TOL)
    else:
        assert res.witness is None


# ---------------------------------------------------------------------------
# Uhlmann's overlap rule


def test_overlap_rule_never_contradicts_the_solver():
    """24 seeded pure source pairs at each of 2->2, 2->3, 3->2, 3->3 and
    2->4: against their images under random 1-3 Kraus channels, those
    images mixed 3 % with a random pure state, and random mixed pairs. A
    pair the rule decides is never one the solver proves the other way."""
    rng = np.random.default_rng(3131)
    decided = {True: 0, False: 0}
    for din, dout in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        instances = []
        for k in range(24):
            src = pure_sources(rng, din)
            ks = random_kraus(rng, din, dout, 1 + k // 3 % 3)
            tgt = [sum(q @ m @ q.conj().T for q in ks) for m in src]
            if k % 3 == 1:
                tgt = [0.97 * m + 0.03 * x for m, x in zip(tgt, pure_sources(rng, dout))]
            elif k % 3 == 2:
                tgt = [random_density(rng, dout) for _ in src]
            instances.append((src, tgt))
        for (src, tgt), channel in zip(instances, comparison._overlap_rule(instances)):
            if channel is not None:
                assert cptp_feasible(src, tgt).status != ("infeasible" if channel else "feasible")
                decided[channel] += 1
    assert min(decided.values()) >= 10


def test_overlap_rule_boundary_cases(rng):
    """Isometry images (overlap = fidelity) and identical pure pairs fall
    through; orthogonal sources map onto anything; a rank-2 source, a source
    with second eigenvalue 1e-8 (top one 1 - 1e-8 or 1) and a target of
    trace 1 + 1e-8 are outside the rule, while their pure and normalized
    twins are decided."""
    rule = comparison._overlap_rule
    for din, dout in ((2, 2), (2, 3), (3, 3), (2, 4)):
        src = pure_sources(rng, din)
        iso = random_kraus(rng, din, dout, 1)[0]
        assert rule([(src, [iso @ m @ iso.conj().T for m in src])]) == [None]
    for d in (2, 3):
        src = pure_sources(rng, d)
        assert rule([(src, [m.copy() for m in src])]) == [None]
        orthogonal = pure_pair(rng, d, 0.0)
        for tgt in (pure_sources(rng, 2), [random_density(rng, 3) for _ in range(2)]):
            assert rule([(orthogonal, tgt)]) == [True]

    src, tgt = pure_pair(rng, 2, 0.5), [random_density(rng, 2) for _ in range(2)]
    kernel = np.eye(2) - src[0]
    off = [
        ([random_density(rng, 2), src[1]], tgt),
        ([(1 - 1e-8) * src[0] + 1e-8 * kernel, src[1]], tgt),
        ([src[0] + 1e-8 * kernel, src[1]], tgt),
        (src, [(1 + 1e-8) * tgt[0], tgt[1]]),
    ]
    assert rule(off) == [None] * 4
    assert None not in rule([(src, tgt), (pure_pair(rng, 2, 0.9), tgt)])


def test_pure_pairs_past_the_choi_cap_are_decided_by_the_overlap_rule(rng, monkeypatch):
    """Qutrit unitaries I and diag(1, e^0.3i, e^0.5i): their optimal input
    (min overlap 0.969) against three seeded inputs with a qutrit reference
    is a Choi dimension of 81 > CERTIFY_MAX_CHOI, certified both ways with
    no solver call. A pure pair within CPTP_STOP_TOL of the boundary, which
    the sweep still separates, stays inconclusive past the cap."""
    calls = []
    monkeypatch.setattr(comparison, "cptp_feasible", lambda *a: calls.append(a))
    us = [np.eye(3), np.diag(np.exp([0.0, 0.3j, 0.5j]))]
    best = pair_unitary_optimal_input(*us)
    assert abs(best.min_overlap - 0.969) < 1e-3

    def outputs(psi):
        return [np.outer(x, x.conj()) for x in (np.kron(u, np.eye(3)) @ psi for u in us)]

    for _ in range(3):
        psi = random_pure(rng, 9)
        v = dominance_check(outputs(best.state.amplitudes), outputs(psi))
        assert (v.relation, v.method) == ("dominates", "randomization-certificate")
        v = dominance_check(outputs(psi), outputs(best.state.amplitudes))
        assert (v.relation, v.method) == ("dominated", "randomization-certificate")

    near = dominance_check(pure_pair(rng, 9, 0.97), pure_pair(rng, 9, 0.97 + 5e-10))
    assert (near.relation, near.method) == ("inconclusive", "sweep-necessary")
    assert calls == []


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == 0.0
    assert abs(g[1] - 1e-3) < 1e-15
    assert abs(g[-1] - 1e3) < 1e-9
    assert len(g) == 201
