import io

import numpy as np
import pytest

from chanopt.channels import apply_extended, make_family
from chanopt.comparison import (
    alberti_uhlmann,
    bayes_binary_risk,
    commutes,
    cptp_feasible,
    default_grid,
    dominance_check,
    gap_curve,
    joint_eigenbasis,
    sweep_norms,
)
from chanopt.numerics import SystemShape, max_abs, max_entangled, trace_norm
from conftest import haar_unitary, random_density, random_pure


def phi_outputs(fam):
    phi = max_entangled(fam.din)
    shape = SystemShape((fam.din, fam.din))
    return [apply_extended(ch, np.outer(phi, phi.conj()), shape) for _, ch in fam.members]


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
    # non-Hermitian operands take the singular-value path
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    want = [trace_norm(g - t * b) for t in s]
    assert max_abs(sweep_norms(g, b, s) - want) < 1e-12


def test_joint_eigenbasis_diagonalizes_both(rng):
    u = haar_unitary(rng, 3)
    a = u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T
    b = u @ np.diag([0.25, 0.25, 0.5]) @ u.conj().T
    vecs, p, q = joint_eigenbasis(a, b)
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


def test_curve_csv_round_trip(rng):
    a, b = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
    c = gap_curve(a, b, grid=[0.0, 0.5, 1.0])
    text = c.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "s,norm,is_breakpoint"
    body = [ln.split(",") for ln in lines[1:]]
    for (s_str, n_str, _), s, nv in zip(body, c.s_values, c.norms):
        assert float(s_str) == s
        assert float(n_str) == nv


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


def test_multi_member_aggregation():
    fam = make_family(
        "gp", {"d": 2, "xis": [[0.0, 0.0, 0.1], [0.0, 0.0, 0.3], [0.0, 0.0, 0.45]]}
    )
    cand = [ch.apply(bloch([1, 0, 0])) for _, ch in fam.members]
    chal = phi_outputs(fam)
    assert dominance_check(cand, chal).relation == "equivalent"
    weaker = [ch.apply(bloch([0.5, 0, 0])) for _, ch in fam.members]
    assert dominance_check(cand, weaker).relation == "dominates"


def reference_pair_verdict(cand, chal, tol=1e-9):
    """Relation, witness_s, gap and method of one member pair with
    certify=False, from a per-s trace_norm loop on the union of both
    curves' grids."""
    s_all = np.unique(np.concatenate([gap_curve(*cand).s_values, gap_curve(*chal).s_values]))
    fv = np.array([trace_norm(cand[0] - s * cand[1]) for s in s_all])
    gv = np.array([trace_norm(chal[0] - s * chal[1]) for s in s_all])
    diff = fv - gv
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


def test_dominance_rejects_non_density():
    with pytest.raises(ValueError):
        dominance_check([np.eye(2), np.eye(2) / 2], [np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(ValueError):
        dominance_check([np.eye(2) / 2], [np.eye(2) / 2])


# ---------------------------------------------------------------------------
# alberti_uhlmann / bayes_binary_risk


def test_alberti_uhlmann_examples(rng):
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    t = random_pure(rng, 2)
    assert alberti_uhlmann(e0, e1, t, random_pure(rng, 2))
    assert alberti_uhlmann(t, e0, t, e0)
    a = np.array([1.0, 0.0])
    b = np.array([0.8, 0.6])
    c = np.array([0.3, np.sqrt(1 - 0.09)])
    assert not alberti_uhlmann(a, b, a, c)
    with pytest.raises(ValueError):
        alberti_uhlmann(2 * e0, e1, e0, e1)


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


def test_alberti_uhlmann_agrees_with_feasibility(rng):
    agree = 0
    total = 0
    for _ in range(12):
        a, b = random_pure(rng, 2), random_pure(rng, 2)
        c, d = random_pure(rng, 2), random_pure(rng, 2)
        if abs(abs(a.conj() @ b) - abs(c.conj() @ d)) < 1e-3:
            continue
        total += 1
        au = alberti_uhlmann(a, b, c, d)
        fe = cptp_feasible(
            [np.outer(a, a.conj()), np.outer(b, b.conj())],
            [np.outer(c, c.conj()), np.outer(d, d.conj())],
        ).feasible
        if au == fe:
            agree += 1
    assert total > 0 and agree == total


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


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == 0.0
    assert abs(g[1] - 1e-3) < 1e-15
    assert abs(g[-1] - 1e3) < 1e-9
    assert len(g) == 201
