from itertools import combinations

import numpy as np
import pytest

from chanopt.channels import KrausChannel, apply_extended, make_family, weyl_ops
from chanopt.numerics import SystemShape, max_abs, max_entangled
from chanopt.optimal_inputs import (
    IrrepBlocks,
    _correction_setup,
    PureState,
    covariant_optimal_state,
    group_correction_simulator,
    measurement_input_certify,
    pair_unitary_optimal_input,
    phi_pv,
    su2_cover_check,
    unital_qubit_protocol,
    universal_not_pair,
)
from conftest import haar_unitary, random_density, random_pure


def weyl_group(d):
    return [(u, u) for u in weyl_ops(d)]


def member_outputs(fam, target, shape):
    return {label: apply_extended(ch, target, shape) for label, ch in fam.members}


def simulate(fam, group, blocks, target):
    sims = group_correction_simulator(fam, group, blocks)
    return {label: sim(target) for label, sim in sims.items()}


# ---------------------------------------------------------------------------
# covariant state assembly


def test_irrep_blocks_validation():
    assert IrrepBlocks((2, 1)).total_dim == 3
    with pytest.raises(ValueError):
        IrrepBlocks(())
    with pytest.raises(ValueError):
        IrrepBlocks((2, 0))


@pytest.mark.parametrize("dims", [(2,), (3,), (1, 1), (2, 1)])
def test_covariant_state_is_maximally_entangled(dims):
    st = covariant_optimal_state(IrrepBlocks(dims))
    d = sum(dims)
    assert max_abs(st.amplitudes - max_entangled(d)) < 1e-12
    assert max_abs(st.reduced(0) - np.eye(d) / d) < 1e-12


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), SystemShape((2,)))
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]), SystemShape((2,)))
    with pytest.raises(ValueError, match="unit norm"):
        PureState(np.array([np.nan, 0.0]), SystemShape((2,)))


# ---------------------------------------------------------------------------
# measure-and-correct protocol


@pytest.mark.parametrize("d", [2, 3])
def test_group_correction_reproduces_members(rng, d):
    theta = rng.dirichlet(np.ones(d * d))
    fam = make_family("gp", {"d": d, "thetas": [theta]})
    target = random_density(rng, d)
    outs = simulate(fam, weyl_group(d), IrrepBlocks((d,)), target)
    for label, ch in fam.members:
        assert max_abs(outs[label] - ch.apply(target)) < 1e-9


def test_group_correction_with_reference(rng):
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    psi = random_pure(rng, 4)
    target = np.outer(psi, psi.conj())
    outs = simulate(fam, weyl_group(2), IrrepBlocks((2,)), target)
    shape = SystemShape((2, 2))
    for label, ch in fam.members:
        assert max_abs(outs[label] - apply_extended(ch, target, shape)) < 1e-9


def test_group_correction_contravariant_family(rng):
    fam = make_family("cdep", {"d": 2, "thetas": [0.2]})
    target = random_density(rng, 2)
    outs = simulate(fam, weyl_group(2), IrrepBlocks((2,)), target)
    for label, ch in fam.members:
        assert max_abs(outs[label] - ch.apply(target)) < 1e-9


def test_simulator_reuse(rng):
    fam = make_family("gp", {"d": 2, "xis": [[0.05, 0.1, 0.2], [0.3, 0.0, 0.1]]})
    sims = group_correction_simulator(fam, weyl_group(2), IrrepBlocks((2,)))
    for _ in range(3):
        target = random_density(rng, 2)
        for label, ch in fam.members:
            assert max_abs(sims[label](target) - ch.apply(target)) < 1e-9


def test_correction_is_one_trace_preserving_channel():
    fam = make_family("gp", {"d": 3, "thetas": [np.ones(9) / 9]})
    correct = _correction_setup(fam, weyl_group(3), IrrepBlocks((3,)))
    # output (x) reference (x) input -> output, one operator per group element
    assert isinstance(correct, KrausChannel)
    assert (correct.din, correct.dout) == (fam.dout * 9, fam.dout)
    assert len(correct.kraus_ops) == 9
    assert max_abs(correct.kraus_sum() - np.eye(correct.din)) < 1e-10


def test_simulator_is_linear(rng):
    fam = make_family("gp", {"d": 2, "xis": [[0.05, 0.1, 0.2], [0.3, 0.0, 0.1]]})
    sims = group_correction_simulator(fam, weyl_group(2), IrrepBlocks((2,)))
    a, b = random_density(rng, 4), random_density(rng, 4)
    for label, _ in fam.members:
        sim = sims[label]
        # targets must be states, so linearity is tested on mixtures
        assert max_abs(sim(0.3 * a + 0.7 * b) - (0.3 * sim(a) + 0.7 * sim(b))) < 1e-9
        assert abs(np.trace(sim(a)) - 1.0) < 1e-9


def test_group_correction_rejections(rng):
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    grp = weyl_group(2)
    with pytest.raises(ValueError):
        group_correction_simulator(fam, grp, IrrepBlocks((3,)))
    with pytest.raises(ValueError):
        group_correction_simulator(fam, grp, IrrepBlocks((1, 1)))
    damp = make_family("damp", {"p": 1.0, "xis": [0.3]})
    with pytest.raises(ValueError, match="not covariant"):
        group_correction_simulator(damp, grp, IrrepBlocks((2,)))
    # covariant, but {phi, (Z (x) 1) phi} does not span the two-qubit space
    z = np.diag([1.0, -1.0])
    subgroup = [(np.eye(2), np.eye(2)), (z, z)]
    with pytest.raises(ValueError, match="do not resolve the identity"):
        group_correction_simulator(fam, subgroup, IrrepBlocks((2,)))
    # the callable checks its target
    (sim,) = group_correction_simulator(fam, grp, IrrepBlocks((2,))).values()
    with pytest.raises(ValueError, match="not a density matrix"):
        sim(np.eye(2))
    with pytest.raises(ValueError, match="not a multiple"):
        sim(np.eye(3) / 3)


# ---------------------------------------------------------------------------
# unital-qubit protocol


def test_phi_pv_examples():
    st = phi_pv([1.0, 0.0], np.eye(2))
    assert max_abs(st.amplitudes - np.array([1, 0, 0, 0])) < 1e-12
    st = phi_pv([0.5, 0.5], np.eye(2))
    assert max_abs(st.amplitudes - max_entangled(2)) < 1e-12


def test_phi_pv_marginal(rng):
    v = haar_unitary(rng, 2)
    p = rng.dirichlet([1.0, 1.0])
    st = phi_pv(p, v)
    assert max_abs(st.reduced(0) - v @ np.diag(p) @ v.conj().T) < 1e-12


def test_universal_not_inverts_bloch(rng):
    rho, sigma = random_density(rng, 2), random_density(rng, 2)

    def flip(m):
        # a qubit density matrix with Bloch vector r goes to the one with -r
        return np.trace(m) * np.eye(2) - m

    flipped = universal_not_pair(np.kron(rho, sigma))
    assert max_abs(flipped - np.kron(flip(rho), flip(sigma))) < 1e-12
    assert abs(np.trace(flipped) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(flipped).min() > -1e-12
    for pauli in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])):
        for m in (rho, sigma):
            got = np.trace(flip(m) @ pauli).real
            want = -np.trace(m @ pauli).real
            assert abs(got - want) < 1e-12
    assert max_abs(universal_not_pair(flipped) - np.kron(rho, sigma)) < 1e-12


def random_unital_qubit(rng, n_terms=3):
    probs = rng.dirichlet(np.ones(n_terms))
    us = [haar_unitary(rng, 2) for _ in range(n_terms)]
    kraus = [np.sqrt(p) * u for p, u in zip(probs, us)]
    return make_family("custom", {"kraus": [kraus], "labels": ["mix"]})


def test_unital_protocol_matches_direct_output(rng):
    shape = SystemShape((2, 2))
    for _ in range(4):
        fam = random_unital_qubit(rng)
        p = rng.dirichlet([1.0, 1.0])
        v = haar_unitary(rng, 2)
        target = phi_pv(p, v).density()
        outs = unital_qubit_protocol(fam, p, v)
        want = member_outputs(fam, target, shape)
        for label in outs:
            assert max_abs(outs[label] - want[label]) < 1e-9


def test_unital_protocol_rejections(rng):
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    with pytest.raises(ValueError):
        unital_qubit_protocol(fam, [0.7, 0.4], np.eye(2))
    with pytest.raises(ValueError):
        unital_qubit_protocol(fam, [0.7, 0.3], np.diag([1.0, 2.0]))
    damp = make_family("damp", {"p": 1.0, "xis": [0.3]})
    with pytest.raises(ValueError):
        unital_qubit_protocol(damp, [0.7, 0.3], np.eye(2))
    qutrit = make_family("gp", {"d": 3, "thetas": [np.ones(9) / 9]})
    with pytest.raises(ValueError):
        unital_qubit_protocol(qutrit, [0.7, 0.3], np.eye(2))


# ---------------------------------------------------------------------------
# pair-of-unitaries minimizer


def overlap(state, u_plus, u_minus):
    d = u_plus.shape[0]
    m = np.kron(u_plus.conj().T @ u_minus, np.eye(d))
    return abs(state.conj() @ m @ state)


def test_pair_unitary_antipodal_phases():
    res = pair_unitary_optimal_input(np.eye(2), np.diag([1.0, -1.0]))
    assert res.min_overlap < 1e-12
    assert overlap(res.state.amplitudes, np.eye(2), np.diag([1.0, -1.0])) < 1e-12
    assert max_abs(res.state.reduced(0) - np.eye(2) / 2) < 1e-12


def test_pair_unitary_narrow_arc():
    theta = 0.6
    u_minus = np.diag([1.0, np.exp(1j * theta)])
    res = pair_unitary_optimal_input(np.eye(2), u_minus)
    assert abs(res.min_overlap - np.cos(theta / 2)) < 1e-12
    assert abs(overlap(res.state.amplitudes, np.eye(2), u_minus) - res.min_overlap) < 1e-12


def test_pair_unitary_cube_roots():
    w = np.exp(2j * np.pi / 3)
    res = pair_unitary_optimal_input(np.eye(3), np.diag([1.0, w, w * w]))
    assert res.min_overlap < 1e-12


def test_pair_unitary_is_global_minimum(rng):
    u_plus = haar_unitary(rng, 3)
    u_minus = haar_unitary(rng, 3)
    res = pair_unitary_optimal_input(u_plus, u_minus)
    assert abs(overlap(res.state.amplitudes, u_plus, u_minus) - res.min_overlap) < 1e-10
    for _ in range(40):
        psi = random_pure(rng, 9)
        assert overlap(psi, u_plus, u_minus) >= res.min_overlap - 1e-9


def test_pair_unitary_rejections():
    with pytest.raises(ValueError):
        pair_unitary_optimal_input(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        pair_unitary_optimal_input(np.diag([1.0, 2.0]), np.eye(2))


def hull_distance(points) -> float:
    """Distance from the origin to the convex hull of planar points, by
    enumeration: the nearest point is a vertex, the foot of an edge, or the
    origin inside a triangle of the points. The arc rule never looks at
    more than three points; this looks at all of them."""
    best = min(abs(z) for z in points)
    for zi, zj in combinations(points, 2):
        denom = abs(zj - zi) ** 2
        if denom < 1e-30:
            continue
        t = np.clip(-((zj - zi).conjugate() * zi).real / denom, 0.0, 1.0)
        best = min(best, abs((1.0 - t) * zi + t * zj))
    for zs in combinations(points, 3):
        mat = np.array([[z.real for z in zs], [z.imag for z in zs], [1.0, 1.0, 1.0]])
        try:
            sol = np.linalg.solve(mat, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if sol.min() >= -1e-12:
            sol = np.clip(sol, 0.0, None)
            best = min(best, abs(sol @ np.array(zs)) / sol.sum())
    return best


def eigenphases(rng, kind: str, d: int) -> np.ndarray:
    if kind == "random":
        return rng.uniform(-np.pi, np.pi, d)
    if kind == "clustered":
        # an arc narrower than pi, sometimes a few ulps wide, with repeats
        width = rng.choice([1e-9, 0.3, 2.0, 3.1])
        phases = rng.uniform(-np.pi, np.pi) + width * rng.uniform(0.0, 1.0, d)
        phases[: d // 3] = phases[-1]
        return phases
    # antipodal: pairs a, a + pi; half the time on a lattice of pi/4,
    # where phases also repeat and meet their antipodes exactly
    a = rng.uniform(-np.pi, np.pi, (d + 1) // 2)
    if rng.uniform() < 0.5:
        a = np.round(a / (np.pi / 4)) * (np.pi / 4)
    return np.concatenate([a, a + np.pi])[:d] if d > 1 else a


PHASE_KINDS = ("random", "clustered", "antipodal")


@pytest.mark.parametrize("kind", PHASE_KINDS)
@pytest.mark.parametrize("d", range(1, 7))
def test_pair_unitary_arc_rule_matches_hull_enumeration(kind, d):
    rng = np.random.default_rng([d, PHASE_KINDS.index(kind)])
    for _ in range(40):
        lam = eigenphases(rng, kind, d)
        frame, u_plus = haar_unitary(rng, d), haar_unitary(rng, d)
        u_minus = u_plus @ frame @ np.diag(np.exp(1j * lam)) @ frame.conj().T
        res = pair_unitary_optimal_input(u_plus, u_minus)
        assert abs(res.min_overlap - hull_distance(np.exp(1j * lam))) < 1e-12
        assert abs(overlap(res.state.amplitudes, u_plus, u_minus) - res.min_overlap) < 1e-12


@pytest.mark.parametrize("eps", [1e-16, 3e-16, 1e-15, 1e-14])
def test_pair_unitary_phases_round_off_from_a_diameter(eps):
    # phases -eps, 0 and pi: one gap is pi to round-off, and the chord from
    # 0 to pi may cross the real axis on either side of the origin
    u_minus = np.diag(np.exp(1j * np.array([-eps, 0.0, np.pi])))
    res = pair_unitary_optimal_input(np.eye(3), u_minus)
    assert res.min_overlap < 1e-12
    assert overlap(res.state.amplitudes, np.eye(3), u_minus) < 1e-12


def test_pair_unitary_single_and_repeated_phases():
    # d = 1, and every phase the same: the arc is one point, min_overlap 1
    for u_minus in (np.array([[1j]]), 1j * np.eye(3)):
        d = u_minus.shape[0]
        res = pair_unitary_optimal_input(np.eye(d), u_minus)
        assert abs(res.min_overlap - 1.0) < 1e-12
        assert abs(overlap(res.state.amplitudes, np.eye(d), u_minus) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# measurement-family certificates


def projector_povm(d):
    basis = np.eye(d)
    return [np.outer(basis[:, i], basis[:, i]) for i in range(d)]


def test_certify_orthogonal_supports():
    elems = projector_povm(2)
    fam = make_family(
        "measurement",
        {"povms": [elems, elems[::-1]], "labels": ["fwd", "rev"]},
    )
    psi = PureState(max_entangled(2), SystemShape((2, 2)))
    v = measurement_input_certify(fam, psi)
    assert v.relation == "dominates"
    assert v.method == "sweep-sufficient-commuting"


def test_certify_rotated_commuting_pair():
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag([1.0, 0.0]),
            "m_minus": np.diag([0.0, 1.0]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )
    psi = PureState(max_entangled(2), SystemShape((2, 2)))
    v = measurement_input_certify(fam, psi)
    assert v.relation == "dominates"


@pytest.mark.parametrize("m_plus,m_minus", [
    ([0.7, 0.3], [0.2, 0.8]),
    ([0.5, 0.5], [0.9, 0.1]),
    ([0.6, 0.3, 0.1], [0.1, 0.3, 0.6]),
])
def test_certify_rotated_mixed_base_pair(m_plus, m_minus):
    """Mixed base elements fail the product test that orthogonal projectors
    pass, so the verdict comes from the rotated branch's sweep against the
    base pair's curve (read from its joint eigenvalues)."""
    d = len(m_plus)
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag(m_plus),
            "m_minus": np.diag(m_minus),
            "unitaries": weyl_ops(d),
            "structure": "rotated",
        },
    )
    psi = PureState(max_entangled(d), SystemShape((d, d)))
    v = measurement_input_certify(fam, psi)
    assert (v.relation, v.method) == ("dominates", "sweep-sufficient-commuting")


def test_certify_rotated_pair_with_a_kink_at_large_s():
    """With m_minus = diag(1 - 1e-11, 1e-11) the base pair has a kink at
    s = 3e10, where the two curves meet to 1.1e-5, about 3 ulps of a norm of
    3e10: round-off, not a point where they part. A bare SWEEP_TOL test
    there reported inconclusive."""
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag([0.7, 0.3]),
            "m_minus": np.diag([1 - 1e-11, 1e-11]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )
    psi = PureState(max_entangled(2), SystemShape((2, 2)))
    v = measurement_input_certify(fam, psi)
    assert (v.relation, v.method) == ("dominates", "sweep-sufficient-commuting")


def test_certify_rotated_pair_that_is_no_pair_of_states():
    """The Weyl rotations taken six times average to 12 tr(.) 1, so a base
    element 1.1e-8 from Hermitian leaves every rotated element within the
    POVM check's 1e-9 but is no density matrix: the rotated route answers
    inconclusive instead of raising from dominance_check."""
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag([0.7, 0.3]) + np.array([[0.0, 1.1e-8], [0.0, 0.0]]),
            "m_minus": np.diag([0.3, 0.7]),
            "unitaries": weyl_ops(2) * 6,
            "structure": "rotated",
        },
    )
    psi = PureState(max_entangled(2), SystemShape((2, 2)))
    v = measurement_input_certify(fam, psi)
    assert (v.relation, v.method) == ("inconclusive", "sweep-necessary")


def complementary_family(a):
    d = len(a)
    m = np.diag(np.asarray(a, dtype=float))
    comp = np.eye(d) - m
    return make_family(
        "measurement",
        {"povms": [[m, comp], [comp, m]], "labels": ["plus", "minus"]},
    )


def basis_state(d, k):
    v = np.zeros(d)
    v[k] = 1.0
    return PureState(v, SystemShape((d,)))


def test_certify_complementary_diagonal():
    fam = complementary_family([0.8, 0.4, 0.3])
    v = measurement_input_certify(fam, basis_state(3, 0))
    assert v.relation == "dominates"


def test_certify_complementary_needs_extremal_entry():
    # largest diagonal entry is 0.8 but the extreme distinguishability sits
    # at the 0.1 entry, so the basis input cannot match every curve
    fam = complementary_family([0.8, 0.3, 0.1])
    v = measurement_input_certify(fam, basis_state(3, 0))
    assert v.relation == "inconclusive"
    assert v.method == "sweep-necessary"


def test_certify_wrong_basis_entry_inconclusive():
    fam = complementary_family([0.8, 0.4, 0.3])
    v = measurement_input_certify(fam, basis_state(3, 1))
    assert v.relation == "inconclusive"


def test_certify_rejections():
    gp = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    psi = PureState(max_entangled(2), SystemShape((2, 2)))
    with pytest.raises(ValueError):
        measurement_input_certify(gp, psi)
    elems = projector_povm(2)
    tri = make_family(
        "measurement",
        {"povms": [elems, elems[::-1], elems], "labels": ["a", "b", "c"]},
    )
    with pytest.raises(ValueError):
        measurement_input_certify(tri, psi)


# ---------------------------------------------------------------------------
# SU(2) strictness


def traceless_su2(rng):
    # i n.sigma for unit n is the whole traceless slice of SU(2)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    return 1j * (n[0] * sx + n[1] * sy + n[2] * sz)


def test_su2_cover_balanced(rng):
    res = su2_cover_check(0.5)
    assert res.covered and res.witness is None
    rho = np.eye(2) / 2
    for _ in range(50):
        u = traceless_su2(rng)
        assert max_abs(u @ u.conj().T - np.eye(2)) < 1e-12
        assert abs(np.trace(rho @ u)) < 1e-12


def test_su2_cover_unbalanced():
    res = su2_cover_check(0.3)
    assert not res.covered
    rho = np.diag([0.3, 0.7])
    assert abs(abs(np.trace(rho @ res.witness)) - 0.4) < 1e-12
    with pytest.raises(ValueError):
        su2_cover_check(1.2)
