import itertools
import time
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from chanopt import comparison, repetition
from chanopt.channels import KrausChannel, apply_extended, make_family, weyl_ops
from chanopt.comparison import bayes_binary_risk
from chanopt.numerics import DIM_GUARD, SystemShape, max_abs, max_entangled
from chanopt.optimal_inputs import IrrepBlocks, PureState
from chanopt.repetition import (
    AdaptivePlan,
    FactorPermutation,
    Strategy,
    adaptive_vs_identical,
    fresh_swap_interleavers,
    identical_matches_sequential,
    identity_rewire_interleavers,
    random_unitary_interleavers,
    repeated_output,
)
from conftest import factor_permutation, random_pure

PHI2 = max_entangled(2)


def bell_input():
    return PureState(PHI2, SystemShape((2, 2)))


def qubit_fam():
    return make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})


# ---------------------------------------------------------------------------
# containers


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("paralel", 2, bell_input())
    with pytest.raises(ValueError):
        Strategy("identical", 0, bell_input())
    with pytest.raises(ValueError):
        Strategy("sequential", 3, bell_input(), ())
    with pytest.raises(ValueError):
        Strategy("identical", 2, bell_input(), identity_rewire_interleavers(2, 2, 2))


def test_adaptive_plan_validation():
    e0 = PureState(np.array([1.0, 0.0]), SystemShape((2,)))
    with pytest.raises(ValueError):
        AdaptivePlan((), ())
    with pytest.raises(ValueError):
        AdaptivePlan((1, 1), ((e0,),))
    with pytest.raises(ValueError):
        AdaptivePlan((1,), ((),))


def test_factor_permutation_reorders(rng):
    dims = (2, 3)
    p = factor_permutation(dims, (1, 0))
    v = rng.normal(size=6)
    want = v.reshape(2, 3).T.reshape(-1)
    assert max_abs(p @ v - want) < 1e-15
    assert max_abs(p @ p.T - np.eye(6)) < 1e-15


_DIMS_AND_ORDER = hst.lists(hst.integers(1, 4), min_size=1, max_size=4).flatmap(
    lambda dims: hst.tuples(hst.just(dims), hst.permutations(range(len(dims))))
)


# mixed dimensions, the identity, transpositions and a 3-cycle, which is
# not its own inverse
@example(case=([2, 3, 4], [2, 0, 1]), seed=0)
@example(case=([3, 1, 2], [0, 1, 2]), seed=1)
@example(case=([5], [0]), seed=2)
@settings(max_examples=120, derandomize=True, deadline=None)
@given(case=_DIMS_AND_ORDER, seed=hst.integers(0, 2**32 - 1))
def test_factor_permutation_apply_is_the_dense_product_exactly(case, seed):
    dims, order = case
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    rho = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    p = factor_permutation(dims, order)
    y = FactorPermutation(tuple(dims), tuple(order))
    assert y.din == y.dout == total
    assert np.array_equal(y.apply(rho), p @ rho @ p.T)


def test_factor_permutation_rejections():
    with pytest.raises(ValueError, match="permutation"):
        FactorPermutation((2, 2), (0, 0))
    with pytest.raises(ValueError, match="permutation"):
        FactorPermutation((2, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        FactorPermutation((2, 0), (1, 0))
    y = FactorPermutation((2, 3), (1, 0))
    with pytest.raises(ValueError, match="shape"):
        y.apply(np.eye(5))
    bad = np.eye(6)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        y.apply(bad)


def test_fresh_swap_interleavers_form_no_joint_operator():
    # four dense 1024 x 1024 permutation matrices would hold 71 MB
    tracemalloc.start()
    try:
        ys = fresh_swap_interleavers(2, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ys) == 4 and all(y.din == y.dout == 1024 for y in ys)
    assert peak < 2**20


def _dense_interleavers(ys):
    """The same interleavers as Kraus channels of their dense permutations."""
    return [KrausChannel.from_ops([factor_permutation(y.dims, y.perm)]) for y in ys]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("preset", ["fresh-swap", "identity-rewire"])
def test_sequential_permutation_interleavers_match_dense_exactly(rng, preset, n):
    ch = gp_channel(rng, 2)
    if preset == "fresh-swap":
        ys = fresh_swap_interleavers(2, 2, n)
        st = PureState(random_pure(rng, 4**n), SystemShape((2, 2 * 4 ** (n - 1))))
    else:
        ys = identity_rewire_interleavers(2, 3, n)
        st = PureState(random_pure(rng, 6), SystemShape((2, 3)))
    got = repeated_output(ch, Strategy("sequential", n, st, ys))
    want = repeated_output(ch, Strategy("sequential", n, st, _dense_interleavers(ys)))
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# repeated_output


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_identical_is_kron_power(n):
    ch = qubit_fam().members[0][1]
    omega = apply_extended(ch, np.outer(PHI2, PHI2.conj()), SystemShape((2, 2)))
    out = repeated_output(ch, Strategy("identical", n, bell_input()))
    assert out.shape == (4**n, 4**n)
    assert max_abs(out - reduce(np.kron, [omega] * n)) < 1e-12


# matrices stop at dimension d^n <= 1024, where the reference fold is still cheap
KRON_POWER_CASES = [
    (d, n, vector)
    for d in (1, 2, 3)
    for n in range(1, 10)
    for vector in (True, False)
    if vector or d**n <= 1024
]


@pytest.mark.parametrize("d,n,vector", KRON_POWER_CASES)
def test_kron_power_matches_fold(rng, d, n, vector):
    shape = (d,) if vector else (d, d)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = reduce(np.kron, [a] * n)
    got = repetition._kron_power(a, n)
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-14 * max_abs(want)


def test_parallel_on_product_input_matches_identical():
    ch = qubit_fam().members[0][1]
    joint = PureState(np.kron(PHI2, PHI2), SystemShape((2, 2, 2, 2)))
    par = repeated_output(ch, Strategy("parallel", 2, joint))
    ident = repeated_output(ch, Strategy("identical", 2, bell_input()))
    assert max_abs(par - ident) < 1e-12


def test_parallel_entangled_input_matches_kron_kraus(rng):
    ch = qubit_fam().members[0][1]
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    st = PureState(psi, SystemShape((2, 2, 2, 2)))
    out = repeated_output(ch, Strategy("parallel", 2, st))
    rho = st.density()
    want = np.zeros_like(rho)
    eye = np.eye(2)
    for ka in ch.kraus_ops:
        for kb in ch.kraus_ops:
            op = np.kron(np.kron(ka, eye), np.kron(kb, eye))
            want += op @ rho @ op.conj().T
    assert max_abs(out - want) < 1e-12


def gp_channel(rng, d):
    if d == 2:
        return qubit_fam().members[0][1]
    return make_family("gp", {"d": d, "thetas": [rng.dirichlet(np.ones(d * d))]}).members[0][1]


def pair_product(rng, d, refs):
    """A product of random pure states, one per (channel x reference) pair."""
    vec = reduce(np.kron, [random_pure(rng, d * r) for r in refs])
    dims = tuple(x for r in refs for x in (d, r))
    return PureState(vec, SystemShape(dims))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_parallel_product_input_matches_dense_route(rng, monkeypatch, d, n):
    ch = gp_channel(rng, d)
    st = pair_product(rng, d, (2, 1, 3, 1)[:n])
    want = repetition._block_outputs(ch, st, d, n)
    dense = []
    monkeypatch.setattr(repetition, "_block_outputs", lambda *a: dense.append(a))
    got = repeated_output(ch, Strategy("parallel", n, st))
    assert not dense  # the product route built the output
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-12


def test_parallel_product_input_takes_one_svd_per_cut(rng, monkeypatch):
    ch = gp_channel(rng, 2)
    refs = (2, 1, 3, 1)
    st = pair_product(rng, 2, refs)
    shapes = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(repetition.np.linalg, "svd", spy)
    repeated_output(ch, Strategy("parallel", 4, st))
    assert shapes == [(4, 24), (2, 12), (6, 2)]


def entangled_at_cut(rng, weight, cut):
    """Three qubit-with-qubit-reference pairs, a product except across the
    cut after pair `cut` (0 or 1), whose Schmidt weight beyond the leading
    term is exactly `weight` there."""
    # two orthonormal states e_i, f_i of each pair; the second term swaps in
    # f on the two pairs beside the cut
    e, f = zip(*(np.linalg.qr(rng.normal(size=(4, 2)))[0].T for _ in range(3)))
    second = list(e)
    second[cut : cut + 2] = f[cut : cut + 2]
    vec = np.sqrt(1 - weight**2) * reduce(np.kron, e) + weight * reduce(np.kron, second)
    return PureState(vec, SystemShape((2, 2) * 3))


@pytest.mark.parametrize("cut", [0, 1])
@pytest.mark.parametrize("weight", [1e-7, 10 * repetition._PRODUCT_TOL])
def test_parallel_input_entangled_across_a_cut_takes_dense_route(rng, monkeypatch, weight, cut):
    ch = qubit_fam().members[0][1]
    st = entangled_at_cut(rng, weight, cut)
    strat = Strategy("parallel", 3, st)
    # the two pairs beside the cut are one group, the third pair its own
    factors = repetition._output_factors(ch, strat)
    assert [f.shape[0] for f in factors] == ([16, 4] if cut == 0 else [4, 16])
    calls = []
    real = repetition._block_outputs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repetition, "_block_outputs", spy)
    out = repeated_output(ch, strat)
    assert [psi.shape.factor_dims for _, psi, _, _ in calls] == [(2, 2, 2, 2)]
    assert max_abs(out - _dense_block_output(ch, st, 3)) < 1e-12


def grouped_input(rng, d, refs, groups):
    """A product over consecutive groups of (channel x reference) pairs, each
    group a random pure state of its pairs, entangled inside the group."""
    vecs, dims, first = [], (), 0
    for size in groups:
        group = refs[first : first + size]
        vecs.append(random_pure(rng, int(np.prod([d * r for r in group]))))
        dims += tuple(x for r in group for x in (d, r))
        first += size
    return PureState(reduce(np.kron, vecs), SystemShape(dims))


GROUPINGS = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2), (1, 3), (3, 1), (4,), (2, 1, 1, 1, 1)]


@pytest.mark.parametrize("groups", GROUPINGS, ids=lambda g: "-".join(map(str, g)))
def test_parallel_grouped_input_builds_each_group_alone(rng, monkeypatch, groups):
    ch = gp_channel(rng, 2)
    n = sum(groups)
    refs = (2, 1, 2, 2, 1, 2)[:n]
    st = grouped_input(rng, 2, refs, groups)
    want = repetition._block_outputs(ch, st, 2, n)
    calls = []
    real = repetition._block_outputs

    def spy(ch_, psi, d, n_block):
        calls.append(n_block)
        return real(ch_, psi, d, n_block)

    monkeypatch.setattr(repetition, "_block_outputs", spy)
    got = repeated_output(ch, Strategy("parallel", n, st))
    # one dense call per entangled group, none on the full joint state
    # unless the whole input is one group
    assert sorted(calls) == sorted(size for size in groups if size > 1)
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-12


def test_sequential_identity_rewire_composes():
    ch = qubit_fam().members[0][1]
    strat = Strategy(
        "sequential", 3, bell_input(), identity_rewire_interleavers(2, 2, 3)
    )
    out = repeated_output(ch, strat)
    rho = np.outer(PHI2, PHI2.conj())
    for _ in range(3):
        rho = apply_extended(ch, rho, SystemShape((2, 2)))
    assert max_abs(out - rho) < 1e-12


def test_sequential_fresh_swap_recovers_identical():
    ch = qubit_fam().members[0][1]
    vec = np.kron(PHI2, PHI2)
    strat = Strategy(
        "sequential",
        2,
        PureState(vec, SystemShape((2, 8))),
        fresh_swap_interleavers(2, 2, 2),
    )
    seq = repeated_output(ch, strat)
    ident = repeated_output(ch, Strategy("identical", 2, bell_input()))
    p = factor_permutation((2, 2, 2, 2), (2, 1, 0, 3))
    assert max_abs(seq - p @ ident @ p.T) < 1e-12


def test_dimension_guard_trips():
    ch = qubit_fam().members[0][1]
    with pytest.raises(ValueError):
        repeated_output(ch, Strategy("identical", 7, bell_input()))


def test_dimension_guard_bounds_uses_of_trivial_joint_dimension(monkeypatch):
    trace_out = make_family("custom", {"kraus": [[[[1, 0]], [[0, 1]]]], "labels": ["tr"]})
    ch = trace_out.members[0][1]
    e0 = PureState(np.array([1.0, 0.0]), SystemShape((2, 1)))
    assert repeated_output(ch, Strategy("identical", 3, e0)).shape == (1, 1)
    with pytest.raises(ValueError):
        repeated_output(ch, Strategy("identical", DIM_GUARD + 1, e0))

    # at the limit of uses the power is built by halving: at most
    # 2 floor(log2 n) kron calls, not the n - 1 of a left fold
    calls = []
    real = np.kron

    def spy(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(repetition.np, "kron", spy)
    out = repeated_output(ch, Strategy("identical", DIM_GUARD, e0))
    assert out.shape == (1, 1) and abs(out[0, 0] - 1.0) < 1e-12
    assert len(calls) <= 2 * (DIM_GUARD.bit_length() - 1)


def test_parallel_guard_counts_output_dimensions_exactly():
    # eleven uses of a 2 -> 64 isometry on qubits without references: a 2^66
    # dimensional output, which an int64 product of the dimensions wraps to 0
    iso = make_family("custom", {"kraus": [[np.eye(64)[:, :2]]]}).members[0][1]
    e0 = np.zeros(2**11)
    e0[0] = 1.0
    strat = Strategy("parallel", 11, PureState(e0, SystemShape((2, 1) * 11)))
    with pytest.raises(ValueError, match="guard"):
        repeated_output(iso, strat)


def _base_and_count(mode, what, size):
    """(n, refs) of a strategy whose joint output dimension (base) or number
    of uses (count) is size, with a channel of output dimension 1."""
    if what == "base":
        return 1, (size,)
    return size, ((1,) * size if mode == "parallel" else (1,))


@pytest.mark.parametrize("what", ["base", "count"])
@pytest.mark.parametrize("mode", repetition.STRATEGY_MODES)
def test_strategy_guard_boundary_is_the_one_predicate(monkeypatch, mode, what):
    seen = []
    real = repetition.exceeds_dim_guard

    def spy(dims, n=1):
        seen.append(real(dims, n))
        return seen[-1]

    monkeypatch.setattr(repetition, "exceeds_dim_guard", spy)
    repetition.strategy_guard(mode, *_base_and_count(mode, what, DIM_GUARD), 1)
    assert seen and not any(seen)
    seen.clear()
    with pytest.raises(ValueError, match="guard"):
        repetition.strategy_guard(mode, *_base_and_count(mode, what, DIM_GUARD + 1), 1)
    assert any(seen)


def test_fresh_swap_interleavers_stop_at_the_guard():
    # (2 x 2)^6 = DIM_GUARD sits on the bound
    assert len(fresh_swap_interleavers(2, 2, 6)) == 5
    with pytest.raises(ValueError, match="guard"):
        fresh_swap_interleavers(2, 2, 7)


def test_repeated_output_layout_rejections():
    ch = qubit_fam().members[0][1]
    four = PureState(np.kron(PHI2, PHI2), SystemShape((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        repeated_output(ch, Strategy("identical", 2, four))
    # a 2 x 2 state is two bare parallel uses, and no layout of three
    with pytest.raises(ValueError):
        repeated_output(ch, Strategy("parallel", 3, bell_input()))
    bad = Strategy(
        "sequential", 2, bell_input(), identity_rewire_interleavers(3, 2, 2)
    )
    with pytest.raises(ValueError):
        repeated_output(ch, bad)


# ---------------------------------------------------------------------------
# interleaver presets


def test_interleaver_counts_and_unitarity():
    assert len(identity_rewire_interleavers(2, 2, 4)) == 3
    assert len(fresh_swap_interleavers(2, 2, 3)) == 2
    ys = random_unitary_interleavers(2, 2, 3, seed=4)
    assert len(ys) == 2
    for y in ys:
        (u,) = y.kraus_ops
        assert max_abs(u @ u.conj().T - np.eye(4)) < 1e-12
    again = random_unitary_interleavers(2, 2, 3, seed=4)
    assert max_abs(ys[0].kraus_ops[0] - again[0].kraus_ops[0]) < 1e-15


# ---------------------------------------------------------------------------
# certificates


def test_identical_matches_sequential_random_interleavers():
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.4]]})
    grp = [(u, u) for u in weyl_ops(2)]
    strat = Strategy(
        "sequential",
        2,
        bell_input(),
        random_unitary_interleavers(2, 2, 2, seed=9),
    )
    res = identical_matches_sequential(fam, grp, IrrepBlocks((2,)), strat)
    assert set(res) == {"gp0", "gp1"}
    assert max(res.values()) < 1e-8


def test_identical_matches_sequential_qutrit():
    theta = np.full(9, 1.0 / 9.0)
    fam = make_family("gp", {"d": 3, "thetas": [theta]})
    grp = [(u, u) for u in weyl_ops(3)]
    phi3 = max_entangled(3)
    strat = Strategy(
        "sequential",
        2,
        PureState(phi3, SystemShape((3, 3))),
        random_unitary_interleavers(3, 3, 2, seed=2),
    )
    res = identical_matches_sequential(fam, grp, IrrepBlocks((3,)), strat)
    assert max(res.values()) < 1e-8


def test_certificate_requires_sequential():
    fam = qubit_fam()
    grp = [(u, u) for u in weyl_ops(2)]
    with pytest.raises(ValueError):
        identical_matches_sequential(
            fam, grp, IrrepBlocks((2,)), Strategy("identical", 2, bell_input())
        )


def complementary_measurement(a):
    m = np.diag(np.asarray(a, dtype=float))
    comp = np.eye(len(a)) - m
    return make_family(
        "measurement", {"povms": [[m, comp], [comp, m]], "labels": ["p", "q"]}
    )


def rotated_measurement():
    return make_family(
        "measurement",
        {
            "m_plus": np.diag([0.7, 0.3]),
            "m_minus": np.diag([0.3, 0.7]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )


def basis_menu():
    e0 = PureState(np.array([1.0, 0.0]), SystemShape((2,)))
    e1 = PureState(np.array([0.0, 1.0]), SystemShape((2,)))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), SystemShape((2,)))
    return (e0, e1, plus, bell_input())


def test_adaptive_never_beats_identical():
    fam = rotated_measurement()
    plan = AdaptivePlan((1, 1), (basis_menu(), basis_menu()))
    for prior in (0.2, 0.5, 0.7):
        res = adaptive_vs_identical(fam, prior, plan)
        assert res["adaptive_risk"] >= res["identical_risk"] - 1e-9
        assert 0.0 <= res["identical_risk"] <= min(prior, 1 - prior) + 1e-12


def test_adaptive_two_use_block():
    fam = rotated_measurement()
    two = PureState(np.kron(PHI2, PHI2), SystemShape((2, 2, 2, 2)))
    bare = PureState(np.array([1.0, 0.0, 0.0, 0.0]), SystemShape((2, 2)))
    plan = AdaptivePlan((2,), ((two, bare),))
    res = adaptive_vs_identical(fam, 0.5, plan)
    assert res["adaptive_risk"] >= res["identical_risk"] - 1e-9


def test_adaptive_can_win_when_basis_input_dominates():
    # scope boundary: for this pair the basis input beats the entangled one
    # outright, so adaptation over bare inputs legitimately undercuts the
    # identical entangled benchmark
    fam = complementary_measurement([0.7, 0.4])
    e0 = PureState(np.array([1.0, 0.0]), SystemShape((2,)))
    plan = AdaptivePlan((1, 1), ((e0, bell_input()), (e0, bell_input())))
    res = adaptive_vs_identical(fam, 0.5, plan)
    assert res["adaptive_risk"] < res["identical_risk"] - 1e-3


def test_adaptive_rejections():
    fam = complementary_measurement([0.8, 0.2])
    plan = AdaptivePlan((1,), (basis_menu(),))
    with pytest.raises(ValueError):
        adaptive_vs_identical(fam, 1.5, plan)
    with pytest.raises(ValueError):
        adaptive_vs_identical(qubit_fam(), 0.5, plan)
    tri = make_family(
        "measurement",
        {
            "povms": [
                [np.diag([0.8, 0.2]), np.diag([0.2, 0.8])],
                [np.diag([0.2, 0.8]), np.diag([0.8, 0.2])],
                [np.diag([0.5, 0.5]), np.diag([0.5, 0.5])],
            ],
            "labels": ["a", "b", "c"],
        },
    )
    with pytest.raises(ValueError):
        adaptive_vs_identical(tri, 0.5, plan)


# ---------------------------------------------------------------------------
# dense references for adaptive_vs_identical: every branch rebuilds its block
# outputs from explicit Kronecker products and calls bayes_binary_risk


def _dense_block_output(ch, psi, n_block):
    """Sum over Kraus tuples of (K_1 (x) I (x) K_2 (x) I ...) rho (...)^dag."""
    dims = psi.shape.factor_dims
    step = len(dims) // n_block
    rho = psi.density()
    out = np.zeros((ch.dout ** n_block * rho.shape[0] // ch.din ** n_block,) * 2, dtype=complex)
    for ops in itertools.product(ch.kraus_ops, repeat=n_block):
        factors = [np.eye(dim) for dim in dims]
        for i, kop in enumerate(ops):
            factors[step * i] = kop
        g = reduce(np.kron, factors)
        out += g @ rho @ g.conj().T
    return out


def _dense_helstrom(x, mass):
    """Projectors onto eigenvalues > 0 and, when x has null eigenvalues
    (ties, within 1e-12 of the branch mass), onto those >= 0."""
    lam, v = np.linalg.eigh(0.5 * (x + x.conj().T))
    tol = 1e-12 * mass
    masks = [lam > tol] + ([lam >= -tol] if np.any(np.abs(lam) <= tol) else [])
    return [v[:, m] @ v[:, m].conj().T for m in masks]


def _dense_adaptive(fam, prior, plan):
    (_, ch_p), (_, ch_m) = fam.members
    last = len(plan.block_sizes) - 1

    def best(j, post_p, post_m):
        risks = []
        for psi in plan.menus[j]:
            rho_p = _dense_block_output(ch_p, psi, plan.block_sizes[j])
            rho_m = _dense_block_output(ch_m, psi, plan.block_sizes[j])
            if j == last:
                total = post_p + post_m
                risks.append(total * bayes_binary_risk(rho_p, rho_m, post_p / total))
                continue
            for proj in _dense_helstrom(post_p * rho_p - post_m * rho_m, post_p + post_m):
                risk = 0.0
                for eff in (proj, np.eye(proj.shape[0]) - proj):
                    a = post_p * np.trace(rho_p @ eff).real
                    b = post_m * np.trace(rho_m @ eff).real
                    if a + b > 1e-15:
                        risk += best(j + 1, a, b)
                risks.append(risk)
        return min(risks)

    return best(0, prior, 1.0 - prior)


@lru_cache(maxsize=None)
def _dense_identical(make, prior, n):
    phi = np.outer(PHI2, PHI2.conj())
    omegas = [apply_extended(ch, phi, SystemShape((2, 2))) for ch in make().channels()]
    powers = [reduce(np.kron, [w] * n) for w in omegas]
    return bayes_binary_risk(powers[0], powers[1], prior)


def noncommuting_measurement():
    p = np.diag([0.8, 0.2])
    u = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    q = u @ np.diag([0.9, 0.3]) @ u.T
    return make_family(
        "measurement",
        {"povms": [[p, np.eye(2) - p], [q, np.eye(2) - q]], "labels": ["p", "q"]},
    )


def near_degenerate_measurement():
    # the Bell outputs commute to within 1e-9, but the 1.5e-8 split in the
    # second member's spectrum is wider than _joint_spectrum groups, so the
    # first member's 0.05 coupling inside that pair stays off its diagonal
    p = np.array([[0.5, 0.05], [0.05, 0.4]])
    q = np.diag([0.5, 0.5 + 3e-8])
    return make_family(
        "measurement",
        {"povms": [[p, np.eye(2) - p], [q, np.eye(2) - q]], "labels": ["p", "q"]},
    )


@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize(
    "make", [rotated_measurement, noncommuting_measurement, near_degenerate_measurement]
)
def test_adaptive_and_identical_match_dense_reference(blocks, make):
    fam = make()
    two = PureState(np.kron(PHI2, PHI2), SystemShape((2, 2, 2, 2)))
    bare = PureState(np.array([0.6, 0.0, 0.0, 0.8]), SystemShape((2, 2)))
    menus = tuple(basis_menu() if b == 1 else (two, bare) for b in blocks)
    plan = AdaptivePlan(blocks, menus)
    for prior in (0.3, 0.55):
        res = adaptive_vs_identical(fam, prior, plan)
        assert abs(res["adaptive_risk"] - _dense_adaptive(fam, prior, plan)) < 1e-12
        assert abs(res["identical_risk"] - _dense_identical(make, prior, sum(blocks))) < 1e-12


def test_identical_risk_route_follows_joint_diagonalization(monkeypatch):
    calls = []
    real = repetition._binary_risk

    def spy(a, b, prior):
        calls.append(a.shape)
        return real(a, b, prior)

    # the identical risk is the last _binary_risk call, after the adaptive
    # branches' calls on block outputs
    monkeypatch.setattr(repetition, "_binary_risk", spy)
    plan = AdaptivePlan((1, 1), (basis_menu(), basis_menu()))
    adaptive_vs_identical(rotated_measurement(), 0.5, plan)
    assert len(calls[-1]) == 1  # commuting Bell outputs: joint eigenvalues
    adaptive_vs_identical(noncommuting_measurement(), 0.5, plan)
    assert calls[-1] == (16, 16)  # noncommuting: dense Kronecker powers
    adaptive_vs_identical(near_degenerate_measurement(), 0.5, plan)
    assert calls[-1] == (16, 16)  # the pair commutes, the joint basis does not


def test_identical_risk_takes_eigenvalues_only_within_their_bound(monkeypatch):
    """a couples its first two eigenvectors at 1e-10, which b's split of
    1e-7 keeps apart, so the joint basis has a residual r = 1e-10: at n = 6
    the eigenvalue route's bound n D^2 r = 5.4e-9 exceeds SWEEP_TOL / 10 and
    the risk is the dense reference's. Uncoupled, the pair (r = 0) takes its
    joint eigenvalues."""
    shapes = []
    real = repetition._binary_risk

    def spy(x, y, prior):
        shapes.append(x.shape)
        return real(x, y, prior)

    monkeypatch.setattr(repetition, "_binary_risk", spy)
    a = np.diag([0.5, 0.3, 0.2])
    b = np.diag([0.3, 0.3 + 1e-7, 0.4 - 1e-7])
    repetition._identical_risk(a, b, 6, 0.45)
    assert shapes.pop() == (729,)
    a[0, 1] = a[1, 0] = 1e-10
    risk = repetition._identical_risk(a, b, 6, 0.45)
    assert shapes.pop() == (729, 729)
    want = bayes_binary_risk(reduce(np.kron, [a] * 6), reduce(np.kron, [b] * 6), 0.45)
    assert abs(risk - want) < 1e-12


@pytest.mark.parametrize("make", [noncommuting_measurement, near_degenerate_measurement])
def test_identical_risk_checks_the_single_use_pair_not_its_powers(monkeypatch, make):
    # the n-fold powers of a checked pair are states: checking them again
    # costs two eigendecompositions at the joint dimension
    fam = make()
    plan = AdaptivePlan((1, 1, 1), (basis_menu(),) * 3)
    want = adaptive_vs_identical(fam, 0.4, plan)
    checked = []
    real = comparison.density_mask

    def spy(ms):
        checked.append(np.shape(ms)[-1])
        return real(ms)

    monkeypatch.setattr(comparison, "density_mask", spy)
    assert adaptive_vs_identical(fam, 0.4, plan) == want
    # block outputs and the Bell outputs are 2 or 4 dimensional, the
    # three-use powers 64
    assert max(checked) == 4


@pytest.mark.parametrize("blocks", [(1, 1), (1, 1, 1)])
def test_adaptive_risk_of_complementary_family_ignores_roundoff(blocks):
    # members {diag(x, 1-x), diag(1-x, x)} and {diag(1-x, x), diag(x, 1-x)}
    # swap when the outcomes are relabelled, so priors 0.3 and 0.7 give one
    # risk; the intermediate Helstrom operator has null eigenvalues here, and
    # writing 1 - x as 0.3 or as 1 - 0.7 (one bit apart) must not decide
    # which way the tie goes
    plan = AdaptivePlan(blocks, (basis_menu(),) * len(blocks))
    risks = []
    for low_p, low_q in itertools.product((0.3, 1 - 0.7), repeat=2):
        povm_p = [np.diag([0.7, low_p]), np.diag([low_p, 0.7])]
        povm_q = [np.diag([low_q, 0.7]), np.diag([0.7, low_q])]
        fam = make_family("measurement", {"povms": [povm_p, povm_q], "labels": ["p", "q"]})
        risks += [adaptive_vs_identical(fam, prior, plan)["adaptive_risk"] for prior in (0.3, 0.7)]
    assert max(risks) - min(risks) < 1e-12, risks


def test_adaptive_four_single_use_blocks_is_fast():
    plan = AdaptivePlan((1, 1, 1, 1), (basis_menu(),) * 4)
    start = time.perf_counter()
    res = adaptive_vs_identical(rotated_measurement(), 0.4, plan)
    assert time.perf_counter() - start < 2.0
    assert res["adaptive_risk"] >= res["identical_risk"] - 1e-9
