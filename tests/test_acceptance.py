"""Acceptance suite: one test per criterion, run `pytest -v tests/test_acceptance.py`."""

import time

import numpy as np

from chanopt import (
    AdaptivePlan,
    IrrepBlocks,
    PureState,
    SystemShape,
    adaptive_vs_identical,
    ang_nonempty,
    ang_sample,
    apply_extended,
    closure_residual,
    cptp_feasible,
    dominance_check,
    entanglement_breaking_gp,
    gap_curve,
    gen_pauli,
    group_correction_simulator,
    make_family,
    partial_transpose,
    phi_pv,
    separable_suffices,
    su2_cover_check,
    trace_norm,
    unital_qubit_protocol,
    weyl_ops,
)
from chanopt.entanglement import product_balance_conditions
from chanopt.numerics import max_entangled
from conftest import ang_grid_search, bloch_state, fibonacci_sphere, haar_unitary, random_pure

TWO_QUBITS = SystemShape((2, 2))


def bell_density(d=2):
    phi = max_entangled(d)
    return np.outer(phi, phi.conj())


def member_channels(fam):
    return [ch for _, ch in fam.members]


def test_criterion_01_damping_counterexample():
    t0 = time.perf_counter()
    fam = make_family("damp", {"p": 1.0, "xis": [0.5, 0.0]})
    half, zero = member_channels(fam)
    excited = np.diag([0.0, 1.0])
    bell = bell_density()

    basis_gap = trace_norm(half.apply(excited) - 0.5 * zero.apply(excited))
    ent_gap = trace_norm(
        apply_extended(half, bell, TWO_QUBITS)
        - 0.5 * apply_extended(zero, bell, TWO_QUBITS)
    )
    assert abs(basis_gap - 0.5) < 1e-9
    assert abs(ent_gap - np.sqrt(2) / 2) < 1e-9

    # exact curves for full damping at xi = 1/2 against the undamped member
    grid = np.linspace(0.0, 3.0, 200)
    xi = 0.5
    # the curve may add breakpoints to the requested grid; check those too
    basis_curve = gap_curve(half.apply(excited), zero.apply(excited), grid=grid)
    ent_curve = gap_curve(
        apply_extended(half, bell, TWO_QUBITS),
        apply_extended(zero, bell, TWO_QUBITS),
        grid=grid,
    )
    s = np.asarray(basis_curve.s_values)
    basis_want = np.abs(1 - xi - s) + xi
    assert np.abs(np.asarray(basis_curve.norms) - basis_want).max() < 1e-9
    s = np.asarray(ent_curve.s_values)
    ent_want = 0.5 * np.sqrt((1 - s + xi) ** 2 + 4 * s * xi) + 0.5 * np.abs(1 - xi - s)
    assert np.abs(np.asarray(ent_curve.norms) - ent_want).max() < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_group_correction(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        group = [(u, u) for u in weyl_ops(d)]
        blocks = IrrepBlocks((d,))
        shape = SystemShape((d, d))
        for _ in range(5):
            theta = rng.dirichlet(np.ones(d * d))
            fam = make_family("gp", {"d": d, "thetas": [theta.tolist()]})
            sims = group_correction_simulator(fam, group, blocks)
            for _ in range(10):
                psi = random_pure(rng, d * d)
                target = np.outer(psi, psi.conj())
                for label, ch in fam.members:
                    direct = apply_extended(ch, target, shape)
                    worst = max(worst, float(np.abs(sims[label](target) - direct).max()))
    assert worst <= 1e-9
    assert time.perf_counter() - t0 < 5.0


def conjugated_gp_kraus(rng):
    theta = rng.dirichlet(np.ones(4))
    left, right = haar_unitary(rng, 2), haar_unitary(rng, 2)
    return [left @ (np.sqrt(t) * w) @ right for t, w in zip(theta, weyl_ops(2))]


def test_criterion_03_unital_qubit_protocol(rng):
    kraus = [conjugated_gp_kraus(rng) for _ in range(10)]
    fam = make_family(
        "custom", {"kraus": kraus, "labels": [f"u{i}" for i in range(10)]}
    )

    worst = 0.0
    for _ in range(10):
        p = rng.dirichlet([1.0, 1.0])
        v = haar_unitary(rng, 2)
        target = phi_pv(p, v).density()
        outs = unital_qubit_protocol(fam, p, v)
        for label, ch in fam.members:
            direct = apply_extended(ch, target, TWO_QUBITS)
            worst = max(worst, float(np.abs(outs[label] - direct).max()))
    assert worst <= 1e-9

    # the entangled input is never strictly worse than any random input
    bell = bell_density()
    cand = [apply_extended(ch, bell, TWO_QUBITS) for _, ch in fam.members]
    for _ in range(20):
        psi = random_pure(rng, 4)
        rho = np.outer(psi, psi.conj())
        chal = [apply_extended(ch, rho, TWO_QUBITS) for _, ch in fam.members]
        verdict = dominance_check(cand, chal, certify=False)
        assert verdict.relation != "dominated"


BALANCE_PLACEMENTS = {1: (1, 2, 3), 2: (3, 1, 2), 3: (2, 3, 1)}
BALANCE_AXES = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


def balanced_pair(rng, k):
    # split a shared weight ratio between the paired components so the
    # chosen product-balance equation holds exactly
    while True:
        q = rng.dirichlet(np.ones(2))
        r = rng.dirichlet(np.ones(2))
        xis = []
        for a in rng.uniform(0.1, 0.9, size=2):
            parts = {0: a * q[0], 1: a * q[1], 2: (1 - a) * r[0], 3: (1 - a) * r[1]}
            order = BALANCE_PLACEMENTS[k]
            xis.append([parts[order[0]], parts[order[1]], parts[order[2]]])
        try:
            fam = make_family("gp", {"d": 2, "xis": xis})
        except ValueError:
            continue
        conds = product_balance_conditions(*fam.params["thetas"])
        if conds[k - 1]:
            return fam, xis


def test_criterion_04_collinear_balance(rng):
    grid = np.linspace(0.0, 3.0, 120)
    for i in range(50):
        k = i % 3 + 1
        fam, _ = balanced_pair(rng, k)
        plus, minus = member_channels(fam)
        axis = bloch_state(BALANCE_AXES[k])
        rho = np.outer(axis, axis.conj())
        prod_curve = gap_curve(plus.apply(rho), minus.apply(rho), grid=grid)
        ent_curve = gap_curve(
            apply_extended(plus, bell_density(), TWO_QUBITS),
            apply_extended(minus, bell_density(), TWO_QUBITS),
            grid=grid,
        )
        # restrict to the shared requested grid; breakpoint insertion differs
        prod = np.asarray(prod_curve.norms)[np.isin(prod_curve.s_values, grid)]
        ent = np.asarray(ent_curve.norms)[np.isin(ent_curve.s_values, grid)]
        assert np.abs(prod - ent).max() <= 1e-9

    checked = 0
    while checked < 50:
        xi_a = tuple(rng.dirichlet(np.ones(4))[1:])
        xi_b = tuple(rng.dirichlet(np.ones(4))[1:])
        fam = make_family("gp", {"d": 2, "xis": [list(xi_a), list(xi_b)]})
        if any(product_balance_conditions(*fam.params["thetas"])):
            continue
        verdict = separable_suffices(fam)
        assert not verdict.suffices and verdict.witness is not None
        w = verdict.witness
        chs = dict(fam.members)
        ent = trace_norm(
            apply_extended(chs[w.pair[0]], bell_density(), TWO_QUBITS)
            - w.s * apply_extended(chs[w.pair[1]], bell_density(), TWO_QUBITS)
        )
        for r in fibonacci_sphere(100):
            psi = bloch_state(r)
            rho = np.outer(psi, psi.conj())
            prod = trace_norm(chs[w.pair[0]].apply(rho) - w.s * chs[w.pair[1]].apply(rho))
            assert ent >= prod + 1e-6
        checked += 1


def test_criterion_05_eb_oracle_equivalence(rng):
    shape = SystemShape((2, 2))
    for _ in range(1000):
        xi = tuple(rng.dirichlet(np.ones(4))[1:])
        fam = make_family("gp", {"d": 2, "xis": [list(xi)]})
        state = apply_extended(fam.channels()[0], bell_density(), shape)
        swapped = partial_transpose(state, shape, on=1)
        oracle = bool(np.linalg.eigvalsh(swapped).min() >= -1e-10)
        assert entanglement_breaking_gp(fam.params["thetas"][0]) == oracle


def test_criterion_06_angle_geometry(rng):
    for d, steps in ((3, 400), (4, 120)):
        checked = 0
        while checked < 100:
            x = rng.uniform(0.1, 2.0, size=d)
            y = np.sort(x)[::-1]
            bound = float(x[:-1].sum()) * (np.pi / steps)
            if abs(y[0] - y[1:].sum()) <= 2 * bound:
                continue  # deficit hides inside the grid resolution
            best, bound = ang_grid_search(x, steps)
            assert ang_nonempty(x) == (best <= bound)
            checked += 1

    drawn = 0
    while drawn < 10:
        d = int(rng.integers(4, 7))
        x = rng.uniform(0.2, 1.0, size=d)
        y = np.sort(x)[::-1]
        if y[0] >= y[1:].sum() - 0.05:
            continue
        for av in ang_sample(x, 5, seed=100 + drawn):
            assert closure_residual(x, av) <= 1e-9
        drawn += 1

    sym = [1.0, 1.0, 1.0, 1.0]
    best_distinct = 0
    for av in ang_sample(sym, 20, seed=5):
        assert closure_residual(sym, av) <= 1e-9
        rounded = {(round(z.real, 6), round(z.imag, 6)) for z in av.omegas}
        best_distinct = max(best_distinct, len(rounded))
    assert best_distinct >= 3


def test_criterion_07_su2_strictness(rng):
    assert su2_cover_check(0.5).covered
    phi = max_entangled(2)
    eye = np.eye(2)
    for _ in range(1000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        u = 1j * (
            n[0] * np.array([[0, 1], [1, 0]])
            + n[1] * np.array([[0, -1j], [1j, 0]])
            + n[2] * np.diag([1.0, -1.0])
        )
        assert abs(phi.conj() @ (np.kron(u, eye) @ phi)) <= 1e-12

    p_values = [0.3] + list(rng.uniform(0.02, 0.98, size=20))
    for p1 in p_values:
        if abs(p1 - 0.5) < 1e-3:
            continue
        res = su2_cover_check(p1)
        assert not res.covered and res.witness is not None
        psi = phi_pv([p1, 1 - p1], eye).amplitudes
        value = abs(psi.conj() @ (np.kron(res.witness, eye) @ psi))
        assert abs(value - abs(2 * p1 - 1)) <= 1e-12


def rotated_binary_family(rng):
    while True:
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.05, 0.95)
        if abs(a - b) >= 0.05:
            break
    return make_family(
        "measurement",
        {
            "m_plus": np.diag([a, 1 - a]),
            "m_minus": np.diag([b, 1 - b]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )


def test_criterion_08_classical_adaptation(rng):
    e0 = PureState(np.array([1.0, 0.0]), SystemShape((2,)))
    e1 = PureState(np.array([0.0, 1.0]), SystemShape((2,)))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2), SystemShape((2,)))
    bell = phi_pv([0.5, 0.5], np.eye(2))
    menu = (e0, e1, plus, bell)
    plan = AdaptivePlan((1, 1), (menu, menu))
    for _ in range(10):
        fam = rotated_binary_family(rng)
        for prior in (0.3, 0.5, 0.7):
            res = adaptive_vs_identical(fam, prior, plan)
            assert res["adaptive_risk"] >= res["identical_risk"] - 1e-9


def test_criterion_09_weyl_relations(rng):
    for d in range(2, 7):
        x, z = gen_pauli(d)
        eye = np.eye(d)
        omega = np.exp(2j * np.pi / d)
        assert np.abs(np.linalg.matrix_power(x, d) - eye).max() <= 1e-12
        assert np.abs(np.linalg.matrix_power(z, d) - eye).max() <= 1e-12
        assert np.abs(omega * (z @ x) - x @ z).max() <= 1e-12

        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        total = sum(u.conj().T @ b @ u for u in weyl_ops(d))
        assert np.abs(total - d * np.trace(b) * eye).max() <= 1e-10


def test_criterion_10_feasibility_vs_overlap(rng):
    agree = total = 0
    while total < 50:
        s1, s2 = random_pure(rng, 2), random_pure(rng, 2)
        t1, t2 = random_pure(rng, 2), random_pure(rng, 2)
        ov_source = abs(np.vdot(s1, s2))
        ov_target = abs(np.vdot(t1, t2))
        if abs(ov_source - ov_target) < 1e-3:
            continue
        total += 1
        res = cptp_feasible(
            [np.outer(s1, s1.conj()), np.outer(s2, s2.conj())],
            [np.outer(t1, t1.conj()), np.outer(t2, t2.conj())],
        )
        if res.feasible == (ov_source <= ov_target):
            agree += 1
    assert agree == total == 50
