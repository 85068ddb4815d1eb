import numpy as np
import pytest

from chanopt import channels
from chanopt.channels import (
    ChoiMatrix,
    ConstraintViolation,
    KrausChannel,
    apply_at_factor,
    apply_extended,
    binary_povms,
    choi_of,
    covariance,
    gen_pauli,
    gp_theta_from_xi,
    gp_weights_from_channel,
    is_unital,
    make_family,
    measurement_channel,
    rotated_povm,
    use_layout,
    validate_cptp,
    weyl_ops,
)
from chanopt.comparison import gap_curve
from chanopt.entanglement import meas_separable_check
from chanopt.numerics import PureState, SystemShape, dagger, max_abs, max_entangled, partial_trace
from chanopt.optimal_inputs import measurement_input_certify
from chanopt.repetition import AdaptivePlan, adaptive_vs_identical
from conftest import bell_weights_oracle, haar_unitary, random_density, random_pure


def test_gen_pauli_relations():
    for d in range(2, 7):
        x, z = gen_pauli(d)
        eye = np.eye(d)
        assert max_abs(np.linalg.matrix_power(x, d) - eye) < 1e-12
        assert max_abs(np.linalg.matrix_power(z, d) - eye) < 1e-12
        w = np.exp(2j * np.pi / d)
        assert max_abs(w * z @ x - x @ z) < 1e-12


def test_weyl_ops_orthogonal_frame():
    for d in (2, 3):
        us = weyl_ops(d)
        assert len(us) == d * d
        for i, a in enumerate(us):
            for j, b in enumerate(us):
                ip = np.trace(dagger(a) @ b)
                assert abs(ip - (d if i == j else 0.0)) < 1e-12


def test_weyl_twirl_identity(rng):
    # sum_g U_g^dag B U_g = d tr(B) 1 over the full Weyl frame
    for d in (2, 3, 4):
        us = weyl_ops(d)
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = sum(dagger(u) @ b @ u for u in us)
        assert max_abs(acc - d * np.trace(b) * np.eye(d)) < 1e-10


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel([], din=2, dout=2)
    ch = KrausChannel([np.eye(2)], din=2, dout=2)
    rep = validate_cptp(ch)
    assert rep.valid and rep.trace_preserving and rep.cp
    bad = KrausChannel([np.eye(2) * 0.5], din=2, dout=2)
    assert not validate_cptp(bad).trace_preserving


def test_choi_apply_and_kraus_round_trip(rng):
    ops = [np.sqrt(0.6) * np.eye(2), np.sqrt(0.4) * np.array([[0, 1], [1, 0]])]
    ch = KrausChannel(ops, din=2, dout=2)
    w = choi_of(ch)
    rho = random_density(rng, 2)
    assert max_abs(w.apply(rho) - ch.apply(rho)) < 1e-12
    back = w.to_kraus()
    assert max_abs(back.apply(rho) - ch.apply(rho)) < 1e-12


def test_choi_trace_out_output_is_identity_for_tp():
    ch = make_family("gp", {"d": 3, "thetas": [[0.5, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]]}).members[0][1]
    w = choi_of(ch).matrix
    assert max_abs(partial_trace(w, SystemShape((3, 3)), keep=1) - np.eye(3)) < 1e-9


def test_apply_extended_matches_kron(rng):
    ch = make_family("damp", {"p": 0.5, "xis": [0.3]}).members[0][1]
    rho = random_density(rng, 6)
    got = apply_extended(ch, rho, SystemShape((2, 3)))
    want = sum(
        np.kron(k, np.eye(3)) @ rho @ np.kron(dagger(k), np.eye(3))
        for k in ch.kraus_ops
    )
    assert max_abs(got - want) < 1e-12
    assert abs(np.trace(got) - 1) < 1e-12


@pytest.mark.parametrize(
    "dims,uses,refs",
    [
        ((2,), 1, (1,)),
        ((2, 3), 1, (3,)),
        ((2, 1), 1, (1,)),
        ((2, 2), 2, (1, 1)),
        ((2, 2), 1, (2,)),
        ((2, 3, 2, 1, 2, 4), 3, (3, 1, 4)),
    ],
    ids=["bare", "paired", "trivial-reference", "two-bare", "phi", "three-pairs"],
)
def test_use_layout_reads_bare_and_paired_uses(dims, uses, refs):
    assert use_layout(SystemShape(dims), 2, uses) == refs


@pytest.mark.parametrize(
    "dims,uses",
    [((3,), 1), ((3, 2), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 3), 2), ((2, 2, 3, 2), 2), ((2, 1, 1), 1), ((2, 2), 3)],
    ids=["bare-wrong", "paired-wrong", "three-bare", "bare-and-pair", "bare-wrong-second", "second-pair-wrong",
         "split-reference", "too-few"],
)
def test_use_layout_rejects_every_other_layout(dims, uses):
    with pytest.raises(ValueError, match=f"input needs {uses} channel factor"):
        use_layout(SystemShape(dims), 2, uses)


def _kernel_channel(name, rng) -> KrausChannel:
    if name == "gp-qubit":
        return make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]}).channels()[0]
    if name == "rotated-2to4":
        fam = make_family(
            "measurement",
            {
                "m_plus": np.diag([0.7, 0.3]),
                "m_minus": np.diag([0.3, 0.7]),
                "unitaries": weyl_ops(2),
                "structure": "rotated",
            },
        )
        assert (fam.din, fam.dout) == (2, 4)
        return fam.channels()[0]
    if name == "qutrit-full-rank":
        return make_family("gp", {"d": 3, "thetas": [rng.dirichlet(np.ones(9))]}).channels()[0]
    return KrausChannel.from_ops([haar_unitary(rng, 8)])


# "rule" lets apply_at_factor choose its route (the superoperator for the
# first three, the Kraus set for the rank-1 unitary); the other two force
# one route for every channel through the cost constant the rule reads
@pytest.mark.parametrize("route", ["rule", "superop", "kraus"])
@pytest.mark.parametrize(
    "name, factors",
    [("gp-qubit", 4), ("rotated-2to4", 4), ("qutrit-full-rank", 4), ("unitary-8", 3)],
)
def test_apply_at_factor_matches_kron_reference(rng, monkeypatch, route, name, factors):
    if route != "rule":
        monkeypatch.setattr(channels, "_KRAUS_OP_COST", 10**9 if route == "superop" else 0)
    ch = _kernel_channel(name, rng)
    dim = ch.din**factors
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for k in range(factors):
        left, right = np.eye(ch.din**k), np.eye(ch.din ** (factors - k - 1))
        want = 0
        for kop in ch.kraus_ops:
            g = np.kron(np.kron(left, kop), right)
            want = want + g @ rho @ dagger(g)
        got = apply_at_factor(ch, rho, [ch.din] * factors, k)
        assert max_abs(got - want) < 1e-12, k


def test_gp_bell_weights_worked_example():
    # xi = (0.1, 0.2, 0.3) puts weight 0.4 on the untouched Bell state and
    # (0.1, 0.2, 0.3) on the shift, shift-phase, and phase Bell states
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    ch = fam.members[0][1]
    phi = max_entangled(2)
    out = apply_extended(ch, np.outer(phi, phi.conj()), SystemShape((2, 2)))
    eye2 = np.eye(2)
    x, z = gen_pauli(2)
    for u, want in [(eye2, 0.4), (x, 0.1), (x @ z, 0.2), (z, 0.3)]:
        v = np.kron(u, eye2) @ phi
        assert abs((v.conj() @ out @ v).real - want) < 1e-12
    # off the Bell diagonal everything vanishes
    vx = np.kron(x, eye2) @ phi
    vz = np.kron(z, eye2) @ phi
    assert abs(vx.conj() @ out @ vz) < 1e-12


def test_gp_weights_recovered_from_channel(rng):
    for d in (2, 3):
        theta = rng.dirichlet(np.ones(d * d))
        fam = make_family("gp", {"d": d, "thetas": [theta.tolist()]})
        got = gp_weights_from_channel(fam.members[0][1])
        assert max_abs(got - theta) < 1e-9
        oracle = bell_weights_oracle(fam.members[0][1].kraus_ops, d)
        assert max_abs(oracle - theta) < 1e-9


def test_gp_xi_theta_round_trip():
    # xis weight X, XZ, Z; theta is in the Weyl order [I, Z, X, XZ]
    xi = (0.1, 0.2, 0.3)
    theta = gp_theta_from_xi(xi)
    assert abs(theta.sum() - 1.0) < 1e-12
    assert max_abs(theta - np.array([1 - sum(xi), xi[2], xi[0], xi[1]])) < 1e-12


def test_gp_rejects_bad_weights():
    with pytest.raises(ConstraintViolation):
        make_family("gp", {"d": 2, "xis": [[0.5, 0.5, 0.5]]})


@pytest.mark.parametrize(
    "kind, params",
    [
        ("gp", {"d": 2, "xis": [[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]]}),
        ("damp", {"p": 1.0, "xis": [0.5, 0.0]}),
    ],
)
def test_label_count_must_match_members(kind, params):
    with pytest.raises(ConstraintViolation, match="labels"):
        make_family(kind, dict(params, labels=["a"]))
    n = len(params["xis"])
    fam = make_family(kind, dict(params, labels=[f"m{i}" for i in range(n)]))
    assert fam.labels() == [f"m{i}" for i in range(n)]


def test_damp_family_unitality():
    fam = make_family("damp", {"p": 1.0, "xis": [0.0]})
    ch = fam.members[0][1]
    assert not is_unital(ch)
    out = sum(k @ dagger(k) for k in ch.kraus_ops)
    assert max_abs(out - np.diag([2.0, 0.0])) < 1e-12


def test_damp_half_is_weyl_mixture_and_covariant():
    fam = make_family("damp", {"p": 0.5, "xis": [0.2, 0.7]})
    group = [(u, u) for u in weyl_ops(2)]
    assert covariance(fam, group)[0]
    for _, ch in fam.members:
        th = gp_weights_from_channel(ch)
        assert th.min() > -1e-12 and abs(th.sum() - 1) < 1e-9


def test_gp_family_weyl_covariant():
    fam = make_family("gp", {"d": 3, "thetas": [np.full(9, 1 / 9).tolist(), [0.6, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.0, 0.05]]})
    group = [(u, u) for u in weyl_ops(3)]
    assert covariance(fam, group)[0]


def test_diag_reproduces_gp_members():
    t = 2.0**-0.5
    fam = make_family("diag", {"d": 2, "thetas": [[t], [-t]]})
    plain, flip = (ch for _, ch in fam.members)
    x, z = gen_pauli(2)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    assert max_abs(plain.apply(rho) - rho) < 1e-12
    assert max_abs(flip.apply(rho) - z @ rho @ dagger(z)) < 1e-12
    assert max_abs(gp_weights_from_channel(plain) - [1, 0, 0, 0]) < 1e-12
    assert max_abs(gp_weights_from_channel(flip) - [0, 1, 0, 0]) < 1e-12


def test_diag_needs_unit_diagonal_norm():
    with pytest.raises(ConstraintViolation):
        make_family("diag", {"d": 2, "thetas": [[0.8]]})


def test_diag_d3_weyl_covariant():
    fam = make_family("diag", {"d": 3, "thetas": [[2.0**-0.5]]})
    group = [(u, u) for u in weyl_ops(3)]
    assert covariance(fam, group)[0]


def test_cdep_contravariant(rng):
    fam = make_family("cdep", {"d": 2, "thetas": [0.1, 0.3]})
    group = [(haar_unitary(rng, 2), haar_unitary(rng, 2)) for _ in range(3)]
    group = [(u, u) for u, _ in group]
    assert covariance(fam, group) == (False, True)


def test_covariance_builds_one_choi_matrix_per_member(monkeypatch):
    calls = []
    real = channels.choi_of

    def spy(ch):
        calls.append(ch)
        return real(ch)

    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.4]]})
    monkeypatch.setattr(channels, "choi_of", spy)
    # both relations hold, so every (member, g) is tested for both
    assert covariance(fam, [(u, u) for u in weyl_ops(2)]) == (True, True)
    assert calls == fam.channels()


def test_covariance_rejects_a_nonunitary_group():
    fam = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    with pytest.raises(ValueError, match="unitary"):
        covariance(fam, [(np.eye(2), 2 * np.eye(2))])


def test_cdep_cp_window():
    make_family("cdep", {"d": 2, "thetas": [1 / 3]})
    with pytest.raises(ConstraintViolation):
        make_family("cdep", {"d": 2, "thetas": [0.5]})


def test_ou_family_unital():
    us = weyl_ops(2)[:2]
    fam = make_family("ou", {"unitaries": us, "weights": [[0.7, 0.3], [0.2, 0.8]]})
    for _, ch in fam.members:
        assert is_unital(ch)
        assert validate_cptp(ch).valid


def test_ou_family_needs_orthogonal_unitaries(rng):
    us = [np.eye(2), haar_unitary(rng, 2)]
    with pytest.raises(ConstraintViolation):
        make_family("ou", {"unitaries": us, "weights": [[0.7, 0.3]]})


def test_qubit_phase_family():
    fam = make_family("qubit-phase", {"thetas": [[0.3, 0.1], [0.2, 0.4]]})
    for _, ch in fam.members:
        assert validate_cptp(ch).valid
        assert ch.din == ch.dout == 2


def test_measurement_channel_block_diagonal(rng):
    m = np.diag([0.8, 0.2])
    ch = measurement_channel([m, np.eye(2) - m])
    rho = random_density(rng, 2)
    out = ch.apply(rho)
    assert max_abs(out - np.diag(np.diag(out))) < 1e-12
    assert abs(out[0, 0] - np.trace(m @ rho)) < 1e-12


def test_povm_validation():
    with pytest.raises(ValueError, match="share a square dimension"):
        measurement_channel([np.eye(2), np.eye(3)])
    with pytest.raises(ConstraintViolation, match="completeness"):
        measurement_channel([np.diag([0.5, 0.5])])
    with pytest.raises(ConstraintViolation, match="element 1 is not PSD"):
        measurement_channel([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])


def test_rotated_povm_twirl_constant():
    us = weyl_ops(2)
    e1 = np.array([1.0, 2.0]) / np.sqrt(5)
    e2 = np.array([2.0, -1.0]) / np.sqrt(5)
    mp = 0.7 * np.outer(e1, e1) + 0.3 * np.outer(e2, e2)
    mm = 0.2 * np.outer(e1, e1) + 0.8 * np.outer(e2, e2)
    plus, minus = rotated_povm(mp, mm, us)
    assert len(plus) == len(minus) == len(us)
    assert max_abs(sum(plus) - np.eye(2)) < 1e-9
    assert max_abs(sum(minus) - np.eye(2)) < 1e-9


@pytest.mark.parametrize(
    "us",
    [[np.eye(2)], [np.eye(2), gen_pauli(2)[0]], [np.eye(2), gen_pauli(2)[0]] * 2],
    ids=["identity", "flip-pair", "flip-pair-twice"],
)
def test_rotated_povm_rejects_non_averaging_set(us):
    # none of these sets twirls every A to c tr(A) 1, though I and X twirl
    # every diagonal A correctly; the last has the d^2 elements a twirl needs
    e1 = np.array([1.0, 2.0]) / np.sqrt(5)
    mp = 0.7 * np.outer(e1, e1) + 0.3 * (np.eye(2) - np.outer(e1, e1))
    with pytest.raises(ConstraintViolation):
        rotated_povm(mp, mp, us)



def test_make_family_measurement_kinds():
    us = weyl_ops(2)
    e1 = np.array([1.0, 2.0]) / np.sqrt(5)
    e2 = np.array([2.0, -1.0]) / np.sqrt(5)
    mp = 0.7 * np.outer(e1, e1) + 0.3 * np.outer(e2, e2)
    mm = 0.2 * np.outer(e1, e1) + 0.8 * np.outer(e2, e2)
    fam = make_family("measurement", {"unitaries": us, "m_plus": mp, "m_minus": mm})
    assert fam.labels() == ["plus", "minus"]
    assert fam.params["structure"] == "rotated"
    assert fam.dout == len(us)

    m = np.diag([0.8, 0.2])
    fam2 = make_family(
        "measurement",
        {"povms": [[m, np.eye(2) - m], [np.eye(2) - m, m]], "labels": ["p", "q"]},
    )
    assert fam2.labels() == ["p", "q"]
    assert fam2.params["structure"] == "plain"



def test_rotated_members_measure_their_stated_povms():
    """m_minus = diag(1 - 1e-13, 1e-13): each rotated minus element has an
    eigenvalue of 5e-14, which a Kraus cut at 1e-12 once dropped, so the
    minus member measured another POVM than params["povms"] (off by 5e-14)
    and the curve of its Bell outputs left the stated elements' by 0.3 at
    s = 3e12. Every positive eigenvalue is kept now."""
    fam = make_family(
        "measurement",
        {"unitaries": weyl_ops(2), "m_plus": np.diag([0.7, 0.3]), "m_minus": np.diag([1 - 1e-13, 1e-13])},
    )
    for (_, ch), povm in zip(fam.members, fam.params["povms"]):
        measured = [sum(dagger(k)[:, [i]] @ k[[i], :] for k in ch.kraus_ops) for i in range(len(povm))]
        assert max(max_abs(m - e) for m, e in zip(measured, povm)) <= 1e-15
    phi = np.outer(max_entangled(2), max_entangled(2))
    built = [apply_extended(ch, phi, SystemShape((2, 2))) for _, ch in fam.members]
    # outcome i with the reference left in M_i^T / 2
    stated = [sum(np.kron(np.diag(np.eye(4)[i]), e.T / 2) for i, e in enumerate(p)) for p in fam.params["povms"]]
    curves = [gap_curve(*pair, grid=[3e12]) for pair in (built, stated)]
    assert abs(curves[0].norms[-1] - curves[1].norms[-1]) <= 1e-2


_M = np.diag([0.8, 0.2])
_ROTATED = {"unitaries": weyl_ops(2), "m_plus": np.diag([0.7, 0.3]), "m_minus": np.diag([0.3, 0.7])}

# each kind's smallest document and the params its family keeps: only what
# some analysis reads
STORED = {
    "gp": ("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]}, {"thetas"}),
    "damp": ("damp", {"p": 0.5, "xis": [0.3]}, set()),
    "diag": ("diag", {"d": 2, "thetas": [[2.0**-0.5]]}, set()),
    "cdep": ("cdep", {"d": 2, "thetas": [0.1]}, set()),
    "ou": ("ou", {"unitaries": weyl_ops(2), "weights": [[0.25] * 4]}, set()),
    "qubit-phase": ("qubit-phase", {"thetas": [[0.3, 0.1]]}, set()),
    "measurement-plain": ("measurement", {"povms": [[_M, np.eye(2) - _M]]}, {"structure", "povms"}),
    "measurement-rotated": (
        "measurement", _ROTATED, {"structure", "povms", "unitaries", "m_plus", "m_minus"}
    ),
    "unitary": ("unitary", {"unitaries": [np.eye(2)]}, set()),
    "custom": ("custom", {"kraus": [[np.eye(2)]]}, set()),
}


@pytest.mark.parametrize("form", sorted(STORED))
def test_make_family_stores_only_what_analyses_read(form):
    kind, params, keys = STORED[form]
    assert set(make_family(kind, params).params) == keys


def test_binary_povms_is_the_one_measurement_guard():
    pair = make_family("measurement", {"povms": [[_M, np.eye(2) - _M], [np.eye(2) - _M, _M]]})
    assert [len(p) for p in binary_povms(pair)] == [2, 2]
    rotated = make_family("measurement", _ROTATED)
    assert [len(p) for p in binary_povms(rotated)] == [4, 4]
    phi = PureState(max_entangled(2), SystemShape((2, 2)))
    plan = AdaptivePlan((1,), ((phi,),))
    analyses = [
        lambda fam: measurement_input_certify(fam, phi),
        lambda fam: meas_separable_check(fam, np.array([1.0, 0.0])),
        lambda fam: adaptive_vs_identical(fam, 0.5, plan),
    ]
    gp = make_family("gp", {"d": 2, "xis": [[0.1, 0.2, 0.3]]})
    three = make_family("measurement", {"povms": [[_M, np.eye(2) - _M]] * 3})
    for fam in (gp, three):
        with pytest.raises(ValueError, match="^expected a two-member measurement family$"):
            binary_povms(fam)
        for analysis in analyses:
            with pytest.raises(ValueError, match="^expected a two-member measurement family$"):
                analysis(fam)


def test_make_family_unitary_and_custom(rng):
    u = haar_unitary(rng, 3)
    fam = make_family("unitary", {"unitaries": [np.eye(3), u]})
    rho = random_density(rng, 3)
    assert max_abs(fam.members[1][1].apply(rho) - u @ rho @ dagger(u)) < 1e-12
    fam2 = make_family("custom", {"kraus": [[np.eye(2)]]})
    assert validate_cptp(fam2.members[0][1]).valid


def test_make_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_family("nope", {})


def test_family_member_dimensions_must_match():
    with pytest.raises(ConstraintViolation, match=r"family\.kraus\[1\]: member 'b'"):
        make_family("custom", {"kraus": [[np.eye(2)], [np.eye(3)]], "labels": ["a", "b"]})


def test_choi_matrix_validates_dimensions():
    with pytest.raises(ValueError):
        ChoiMatrix(np.eye(5), din=2, dout=2)
