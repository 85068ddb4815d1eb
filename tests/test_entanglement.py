import numpy as np
import pytest

from chanopt.channels import apply_extended, make_family, weyl_ops
from chanopt.entanglement import (
    bloch_contraction,
    collinear,
    entanglement_breaking_gp,
    family_gp_params,
    meas_separable_check,
    product_balance_conditions,
    product_candidates,
    separable_suffices,
)
from chanopt.numerics import SystemShape, max_abs, max_entangled, partial_transpose
from conftest import bloch_state, fibonacci_sphere, haar_unitary, partial_transpose_oracle

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0])


def gp_fam(*xis):
    return make_family("gp", {"d": 2, "xis": [list(x) for x in xis]})


def thetas(*xis):
    """Weyl weights [I, Z, X, XZ] of the qubit gp members with these xis."""
    return gp_fam(*xis).params["thetas"]


def entangled_output(ch):
    """The member's output on the maximally entangled two-qubit input."""
    phi = max_entangled(2)
    return apply_extended(ch, np.outer(phi, phi.conj()), SystemShape((2, 2)))


# ---------------------------------------------------------------------------
# closed forms on the Weyl weights


def test_bloch_contraction_matches_channel(rng):
    xi = rng.dirichlet(np.ones(4))[1:]
    fam = gp_fam(xi)
    ch = fam.members[0][1]
    a = bloch_contraction(fam.params["thetas"][0])
    for axis, sigma, want in zip(range(3), (SX, SY, SZ), a):
        r = np.zeros(3)
        r[axis] = 1.0
        psi = bloch_state(r)
        out = ch.apply(np.outer(psi, psi.conj()))
        assert abs(np.trace(out @ sigma).real - want) < 1e-12


def test_collinear():
    assert collinear([(0.1, 0.2, 0.3), (0.2, 0.4, 0.6)])
    assert collinear([(0, 0, 0.1), (0, 0, 0.2), (0, 0, 0.35)])
    line = [(0.1 * t, 0.05 * t, 0.02 * t) for t in (1, 2, 3, 5)]
    assert collinear(line)
    assert collinear([(100 * x, 100 * y, 100 * z) for x, y, z in line])
    bent = [(0, 0, 0.1), (0, 0, 0.2), (0, 0.05, 0.3)]
    assert not collinear(bent)
    assert collinear([(0.1, 0.1, 0.1)] * 4)


def test_balance_conditions_name_axes():
    z_pair = thetas((0, 0, 0.3), (0, 0, 0.45))
    assert product_balance_conditions(*z_pair)[0]
    x_pair = thetas((0.1, 0, 0), (0.3, 0, 0))
    conds = product_balance_conditions(*x_pair)
    assert not conds[0] and conds[1]
    off = thetas((0.1, 0.2, 0.3), (0.05, 0.1, 0.15))
    assert product_balance_conditions(*off) == [False, False, False]


# ---------------------------------------------------------------------------
# Bloch sampling oracles (tests/conftest.py)


def test_fibonacci_sphere_covering():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    assert max_abs(np.linalg.norm(pts, axis=1) - 1.0) < 1e-12
    # crude covering check: every octant gets visited
    signs = {tuple(np.sign(p).astype(int)) for p in pts if np.all(p != 0)}
    assert len(signs) >= 8


def test_bloch_state_directions(rng):
    assert max_abs(bloch_state((0, 0, 1)) - np.array([1, 0])) < 1e-12
    assert max_abs(bloch_state((0, 0, -1)) - np.array([0, 1])) < 1e-12
    plus = bloch_state((1, 0, 0))
    assert max_abs(np.abs(plus) - np.sqrt(0.5)) < 1e-12
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    psi = bloch_state(r)
    got = [np.vdot(psi, s @ psi).real for s in (SX, SY, SZ)]
    assert max_abs(np.array(got) - r) < 1e-12


# ---------------------------------------------------------------------------
# weight extraction


def test_family_gp_params_passthrough():
    fam = gp_fam((0.1, 0.2, 0.3), (0, 0, 0.5))
    ps = family_gp_params(fam)
    assert max_abs(ps[0] - np.array([0.4, 0.3, 0.1, 0.2])) < 1e-15
    assert max_abs(ps[1] - np.array([0.5, 0.5, 0.0, 0.0])) < 1e-15
    given = [[0.4, 0.3, 0.1, 0.2], [0.25, 0.25, 0.25, 0.25]]
    by_theta = make_family("gp", {"d": 2, "thetas": given})
    assert [t.tolist() for t in family_gp_params(by_theta)] == given


def test_family_gp_params_recovers_weyl_mixtures():
    fam = make_family("damp", {"p": 0.5, "xis": [0.3]})
    (theta,) = family_gp_params(fam)
    assert theta.shape == (4,)
    assert theta.min() > -1e-12
    assert abs(theta.sum() - 1.0) < 1e-9


def test_family_gp_params_rejects_non_mixture():
    fam = make_family("damp", {"p": 1.0, "xis": [0.3]})
    with pytest.raises(ValueError):
        family_gp_params(fam)
    qutrit = make_family("gp", {"d": 3, "thetas": [np.ones(9) / 9]})
    with pytest.raises(ValueError):
        family_gp_params(qutrit)


# ---------------------------------------------------------------------------
# separable_suffices


def test_z_dephasing_pair_certifies_x_axis():
    v = separable_suffices(gp_fam((0, 0, 0.3), (0, 0, 0.45)))
    assert v.suffices
    assert v.condition == 1
    assert v.axis_name == "x"


def test_x_mixture_pair_certifies_y_axis():
    v = separable_suffices(gp_fam((0.1, 0, 0), (0.3, 0, 0)))
    assert v.suffices
    assert v.condition == 2
    assert v.axis_name == "y"


def test_identical_members_suffice():
    v = separable_suffices(gp_fam((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)))
    assert v.suffices


def test_collinear_without_balance_gets_witness():
    v = separable_suffices(gp_fam((0.1, 0.2, 0.3), (0.05, 0.1, 0.15)))
    assert not v.suffices
    assert v.witness is not None
    assert v.witness.gap > 1e-6
    assert v.witness.pair == ("gp0", "gp1")


def test_witness_gap_is_real(rng):
    # the reported gap must survive an independent recomputation
    fam = gp_fam((0.1, 0.2, 0.3), (0.05, 0.1, 0.15))
    v = separable_suffices(fam)
    w = v.witness
    shape = SystemShape((2, 2))
    phi = max_entangled(2)
    bell = np.outer(phi, phi.conj())
    from chanopt.numerics import trace_norm

    chs = dict(fam.members)
    ent = trace_norm(
        apply_extended(chs[w.pair[0]], bell, shape)
        - w.s * apply_extended(chs[w.pair[1]], bell, shape)
    )
    for r in fibonacci_sphere(60):
        psi = bloch_state(r)
        rho = np.outer(psi, psi.conj())
        prod = trace_norm(
            np.kron(chs[w.pair[0]].apply(rho), rho)
            - w.s * np.kron(chs[w.pair[1]].apply(rho), rho)
        )
        assert ent >= prod + w.gap - 1e-9


def bloch_densities(rs) -> np.ndarray:
    psis = np.array([bloch_state(r) for r in rs])
    return np.einsum("ni,nj->nij", psis, psis.conj())


def product_curve_oracle(fam, pair, s, rhos) -> np.ndarray:
    """||out+ - s out-||_1 of the pair's outputs on each input state in
    rhos, from the Kraus operators."""
    chs = dict(fam.members)

    def outputs(ch):
        ks = np.array(ch.kraus_ops)
        return np.einsum("kij,njl,kml->nim", ks, rhos, ks.conj(), optimize=True)

    diff = outputs(chs[pair[0]]) - s * outputs(chs[pair[1]])
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)


AXES = bloch_densities([sign * np.eye(3)[k] for k in range(3) for sign in (1.0, -1.0)])


def test_witness_gap_is_exact_over_product_inputs(rng):
    # the closed-form product maximum bounds a dense sphere scan from above,
    # and some Bloch axis attains it
    sphere = bloch_densities(fibonacci_sphere(4000))
    checked = 0
    while checked < 20:
        fam = gp_fam(*(rng.dirichlet(np.ones(4))[1:] for _ in range(2)))
        if any(product_balance_conditions(*fam.params["thetas"])):
            continue
        w = separable_suffices(fam).witness
        chs = dict(fam.members)
        ent = np.abs(np.linalg.eigvalsh(
            entangled_output(chs[w.pair[0]]) - w.s * entangled_output(chs[w.pair[1]])
        )).sum()
        scan = product_curve_oracle(fam, w.pair, w.s, sphere).max()
        on_axes = product_curve_oracle(fam, w.pair, w.s, AXES).max()
        assert ent - w.gap >= scan - 1e-12
        assert abs(ent - w.gap - on_axes) <= 1e-12
        checked += 1


@pytest.mark.parametrize(
    "xis",
    [[(0.1, 0, 0), (0, 0.1, 0), (0, 0, 0.1)], [(0, 0.1, 0), (0, 0, 0.1)]],
    ids=["non-collinear-triple", "unbalanced-pair"],
)
def test_advantage_across_several_s_has_no_pointwise_witness(xis):
    # no product input ties the entangled curve at every s, yet at each s of
    # each pair some Bloch axis does (on gp0, gp1: x below s = 1, y above),
    # so no single pair and s carry a positive margin to report
    fam = gp_fam(*xis)
    v = separable_suffices(fam)
    assert not v.suffices
    assert v.witness is None
    chs = dict(fam.members)
    s = (0.5, 2.0)
    ent = np.array([
        np.abs(np.linalg.eigvalsh(
            entangled_output(chs["gp0"]) - si * entangled_output(chs["gp1"])
        )).sum()
        for si in s
    ])
    prod = np.array([product_curve_oracle(fam, ("gp0", "gp1"), si, AXES) for si in s])
    # an axis ties at each s, and every axis loses at one of them
    assert np.abs(prod.max(axis=1) - ent).max() <= 1e-12
    assert (ent[:, None] - prod).max(axis=0).min() > 1e-3


# ---------------------------------------------------------------------------
# entanglement breaking


def test_eb_examples():
    # weights in the Weyl order [I, Z, X, XZ]
    assert entanglement_breaking_gp((0.0, 0.0, 0.5, 0.5))
    assert not entanglement_breaking_gp((1.0, 0.0, 0.0, 0.0))
    assert not entanglement_breaking_gp((0.0, 1.0, 0.0, 0.0))
    assert entanglement_breaking_gp((0.25, 0.25, 0.25, 0.25))


def test_eb_matches_partial_transpose(rng):
    mism = 0
    for _ in range(150):
        fam = gp_fam(rng.dirichlet(np.ones(4))[1:])
        closed = entanglement_breaking_gp(fam.params["thetas"][0])
        out = entangled_output(fam.channels()[0])
        pt = partial_transpose(out, SystemShape((2, 2)), on=1)
        oracle = np.linalg.eigvalsh(pt).min() >= -1e-10
        mism += closed != oracle
    assert mism == 0


def test_gp_entangled_output_is_bell_diagonal():
    # the entangled curve reads the member's output on Phi as diagonal in
    # the basis (W (x) 1)|Phi> with the Weyl weights as eigenvalues
    fam = gp_fam((0.1, 0.2, 0.3))
    theta = fam.params["thetas"][0]
    out = entangled_output(fam.channels()[0])
    assert abs(np.trace(out) - 1.0) < 1e-12
    vecs = np.array([np.kron(u, np.eye(2)) @ max_entangled(2) for u in weyl_ops(2)]).T
    assert max_abs(vecs.conj().T @ out @ vecs - np.diag(theta)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(out))
    assert max_abs(eigs - np.array([0.1, 0.2, 0.3, 0.4])) < 1e-12


def test_partial_transpose_oracle_agrees(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    shape = SystemShape((2, 2))
    assert max_abs(
        partial_transpose(m, shape, on=1) - partial_transpose_oracle(m, (2, 2), 1)
    ) < 1e-14


# ---------------------------------------------------------------------------
# measurement families


def ortho_family(d=2, basis=None):
    basis = np.eye(d) if basis is None else basis
    mp = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)]
    mm = [(np.trace(m) * np.eye(d) - m) / max(d - 1, 1) for m in mp]
    return make_family("measurement", {"povms": [mp, mm], "labels": ["p", "m"]})


def test_meas_ortho_basis_input_matches():
    fam = ortho_family()
    res = meas_separable_check(fam, np.array([1.0, 0.0]))
    assert res.matches_phi
    assert res.detail["outcomes"] == ["proportional", "annihilates"]


def test_meas_ortho_superposition_fails():
    fam = ortho_family()
    res = meas_separable_check(fam, np.array([1.0, 1.0]) / np.sqrt(2))
    assert not res.matches_phi
    assert "neither" in res.detail["outcomes"]


def test_meas_rotated_basis_input_matches():
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag([0.7, 0.3]),
            "m_minus": np.diag([0.3, 0.7]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )
    res = meas_separable_check(fam, np.array([1.0, 0.0]))
    assert res.matches_phi
    assert sorted(res.detail["counts"]) == [2, 2]


def test_meas_rotated_off_basis_fails():
    fam = make_family(
        "measurement",
        {
            "m_plus": np.diag([0.7, 0.3]),
            "m_minus": np.diag([0.3, 0.7]),
            "unitaries": weyl_ops(2),
            "structure": "rotated",
        },
    )
    res = meas_separable_check(fam, np.array([1.0, 1.0]) / np.sqrt(2))
    assert not res.matches_phi
    assert res.detail["reason"] == "rotated input leaves the eigenbasis"


def rotated_family(d):
    ratios = np.linspace(0.2, 0.8, d)
    return make_family(
        "measurement",
        {
            "m_plus": np.diag(ratios / ratios.sum()),
            "m_minus": np.diag(ratios[::-1] / ratios.sum()),
            "unitaries": weyl_ops(d),
        },
    )


@pytest.mark.parametrize(
    "fam",
    [
        rotated_family(2),
        rotated_family(3),
        ortho_family(2),
        ortho_family(3, haar_unitary(np.random.default_rng(5), 3)),
    ],
    ids=["rotated-d2", "rotated-d3", "ortho-d2", "ortho-d3-frame"],
)
def test_product_candidates_are_the_only_matches(rng, fam):
    candidates = product_candidates(fam)
    assert len(candidates) == fam.din
    for psi in candidates:
        assert meas_separable_check(fam, psi).matches_phi
    for _ in range(30):
        psi = rng.normal(size=fam.din) + 1j * rng.normal(size=fam.din)
        assert not meas_separable_check(fam, psi / np.linalg.norm(psi)).matches_phi


def test_meas_check_rejections():
    fam = ortho_family()
    with pytest.raises(ValueError):
        meas_separable_check(fam, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        meas_separable_check(fam, np.array([1.0, 0.0, 0.0]))
    gp = gp_fam((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        meas_separable_check(gp, np.array([1.0, 0.0]))
