"""When a separable input matches the entangled benchmark.

For qubit Weyl-mixture families the answer is a closed-form test on the
Weyl weights theta the member channels are built from, in the order
[I, Z, X, XZ] of :func:`chanopt.channels.weyl_ops` (collinearity plus one of
three product-balance conditions, each naming the Bloch axis whose product
input ties the maximally entangled state). When no condition holds, the
witness compares the entangled curve with the exact maximum over all
product inputs, which a Bloch axis attains, at one member pair and one s
(there is none when the advantage shows only across several s). For
measurement families the test is structural, and only a finite list of
inputs can pass it (product_candidates), so checking that list decides the
question at any dimension. The entanglement-breaking check shows the two properties are
independent: a family can break entanglement and still reward an entangled
input.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import (
    MEASUREMENT_TOL,
    ChannelFamily,
    ConstraintViolation,
    binary_povms,
    gp_weights_from_channel,
)
from .comparison import SWEEP_TOL, _joint_spectrum, default_grid, sweep_norms
from .numerics import NORM_TOL, as_matrix, dagger, hermitian_eig, max_abs

# Positions of the qubit Weyl weights theta.
I, Z, X, XZ = range(4)

# Relative second singular value below which weight points lie on a line.
LINE_TOL = 1e-9
# Absolute tolerance of each product-balance equation.
BALANCE_TOL = 1e-10


def bloch_contraction(theta) -> tuple[float, float, float]:
    """Diagonal Bloch action (a_x, a_y, a_z) of the Weyl mixture: each axis
    shrinks by twice the weight of the two Paulis that flip it."""
    t = theta
    return (1 - 2 * t[XZ] - 2 * t[Z], 1 - 2 * t[X] - 2 * t[Z], 1 - 2 * t[X] - 2 * t[XZ])


def collinear(points) -> bool:
    """Whether the points lie on one straight line.

    Scale-free test: second singular value of the centered point matrix
    below LINE_TOL times the largest.
    """
    pts = np.array([np.asarray(x, dtype=float) for x in points])
    if len(pts) < 3:
        return True
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] < 1e-15:
        return True
    return bool(sv[1] <= LINE_TOL * sv[0])


# Per Bloch axis x, y, z: the Pauli k balanced against the identity, and the
# pair (i, j) balanced against each other.
_BALANCE = ((X, XZ, Z), (XZ, Z, X), (Z, X, XZ))


def product_balance_conditions(p, m) -> list[bool]:
    """The three balance conditions on the Weyl weights p, m of a member
    pair; the k-th certifies Bloch axis k.

    Condition k demands theta^k_+ theta^I_- = theta^k_- theta^I_+ together
    with the matching cross product of the remaining two Paulis.
    """

    def eq(a, b):
        return abs(a - b) <= BALANCE_TOL

    return [
        eq(p[k] * m[I], m[k] * p[I]) and eq(p[i] * m[j], m[i] * p[j])
        for k, i, j in _BALANCE
    ]


GP_AXIS_NAMES = {1: "x", 2: "y", 3: "z"}


@dataclass
class SeparableWitness:
    pair: tuple[str, str]
    s: float
    gap: float


@dataclass
class SeparableVerdict:
    suffices: bool
    condition: int | None = None
    witness: SeparableWitness | None = None

    @property
    def axis_name(self) -> str | None:
        """Bloch axis the certifying condition names."""
        return None if self.condition is None else GP_AXIS_NAMES[self.condition]


def family_gp_params(fam: ChannelFamily) -> list[np.ndarray]:
    """Weyl weights theta per member, for any qubit family of Weyl mixtures.

    A ``gp`` family returns the weights it was built from; others (damp at
    p=1/2, qubit diag) get theirs recovered from the entangled input's
    output, which is diagonal in the entangled-shift basis exactly when the
    member is a Weyl mixture.
    """
    if fam.din != 2 or fam.dout != 2:
        raise ValueError("weight extraction applies to qubit families")
    if fam.kind == "gp":
        return list(fam.params["thetas"])
    thetas = []
    for label, ch in fam.members:
        try:
            thetas.append(gp_weights_from_channel(ch))
        except ConstraintViolation as exc:
            raise ValueError(f"member {label!r} is not a qubit Weyl mixture") from exc
    return thetas


def separable_suffices(fam: ChannelFamily) -> SeparableVerdict:
    """Decide whether some product input ties the entangled benchmark.

    Requires a qubit Weyl-mixture family. Yes needs the Pauli weights
    (theta_Z, theta_X, theta_XZ) collinear and one balance condition on a
    distinct member pair; the first condition that holds names the
    certifying axis. On failure the witness records a member pair, a sweep
    point s, and the margin by which the entangled curve beats every product
    input there. The witness is None when no single pair and s give a
    margin above SWEEP_TOL: an advantage that shows only across several s
    (one axis ties below s = 1, another above) has no pointwise witness.
    """
    thetas = family_gp_params(fam)
    labels = fam.labels()

    paulis = [t[1:] for t in thetas]
    condition = None
    if collinear(paulis):
        pair_idx = None
        for i in range(len(thetas)):
            for j in range(i + 1, len(thetas)):
                if np.abs(paulis[i] - paulis[j]).max() > 1e-12:
                    pair_idx = (i, j)
                    break
            if pair_idx:
                break
        if pair_idx is None:
            return SeparableVerdict(suffices=True, condition=1)
        conds = product_balance_conditions(thetas[pair_idx[0]], thetas[pair_idx[1]])
        for k, ok in enumerate(conds, start=1):
            if ok:
                condition = k
                break
        if condition is not None:
            return SeparableVerdict(suffices=True, condition=condition)

    s = default_grid()
    contractions = [np.array(bloch_contraction(t)) for t in thetas]

    best = None
    for i, j in combinations(range(len(thetas)), 2):
        # the entangled outputs are diagonal in one basis, with the weights
        # as eigenvalues; a product input with Bloch vector r has
        # ||out+ - s out-||_1 = max(|1 - s|, |(a+ - s a-) o r|), largest on
        # the axis k of the largest |a+_k - s a-_k|
        ent = sweep_norms(thetas[i], thetas[j], s)
        axes = np.abs(contractions[i] - s[:, None] * contractions[j])
        adv = ent - np.maximum(np.abs(1.0 - s), axes.max(axis=1))
        k = int(np.argmax(adv))
        cand = SeparableWitness(pair=(labels[i], labels[j]), s=float(s[k]), gap=float(adv[k]))
        if best is None or cand.gap > best.gap:
            best = cand
    return SeparableVerdict(suffices=False, witness=best if best.gap > SWEEP_TOL else None)


# ---------------------------------------------------------------------------
# Entanglement breaking


def entanglement_breaking_gp(theta) -> bool:
    """Positivity of the partially transposed output of the entangled input,
    in closed form on the Weyl weights (non-strict inequalities)."""
    t = theta
    return bool(
        t[I] + t[Z] >= abs(t[X] - t[XZ]) - 1e-12
        and t[X] + t[XZ] >= abs(t[I] - t[Z]) - 1e-12
    )


# ---------------------------------------------------------------------------
# Measurement families


@dataclass
class MeasSeparableResult:
    matches_phi: bool
    detail: dict


def _rotated_eigenbasis(fam: ChannelFamily) -> np.ndarray:
    """Joint eigenvectors (columns) of a rotated family's base pair, by
    strictly decreasing weight ratio m_plus / m_minus."""
    spectrum = _joint_spectrum(fam.params["m_plus"], fam.params["m_minus"])
    if spectrum is None:
        raise ValueError("base elements do not commute")
    vecs, alphas, betas, _ = spectrum
    if betas.min() <= 1e-12:
        raise ValueError("ratio ordering needs strictly positive second weights")
    order = np.argsort(-alphas / betas, kind="stable")
    if (np.diff((alphas / betas)[order]) > -1e-12).any():
        raise ValueError("ratio ordering needs strictly decreasing weight ratios")
    return vecs[:, order]


def product_candidates(fam: ChannelFamily) -> list[np.ndarray]:
    """Every input psi for which psi (x) psi_R can tie the entangled input of
    a measurement family; meas_separable_check rejects any other.

    Rotated families: U_0^dag psi must be a base eigenvector v_j up to
    phase, so psi is one of the U_0 v_j, which are unique since the weight
    ratios are distinct. Orthogonal-complement families: each unit-rank
    outcome M_i annihilates psi or is proportional to its projector, and
    the M_i sum to the identity, so psi spans the range of some M_i.
    """
    if fam.params.get("structure") == "rotated":
        u0 = as_matrix(fam.params["unitaries"][0])
        return list((u0 @ _rotated_eigenbasis(fam)).T)
    return [hermitian_eig(m)[1][:, -1] for m in fam.params["povms"][0]]


def meas_separable_check(fam: ChannelFamily, psi_in) -> MeasSeparableResult:
    """Whether the product input psi_in (x) psi_R ties the entangled input.

    Orthogonal-complement families: every outcome must either annihilate
    psi_in or be proportional to its projector. Rotated families: every
    rotated copy of psi_in must land on a base eigenvector up to phase, the
    landing map must be a surjection hitting each eigenvector the same
    number of times.
    """
    mp, mm = binary_povms(fam)
    psi = np.asarray(psi_in, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError("psi_in must be unit norm")
    d = fam.din
    if psi.shape[0] != d:
        raise ValueError("psi_in must live on the family input space")

    if fam.params.get("structure") == "rotated":
        unitaries = fam.params["unitaries"]
        vecs = _rotated_eigenbasis(fam)
        m = len(unitaries)
        if m % d:
            return MeasSeparableResult(False, {"structure": "rotated", "reason": "outcome count not a multiple of the dimension"})
        mult = m // d
        f = []
        phases = []
        for i, u in enumerate(unitaries):
            v = dagger(as_matrix(u)) @ psi
            overlaps = np.abs(vecs.conj().T @ v)
            j = int(np.argmax(overlaps))
            if abs(overlaps[j] - 1.0) > MEASUREMENT_TOL:
                return MeasSeparableResult(
                    False,
                    {"structure": "rotated", "reason": "rotated input leaves the eigenbasis", "failed_at": i},
                )
            f.append(j)
            phases.append(complex(np.vdot(v, vecs[:, j])))
        counts = np.bincount(f, minlength=d)
        ok = bool((counts == mult).all())
        detail = {
            "structure": "rotated",
            "f": f,
            "phases": phases,
            "counts": counts.tolist(),
        }
        if not ok:
            detail["reason"] = "landing map is not an equal-multiplicity surjection"
        return MeasSeparableResult(ok, detail)

    if len(mp) != len(mm):
        raise ValueError("members must share the outcome count")
    for i in range(len(mp)):
        w, _ = hermitian_eig(mp[i])
        top = max(float(w.max()), 1e-30)
        if (w > 1e-9 * top).sum() != 1:
            raise ValueError("orthogonal-complement structure needs unit-rank outcomes")
        comp = (np.trace(mp[i]) * np.eye(d) - mp[i]) / max(d - 1, 1)
        if max_abs(mm[i] - comp) > MEASUREMENT_TOL:
            raise ValueError("second member is not the orthogonal complement family")

    proj = np.outer(psi, psi.conj())
    outcomes = []
    for i in range(len(mp)):
        if float(np.linalg.norm(mp[i] @ psi)) <= MEASUREMENT_TOL:
            outcomes.append("annihilates")
        elif max_abs(mp[i] - np.trace(mp[i]) * proj) <= MEASUREMENT_TOL:
            outcomes.append("proportional")
        else:
            outcomes.append("neither")
    matches = all(o != "neither" for o in outcomes)
    return MeasSeparableResult(matches, {"structure": "ortho", "outcomes": outcomes})
