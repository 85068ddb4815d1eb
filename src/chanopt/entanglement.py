"""When a separable input matches the entangled benchmark.

For qubit Weyl-mixture families the answer is a closed-form test on the
mixing parameters (collinearity plus one of three product-balance
conditions, each naming the Bloch axis whose product input ties the
maximally entangled state). For measurement families the test is structural.
The entanglement-breaking check shows the two properties are independent:
a family can break entanglement and still reward an entangled input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelFamily,
    ConstraintViolation,
    gp_theta_from_xi,
    gp_weights_from_channel,
    gp_xi_from_theta,
    weyl_ops,
)
from .comparison import commutes, default_grid, joint_eigenbasis
from .numerics import as_matrix, dagger, hermitian_eig, max_abs, max_entangled


@dataclass(frozen=True)
class GpParams:
    """Weights (xi1, xi2, xi3) on X, XZ, Z; the identity gets the remainder."""

    xi: tuple[float, float, float]

    def __post_init__(self):
        xi = tuple(float(x) for x in self.xi)
        if len(xi) != 3:
            raise ValueError("xi must have three components")
        full = (self.xi0_of(xi),) + xi
        if min(full) < -1e-12 or max(full) > 1 + 1e-12:
            raise ValueError(f"all four weights must lie in [0,1], got {full}")
        object.__setattr__(self, "xi", xi)

    @staticmethod
    def xi0_of(xi) -> float:
        return 1.0 - sum(xi)

    @property
    def xi0(self) -> float:
        return self.xi0_of(self.xi)

    def as_four(self) -> np.ndarray:
        """(xi0, xi1, xi2, xi3)."""
        return np.array([self.xi0, *self.xi])


def bloch_contraction(xi: GpParams) -> tuple[float, float, float]:
    """Diagonal Bloch action of the Weyl mixture: a_k = 1 - 2(sum of other xis)."""
    x1, x2, x3 = xi.xi
    return (1 - 2 * x2 - 2 * x3, 1 - 2 * x1 - 2 * x3, 1 - 2 * x1 - 2 * x2)


def collinear(xis, tol: float = 1e-9) -> bool:
    """Whether the parameter points lie on one straight line.

    Scale-free test: second singular value of the centered point matrix
    below tol times the largest.
    """
    pts = np.array([np.asarray(x, dtype=float) for x in xis])
    if len(pts) < 3:
        return True
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] < 1e-15:
        return True
    return bool(sv[1] <= tol * sv[0])


def product_balance_conditions(
    xp: GpParams, xm: GpParams, tol: float = 1e-10
) -> list[bool]:
    """The three pairwise balance conditions; the k-th certifies Bloch axis k.

    Condition k demands xi^k_+ xi^0_- = xi^k_- xi^0_+ together with the
    matching cross product of the remaining two components.
    """
    p = xp.as_four()
    m = xm.as_four()

    def eq(a, b):
        return abs(a - b) <= tol

    pairs = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
    out = []
    for k in (1, 2, 3):
        i, j = pairs[k]
        out.append(eq(p[k] * m[0], m[k] * p[0]) and eq(p[i] * m[j], m[i] * p[j]))
    return out


GP_AXES = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
GP_AXIS_NAMES = {1: "x", 2: "y", 3: "z"}

# Product inputs separable_suffices samples on the Bloch sphere for a witness.
WITNESS_BLOCH_POINTS = 100


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
    def axis(self) -> tuple[int, int, int] | None:
        """Bloch axis the certifying condition names."""
        return None if self.condition is None else GP_AXES[self.condition]

    @property
    def axis_name(self) -> str | None:
        return None if self.condition is None else GP_AXIS_NAMES[self.condition]


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic n-point covering of the unit sphere."""
    k = np.arange(n)
    z = 1.0 - (2 * k + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)


def bloch_state(r) -> np.ndarray:
    """Qubit state vector with the given Bloch direction (unit r)."""
    x, y, z = (float(v) for v in r)
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def family_gp_params(fam: ChannelFamily) -> list[GpParams]:
    """Mixing weights per member, for any qubit family of Weyl mixtures.

    Families built with explicit weights return them directly; others (damp
    at p=1/2, qubit diag) get theirs recovered from the entangled input's
    output, which is diagonal in the entangled-shift basis exactly when the
    member is a Weyl mixture.
    """
    if fam.din != 2 or fam.dout != 2:
        raise ValueError("weight extraction applies to qubit families")
    if fam.kind == "gp" and fam.params.get("xis") is not None:
        return [GpParams(tuple(x)) for x in fam.params["xis"]]
    params = []
    for label, ch in fam.members:
        try:
            theta = gp_weights_from_channel(ch)
        except ConstraintViolation as exc:
            raise ValueError(f"member {label!r} is not a qubit Weyl mixture") from exc
        params.append(GpParams(tuple(gp_xi_from_theta(theta))))
    return params


def _entangled_curve(tp: np.ndarray, tm: np.ndarray, s: np.ndarray) -> np.ndarray:
    """||out+ - s out-||_1 for the entangled input; outputs are diagonal in
    the shared entangled-shift basis with the mixing weights as eigenvalues."""
    return np.abs(tp[None, :] - s[:, None] * tm[None, :]).sum(axis=1)


def _product_curve(ap: np.ndarray, am: np.ndarray, rs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Curves of all Bloch inputs rs (rows) at all s; qubit pair in closed form."""
    rp = rs * ap[None, :]
    rm = rs * am[None, :]
    diff = rp[None, :, :] - s[:, None, None] * rm[None, :, :]
    return np.maximum(np.abs(1.0 - s)[:, None], np.linalg.norm(diff, axis=2))


def separable_suffices(fam: ChannelFamily) -> SeparableVerdict:
    """Decide whether some product input ties the entangled benchmark.

    Requires a qubit Weyl-mixture family carrying its parameter vectors. Yes
    needs the parameters collinear and one balance condition on a distinct
    parameter pair; the first condition that holds names the certifying
    axis. On failure the witness records a member pair, a sweep point s, and
    the margin by which the entangled curve beats every sampled product
    input there.
    """
    params = family_gp_params(fam)
    labels = fam.labels()

    is_line = collinear([p.xi for p in params])
    condition = None
    if is_line:
        pair_idx = None
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                if max(abs(a - b) for a, b in zip(params[i].xi, params[j].xi)) > 1e-12:
                    pair_idx = (i, j)
                    break
            if pair_idx:
                break
        if pair_idx is None:
            return SeparableVerdict(suffices=True, condition=1)
        conds = product_balance_conditions(params[pair_idx[0]], params[pair_idx[1]])
        for k, ok in enumerate(conds, start=1):
            if ok:
                condition = k
                break
        if condition is not None:
            return SeparableVerdict(suffices=True, condition=condition)

    s = default_grid()
    rs = fibonacci_sphere(WITNESS_BLOCH_POINTS)
    thetas = [gp_theta_from_xi(p.xi) for p in params]
    contractions = [np.array(bloch_contraction(p)) for p in params]

    best = None
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            ent = _entangled_curve(thetas[i], thetas[j], s)
            prod = _product_curve(contractions[i], contractions[j], rs, s)
            adv = ent - prod.max(axis=1)
            k = int(np.argmax(adv))
            cand = SeparableWitness(
                pair=(labels[i], labels[j]), s=float(s[k]), gap=float(adv[k])
            )
            if best is None or cand.gap > best.gap:
                best = cand
    return SeparableVerdict(suffices=False, witness=best)


# ---------------------------------------------------------------------------
# Entanglement breaking


def entanglement_breaking_gp(xi) -> bool:
    """Positivity of the partially transposed output of the entangled input,
    in closed form on the mixing weights (non-strict inequalities)."""
    if not isinstance(xi, GpParams):
        xi = GpParams(tuple(float(v) for v in xi))
    x0, x1, x2, x3 = xi.as_four()
    return bool(
        x0 + x3 >= abs(x1 - x2) - 1e-12 and x1 + x2 >= abs(x0 - x3) - 1e-12
    )


def gp_entangled_output(xi: GpParams) -> np.ndarray:
    """The normalized state (Lambda (x) 1)(Phi_2) of a Weyl mixture."""
    theta = gp_theta_from_xi(xi.xi)
    phi = max_entangled(2)
    out = np.zeros((4, 4), dtype=complex)
    for t, u in zip(theta, weyl_ops(2)):
        v = np.kron(u, np.eye(2)) @ phi
        out += t * np.outer(v, v.conj())
    return out


# ---------------------------------------------------------------------------
# Measurement families


@dataclass
class MeasSeparableResult:
    matches_phi: bool
    detail: dict


def meas_separable_check(fam: ChannelFamily, psi_in, tol: float = 1e-8) -> MeasSeparableResult:
    """Whether the product input psi_in (x) psi_R ties the entangled input.

    Orthogonal-complement families: every outcome must either annihilate
    psi_in or be proportional to its projector. Rotated families: every
    rotated copy of psi_in must land on a base eigenvector up to phase, the
    landing map must be a surjection hitting each eigenvector the same
    number of times.
    """
    if fam.kind != "measurement":
        raise ValueError("family is not of measurement kind")
    psi = np.asarray(psi_in, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi_in must be unit norm")
    d = fam.din
    if psi.shape[0] != d:
        raise ValueError("psi_in must live on the family input space")

    if fam.params.get("structure") == "rotated":
        base_p = as_matrix(fam.params["m_plus"])
        base_m = as_matrix(fam.params["m_minus"])
        unitaries = fam.params["unitaries"]
        if not commutes(base_p, base_m):
            raise ValueError("base elements do not commute")
        vecs, alphas, betas = joint_eigenbasis(base_p, base_m)
        if betas.min() <= 1e-12:
            raise ValueError("ratio ordering needs strictly positive second weights")
        order = np.argsort(-alphas / betas, kind="stable")
        ratios = (alphas / betas)[order]
        if (np.diff(ratios) > -1e-12).any():
            raise ValueError("ratio ordering needs strictly decreasing weight ratios")
        vecs = vecs[:, order]

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
            if abs(overlaps[j] - 1.0) > tol:
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

    povms = fam.params.get("povms")
    if not povms or len(povms) != 2:
        raise ValueError("family carries no usable POVM structure")
    mp, mm = povms[0].elements, povms[1].elements
    if len(mp) != len(mm):
        raise ValueError("members must share the outcome count")
    for i in range(len(mp)):
        w, _ = hermitian_eig(mp[i])
        top = max(float(w.max()), 1e-30)
        if (w > 1e-9 * top).sum() != 1:
            raise ValueError("orthogonal-complement structure needs unit-rank outcomes")
        comp = (np.trace(mp[i]) * np.eye(d) - mp[i]) / max(d - 1, 1)
        if max_abs(mm[i] - comp) > 1e-9:
            raise ValueError("second member is not the orthogonal complement family")

    proj = np.outer(psi, psi.conj())
    outcomes = []
    for i in range(len(mp)):
        if float(np.linalg.norm(mp[i] @ psi)) <= tol:
            outcomes.append("annihilates")
        elif max_abs(mp[i] - np.trace(mp[i]) * proj) <= tol:
            outcomes.append("proportional")
        else:
            outcomes.append("neither")
    matches = all(o != "neither" for o in outcomes)
    return MeasSeparableResult(matches, {"structure": "ortho", "outcomes": outcomes})
