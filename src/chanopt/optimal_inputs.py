"""Constructors and certifiers for universally optimal input states.

Three constructive routes are implemented: the group-covariant
measure-and-correct protocol, the unital-qubit instrument protocol, and the
eigenphase-arc minimizer for a pair of unitaries. The measure-and-correct
circuit is one channel shared by the whole family; both protocols apply
their operators to one factor with channels.apply_at_factor. Each protocol
returns the states it assembles so that the caller can check the defining
equality directly; the check is the certificate, the protocol never
self-certifies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    MEASUREMENT_TOL,
    ChannelFamily,
    KrausChannel,
    apply_at_factor,
    apply_extended,
    binary_povms,
    covariance,
    is_unital,
    use_layout,
)
from .comparison import ComparisonVerdict, _joint_spectrum, dominance_check
from .numerics import (
    NORM_TOL,
    PureState,
    SystemShape,
    as_matrix,
    dagger,
    density_mask,
    hermitian_eig,
    is_density,
    is_unitary,
    max_abs,
    max_entangled,
)


@dataclass(frozen=True)
class IrrepBlocks:
    """Dimensions of the invariant blocks of the group action on H_in."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("block_dims must be a nonempty list of positive ints")
        object.__setattr__(self, "block_dims", dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def check_single(self, d: int) -> None:
        """Raise unless this is one block spanning all d input dimensions, the
        only layout the measure-and-correct protocol supports."""
        if self.total_dim != d:
            raise ValueError("block dimensions do not sum to the family input dimension")
        if len(self.block_dims) != 1:
            raise ValueError(
                "protocol supports a single invariant block; multi-block groups do "
                "not give a complete outcome set on the reference system"
            )


def covariant_optimal_state(blocks: IrrepBlocks) -> PureState:
    """The maximally entangled state on the blocks' total dimension d, the
    input the measure-and-correct protocol certifies; that protocol takes one
    block spanning all d dimensions (IrrepBlocks.check_single)."""
    d = blocks.total_dim
    return PureState(max_entangled(d), SystemShape((d, d)))


# ---------------------------------------------------------------------------
# Measure-and-correct protocols


def _correction_setup(fam, group, blocks) -> KrausChannel:
    """The measure-then-correct circuit shared by every member, as one channel
    from (output (x) reference (x) input) to the output: per group element,
    the reference and the target's input slot are projected onto the rotated
    entangled state phi_g and the output is rotated back by V_g^dag (V_g^T
    for a contravariant family), one Kraus operator
    sqrt(d^2/|G|) (V_g^dag or V_g^T) (x) <phi_g| each. Trace preservation of
    that set is the statement that the phi_g resolve the identity."""
    blocks.check_single(fam.din)
    d = fam.din

    covariant, contravariant = covariance(fam, group)
    if not (covariant or contravariant):
        raise ValueError("family is not covariant for the supplied group")

    phi = max_entangled(d)
    amp = np.sqrt(d * d / len(group))
    ops = []
    for u, v in group:
        bra = (np.kron(u.conj(), np.eye(d)) @ phi).conj()[None, :]
        ops.append(amp * np.kron(dagger(v) if covariant else v.T, bra))
    correct = KrausChannel(ops, din=fam.dout * d * d, dout=fam.dout)
    if max_abs(correct.kraus_sum() - np.eye(correct.din)) > 1e-8:
        raise ValueError(
            "group rotations of the entangled state do not resolve the "
            "identity; the group is not closed under the needed products"
        )
    return correct


def group_correction_simulator(
    fam: ChannelFamily,
    group: list[tuple[np.ndarray, np.ndarray]],
    blocks: IrrepBlocks,
):
    """Per-member callables mapping a target density matrix on the input
    space (times any reference) to the measure-then-correct simulation of
    that member: the member's entangled-input output omega beside the target,
    put through the shared correction channel with apply_at_factor.

    The simulation should equal the member applied to the target; checking
    that equality is up to the caller and is the optimality certificate of
    the entangled input. Family, group and blocks are validated once, here:
    one invariant block only, since with several the outcome operators no
    longer resolve the identity. Each call checks only its target, which
    must be a density matrix whose dimension is a multiple of d_in."""
    correct = _correction_setup(fam, group, blocks)
    d = fam.din
    in_shape = SystemShape((d, d))
    psi_opt = covariant_optimal_state(blocks)

    sims = {}
    for label, ch in fam.members:
        omega = apply_extended(ch, psi_opt.density(), in_shape)

        def sim(target, omega=omega):
            target = as_matrix(target)
            if target.shape[0] % d:
                raise ValueError(
                    "target dimension is not a multiple of the input dimension"
                )
            if not is_density(target):
                raise ValueError("target is not a density matrix")
            dims = (correct.din, target.shape[0] // d)
            return apply_at_factor(correct, np.kron(omega, target), dims, 0)

        sims[label] = sim
    return sims


_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])


def universal_not_pair(m) -> np.ndarray:
    """The Bloch inversion (Y (x) Y) conj(m) (Y (x) Y)^dag of both qubits of
    a two-qubit matrix; positive and trace preserving, not CP."""
    m = as_matrix(m)
    yy = np.kron(_PAULI_Y, _PAULI_Y)
    return yy @ m.conj() @ dagger(yy)


def phi_pv(p, v) -> PureState:
    """Target pure state sqrt(p1)(V|0>)|0> + sqrt(p2)(V|1>)|1>."""
    p1, p2 = float(p[0]), float(p[1])
    v = as_matrix(v)
    amps = np.sqrt(p1) * np.kron(v[:, 0], np.array([1.0, 0.0])) + np.sqrt(p2) * np.kron(
        v[:, 1], np.array([0.0, 1.0])
    )
    return PureState(amps, SystemShape((2, 2)))


def _probability_pair(p) -> tuple[float, float]:
    p1, p2 = float(p[0]), float(p[1])
    if min(p1, p2) < 0 or abs(p1 + p2 - 1.0) > NORM_TOL:
        raise ValueError("p must be a probability pair")
    return p1, p2


def _qubit_unitary(v) -> np.ndarray:
    v = as_matrix(v)
    if v.shape != (2, 2) or not is_unitary(v):
        raise ValueError("V must be a 2x2 unitary")
    return v


def unital_qubit_protocol(fam: ChannelFamily, p, v) -> dict[str, np.ndarray]:
    """Instrument-and-flip protocol mapping Bell outputs to phi_{p,V} outputs.

    Per member: rotate the reference by V^T and apply the two-outcome
    instrument built from M = diag(p1, p2), each branch one operator on the
    reference factor applied with apply_at_factor; keep the success branch,
    and repair the failure branch with the universal-not on both factors
    (valid because unital members commute with the double flip at the Bell
    output).
    """
    p1, p2 = _probability_pair(p)
    v = _qubit_unitary(v)
    if fam.din != 2 or fam.dout != 2:
        raise ValueError("protocol is specific to qubit channels")
    for label, ch in fam.members:
        if not is_unital(ch):
            raise ValueError(f"member {label!r} is not unital")

    phi2 = max_entangled(2)
    bell = np.outer(phi2, phi2.conj())
    shape = SystemShape((2, 2))
    succ, fail = (
        KrausChannel.from_ops([np.diag(np.sqrt(w)) @ v.T])
        for w in ([p1, p2], [1.0 - p1, 1.0 - p2])
    )

    outputs: dict[str, np.ndarray] = {}
    for label, ch in fam.members:
        omega = apply_extended(ch, bell, shape)
        outputs[label] = apply_at_factor(succ, omega, (2, 2), 1) + universal_not_pair(
            apply_at_factor(fail, omega, (2, 2), 1)
        )
    return outputs


# ---------------------------------------------------------------------------
# Pair-of-unitaries minimizer


@dataclass
class PairOptimum:
    state: PureState
    min_overlap: float


def pair_unitary_optimal_input(u_plus, u_minus) -> PairOptimum:
    """Input minimizing |<psi| U+^dag U- (x) 1 |psi>| over pure states.

    The functional equals |sum_k w_k e^{i lam_k}| for Schmidt weights w on
    the eigenbasis of W = U+^dag U-, whose eigenphases lam_k are the angles
    of the joint spectrum (cos, sin) of (W + W^dag)/2 and (W - W^dag)/2i,
    a commuting pair for normal W. So the minimum is the distance from the
    origin to the convex hull of the eigenphase points, which lie on the
    unit circle. With the phases sorted, let g be the largest cyclic gap
    between neighbours.

    - g > pi: the phases fill an arc of width 2 pi - g < pi, and the nearest
      point of the hull is the middle of the chord between its ends. Weight
      1/2 goes on each of the two eigenvectors at the ends of the arc, and
      min_overlap = cos((2 pi - g) / 2). For d = 1, or when every phase is
      the same, g = 2 pi and min_overlap = 1 (one end eigenvector with
      weight 1, or two with the same phase).
    - g <= pi: the hull holds the origin and min_overlap = 0. The first
      phase takes weight 1/2 together with its antipode when that is an
      eigenphase; otherwise the first phase and the two phases on either
      side of its antipode take the barycentric weights of the origin in
      their triangle.

    A repeated eigenphase is one point per eigenvector; "first" and "either
    side" count positions in the phase-sorted eigenbasis.
    """
    u_plus = as_matrix(u_plus)
    u_minus = as_matrix(u_minus)
    d = u_plus.shape[0]
    if u_minus.shape != (d, d):
        raise ValueError("unitaries must share one dimension")
    for name, u in (("U_plus", u_plus), ("U_minus", u_minus)):
        if not is_unitary(u):
            raise ValueError(f"{name} is not unitary")

    w = dagger(u_plus) @ u_minus
    spectrum = _joint_spectrum((w + dagger(w)) / 2, (w - dagger(w)) / 2j)
    if spectrum is None:
        raise ValueError("U_plus^dag U_minus is not normal")
    z, cos, sin, _ = spectrum
    phases = np.arctan2(sin, cos)
    order = np.argsort(phases, kind="stable")
    vecs = z[:, order]
    # phases measured from the first one: ascending on [0, 2 pi)
    theta = phases[order] - phases[order[0]]
    gaps = np.diff(theta, append=2 * np.pi)

    weights = np.zeros(d)
    k = int(np.argmax(gaps))
    if gaps[k] > np.pi:
        # the arc runs from the phase after the gap round to the one before it
        weights[(k + 1) % d] += 0.5
        weights[k] += 0.5
        best = np.cos((2 * np.pi - gaps[k]) / 2)
    else:
        best = 0.0
        j = int(np.searchsorted(theta, np.pi, side="right")) - 1  # last phase <= pi
        if j == d - 1 or theta[j] == np.pi:
            weights[[0, j]] = 0.5
        else:
            # the chord from theta_j (above the real axis) to theta_{j+1}
            # (below it) crosses the axis at -r <= 0; the origin then splits
            # 1 and -r in the ratio r : 1
            a, b = np.exp(1j * theta[j : j + 2])
            c = a.imag / (a.imag - b.imag)
            r = -((1 - c) * a + c * b).real
            if r >= 0:
                weights[[0, j, j + 1]] = np.array([r, 1 - c, c]) / (1 + r)
            else:
                # only round-off in the gaps puts the crossing right of 0,
                # and then the chord is a diameter to round-off
                weights[[j, j + 1]] = 0.5

    # sum_k sqrt(w_k) |v_k> (x) |k>
    amps = (vecs * np.sqrt(weights)).reshape(-1)
    return PairOptimum(state=PureState(amps, SystemShape((d, d))), min_overlap=float(best))


# ---------------------------------------------------------------------------
# Measurement-family certificates


def _sqrtm_psd(m) -> np.ndarray:
    w, v = hermitian_eig(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def measurement_input_certify(fam: ChannelFamily, psi: PureState) -> ComparisonVerdict:
    """Certify psi as universally optimal for a two-member measurement family.

    Three structured routes, tried in order; anything else is inconclusive.

    a. Orthogonal supports: sqrt(rho) M+(i)^T rho M-(i)^T sqrt(rho) = 0 for
       every outcome makes the two outputs perfectly distinguishable, the
       ceiling of every sweep curve.
    b. Rotated commuting pair: unit-trace commuting base elements conjugated
       by a rotation set that averages to c tr(.) 1; the entangled input's
       curve then meets the universal bound tr|M+ - s M-| at every s. The
       input must be maximally mixed on the input factor, both pairs must
       be pairs of states, and dominance_check must find them equivalent:
       both commute, and no s of the default grid or of either pair's kinks
       tells their curves apart beyond its round-off-aware margin, which is
       agreement at every s.
    c. Complementary diagonal pair: members measure {M, 1-M} with outcomes
       swapped and M = diag(a); the basis state at a's largest entry yields
       the extremal classical curve max(|s-1|, |2a_k - 1|(s+1)), provided
       that entry also maximizes |2a_k - 1| (checked, not assumed: the
       per-entry curves are ordered by |2a_k - 1|, not by a_k).
    """
    mp, mm = binary_povms(fam)
    din = fam.din
    use_layout(psi.shape, din)
    rho = psi.reduced(0)

    if len(mp) == len(mm):
        sq = _sqrtm_psd(rho)
        ok = all(
            max_abs(sq @ mp[i].T @ rho @ mm[i].T @ sq) <= MEASUREMENT_TOL
            for i in range(len(mp))
        )
        if ok:
            return ComparisonVerdict("dominates", method="sweep-sufficient-commuting")

    if fam.params.get("structure") == "rotated":
        base = (fam.params["m_plus"], fam.params["m_minus"])
        if max_abs(rho - np.eye(din) / din) <= MEASUREMENT_TOL:
            outs = tuple(apply_extended(ch, psi.density(), psi.shape) for _, ch in fam.members)
            # dominance_check compares states; a base element that passes the
            # POVM checks of its rotated elements need not be one
            states = all(density_mask(np.array(x)).all() for x in (outs, base))
            if states and dominance_check(outs, base, certify=False).relation == "equivalent":
                return ComparisonVerdict("dominates", method="sweep-sufficient-commuting")
        return ComparisonVerdict("inconclusive", method="sweep-necessary")

    if len(mp) == 2 and len(mm) == 2:
        m = mp[0]
        diagonal = max_abs(m - np.diag(np.diag(m))) <= 1e-12
        complementary = (
            max_abs(mm[1] - m) <= 1e-12
            and max_abs(mp[1] - (np.eye(din) - m)) <= 1e-12
            and max_abs(mm[0] - (np.eye(din) - m)) <= 1e-12
        )
        if diagonal and complementary:
            a = np.diag(m).real
            k = int(np.argmax(a))
            strictly_largest = all(a[k] > a[j] + 1e-12 for j in range(din) if j != k)
            chain = np.abs(2 * a[k] - 1) >= np.abs(2 * a - 1).max() - 1e-12
            target = np.zeros((din, din))
            target[k, k] = 1.0
            if strictly_largest and chain and max_abs(rho - target) <= MEASUREMENT_TOL:
                return ComparisonVerdict(
                    "dominates", method="sweep-sufficient-commuting"
                )

    return ComparisonVerdict("inconclusive", method="sweep-necessary")


# ---------------------------------------------------------------------------
# SU(2) strictness


@dataclass
class Su2Cover:
    covered: bool
    witness: np.ndarray | None


def su2_cover_check(p1: float) -> Su2Cover:
    """Whether Schmidt weights (p1, 1-p1) hide every traceless SU(2) element.

    For U = [[alpha, -conj(beta)], [beta, conj(alpha)]] with Re alpha = 0 the
    mean value is tr(rho U) = i (p1 - p2) Im alpha, so only the balanced
    state kills it for every U; otherwise i sigma_z witnesses the leak with
    |tr(rho U)| = |p1 - p2|.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0,1], got {p1}")
    if abs(p1 - 0.5) <= 1e-12:
        return Su2Cover(covered=True, witness=None)
    return Su2Cover(covered=False, witness=np.diag([1j, -1j]))
