"""Constructors and certifiers for universally optimal input states.

Three constructive routes are implemented: the group-covariant
measure-and-correct protocol, the unital-qubit instrument protocol, and the
eigenphase-hull minimizer for a pair of unitaries. The measure-and-correct
circuit is one channel shared by the whole family; both protocols apply
their operators to one factor with channels.apply_at_factor. Each protocol
returns the states it assembles so that the caller can check the defining
equality directly; the check is the certificate, the protocol never
self-certifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import (
    ChannelFamily,
    KrausChannel,
    apply_at_factor,
    apply_extended,
    is_covariant,
    is_unital,
)
from .comparison import (
    ComparisonVerdict,
    _joint_spectrum,
    _sweep_operands,
    commutes,
    default_grid,
    sweep_norms,
)
from .numerics import (
    SystemShape,
    as_matrix,
    dagger,
    hermitian_eig,
    is_density,
    max_abs,
    max_entangled,
    partial_trace,
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


@dataclass
class PureState:
    amplitudes: np.ndarray
    shape: SystemShape

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape[0] != self.shape.dim:
            raise ValueError("amplitude length does not match shape")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError("state is not unit norm")
        self.amplitudes = v

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def reduced(self, keep: int) -> np.ndarray:
        return partial_trace(self.density(), self.shape, keep=keep)


def covariant_optimal_state(blocks: IrrepBlocks) -> PureState:
    """Normalized direct sum of block-wise maximally entangled states.

    Block weights sqrt(d_mu / d) flatten the marginal to 1/d; since the
    direct sum only populates matched diagonal pairs, it is the maximally
    entangled state of the full space.
    """
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

    contravariant = not is_covariant(fam, group)
    if contravariant and not is_covariant(fam, group, contravariant=True):
        raise ValueError("family is not covariant for the supplied group")

    phi = max_entangled(d)
    amp = np.sqrt(d * d / len(group))
    ops = []
    for u, v in group:
        bra = (np.kron(u.conj(), np.eye(d)) @ phi).conj()[None, :]
        ops.append(amp * np.kron(v.T if contravariant else dagger(v), bra))
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
    Validation runs once; the callables are cheap."""
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
            dims = (correct.din, target.shape[0] // d)
            return apply_at_factor(correct, np.kron(omega, target), dims, 0)

        sims[label] = sim
    return sims


def group_correction_protocol(
    fam: ChannelFamily,
    group: list[tuple[np.ndarray, np.ndarray]],
    blocks: IrrepBlocks,
    target_input,
) -> dict[str, np.ndarray]:
    """Simulate measure-then-correct over the group outcomes, per member.

    The channel built here acts only on the family outputs fed the maximally
    entangled input; its result should equal the member applied to
    target_input. Checking that equality is up to the caller and constitutes
    the optimality certificate for the entangled input.

    Works for a single invariant block; with several blocks the outcome
    operators no longer resolve the identity, so that case is rejected rather
    than silently mis-assembled.
    """
    target = as_matrix(target_input)
    if target.shape[0] % fam.din:
        raise ValueError("target dimension is not a multiple of the input dimension")
    if not is_density(target):
        raise ValueError("target_input is not a density matrix")
    sims = group_correction_simulator(fam, group, blocks)
    return {label: sim(target) for label, sim in sims.items()}


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
    if p1 < -1e-12 or p2 < -1e-12 or abs(p1 + p2 - 1.0) > 1e-9:
        raise ValueError("p must be a probability pair")
    return p1, p2


def _qubit_unitary(v) -> np.ndarray:
    v = as_matrix(v)
    if v.shape != (2, 2) or max_abs(v @ dagger(v) - np.eye(2)) > 1e-9:
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


def _hull_min_norm(points: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Candidate (distance, weights) pairs for the min-norm point of a hull.

    In the plane the minimizer is supported on at most three points: a
    vertex, an edge projection, or an interior zero.
    """
    k = len(points)
    cands = []
    for i in range(k):
        w = np.zeros(k)
        w[i] = 1.0
        cands.append((abs(points[i]), w))
    for i, j in combinations(range(k), 2):
        zi, zj = points[i], points[j]
        denom = abs(zj - zi) ** 2
        if denom < 1e-30:
            continue
        t = np.clip(-((zj - zi).conjugate() * zi).real / denom, 0.0, 1.0)
        w = np.zeros(k)
        w[i], w[j] = 1.0 - t, t
        cands.append((abs((1.0 - t) * zi + t * zj), w))
    for i, j, l in combinations(range(k), 3):
        zs = [points[i], points[j], points[l]]
        mat = np.array([[z.real for z in zs], [z.imag for z in zs], [1.0, 1.0, 1.0]])
        try:
            sol = np.linalg.solve(mat, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if sol.min() >= -1e-12:
            sol = np.clip(sol, 0.0, None)
            sol /= sol.sum()
            w = np.zeros(k)
            w[i], w[j], w[l] = sol
            cands.append((abs(sum(s * z for s, z in zip(sol, zs))), w))
    return cands


def pair_unitary_optimal_input(u_plus, u_minus) -> PairOptimum:
    """Input minimizing |<psi| U+^dag U- (x) 1 |psi>| over pure states.

    The functional equals |sum_k w_k e^{i lam_k}| for Schmidt weights w on
    the eigenbasis of U+^dag U-, so the minimum is the distance from the
    origin to the convex hull of the eigenphase points. Ties are broken
    toward the lexicographically smallest weight vector over the
    phase-sorted eigenbasis.
    """
    u_plus = as_matrix(u_plus)
    u_minus = as_matrix(u_minus)
    d = u_plus.shape[0]
    if u_minus.shape != (d, d):
        raise ValueError("unitaries must share one dimension")
    for name, u in (("U_plus", u_plus), ("U_minus", u_minus)):
        if max_abs(u @ dagger(u) - np.eye(d)) > 1e-9:
            raise ValueError(f"{name} is not unitary")

    from scipy.linalg import schur

    m = dagger(u_plus) @ u_minus
    t, z = schur(m, output="complex")
    phases = np.angle(np.diag(t))
    order = np.argsort(phases, kind="stable")
    eigs = np.diag(t)[order]
    vecs = z[:, order]

    cands = _hull_min_norm(eigs)
    best = min(c[0] for c in cands)
    ties = [w for val, w in cands if val <= best + 1e-12]
    weights = min(tuple(np.round(w, 15)) for w in ties)
    weights = np.array(weights)

    amps = np.zeros(d * d, dtype=complex)
    basis = np.eye(d)
    for k in range(d):
        if weights[k] > 0:
            amps += np.sqrt(weights[k]) * np.kron(vecs[:, k], basis[k])
    state = PureState(amps, SystemShape((d, d)))
    return PairOptimum(state=state, min_overlap=float(best))


# ---------------------------------------------------------------------------
# Measurement-family certificates


def _sqrtm_psd(m) -> np.ndarray:
    w, v = hermitian_eig(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _reduced_input(psi: PureState, din: int) -> np.ndarray:
    if psi.shape.factor_dims[0] != din:
        raise ValueError("input state's first factor must live on H_in")
    if len(psi.shape.factor_dims) == 1:
        return psi.density()
    return psi.reduced(0)


# Slack of the equalities behind each measurement-family route: vanishing
# cross terms, unit traces and the input marginal.
MEASUREMENT_TOL = 1e-8


def measurement_input_certify(fam: ChannelFamily, psi: PureState) -> ComparisonVerdict:
    """Certify psi as universally optimal for a two-member measurement family.

    Three structured routes, tried in order; anything else is inconclusive.

    a. Orthogonal supports: sqrt(rho) M+(i)^T rho M-(i)^T sqrt(rho) = 0 for
       every outcome makes the two outputs perfectly distinguishable, the
       ceiling of every sweep curve.
    b. Rotated commuting pair: unit-trace commuting base elements conjugated
       by a rotation set that averages to c tr(.) 1; the entangled input's
       curve then meets the universal bound tr|M+ - s M-| at every s.
    c. Complementary diagonal pair: members measure {M, 1-M} with outcomes
       swapped and M = diag(a); the basis state at a's largest entry yields
       the extremal classical curve max(|s-1|, |2a_k - 1|(s+1)), provided
       that entry also maximizes |2a_k - 1| (checked, not assumed: the
       per-entry curves are ordered by |2a_k - 1|, not by a_k).
    """
    if fam.kind != "measurement":
        raise ValueError("family is not of measurement kind")
    if len(fam.members) != 2:
        raise ValueError("certification needs exactly two members")
    povms = fam.params.get("povms")
    if not povms or len(povms) != 2:
        raise ValueError("family carries no POVM structure")
    mp, mm = povms[0].elements, povms[1].elements
    din = fam.din
    rho = _reduced_input(psi, din)

    if len(mp) == len(mm):
        sq = _sqrtm_psd(rho)
        ok = all(
            max_abs(sq @ mp[i].T @ rho @ mm[i].T @ sq) <= MEASUREMENT_TOL
            for i in range(len(mp))
        )
        if ok:
            return ComparisonVerdict("dominates", method="sweep-sufficient-commuting")

    if fam.params.get("structure") == "rotated":
        base_p = fam.params["m_plus"]
        base_m = fam.params["m_minus"]
        base_spec = _joint_spectrum(base_p, base_m)
        if (
            base_spec is not None
            and abs(np.trace(base_p) - 1.0) <= MEASUREMENT_TOL
            and abs(np.trace(base_m) - 1.0) <= MEASUREMENT_TOL
            and max_abs(rho - np.eye(din) / din) <= MEASUREMENT_TOL
        ):
            s_grid = default_grid()
            shape = SystemShape(tuple(psi.shape.factor_dims))
            outs = [
                apply_extended(ch, psi.density(), shape) for _, ch in fam.members
            ]
            base_ops = _sweep_operands((base_p, base_m), base_spec, s_grid)
            gaps = sweep_norms(outs[0], outs[1], s_grid) - sweep_norms(*base_ops, s_grid)
            if np.all(np.abs(gaps) <= 1e-7) and commutes(outs[0], outs[1]):
                return ComparisonVerdict(
                    "dominates", method="sweep-sufficient-commuting"
                )
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
