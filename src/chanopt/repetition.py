"""Strategies for using a channel several times.

Identical repetition sends copies of one input, parallel repetition sends a
joint entangled input, and sequential repetition pipes each use's output
through an interleaver channel into the next use. The two certificates here
are executable guarantees: for covariant families, feeding the entangled
optimum identically reproduces any sequential strategy's final state; for
binary measurement families, classically adaptive block inputs never beat
identical repetition.

Channel uses are applied factor by factor with channels.apply_at_factor, so
no operator on the joint space is ever formed; each measure-and-correct step
of the sequential certificate is one correction channel, shared by every
member and every step, applied the same way. The joint states themselves are
dense, and a dimension guard keeps them at desk scale. Every n-fold
Kronecker power, of a state or of a spectrum, is built by halving: one
balanced product of two half powers, so at most 2 log2(n) kron calls. The
adaptive analysis builds each block's output pair once, and the
identical-repetition risk of a commuting pair comes from n-fold products of
joint eigenvalues instead of the dense powers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, KrausChannel, apply_at_factor, apply_extended
from .comparison import (
    _binary_risk,
    _check_pair,
    _check_prior,
    _joint_spectrum,
)
from .numerics import (
    DIM_GUARD,
    PureState,
    SystemShape,
    exceeds_dim_guard,
    hermitian_eig,
    max_abs,
    max_entangled,
)
from .optimal_inputs import IrrepBlocks, group_correction_simulator


STRATEGY_MODES = ("identical", "parallel", "sequential")


@dataclass
class Strategy:
    mode: str
    n: int
    input: PureState
    interleavers: tuple[KrausChannel, ...] = ()

    def __post_init__(self):
        if self.mode not in STRATEGY_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        self.interleavers = tuple(self.interleavers)
        if self.mode == "sequential":
            if len(self.interleavers) != self.n - 1:
                raise ValueError("sequential mode needs n-1 interleavers")
        elif self.interleavers:
            raise ValueError(f"{self.mode} mode takes no interleavers")


@dataclass
class AdaptivePlan:
    """Blockwise classical adaptation: before each block the sender picks an
    input from that block's menu, conditioned on earlier outcomes. The
    intermediate measurement rule is fixed to the binary posterior-weighted
    Helstrom projector (where that operator has null eigenvalues, the better
    of the two extreme tie resolutions); the final block gets the exact
    Bayes decision."""

    block_sizes: tuple[int, ...]
    menus: tuple[tuple[PureState, ...], ...]

    def __post_init__(self):
        self.block_sizes = tuple(int(b) for b in self.block_sizes)
        if not self.block_sizes or any(b < 1 for b in self.block_sizes):
            raise ValueError("block sizes must be positive")
        self.menus = tuple(tuple(m) for m in self.menus)
        if len(self.menus) != len(self.block_sizes):
            raise ValueError("one menu per block required")
        if any(not m for m in self.menus):
            raise ValueError("menus must be nonempty")


def factor_permutation(dims, perm) -> np.ndarray:
    """Unitary reordering tensor factors: |i_0 .. i_{n-1}> -> permuted order."""
    dims = list(dims)
    total = int(np.prod(dims))
    dst = np.transpose(np.arange(total).reshape(dims), perm).reshape(-1)
    p = np.zeros((total, total))
    p[np.arange(total), dst] = 1.0
    return p


def _guard(base: int, n: int = 1):
    """Reject n uses of dimension base past DIM_GUARD (exceeds_dim_guard)."""
    if exceeds_dim_guard(base, n):
        raise ValueError(f"{n} uses of dimension {base} exceed the {DIM_GUARD} guard")


def _kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """a (x) a (x) ... (x) a, n factors, by halving: the largest product is
    kron(a^(x ceil(n/2)), a^(x floor(n/2))), whose contiguous runs are
    len(a)^floor(n/2) entries wide, and at most 2 floor(log2 n) kron calls
    are made. On a vector of eigenvalues it gives their n-fold products in
    the order of the power's eigenvalues."""
    if n == 1:
        return a
    low = _kron_power(a, n // 2)
    high = low if n % 2 == 0 else np.kron(low, a)
    return np.kron(high, low)


def repeated_output(member: KrausChannel, strat: Strategy) -> np.ndarray:
    """Exact final state of the strategy for one family member. Identical
    mode returns omega^(x n), omega the single-use output, as one balanced
    Kronecker power (_kron_power)."""
    dims = strat.input.shape.factor_dims

    if strat.mode == "identical":
        if len(dims) != 2 or dims[0] != member.din:
            raise ValueError("identical mode expects an input on channel x reference")
        dr = dims[1]
        _guard(member.dout * dr, strat.n)
        omega = apply_extended(member, strat.input.density(), strat.input.shape)
        return _kron_power(omega, strat.n)

    if strat.mode == "parallel":
        if len(dims) != 2 * strat.n or any(dims[2 * i] != member.din for i in range(strat.n)):
            raise ValueError(
                "parallel mode expects n (channel x reference) factor pairs"
            )
        out_dims = list(dims)
        for i in range(strat.n):
            out_dims[2 * i] = member.dout
        _guard(int(np.prod(out_dims)))
        return _block_outputs(member, strat.input, member.din, strat.n)

    if len(dims) != 2 or dims[0] != member.din:
        raise ValueError("sequential mode expects an input on channel x reference")
    dr = dims[1]
    _guard(member.dout * dr)
    shape_in = SystemShape((member.din, dr))
    rho = strat.input.density()
    for i in range(strat.n):
        rho = apply_extended(member, rho, shape_in)
        if i < strat.n - 1:
            y = strat.interleavers[i]
            if y.din != member.dout * dr or y.dout != member.din * dr:
                raise ValueError(f"interleaver {i} dimensions do not chain")
            rho = y.apply(rho)
    return rho


# ---------------------------------------------------------------------------
# Interleaver presets


def identity_rewire_interleavers(d: int, d_ref: int, n: int) -> list[KrausChannel]:
    """Feed each output straight into the next use (square channels only)."""
    eye = np.eye(d * d_ref)
    return [KrausChannel.from_ops([eye]) for _ in range(n - 1)]


def fresh_swap_interleavers(d: int, d_ref: int, n: int) -> list[KrausChannel]:
    """Discard the running output into the reference and swap in the next
    fresh copy. Pair with an initial state laid out as
    (in_1, r_1, in_2, r_2, ..., in_n, r_n); the final state is the identical
    repetition up to that factor order.
    """
    dims = [d, d_ref] * n
    out = []
    for i in range(1, n):
        perm = list(range(2 * n))
        perm[0], perm[2 * i] = perm[2 * i], perm[0]
        out.append(KrausChannel.from_ops([factor_permutation(dims, perm)]))
    return out


def random_unitary_interleavers(d: int, d_ref: int, n: int, seed) -> list[KrausChannel]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n - 1):
        dim = d * d_ref
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(KrausChannel.from_ops([q]))
    return out


# ---------------------------------------------------------------------------
# Certificates


def identical_matches_sequential(
    fam: ChannelFamily,
    group: list[tuple[np.ndarray, np.ndarray]],
    blocks: IrrepBlocks,
    strat_seq: Strategy,
) -> dict[str, float]:
    """Residual between a sequential run and its identical-repetition
    simulation, per member.

    The simulation consumes one copy of the member's entangled-input output
    per step, reconstructs the step through the group measure-and-correct
    channel (one for the whole family), and applies the same interleavers.
    Small residuals certify that identical repetition of the entangled
    optimum loses nothing against this sequential strategy.
    """
    if strat_seq.mode != "sequential":
        raise ValueError("certificate expects a sequential strategy")
    dims = strat_seq.input.shape.factor_dims
    if len(dims) != 2 or dims[0] != fam.din:
        raise ValueError("sequential input must live on channel x reference")
    sims = group_correction_simulator(fam, group, blocks)

    residuals: dict[str, float] = {}
    for label, ch in fam.members:
        direct = repeated_output(ch, strat_seq)
        rho = strat_seq.input.density()
        for i in range(strat_seq.n):
            rho = sims[label](rho)
            if i < strat_seq.n - 1:
                rho = strat_seq.interleavers[i].apply(rho)
        residuals[label] = max_abs(direct - rho)
    return residuals


def _menu_step(psi: PureState, d: int, n_block: int) -> int:
    """Stride between a menu state's n_block channel factors (dimension d):
    1 when they are all its factors, 2 when each has a reference after it."""
    dims = psi.shape.factor_dims
    if len(dims) == n_block and all(dim == d for dim in dims):
        return 1
    if len(dims) == 2 * n_block and all(dims[2 * i] == d for i in range(n_block)):
        return 2
    raise ValueError("menu state needs one channel factor (optionally with a reference) per use")


def _block_outputs(ch: KrausChannel, psi: PureState, d: int, n_block: int):
    """ch applied to each of psi's n_block channel factors (dimension d):
    all of its factors, or every other one when each use has a reference."""
    step = _menu_step(psi, d, n_block)
    rho = psi.density()
    cur = list(psi.shape.factor_dims)
    for i in range(n_block):
        rho = apply_at_factor(ch, rho, cur, step * i)
        cur[step * i] = ch.dout
    return rho


# Eigenvalues of the posterior-weighted Helstrom operator within this
# fraction of the branch probability count as null (ties).
_NULL_TOL = 1e-12


def _helstrom_projectors(x: np.ndarray, mass: float) -> list[np.ndarray]:
    """Helstrom projectors of x = post_p rho_p - post_m rho_m, where
    mass = post_p + post_m: onto the eigenvectors with eigenvalue > 0, and
    also onto those >= 0 when x has null eigenvalues. A null eigenvalue is a
    tie that Helstrom's rule leaves open, so both extreme resolutions are
    candidates, and which one is taken never hangs on the sign of
    round-off."""
    lam, v = hermitian_eig(x)
    tol = _NULL_TOL * mass
    masks = [lam > tol]
    if np.any(np.abs(lam) <= tol):
        masks.append(lam >= -tol)
    return [v[:, keep] @ v[:, keep].conj().T for keep in masks]


def _checked_pair(ch_p: KrausChannel, ch_m: KrausChannel, psi: PureState, d: int, n_block: int):
    pair = (_block_outputs(ch_p, psi, d, n_block), _block_outputs(ch_m, psi, d, n_block))
    _check_pair(*pair)
    return pair


def _identical_risk(omega_p: np.ndarray, omega_m: np.ndarray, n: int, prior: float) -> float:
    """Bayes risk of n identical copies of the pair (omega_p, omega_m).

    A commuting pair has joint eigenvalues p, q, and the n copies have the
    n-fold products of them, so the risk needs len(p)^n numbers instead of
    dense len(p)^n x len(p)^n Kronecker powers. The eigenvalue route is taken
    only when the joint eigenbasis V leaves V^dag omega V diagonal to within
    1e-8 for both members (the residual _joint_spectrum returns): a pair
    that commutes within COMMUTE_TOL can still have near-degenerate
    eigenvectors that the other member couples. Any other pair takes the
    dense route. Either way the pair is checked once, before it is powered:
    the n-fold power of a density matrix is one.
    """
    _check_pair(omega_p, omega_m)
    spectrum = _joint_spectrum(omega_p, omega_m)
    if spectrum is not None and spectrum[3] <= 1e-8:
        return _binary_risk(*[_kron_power(lam, n) for lam in spectrum[1:3]], prior)
    return _binary_risk(*[_kron_power(omega, n) for omega in (omega_p, omega_m)], prior)


def adaptive_vs_identical(
    fam: ChannelFamily, prior: float, plan: AdaptivePlan
) -> dict[str, float]:
    """Best classically adaptive risk over the plan's menus, against the
    identical repetition of the entangled input with a joint decision.

    Intermediate blocks are measured with the posterior-weighted Helstrom
    projector and the outcome reweights the posterior; the last block
    contributes its exact Bayes risk. The menu minimization is exhaustive
    per branch. Each (block, menu entry) output pair is built and checked
    once and shared by every branch.
    """
    if fam.kind != "measurement":
        raise ValueError("adaptation analysis expects a measurement family")
    if len(fam.members) != 2:
        raise ValueError("binary family required")
    _check_prior(prior)
    d = fam.din
    (_, ch_p), (_, ch_m) = fam.members
    n = sum(plan.block_sizes)
    _guard(ch_p.dout * d, n)
    outputs = [
        [_checked_pair(ch_p, ch_m, psi, d, n_block) for psi in menu]
        for n_block, menu in zip(plan.block_sizes, plan.menus)
    ]
    last = len(outputs) - 1

    def best_risk(j: int, post_p: float, post_m: float) -> float:
        best = np.inf
        for rho_p, rho_m in outputs[j]:
            if j == last:
                total = post_p + post_m
                risk = total * _binary_risk(rho_p, rho_m, post_p / total)
                best = min(best, risk)
                continue
            x = post_p * rho_p - post_m * rho_m
            for proj in _helstrom_projectors(x, post_p + post_m):
                risk = 0.0
                for eff in (proj, np.eye(proj.shape[0]) - proj):
                    a = post_p * float(np.trace(rho_p @ eff).real)
                    b = post_m * float(np.trace(rho_m @ eff).real)
                    if a + b <= 1e-15:
                        continue
                    risk += best_risk(j + 1, a, b)
                best = min(best, risk)
        return best

    adaptive = best_risk(0, prior, 1.0 - prior)

    phi = max_entangled(d)
    shape = SystemShape((d, d))
    omega_p = apply_extended(ch_p, np.outer(phi, phi.conj()), shape)
    omega_m = apply_extended(ch_m, np.outer(phi, phi.conj()), shape)
    identical = _identical_risk(omega_p, omega_m, n, prior)

    return {"adaptive_risk": float(adaptive), "identical_risk": float(identical)}
