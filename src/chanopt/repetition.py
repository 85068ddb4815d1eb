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
member and every step, applied the same way. An identical strategy never
forms a joint input density, and a parallel one forms only those of its
entangled groups: one SVD per use-pair cut tells which cuts the input is a
product across, each group of pairs between two such cuts is built on its
own (a single pair by apply_extended), and the final state, or its
spectrum, is the Kronecker product of the groups'. The interleavers that
only reorder tensor factors (identity-rewire, fresh-swap) are
FactorPermutations, applied as one transpose of the state's tensor axes
rather than as a product with a dense permutation matrix. The joint state
of a sequential strategy is dense, and a dimension guard keeps it, and
every joint state here, at desk scale. Every n-fold Kronecker power, of a
state or of a spectrum, is built by halving: one balanced product of two
half powers, so at most 2 log2(n) kron calls. The adaptive analysis builds
each block's output pair once, and the identical-repetition risk of a
commuting pair comes from n-fold products of joint eigenvalues instead of
the dense powers.
"""
from __future__ import annotations

import math
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
    as_matrix,
    exceeds_dim_guard,
    hermitian_eig,
    max_abs,
    max_entangled,
)
from .optimal_inputs import IrrepBlocks, group_correction_simulator


STRATEGY_MODES = ("identical", "parallel", "sequential")


@dataclass(frozen=True)
class FactorPermutation:
    """The unitary interleaver that reorders the tensor factors of dims:
    factor i of its output is factor perm[i] of its input. apply(rho) is
    P rho P^T, P the 0/1 permutation matrix, computed as one transpose of
    rho's 2k tensor axes: one copy of rho, no operator on the joint space,
    and the same numbers, bit for bit, as the dense product."""

    dims: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", SystemShape(self.dims).factor_dims)
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError(f"{perm} is not a permutation of {len(self.dims)} factors")
        object.__setattr__(self, "perm", perm)

    @property
    def din(self) -> int:
        return math.prod(self.dims)

    dout = din  # a permutation is square

    def apply(self, rho) -> np.ndarray:
        rho = as_matrix(rho)
        SystemShape(self.dims).check(rho)
        k = len(self.dims)
        axes = self.perm + tuple(k + p for p in self.perm)
        # copy() is C-ordered, so the final reshape is a view of it
        return rho.reshape(self.dims * 2).transpose(axes).copy().reshape(rho.shape)


@dataclass
class Strategy:
    mode: str
    n: int
    input: PureState
    interleavers: tuple[KrausChannel | FactorPermutation, ...] = ()

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


def strategy_layout(mode: str, n: int, psi: PureState, din: int) -> tuple[int, ...]:
    """The reference dimension of each (channel x reference) factor pair an
    n-use strategy in this mode reads psi as: the one pair that identical
    repetition copies and a sequential strategy runs, or n pairs, one per
    parallel use. ValueError when psi's factors are not that layout: the one
    layout rule of every strategy, in the library and the CLI alike."""
    pairs = n if mode == "parallel" else 1
    dims = psi.shape.factor_dims
    if len(dims) != 2 * pairs or any(dims[2 * i] != din for i in range(pairs)):
        raise ValueError(
            f"{mode} input needs {pairs} (channel x reference) factor pair(s), channel dimension {din}"
        )
    return dims[1::2]


def strategy_guard(mode: str, n: int, refs: tuple[int, ...], dout: int) -> None:
    """ValueError when n uses in this mode, on use pairs with these reference
    dimensions (strategy_layout), go past DIM_GUARD (exceeds_dim_guard). The
    final state of identical repetition is n copies of its (output x
    reference) pair, that of parallel repetition the product of its n pairs,
    and a sequential strategy runs n steps on the one pair's state, so its n
    is bounded as uses of a trivial system."""
    outs = [dout * dr for dr in refs]
    over = exceeds_dim_guard(outs, n if mode == "identical" else 1)
    if over or (mode == "sequential" and exceeds_dim_guard([1], n)):
        raise ValueError(
            f"{n} {mode} uses of output pairs of dimension {sorted(set(outs))} exceed the {DIM_GUARD} guard"
        )


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


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    """factors[0] (x) factors[1] (x) ...: one _kron_power when every factor
    is the same array, otherwise a balanced product of the two halves, so the
    largest kron call has the widest contiguous runs. Works on matrices and
    on vectors of eigenvalues alike."""
    if all(f is factors[0] for f in factors):
        return _kron_power(factors[0], len(factors))
    half = len(factors) // 2
    return np.kron(_kron_all(factors[:half]), _kron_all(factors[half:]))


# A parallel input is split at a use-pair cut only when the Schmidt weight
# beyond its leading term, sqrt(sum_{k>=1} s_k^2), is below this. Dropping
# that weight moves the joint density matrix by at most 2 _PRODUCT_TOL in
# trace norm, which no channel increases, so the factored output of n uses
# is within 2 (n - 1) _PRODUCT_TOL of the dense one, entrywise too: under
# 1e-12 for the n <= 12 uses with an output pair of dimension 2 or more
# that the guard allows. An exact product built in floating point reads
# about 1e-16 here.
_PRODUCT_TOL = 4e-14


def _output_factors(member: KrausChannel, strat: Strategy) -> list[np.ndarray]:
    """Outputs whose Kronecker product is the strategy's final state, after
    its layout and size are checked (strategy_layout, strategy_guard).

    Identical mode gives omega n times (one array), omega the single-use
    output, and a sequential strategy its dense final state, run step by
    step. A parallel input is split at every use-pair cut it is a product
    across: the amplitudes of the open group of (channel x reference) pairs
    and all later ones, reshaped to (group) x (rest), are a product across
    the cut after the group when one SVD leaves a dropped Schmidt weight
    below _PRODUCT_TOL. The group then closes with the leading Schmidt
    vector as its state, and its output is built on its own: apply_extended
    for one pair, _block_outputs for several. A cut that fails widens the
    open group by the next pair, so an input entangled across every cut is
    one group, the whole dense state."""
    refs = strategy_layout(strat.mode, strat.n, strat.input, member.din)
    strategy_guard(strat.mode, strat.n, refs, member.dout)

    if strat.mode == "identical":
        omega = apply_extended(member, strat.input.density(), strat.input.shape)
        return [omega] * strat.n

    if strat.mode == "sequential":
        return [_run_chain(lambda rho: apply_extended(member, rho, strat.input.shape), strat)]

    def group_output(v: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
        if len(group) == 1:
            shape = SystemShape((member.din, group[0]))
            return apply_extended(member, np.outer(v, v.conj()), shape)
        shape = SystemShape(tuple(x for dr in group for x in (member.din, dr)))
        return _block_outputs(member, PureState(v, shape), member.din, len(group))

    factors = []
    rest = strat.input.amplitudes
    first = 0  # the open group is refs[first : i + 1]
    for i in range(strat.n - 1):
        rows = math.prod(member.din * dr for dr in refs[first : i + 1])
        u, s, vh = np.linalg.svd(rest.reshape(rows, -1), full_matrices=False)
        if np.sqrt(np.sum(s[1:] ** 2)) >= _PRODUCT_TOL:
            continue
        factors.append(group_output(u[:, 0], refs[first : i + 1]))
        rest = s[0] * vh[0]
        first = i + 1
    factors.append(group_output(rest, refs[first:]))
    return factors


def _run_chain(use, strat: Strategy) -> np.ndarray:
    """use, interleaver, use, ..., use on the input density of a sequential
    strategy; each interleaver maps use's output back onto the input."""
    rho = strat.input.density()
    for i, y in enumerate(strat.interleavers):
        rho = use(rho)
        if y.din != len(rho) or y.dout != strat.input.shape.dim:
            raise ValueError(f"interleaver {i} dimensions do not chain")
        rho = y.apply(rho)
    return use(rho)


def repeated_output(member: KrausChannel, strat: Strategy) -> np.ndarray:
    """Exact final state of the strategy for one family member: the
    Kronecker product of its outputs (_output_factors, _kron_all), so
    omega^(x n) is one balanced power and a parallel input the product of
    its groups of use pairs, no group wider than its entanglement."""
    return _kron_all(_output_factors(member, strat))


def output_spectrum(member: KrausChannel, strat: Strategy) -> np.ndarray:
    """Eigenvalues of repeated_output(member, strat), which is never formed
    when it is a product: the Kronecker product of its factors' spectra,
    each distinct factor diagonalised once."""
    factors = _output_factors(member, strat)
    distinct = {id(rho): rho for rho in factors}
    spectra = {key: np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)) for key, rho in distinct.items()}
    return _kron_all([spectra[id(rho)] for rho in factors])


# ---------------------------------------------------------------------------
# Interleaver presets


def identity_rewire_interleavers(d: int, d_ref: int, n: int) -> list[FactorPermutation]:
    """Feed each output straight into the next use (square channels only):
    the identity permutation of the one (d d_ref)-dimensional factor."""
    return [FactorPermutation((d * d_ref,), (0,))] * (n - 1)


def fresh_swap_interleavers(d: int, d_ref: int, n: int) -> list[FactorPermutation]:
    """Discard the running output into the reference and swap in the next
    fresh copy. Pair with an initial state laid out as
    (in_1, r_1, in_2, r_2, ..., in_n, r_n); the final state is the identical
    repetition up to that factor order. The interleaver after use i swaps
    factors in_1 and in_(i+1).
    """
    if exceeds_dim_guard((d, d_ref), n):
        raise ValueError(f"{n} (input x reference) pairs of dimension {d * d_ref} exceed the guard")
    dims = (d, d_ref) * n
    out = []
    for i in range(1, n):
        perm = list(range(2 * n))
        perm[0], perm[2 * i] = perm[2 * i], perm[0]
        out.append(FactorPermutation(dims, tuple(perm)))
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
    strategy_layout(strat_seq.mode, strat_seq.n, strat_seq.input, fam.din)
    sims = group_correction_simulator(fam, group, blocks)
    return {
        label: max_abs(repeated_output(ch, strat_seq) - _run_chain(sims[label], strat_seq))
        for label, ch in fam.members
    }


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
    # the risk the plan is compared with is identical repetition of the d x d entangled input
    strategy_guard("identical", n, (d,), ch_p.dout)
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
