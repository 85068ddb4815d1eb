"""Trace-norm comparison of state families.

The central object is the sweep curve s -> ||rho_plus - s rho_minus||_1 of a
pair of states. For each pair of members, weak domination of one curve by
another over all s >= 0 is necessary for the "always at least as
informative" ordering of the two output pairs; it is also sufficient when
the dominating pair commutes, and in general a channel mapping one pair onto
the other (cptp_feasible) certifies the ordering directly. dominance_check
sweeps every member pair once, every pair of a comparison in one batch: a
pair the challenger beats anywhere refutes "dominates", one the candidate
beats refutes "dominated", and only the direction the sweep leaves open is
certified, pair by pair. With three or more members a positive verdict is
pairwise evidence, not one channel for the whole family.

A commuting pair's curve is sum_i |p_i - s q_i| over its joint eigenvalues
(_joint_spectrum, the package's one joint-eigenbasis routine); it is read
that way whenever the joint eigenbasis is accurate enough to prove the
closed form within SWEEP_TOL / 10 (_sweep_operands). Any other pair's curve
is |tr a - s tr b| wherever a - s b is proven semidefinite within
SWEEP_TOL / 10, and a stacked eigendecomposition covers the indefinite
middle of the grid (_hermitian_sweeps). _sweep runs each step once for a
whole batch of pairs: one commutator gate, one semidefinite guess and one
eigvalsh (in slabs) over every pair's certifying points and middle, per dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .channels import ChoiMatrix
from .numerics import (
    _SLAB_ENTRIES,
    as_matrix,
    dagger,
    density_mask,
    hermitian_eig,
    max_abs,
    sorted_unique,
    trace_norm,
)

COMMUTE_TOL = 1e-9
# Sweep-norm difference beyond which one pair beats the other at an s.
SWEEP_TOL = 1e-9

# Interior-point iterations cptp_feasible may take before it reports
# "unresolved"; a Farkas witness excludes every W whose constraint violation
# and most negative eigenvalue are within CPTP_TOL.
CPTP_MAX_ITERS = 50
CPTP_TOL = 1e-7
# Violation at which the solver stops with a channel: stopping at CPTP_TOL
# leaves Choi eigenvalues down to about -4e-8 on boundary instances.
CPTP_STOP_TOL = 1e-9


def default_grid(points: int = 200) -> np.ndarray:
    """{0} plus points geometrically spaced points on [1e-3, 1e3]."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e3, points)])


@dataclass
class SweepCurve:
    """Samples of s -> ||rho_plus - s rho_minus||_1: norms[i] at s_values[i].

    breakpoints lists the kinks (ratios of joint eigenvalues); it is exact for
    commuting pairs, whose norms are then sum_i |p_i - s q_i| over the joint
    eigenvalues, and empty otherwise, in which case the curve is a convex
    grid sample rather than a piecewise-linear description. The CLI writes
    these arrays out as rows of its sweep table.
    """

    s_values: np.ndarray
    norms: np.ndarray
    breakpoints: np.ndarray


def sweep_norms(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 for every s_k.

    a and b are either the paired joint eigenvalues (p, q) of a commuting
    pair, which take the closed form sum_i |p_i - s_k q_i|, or a pair of
    Hermitian matrices, which take _hermitian_sweeps as a batch of one: the
    closed form |tr a - s_k tr b| where a - s_k b is semidefinite, each such
    value proven within SWEEP_TOL / 10 of the norm, and one stacked eigvalsh
    at the other s_k.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if np.ndim(a) == 1:
        p, q = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.abs(p - s[:, None] * q).sum(axis=1)
    return _hermitian_sweeps([(as_matrix(a), as_matrix(b))], [s])[0]


def _by_dimension(pairs):
    """(indices, stacked first members, stacked second members) of the
    pairs of each matrix dimension."""
    dims = {}
    for i, (a, _) in enumerate(pairs):
        dims.setdefault(len(a), []).append(i)
    for idx in dims.values():
        yield idx, np.array([pairs[i][0] for i in idx]), np.array([pairs[i][1] for i in idx])


def _stacked_eigvalsh(a, b, pair, s) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a[j] - s_k b[j] with
    j = pair[k], one row per s_k, by stacked eigvalsh over slabs of at most
    _SLAB_ENTRIES entries; each matrix goes through LAPACK on its own. In
    place, so that at most two copies of a slab are alive at once."""
    lam = np.empty((len(pair), a.shape[1]))
    step = max(1, _SLAB_ENTRIES // a[0].size)
    for k in range(0, len(pair), step):
        j = slice(k, k + step)
        stack, sb = a[pair[j]], b[pair[j]]
        sb *= s[j, None, None]
        stack -= sb
        del sb
        stack += stack.conj().swapaxes(1, 2)
        stack *= 0.5
        lam[j] = np.linalg.eigvalsh(stack)
    return lam


def _semidefinite_ends(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Guesses (lo, hi), one per pair of the stacks a and b, with
    a - s b >= 0 for s <= lo and <= 0 for s >= hi.

    For PSD a and b, c = a + b vanishes exactly where both do, and on the
    range of c, a - s b = c^1/2 (m - s (1 - m)) c^1/2 with m = c^-1/2 a c^-1/2,
    whose eigenvalues t lie in [0, 1]. So a - s b >= 0 iff s <= t_min /
    (1 - t_min) and <= 0 iff s >= t_max / (1 - t_max), infinite at t = 1.
    Eigenvalues of c below 1e-12 of its largest count as outside its range;
    with no range left the guess is (0, inf), which closes no s > 0. One
    stacked eigh covers every c and one stacked eigvalsh every full-rank m;
    an m of lower rank is projected on its own. Nothing here is trusted:
    _hermitian_sweeps certifies what it uses.
    """
    w, v = np.linalg.eigh(a + b)
    keep = w > 1e-12 * np.maximum(w[:, -1:], 0.0)
    rank = keep.sum(axis=1)
    t = np.zeros((len(a), 2))
    t[:, 1] = 1.0
    full = rank == a.shape[1]
    if full.any():
        vr = v[full] / np.sqrt(w[full])[:, None, :]
        t[full] = np.linalg.eigvalsh(vr.conj().swapaxes(1, 2) @ a[full] @ vr)[:, [0, -1]]
    for j in np.flatnonzero((rank > 0) & ~full):
        vr = v[j][:, keep[j]] / np.sqrt(w[j][keep[j]])
        lam = np.linalg.eigvalsh(dagger(vr) @ a[j] @ vr)
        t[j] = lam[0], lam[-1]
    ends = np.divide(t, 1.0 - t, out=np.full(t.shape, np.inf), where=t < 1.0)
    return ends[:, 0], ends[:, 1]


def _hermitian_sweeps(pairs, grids) -> list[np.ndarray]:
    """||a - s_k b||_1 of each Hermitian pair (a, b) at the s_k of its grid:
    |tr a - s_k tr b| at the s_k > 0 outside the indefinite middle that
    _semidefinite_ends guesses, one stacked eigvalsh at the rest of every
    pair of a dimension.

    The stack also holds each guessed pair's s = 0 and the last point of
    each closed side: s_k, the largest s on the PSD side, and s_m, the
    smallest on the NSD side. With the computed violations delta_a = max(0,
    -lambda_min(a)), delta_k = max(0, -lambda_min(a - s_k b)) and delta_m =
    max(0, lambda_max(a - s_m b)):

    - lambda_min(a - s b) is concave in s, so it is >= -max(delta_a,
      delta_k) on [0, s_k]; as ||X||_1 - tr X is twice the negative mass of
      X, the closed form is within 2 d max(delta_a, delta_k) there.
    - a >= -delta_a and a - s_m b <= delta_m give s_m b >= -(delta_a +
      delta_m), so a - s b <= (s / s_m)(delta_m + delta_a) for s >= s_m; as
      ||X||_1 + tr X is twice the positive mass, the closed form is within
      2 d (max s / s_m)(delta_m + delta_a) on [s_m, max s].

    The closed form is taken only when both bounds are at most
    SWEEP_TOL / 10, the rule _sweep_operands applies to commuting pairs;
    a pair that fails it has its whole grid stacked in a second eigvalsh,
    and a pair whose guess closes nothing has its whole grid in the first.
    A stacked s_k gets the same bits in any stack, so the values depend
    neither on where the split falls nor on the other pairs of the batch.
    """
    norms = [None] * len(pairs)
    for idx, a, b in _by_dimension(pairs):
        d = a.shape[1]
        # every grid in one zero-padded row; s = 0 closes nothing
        lengths = [len(grids[i]) for i in idx]
        valid = np.arange(max(lengths)) < np.array(lengths)[:, None]
        s = np.zeros(valid.shape)
        s[valid] = np.concatenate([grids[i] for i in idx])
        lo, hi = _semidefinite_ends(a, b)
        pos = s > 0
        psd = pos & (s <= lo[:, None])
        nsd = pos & (s >= hi[:, None]) & ~psd
        s_k = np.where(psd, s, 0.0).max(axis=1, keepdims=True, initial=0.0)
        s_m = np.where(nsd, s, np.inf).min(axis=1, keepdims=True, initial=np.inf)
        closed = (psd & (s < s_k)) | (nsd & (s > s_m))
        middle = valid & ~closed
        g = np.flatnonzero(closed.any(axis=1))
        pair, s_stack = np.nonzero(middle)[0], s[middle]
        if len(g):
            # each guessed pair's certifying points lead the stack; with no s
            # on the NSD side, a stands in for a - s_m b and is not read
            ends = np.zeros((len(g), 3))
            ends[:, 1:] = np.hstack([s_k, np.where(np.isinf(s_m), 0.0, s_m)])[g]
            pair = np.concatenate([np.repeat(g, 3), pair])
            s_stack = np.concatenate([ends.reshape(-1), s_stack])
        lam = _stacked_eigvalsh(a, b, pair, s_stack)
        out = np.empty(s.shape)
        out[middle] = np.abs(lam[3 * len(g) :]).sum(axis=1)
        if len(g):
            e = lam[: 3 * len(g)].reshape(-1, 3, d)
            delta_a = np.maximum(-e[:, 0, 0], 0.0)
            # the NSD bound is 0 where there is no NSD side (s_m = inf)
            err = np.maximum(
                2 * d * np.maximum(delta_a, -e[:, 1, 0]),
                2 * d * (s[g].max(axis=1) / s_m[g, 0]) * (np.maximum(e[:, 2, -1], 0.0) + delta_a),
            )
            tr_a, tr_b = (np.trace(m, axis1=1, axis2=2).real[:, None] for m in (a, b))
            out[closed] = np.abs(tr_a - s * tr_b)[closed]
            fail = g[err > SWEEP_TOL / 10]
            if len(fail):
                whole = np.zeros_like(valid)
                whole[fail] = valid[fail]
                out[whole] = np.abs(_stacked_eigvalsh(a, b, np.nonzero(whole)[0], s[whole])).sum(axis=1)
        for i, row, k in zip(idx, out, lengths):
            norms[i] = row[:k]
    return norms


def _commuting(a, b) -> np.ndarray:
    """Whether a and b commute within COMMUTE_TOL, pair by pair for stacks."""
    return np.abs(a @ b - b @ a).max(axis=(-2, -1)) <= COMMUTE_TOL


def _joint_spectrum(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """(V, p, q, r) for a Hermitian pair that commutes within COMMUTE_TOL,
    None for any other pair.

    _joint_basis does the work once the commutator gate has passed.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    return _joint_basis(a, b) if _commuting(a, b) else None


def _joint_basis(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(V, p, q, r) of a commuting Hermitian pair.

    Diagonalizes b, then rediagonalizes a inside each (near-)degenerate
    eigenspace of b, eigenvalues within 1e-8 of its scale. V holds the joint
    basis vectors as columns, p and q the eigenvalues of a and of b paired
    by column, and r = max |V^dag m V - diag(lambda_m)| over both members m:
    how far V is from diagonalizing them, which each caller bounds before it
    trusts (p, q).
    """
    q, v = hermitian_eig(b)
    scale = max(float(np.abs(q).max()), 1.0)
    ps, cols = [], []
    for c in np.split(v, np.flatnonzero(np.diff(q) > 1e-8 * scale) + 1, axis=1):
        mu, w = hermitian_eig(dagger(c) @ a @ c)
        ps.append(mu)
        cols.append(c @ w)
    v, p = np.hstack(cols), np.concatenate(ps)
    vh = dagger(v)
    r = max(max_abs(vh @ m @ v - np.diag(lam)) for m, lam in ((a, p), (b, q)))
    return v, p, q, r


def _breakpoints(spectrum) -> np.ndarray:
    """Kinks of a commuting pair's curve (ratios of joint eigenvalues); a
    noncommuting pair (spectrum None) gets none."""
    if spectrum is None:
        return np.array([])
    _, p, q, _ = spectrum
    mask = q > 1e-12
    bp = sorted_unique(p[mask] / q[mask])
    return bp[bp >= 0]


def _sweep_operands(pair, spectrum, s) -> tuple:
    """What sweep_norms takes for the pair on the grid s: its joint spectrum
    (p, q) when the residual r meets d^2 (1 + max s) r <= SWEEP_TOL / 10, the
    pair itself otherwise. V^dag (a - s b) V = diag(p - s q) + E_a - s E_b
    with unitary V and max |E_ij| <= r, and ||E||_1 <= d^2 max |E_ij|, so by
    the triangle inequality sum_i |p_i - s q_i| is within d^2 (1 + s) r of
    ||a - s b||_1: within SWEEP_TOL / 10 at every s of the grid."""
    if spectrum is not None:
        _, p, q, r = spectrum
        if len(p) ** 2 * (1.0 + s.max()) * r <= SWEEP_TOL / 10:
            return p, q
    return pair


# read-only, so that no caller can change the grid every other call shares
_DEFAULT_GRID = default_grid()
_DEFAULT_GRID.setflags(write=False)


def _sweep_grid(grid) -> np.ndarray:
    s = _DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float).reshape(-1)
    if len(s) == 0:
        raise ValueError("empty s grid")
    if not (np.isfinite(s).all() and s.min() >= 0):
        raise ValueError("s must be finite and nonnegative")
    return s


def _sweep(groups, grid) -> list[tuple[list, list, np.ndarray, list]]:
    """Every pair of every group of pairs swept in one batch. Per group: the
    joint spectra of its pairs (None where a pair does not commute), their
    kinks, the grid merged with all of them, and each pair's norms there.

    The commutator gate is one stacked product per dimension, and every pair
    _sweep_operands leaves as matrices goes through one _hermitian_sweeps.
    """
    pairs = [pair for group in groups for pair in group]
    spectra = [None] * len(pairs)
    for idx, a, b in _by_dimension(pairs):
        for j in np.flatnonzero(_commuting(a, b)):
            spectra[idx[j]] = _joint_basis(a[j], b[j])
    out, dense, start = [], [], 0
    for group in groups:
        group_spectra = spectra[start : start + len(group)]
        start += len(group)
        kinks = list(map(_breakpoints, group_spectra))
        s = sorted_unique(np.concatenate([grid, *kinks]))
        norms = []
        for pair, spectrum in zip(group, group_spectra):
            a, b = _sweep_operands(pair, spectrum, s)
            if np.ndim(a) == 1:
                norms.append(sweep_norms(a, b, s))
            else:  # filled in below, from one batch
                dense.append((norms, len(norms), (a, b), s))
                norms.append(None)
        out.append((group_spectra, kinks, s, norms))
    batch = _hermitian_sweeps([x[2] for x in dense], [x[3] for x in dense])
    for (norms, k, _, _), row in zip(dense, batch):
        norms[k] = row
    return out


def gap_curve(rho_plus, rho_minus, grid=None) -> SweepCurve:
    """Sweep curve of a state pair on the given s grid.

    Commuting pairs get their exact kink locations merged into the grid and
    reported as breakpoints; between consecutive breakpoints the curve is
    linear, and the norms come from the joint eigenvalues whenever
    _sweep_operands admits them. Noncommuting pairs are sampled on the grid
    alone (the curve is still convex, which bounds it between samples).
    """
    rho_plus = as_matrix(rho_plus)
    rho_minus = as_matrix(rho_minus)
    _check_pair(rho_plus, rho_minus)
    ((_, (kinks,), s, (norms,)),) = _sweep([[(rho_plus, rho_minus)]], _sweep_grid(grid))
    return SweepCurve(s_values=s, norms=norms, breakpoints=kinks)


@dataclass
class ComparisonVerdict:
    relation: str
    witness_s: float | None = None
    gap: float | None = None
    method: str = "sweep-necessary"

    def __post_init__(self):
        if self.relation not in {
            "dominates",
            "dominated",
            "equivalent",
            "incomparable",
            "inconclusive",
        }:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.relation in {"dominated", "incomparable"} and self.witness_s is None:
            raise ValueError(f"{self.relation} requires a witness_s")


def bayes_binary_risk(rho_plus, rho_minus, prior: float) -> float:
    """Minimum Bayes risk for 0-1 loss over all binary measurements."""
    _check_prior(prior)
    rho_plus = as_matrix(rho_plus)
    rho_minus = as_matrix(rho_minus)
    _check_pair(rho_plus, rho_minus)
    return _binary_risk(rho_plus, rho_minus, prior)


def _check_prior(prior: float) -> None:
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must lie in [0,1], got {prior}")


def _check_pair(plus: np.ndarray, minus: np.ndarray) -> None:
    """Raise unless the two matrices share one shape and both are density
    matrices (one stacked density_mask)."""
    if plus.shape != minus.shape:
        raise ValueError("state pair must share one dimension")
    for name, ok in zip(("rho_plus", "rho_minus"), density_mask(np.array([plus, minus]))):
        if not ok:
            raise ValueError(f"{name} is not a density matrix")


def _binary_risk(plus: np.ndarray, minus: np.ndarray, prior: float) -> float:
    """Bayes risk of states the caller has already checked: two density
    matrices, or the paired joint eigenvalues of a commuting pair."""
    gap = prior * plus - (1.0 - prior) * minus
    norm = float(np.abs(gap).sum()) if gap.ndim == 1 else trace_norm(gap)
    return max(0.5 * (1.0 - norm), 0.0)


# ---------------------------------------------------------------------------
# CPTP feasibility


@dataclass(frozen=True)
class FarkasWitness:
    """Dual certificate that no channel maps the sources onto the targets.

    With Z = sum_k image_duals[k] (x) sources[k]^T + 1 (x) trace_dual and
    value = sum_k tr(image_duals[k] targets[k]) + tr(trace_dual), every Choi
    matrix W meeting the constraints has tr(Z W) = value, while W >= 0 and
    tr W = d_in force tr(Z W) >= d_in lambda_min(Z). The witness separates
    when value < d_in lambda_min(Z).
    """

    image_duals: list[np.ndarray]
    trace_dual: np.ndarray


@dataclass
class FeasibilityResult:
    feasible: bool
    choi: ChoiMatrix | None
    residual: float
    status: str  # "feasible", "infeasible" (with witness) or "unresolved"
    iterations: int
    witness: FarkasWitness | None = None


def _herm(m):
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@lru_cache(maxsize=16)
def _shape_constants(di: int, do: int) -> tuple[np.ndarray, ...]:
    """Orthonormal bases of the d_out and d_in Hermitian matrices, shape
    (d^2, d, d), and the partial-trace constraints 1 (x) F with their values
    tr F: read-only, as every cptp_feasible call of the shape shares them."""
    bases = []
    for d in (do, di):
        basis = np.zeros((d, d, d, d), dtype=complex)
        k, (i, j) = np.arange(d), np.triu_indices(d, 1)
        basis[k, k, k, k] = 1.0
        basis[i, j, i, j] = basis[i, j, j, i] = np.sqrt(0.5)
        basis[j, i, i, j] = -1j * np.sqrt(0.5)
        basis[j, i, j, i] = 1j * np.sqrt(0.5)
        bases.append(basis.reshape(d * d, d, d))
    block = np.einsum("ab,pij->paibj", np.eye(do), bases[1]).reshape(di * di, do * di, do * di)
    out = (*bases, block, np.trace(bases[1], axis1=1, axis2=2).real)
    for m in out:
        m.setflags(write=False)
    return out


def cptp_feasible(sources, targets) -> FeasibilityResult:
    """Search for a channel W with W(sources[k]) = targets[k] for all k.

    The Choi matrix is written W = V - mu 1 with V >= 0; trace preservation
    fixes mu = (tr V - d_in) / (d_in d_out), which leaves the standard-form
    semidefinite program min tr V subject to A'(V) = b', V >= 0 (A' the
    constraints on the traceless parts). A channel exists iff its optimum is
    at most d_in, and both it and its dual max b'.y s.t. 1 - A'*(y) >= 0 are
    strictly feasible. Dependent constraint rows are dropped once by an SVD;
    an inconsistent system is refuted by its least-squares residual (a
    linear Farkas certificate). The projection of V = 1 onto A'(V) = b' is
    tried as a channel first; failing that, one infeasible-start primal-dual
    interior-point method (HKM direction, Mehrotra predictor-corrector) from
    V = 1 closes the gap from both sides. The status is one of:

    - "feasible": choi is a verified Choi matrix, its constraint violation
      and most negative eigenvalue both within CPTP_STOP_TOL.
    - "infeasible": witness is a FarkasWitness that no channel meets the
      constraints, nor any Hermitian W within CPTP_TOL of them. It is the
      negated dual point, taken once b'.y > d_in, and returned only after
      that margin check.
    - "unresolved": neither was found within CPTP_MAX_ITERS iterations, or
      before round-off pushed an iterate off the cone; this is a numerical
      verdict, not a proof.

    feasible is True exactly for "feasible"; iterations counts the
    interior-point steps taken (0: the projected start was a channel), and
    residual is the violation of choi, the last iterate.
    """
    sources = [as_matrix(m) for m in sources]
    targets = [as_matrix(m) for m in targets]
    if not sources or len(sources) != len(targets):
        raise ValueError("need matching nonempty source/target lists")
    di = sources[0].shape[0]
    do = targets[0].shape[0]
    for m in sources:
        if m.shape != (di, di):
            raise ValueError("sources must share one dimension")
    for m in targets:
        if m.shape != (do, do):
            raise ValueError("targets must share one dimension")

    n = do * di
    src, tgt = np.array(sources), np.array(targets)
    e_out, e_in, trace_block, trace_b = _shape_constants(di, do)
    # constraint p is tr(A_p W) = b_p: the image constraints E (x) rho^T with
    # tr(E sigma), then the partial-trace constraints 1 (x) F with tr F
    a = np.concatenate([np.einsum("pab,kji->kpaibj", e_out, src).reshape(-1, n, n), trace_block])
    b = np.concatenate([np.einsum("pab,kba->kp", e_out, tgt).real.reshape(-1), trace_b])
    tr_a = np.trace(a, axis1=1, axis2=2).real
    a_flat = (a - (tr_a / n)[:, None, None] * np.eye(n)).reshape(len(b), -1)
    b_red = b - di * tr_a / n
    u, sv, vt = np.linalg.svd(np.hstack([a_flat.real, a_flat.imag]), full_matrices=False)
    r = int(np.sum(sv > 1e-10 * sv[0]))
    # the r independent rows are orthonormal; a dual y on them is lift @ y on
    # the original constraints
    lift = u[:, :r] / sv[:r]
    ops = vt[:r, : n * n] + 1j * vt[:r, n * n :]
    rhs = lift.T @ b_red

    def op(m):
        """Re tr(A_p m) for every independent row p."""
        return (ops @ m.T.reshape(-1)).real

    def adj(y):
        return (y @ ops).reshape(n, n)

    # the violation of w is max(errors(w), below_zero(w)); each test below
    # computes first the part that its candidates usually fail on
    def errors(w):
        w4 = w.reshape(do, di, do, di)
        image = np.einsum("aibj,kij->kab", w4, src) - tgt
        trace = np.einsum("aiaj->ij", w4) - np.eye(di)
        return max(float(np.abs(image).max()), float(np.abs(trace).max()))

    def below_zero(w):
        return -float(np.linalg.eigvalsh(_herm(w))[0])

    def witness(y):
        """The FarkasWitness -y on the original constraints, or None.

        Z = -sum_p y_p A_p has tr(Z W) = value = -b.y on every W meeting the
        constraints. A Hermitian W with constraint errors <= t = CPTP_TOL
        and eigenvalues >= -t has tr(Z W) <= value + t l1 (l1 the entrywise
        mass of the duals), negative mass <= n t and positive mass within
        [d_in (1 - t), d_in (1 + t) + n t], so
        tr(Z W) >= d_in lam - t (|lam| (d_in + n) + n |Z|) with
        lam = lambda_min(Z). A witness is returned only when value lies
        below that bound by t l1 (a margin >= 0, so the duals are built
        only below d_in lam), so it excludes every such W and every channel.
        """
        lam = np.linalg.eigvalsh(-np.tensordot(y, a, 1))
        value = -float(b @ y)
        if value >= di * float(lam[0]):
            return None
        k = len(sources) * do * do
        ys = list(np.tensordot(-y[:k].reshape(len(sources), -1), e_out, 1))
        trace_dual = np.tensordot(-y[k:], e_in, 1)
        z_norm = max(abs(float(lam[0])), abs(float(lam[-1])))
        l1 = sum(float(np.abs(m).sum()) for m in (*ys, trace_dual))
        margin = CPTP_TOL * (abs(float(lam[0])) * (di + n) + n * z_norm + l1)
        if value >= di * float(lam[0]) - margin:
            return None
        return FarkasWitness(ys, trace_dual)

    def result(w, status, it, wit=None, res=None):
        res = max(errors(w), below_zero(w)) if res is None else res
        return FeasibilityResult(status == "feasible", ChoiMatrix(w, din=di, dout=do), res, status, it, wit)

    eye = np.eye(n, dtype=complex)
    w = di / n * eye  # the completely depolarizing channel, which x = 1 gives
    # the part of b' outside the range of A' refutes an inconsistent system
    if (wit := witness(b_red - u[:, :r] @ (u[:, :r].T @ b_red))) is not None:
        return result(w, "infeasible", 0, wit)
    # the point of A'(V) = b' nearest to 1, as the rows of ops are orthonormal
    xp = eye + adj(rhs - op(eye))
    wp = xp - (float(np.trace(xp).real) - di) / n * eye
    if (neg := below_zero(wp)) <= CPTP_STOP_TOL and (res := max(errors(wp), neg)) <= CPTP_STOP_TOL:
        return result(wp, "feasible", 0, res=res)

    # the dual slack S = 1 - A'*(y) is kept exact, so the dual stays feasible
    x, s, y = eye, eye, np.zeros(r)
    for it in range(1, CPTP_MAX_ITERS + 1):
        try:  # the inverse Cholesky factors of x and s, stacked
            lxs = np.linalg.inv(np.linalg.cholesky(np.array([x, s])))
        except np.linalg.LinAlgError:  # round-off has pushed an iterate off the cone
            return result(w, "unresolved", it - 1)
        lxs_h = lxs.conj().swapaxes(1, 2)
        s_inv = lxs_h[1] @ lxs[1]
        rp = rhs - op(x)
        g = x @ ops.reshape(r, n, n) @ s_inv
        schur = (ops @ g.transpose(0, 2, 1).reshape(r, n * n).T).real
        comp = float(np.trace(x @ s).real) / n

        def direction(rc):
            # A(dX) = rp, A*(dy) + dS = 0, X dS + dX S = rc, dX symmetrized
            # (HKM); lstsq, as the Schur matrix nears singular at the optimum
            dy = np.linalg.lstsq(schur, rp - op(rc @ s_inv), rcond=None)[0]
            ds = -adj(dy)
            return _herm((rc - x @ ds) @ s_inv), dy, ds

        def steps(dx, ds, frac):
            # min(1, frac t) for x and for s, t the largest step keeping each PSD
            lam = np.linalg.eigvalsh(_herm(lxs @ np.array([dx, ds]) @ lxs_h))[:, 0]
            return [min(1.0, frac * (-1.0 / v)) if v < 0 else 1.0 for v in lam.tolist()]

        dx, dy, ds = direction(-x @ s)
        tp, td = steps(dx, ds, 1.0)
        comp_aff = float(np.trace((x + tp * dx) @ (s + td * ds)).real) / n
        sigma = min(1.0, comp_aff / comp) ** 3
        dx, dy, ds = direction(sigma * comp * eye - x @ s - dx @ ds)
        tp, td = steps(dx, ds, 0.98)
        x, y = x + tp * dx, y + td * dy
        s = _herm(eye - adj(y))

        w = x - (float(np.trace(x).real) - di) / n * eye
        if (err := errors(w)) <= CPTP_STOP_TOL and (res := max(err, below_zero(w))) <= CPTP_STOP_TOL:
            return result(w, "feasible", it, res=res)
        if rhs @ y > di and (wit := witness(lift @ y)) is not None:
            return result(w, "infeasible", it, wit)
    return result(w, "unresolved", CPTP_MAX_ITERS)


# ---------------------------------------------------------------------------
# Dominance


def _validate_family(name: str, fam) -> list[np.ndarray]:
    mats = [as_matrix(m) for m in fam]
    if len(mats) < 2:
        raise ValueError(f"{name} needs at least two members")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError(f"{name} members must share one dimension")
    if not density_mask(np.array(mats)).all():
        raise ValueError(f"{name} contains a non-density matrix")
    return mats


# Largest Choi dimension d_in d_out dominance_check sends to cptp_feasible.
CERTIFY_MAX_CHOI = 16


def _certified(pairs, certify: bool) -> str:
    """The weakest method showing each source pair at least as informative
    as its target, over (source, target, source commutes) triples:
    sweep-sufficient-commuting for a commuting source, else
    randomization-certificate when certify is set and cptp_feasible finds a
    channel (Choi dimension at most CERTIFY_MAX_CHOI), else sweep-necessary,
    returned at the first such pair without trying the rest."""
    method = "sweep-sufficient-commuting"
    for src, tgt, commuting in pairs:
        if commuting:
            continue
        if not (
            certify
            and src[0].shape[0] * tgt[0].shape[0] <= CERTIFY_MAX_CHOI
            and cptp_feasible(list(src), list(tgt)).feasible
        ):
            return "sweep-necessary"
        method = "randomization-certificate"
    return method


def dominance_check(
    candidate_outputs,
    challenger_outputs,
    grid=None,
    certify: bool = True,
) -> ComparisonVerdict:
    """Compare two output families over every member pair.

    Every pair is swept once, all of them in one _sweep batch, each on the
    grid and both its pairs' kinks; with diff the candidate curve minus the
    challenger's, the candidate beats where diff > SWEEP_TOL and the
    challenger where diff < -SWEEP_TOL. A pair where neither beats is a
    settled tie when it is identical (entries within 1e-12) or both of its
    pairs commute. The witness (witness_s, gap) is the challenger's largest
    margin over all pairs (first pair, then first s, on ties), reported only
    when the challenger beats somewhere. Then:

    - both sides beat somewhere: incomparable;
    - only the challenger: dominated when every other pair is a settled tie,
      its method the weakest over the pairs the challenger beats (commuting
      challenger pair, or a channel from challenger to candidate);
    - only the candidate: dominates when every other pair is a settled tie
      and every pair the candidate beats is certified (commuting candidate
      pair, or a channel from candidate to challenger), its method the
      weakest over all pairs;
    - neither: equivalent when every pair is a settled tie.

    Anything else is inconclusive. Settled ties are checked before any
    cptp_feasible call, and certification stops at the first pair that
    fails, so a verdict never claims more than its routes prove. With three
    or more members a positive verdict is pairwise evidence only.
    """
    cand = _validate_family("candidate_outputs", candidate_outputs)
    chal = _validate_family("challenger_outputs", challenger_outputs)
    if len(cand) != len(chal):
        raise ValueError("families must have matching member counts")
    grid = _sweep_grid(grid)

    # (source, target, source commutes) of the pairs each side beats; the
    # method of each tie pair, None unless it is settled
    wins, losses, ties = [], [], []
    witness_s = gap = None
    pairs = [((cand[i], cand[j]), (chal[i], chal[j])) for i, j in combinations(range(len(cand)), 2)]
    for (pc, ph), ((spec_c, spec_h), _, s, (norms_c, norms_h)) in zip(pairs, _sweep(pairs, grid)):
        diff = norms_c - norms_h
        beats, beaten = bool((diff > SWEEP_TOL).any()), bool((diff < -SWEEP_TOL).any())
        if beats:
            wins.append((pc, ph, spec_c is not None))
        if beaten:
            losses.append((ph, pc, spec_h is not None))
            k = int(np.argmax(-diff))
            if gap is None or -diff[k] > gap:
                witness_s, gap = float(s[k]), float(-diff[k])
        if not (beats or beaten):
            identical = pc[0].shape == ph[0].shape and all(
                max_abs(x - y) <= 1e-12 for x, y in zip(pc, ph)
            )
            if not (identical or (spec_c is not None and spec_h is not None)):
                ties.append(None)
            elif spec_c is not None:
                ties.append("sweep-sufficient-commuting")
            else:  # identical noncommuting pairs: the identity channel maps them
                ties.append("randomization-certificate")

    def verdict(relation, method="sweep-necessary"):
        return ComparisonVerdict(relation, witness_s=witness_s, gap=gap, method=method)

    if wins and losses:
        return verdict("incomparable")
    if None in ties:
        return verdict("inconclusive")
    if losses:
        return verdict("dominated", _certified(losses, certify))
    method = _certified(wins, certify)
    if method == "sweep-necessary":
        return verdict("inconclusive")
    strength = ("sweep-necessary", "randomization-certificate", "sweep-sufficient-commuting")
    return verdict("dominates" if wins else "equivalent", min([method, *ties], key=strength.index))
