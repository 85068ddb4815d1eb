"""Trace-norm comparison of state families.

The central object is the sweep curve s -> ||rho_plus - s rho_minus||_1 of a
pair of states. For each pair of members, weak domination of one curve by
another over all s >= 0 is necessary for the "always at least as
informative" ordering of the two output pairs; it is also sufficient when
the dominating pair commutes, and in general a channel mapping one pair onto
the other certifies the ordering directly. For pure sources a channel exists
iff |<psi0|psi1>| <= F(sigma0, sigma1) (Uhlmann), which decides every pair
whose two sides differ by more than CPTP_STOP_TOL (_overlap_rule); only the
pairs within that margin, or with a mixed source, go to cptp_feasible.
dominance_check sweeps every member pair once, every pair of a comparison
in one batch: the challenger beating a pair anywhere refutes "dominates",
the candidate beating one refutes "dominated", and the side that beats wins
only when each pair it beats is certified. With three or more members a
positive verdict is pairwise evidence, not one channel for the whole family.

A commuting pair's curve is sum_i |p_i - s q_i| over its joint eigenvalues
(_joint_spectrum, the package's one joint-eigenbasis routine); it is read
that way whenever the joint eigenbasis is accurate enough to prove the
closed form within SWEEP_TOL / 10 (_sweep_operands). Any other pair's curve
is |tr a - s tr b| wherever a - s b is proven semidefinite within
SWEEP_TOL / 10, and a stacked eigendecomposition covers the indefinite
middle of the grid (_hermitian_sweeps). _sweep runs each step once for a
whole batch of pairs, per dimension: one commutator gate, one joint eigh
for the commuting pairs (_joint_spectra), and for the others one
semidefinite guess and two rounds of stacked eigvalsh (in slabs): the
certifying points and a stride of each middle, then the points the caller
wants. A curve wants every point; a verdict leaves out the points that the
curves' convexity shows cannot change it (_convex_bounds). Every
comparison of two sweep curves, the rotated measurement certificate's
included, is a dominance_check.
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


def sweep_norms(p, q, s) -> np.ndarray:
    """sum_i |p_i - s_k q_i| for every s_k: ||a - s_k b||_1 of a commuting
    pair from its paired joint eigenvalues (p, q). Any other Hermitian pair
    takes _hermitian_sweeps."""
    s = np.asarray(s, dtype=float).reshape(-1)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return np.abs(p - s[:, None] * q).sum(axis=1)


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


# Stride of a sweep's first round: every _FIRST_STRIDE-th point of each
# pair's indefinite middle, and its last point, is stacked before a
# verdict's convexity bounds pick the rest (a curve takes all). Over both
# rounds, a bundle of the sweep-verdicts comparisons (unital, gp, damp;
# seeds 1-5) stacked 758, 625, 565, 535, 535 and 570 matrices at strides 3,
# 4, 5, 6, 8 and 10, and 2049 with every point computed.
_FIRST_STRIDE = 6


def _norm_error(d, fro_a, fro_b) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) with alpha + beta s the stated bound on |computed -
    exact| of ||a - s b||_1 for d x d pairs (a, b) of Frobenius norms fro_a
    and fro_b: SWEEP_TOL / 10, the certificate of a closed-form value, plus
    d (2 d + 3) eps S, S = fro_a + s fro_b, the round-off of an eigvalsh sum
    to first order.
    Forming the Hermitian part of a - s b moves it by at most 3 eps S in
    Frobenius norm, eigvalsh moves each eigenvalue by at most d eps S more
    (LAPACK's backward error with the customary factor d), and summing d
    absolute values adds (d - 1) eps of their sum, which is at most sqrt(d)
    S. The closed forms sum_i |p_i - s q_i| and |tr a - s tr b| round less.
    """
    c = d * (2 * d + 3) * np.finfo(float).eps
    return SWEEP_TOL / 10 + c * fro_a, c * fro_b


def _convex_bounds(s, f, alpha, beta, floor) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per row: bounds on what computing ||a - s_j b||_1 would give
    at each point f leaves out (NaN), and f itself where it is computed.

    Rows hold ascending grids (and padding past their ends, whose bounds are
    not read), and floor = |tr a - s tr b|. The curve is convex in s, so
    with the nearest computed points l1 < l2 left of s_j and r1 < r2 right
    of it:

    - above: the chord from (s_l2, f_l2) to (s_r1, f_r1);
    - below: the secant through l1 and l2 extended right to s_j, the secant
      through r1 and r2 extended left, and floor (the trace norm of X is at
      least |tr X|).

    A computed f_i is within e_i = alpha + beta s_i of the exact norm
    (_norm_error, one row each), so the chord with weights w, 1 - w moves
    by at most w e_l2 + (1 - w) e_r1 = e_j, the left secant, extended by
    t = (s_j - s_l2) / (s_l2 - s_l1), by (1 + t) e_l2 + t e_l1, the right
    one alike, and the floor by e_j; each bound is widened by that, and by
    e_j more, as it bounds a computed value. A missing neighbour leaves its
    bound out (inf above, -inf below). Both bounds hold for the exact norm
    before that last widening, so lo < hi wherever f is NaN.
    """
    m = f.shape[1]
    s, f, floor = s.reshape(-1), f.reshape(-1), floor.reshape(-1)
    e = np.repeat(alpha, m) + np.repeat(beta, m) * s
    gap = np.isnan(f)
    known, out = np.flatnonzero(~gap), np.flatnonzero(gap)
    # flat indices of the computed neighbours l2, r1 (the near pair) and l1,
    # r2 (the far pair) of each point left out, -1 where its row has none
    at = np.searchsorted(known, out) + 2
    near = np.concatenate([[-1, -1], known, [-1, -1]])[at + np.array([[-1], [0], [-2], [1]])]
    near[near // m != out // m] = -1
    ok = near >= 0
    s_n, f_n, e_n = s[near], f[near], e[near]
    q, e_q = s[out], e[out]
    lo, hi = f.copy(), f.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = f_n[0] + (f_n[1] - f_n[0]) * (q - s_n[0]) / (s_n[1] - s_n[0])
        hi[out] = np.where(ok[0] & ok[1], chord + 2 * e_q, np.inf)
        # the secants through l1, l2 and through r2, r1, extended by t
        t = (q - s_n[:2]) / (s_n[:2] - s_n[2:])
        line = f_n[:2] + (f_n[:2] - f_n[2:]) * t - (1 + t) * e_n[:2] - t * e_n[2:]
        line = np.where(ok[2:], line, -np.inf).max(axis=0)
    lo[out] = np.maximum(floor[out] - e_q, line) - e_q
    return lo.reshape(-1, m), hi.reshape(-1, m)


def _hermitian_sweeps(pairs, grids, wanted=None) -> list[np.ndarray]:
    """||a - s_k b||_1 of each Hermitian pair (a, b) at the s_k of its
    ascending grid: |tr a - s_k tr b| at the s_k > 0 outside the indefinite
    middle that _semidefinite_ends guesses, stacked eigvalsh at the rest of
    every pair of a dimension, in two rounds.

    The first round stacks each guessed pair's s = 0 and the last point of
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
    SWEEP_TOL / 10, the rule _sweep_operands applies to commuting pairs; a
    pair that fails it keeps its closed sides NaN, like its middle, and the
    middle of a pair whose guess closes nothing is its whole grid. The same
    stack holds every _FIRST_STRIDE-th other middle point of each pair,
    plus its last.

    The second round stacks every point still NaN that the caller wants:
    all of them when wanted is None. Otherwise wanted gets, per pair, the
    (lo, hi) of _convex_bounds: equal to the norm where it is computed, and
    where it is not, bounds on what computing it would give. As s ->
    ||a - s b||_1 is convex (a norm of an affine map), it lies below the
    chord between the computed neighbours of a point and above the secants
    through two computed points on either side, extended to it, and above
    |tr a - s tr b|; each bound is widened by _norm_error of every computed
    value it uses, and of the point itself. wanted returns, per pair, the
    points to compute; every other point is NaN. A stacked point gets the
    same bits in any stack, so the values depend neither on the split, nor
    on the rounds, nor on the other pairs of the batch.
    """
    rounds = []
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
        # the grid points that the certifying rows compute: s = 0, s_k, s_m
        at_ends = [valid[g] & (s[g] == x) for x in (0.0, s_k[g], s_m[g])]
        rank = np.cumsum(middle, axis=1) - 1
        first = middle & ((rank % _FIRST_STRIDE == 0) | (rank == rank[:, -1:]))
        first[g] &= ~(at_ends[0] | at_ends[1] | at_ends[2])
        # each guessed pair's certifying points lead the stack; with no s on
        # the NSD side, a stands in for a - s_m b and is not read
        ends = np.hstack([np.zeros_like(s_k), s_k, np.where(np.isinf(s_m), 0.0, s_m)])[g]
        pair = np.concatenate([np.repeat(g, 3), np.nonzero(first)[0]])
        lam = _stacked_eigvalsh(a, b, pair, np.concatenate([ends.reshape(-1), s[first]]))
        out = np.full(s.shape, np.nan)
        out[first] = np.abs(lam[3 * len(g) :]).sum(axis=1)
        e = lam[: 3 * len(g)].reshape(-1, 3, d)
        for c, mask in enumerate(at_ends):
            rows, cols = np.nonzero(mask)
            out[g[rows], cols] = np.abs(e[rows, c]).sum(axis=1)
        delta_a = np.maximum(-e[:, 0, 0], 0.0)
        # the NSD bound is 0 where there is no NSD side (s_m = inf)
        err = np.maximum(
            2 * d * np.maximum(delta_a, -e[:, 1, 0]),
            2 * d * (s[g].max(axis=1, initial=0.0) / s_m[g, 0]) * (np.maximum(e[:, 2, -1], 0.0) + delta_a),
        )
        tr_a, tr_b = (np.trace(m, axis1=1, axis2=2).real[:, None] for m in (a, b))
        floor = np.abs(tr_a - s * tr_b)
        # a failed certificate leaves its closed sides to the second round
        closed[g[err > SWEEP_TOL / 10]] = False
        out[closed] = floor[closed]
        rounds.append((idx, a, b, s, valid, out, lengths, floor))
    masks = None
    if wanted is not None:
        bounds = [None] * len(pairs)
        for idx, a, b, s, _, out, lengths, floor in rounds:
            fro = (np.linalg.norm(m, axis=(1, 2)) for m in (a, b))
            lo, hi = _convex_bounds(s, out, *_norm_error(a.shape[1], *fro), floor)
            for i, row_lo, row_hi, k in zip(idx, lo, hi, lengths):
                bounds[i] = row_lo[:k], row_hi[:k]
        masks = wanted(bounds)
    norms = [None] * len(pairs)
    for idx, a, b, s, valid, out, lengths, _ in rounds:
        more = valid & np.isnan(out)
        if masks is not None:
            more[valid] &= np.concatenate([masks[i] for i in idx])
        if more.any():
            out[more] = np.abs(_stacked_eigvalsh(a, b, np.nonzero(more)[0], s[more])).sum(axis=1)
        for i, row, k in zip(idx, out, lengths):
            norms[i] = row[:k]
    return norms


def _commuting(a, b) -> np.ndarray:
    """Whether a and b commute within COMMUTE_TOL, pair by pair for stacks."""
    return np.abs(a @ b - b @ a).max(axis=(-2, -1)) <= COMMUTE_TOL


def _joint_spectrum(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """(V, p, q, r) for a Hermitian pair that commutes within COMMUTE_TOL,
    None for any other pair: one commutator gate, then _joint_spectra on a
    stack of one, so the pair gets the bits it gets in any _sweep batch.
    """
    a, b = as_matrix(a)[None], as_matrix(b)[None]
    return _joint_spectra(a, b)[0] if _commuting(a, b)[0] else None


def _joint_spectra(a, b) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """(V, p, q, r) of each commuting Hermitian pair of the stacks a and b.

    One stacked eigh diagonalizes every b, and p_i = Re c^dag a c for each of
    its eigenvector columns c is one stacked product. Only inside a
    (near-)degenerate eigenspace of b, eigenvalues within 1e-8 of its scale,
    is a rediagonalized, pair by pair, for its columns and their p. V holds
    the joint basis vectors as columns, p and q the eigenvalues of a and of
    b paired by column, and r = max |V^dag m V - diag(lambda_m)| over both
    members m (one stacked product each): how far V is from diagonalizing
    them, which each caller bounds before it trusts (p, q).
    """
    q, v = np.linalg.eigh(_herm(b))
    vc = v.swapaxes(1, 2)[..., None]  # each eigenvector as a d x 1 column
    p = (vc.conj().swapaxes(2, 3) @ a[:, None] @ vc)[..., 0, 0].real
    split = np.diff(q, axis=1) > 1e-8 * np.maximum(np.abs(q).max(axis=1, keepdims=True), 1.0)
    for j in np.flatnonzero(~split.all(axis=1)):
        for cols in np.split(np.arange(q.shape[1]), np.flatnonzero(split[j]) + 1):
            if len(cols) > 1:
                c = v[j][:, cols]
                p[j, cols], w = hermitian_eig(dagger(c) @ a[j] @ c)
                v[j][:, cols] = c @ w
    vh, eye = v.conj().swapaxes(1, 2), np.eye(q.shape[1])
    r = np.max([np.abs(vh @ m @ v - lam[..., None] * eye).max(axis=(1, 2)) for m, lam in ((a, p), (b, q))], axis=0)
    return [(vj, pj, qj, float(rj)) for vj, pj, qj, rj in zip(v, p, q, r)]


def _breakpoints(spectrum) -> np.ndarray:
    """Kinks of a commuting pair's curve (ratios p_i / q_i of joint
    eigenvalues); a noncommuting pair (spectrum None) gets none.

    A q_i counts as zero only at round-off of the pair's scale, d (2 d + 3)
    eps max(1, max |q|) (the beta of _norm_error at fro_b = that scale), so
    a q_i of 1e-13 keeps its kink at s = 1e13 p_i. A q_i below that,
    about 3e-15 for qubits, is no kink: no floating-point route tells it
    from zero.
    """
    if spectrum is None:
        return np.array([])
    _, p, q, _ = spectrum
    mask = q > _norm_error(len(q), 0.0, max(1.0, np.abs(q).max()))[1]
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


def _sweep(groups, grid, undecided=None) -> list[tuple[list, list, np.ndarray, list]]:
    """Every pair of every group of pairs swept in one batch. Per group: the
    joint spectra of its pairs (None where a pair does not commute), their
    kinks, the grid merged with all of them, and each pair's norms there.

    Per dimension, the commutator gate is one stacked product and the pairs
    it passes get their joint spectra from one _joint_spectra (one stacked
    eigh); every pair _sweep_operands leaves as matrices goes through one
    _hermitian_sweeps (one semidefinite guess and one eigvalsh per round).
    With undecided None every norm is computed. Otherwise
    undecided(grids, bounds) gets each group's merged grid and, per group
    and pair, the (lo, hi) of _hermitian_sweeps' first round (a closed-form
    pair's norms as both), and returns, per group, the points of its grid
    whose norms the caller needs; the others may be NaN.
    """
    pairs = [pair for group in groups for pair in group]
    spectra = [None] * len(pairs)
    for idx, a, b in _by_dimension(pairs):
        gate = np.flatnonzero(_commuting(a, b))
        for j, spectrum in zip(gate, _joint_spectra(a[gate], b[gate])):
            spectra[idx[j]] = spectrum
    out, dense, start = [], [], 0
    for g, group in enumerate(groups):
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
                dense.append((g, len(norms), (a, b), s))
                norms.append(None)
        out.append((group_spectra, kinks, s, norms))

    def wanted(bounds):
        group_bounds = [[(x, x) for x in norms] for *_, norms in out]
        for (g, k, _, _), pair_bounds in zip(dense, bounds):
            group_bounds[g][k] = pair_bounds
        masks = undecided([x[2] for x in out], group_bounds)
        return [masks[g] for g, *_ in dense]

    rule = None if undecided is None else wanted
    batch = _hermitian_sweeps([x[2] for x in dense], [x[3] for x in dense], rule)
    for (g, k, _, _), row in zip(dense, batch):
        out[g][3][k] = row
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


def _round_off_zero(lam) -> np.ndarray:
    """Which of the eigenvalues lam of a Hermitian r x r matrix count as
    zero: |lambda| <= eps r max |lambda|, the cut lstsq(rcond=None) and
    matrix_rank make on singular values. An eigensolver moves every
    eigenvalue by up to about r eps times the largest, so none below the
    cut is told from an exact zero."""
    mag = np.abs(lam)
    return mag <= np.finfo(float).eps * mag.shape[-1] * mag.max(axis=-1, keepdims=True, initial=0.0)


def _support(m) -> np.ndarray | None:
    """Orthonormal columns spanning the eigenvectors of a sum m of states
    whose eigenvalues _round_off_zero keeps: the identity when every
    eigenvalue is kept, and None when none is, or a kept one is negative
    (m is no sum of states, so no support to compress to)."""
    lam, v = np.linalg.eigh(_herm(m))
    keep = ~_round_off_zero(lam)
    if not keep.any() or lam[keep][0] <= 0:
        return None
    return np.eye(len(m)) if keep.all() else v[:, keep]


def _face(src, tgt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Pi, mu, U): the projectors Pi_k onto the kernels of the targets
    (their eigenvalues that _round_off_zero cuts), and the ascending
    eigenvalues mu and eigenvectors U of M = sum_k Pi_k (x) src_k^T. The
    columns of U where _round_off_zero cuts mu span the face of every
    channel. mu = 0 and U = 1 when no target is singular, or when M has a
    negative eigenvalue (a source that is no state, so no face)."""
    lam, vec = np.linalg.eigh(_herm(tgt))
    zero = _round_off_zero(lam)
    pis = (vec * zero[:, None, :]) @ vec.conj().swapaxes(1, 2)
    n = tgt.shape[1] * src.shape[1]
    if zero.any():
        mu, u = np.linalg.eigh(_farkas_z(pis, np.zeros(src.shape[1:]), src))
        if mu[0] > 0 or _round_off_zero(mu)[0]:
            return pis, mu, u
    return pis, np.zeros(n), np.eye(n)


def _errors(w, src, tgt) -> float:
    """The largest constraint error of a Choi matrix w: its images of the
    sources against the targets, and its partial trace against 1. The
    violation of w is max(_errors(w), _below_zero(w)); each test computes
    first the part that its candidates usually fail on."""
    di, do = src.shape[1], tgt.shape[1]
    w4 = w.reshape(do, di, do, di)
    image = np.einsum("aibj,kij->kab", w4, src) - tgt
    trace = np.einsum("aiaj->ij", w4) - np.eye(di)
    return max(float(np.abs(image).max()), float(np.abs(trace).max()))


def _below_zero(w) -> float:
    return -float(np.linalg.eigvalsh(_herm(w))[0])


def _farkas_z(ys, trace_dual, src) -> np.ndarray:
    """Z = sum_k ys[k] (x) src[k]^T + 1 (x) trace_dual of a FarkasWitness."""
    do, di = ys[0].shape[0], src.shape[1]
    z = np.einsum("kab,kji->aibj", ys, src) + np.einsum("ab,ij->aibj", np.eye(do), trace_dual)
    return z.reshape(do * di, do * di)


def _margin_holds(lam, value, duals, di) -> bool:
    """The witness margin test on Z with ascending eigenvalues lam and the
    value of its duals (the witness of _interior_point derives it)."""
    n = len(lam)
    z_norm = max(abs(float(lam[0])), abs(float(lam[-1])))
    l1 = sum(float(np.abs(m).sum()) for m in duals)
    margin = CPTP_TOL * (abs(float(lam[0])) * (di + n) + n * z_norm + l1)
    return value < di * float(lam[0]) - margin


def cptp_feasible(sources, targets) -> FeasibilityResult:
    """Search for a channel W with W(sources[k]) = targets[k] for all k.

    Two exact reductions come first (facial reduction):

    - the support S of sum_k sources[k] (_support, with the round-off cut
      of _round_off_zero): a channel from S extends to the whole space, so
      the sources are compressed to Q_S^dag sources[k] Q_S;
    - the face of the targets' kernels (_face): with Pi_k the projector
      onto the kernel of targets[k], every channel has tr((Pi_k (x)
      rho_k^T) W) = tr(Pi_k sigma_k) = 0, so W >= 0 vanishes on the range
      of M = sum_k Pi_k (x) rho_k^T and is Q W_r Q^dag, Q spanning the
      kernel of M. This also confines the outputs to the support of
      sum_k targets[k].

    When either reduces the Choi dimension, _interior_point solves the
    compressed problem on the face, at dimension r = dim ker M, and its
    result is lifted back:

    - a channel J_c to J = (1 (x) conj Q_S) J_c (1 (x) conj Q_S)^dag +
      1 / d_out (x) (1 - conj P_S), which sends the part of an input
      outside S to the maximally mixed state;
    - a witness (Y_c, F_c), which separates only on the face, to Y_k =
      Y_c,k + t Pi_k: the added term lies in the span of the constraints,
      has value sum_k t tr(Pi_k sigma_k) = 0, and with t large enough
      (_kernel_weight) lifts lambda_min(Z) on the range of M to about its
      value on the face. An empty face (r = 0) has the witness Y_k = Pi_k,
      F_c = 0. With lambda_c = lambda_min(Z_c) the trace dual becomes F =
      conj Q_S F_c Q_S^T + lambda_c (1 - conj P_S), which keeps
      lambda_min(Z) = lambda_c and adds lambda_c (d_in - r_s) to both
      sides of the separation.

    A lifted channel is kept only if its violation at full size is within
    CPTP_STOP_TOL, and a lifted witness only if it passes the full-size
    margin test; anything else, an unresolved reduced solve included, is
    solved again at full size on the whole cone. No status rests on an
    unchecked lift. Each solve projects 1 onto the linear constraints,
    tries that point as a channel, and otherwise takes interior-point
    steps from it, shifted to be positive definite (_interior_point). The
    status is one of:

    - "feasible": choi is a verified Choi matrix, its constraint violation
      and most negative eigenvalue both within CPTP_STOP_TOL.
    - "infeasible": witness is a FarkasWitness that no channel meets the
      constraints, nor any Hermitian W within CPTP_TOL of them.
    - "unresolved": neither was found within CPTP_MAX_ITERS iterations, or
      before round-off pushed an iterate off the cone; this is a numerical
      verdict, not a proof.

    feasible is True exactly for "feasible"; iterations counts the
    interior-point steps of every solve the call made (the reduced one,
    and the full one when the lift failed its check), and residual is the
    full-size violation of choi, the last iterate.
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
    src, tgt = np.array(sources), np.array(targets)
    if (qs := _support(src.sum(axis=0))) is None:
        return _interior_point(src, tgt, np.eye(di * do))
    src_c = qs.conj().T @ src @ qs
    pis, mu, u = _face(src_c, tgt)
    face = u[:, _round_off_zero(mu)]
    if face.shape[1] == di * do:
        return _interior_point(src, tgt, face)
    small = _interior_point(src_c, tgt, face) if face.size else None
    if (lifted := _lifted(small, qs, pis, mu, u, src_c, src, tgt)) is not None:
        return lifted
    full = _interior_point(src, tgt, np.eye(di * do))
    full.iterations += small.iterations if small else 0
    return full


def _lifted(small, qs, pis, mu, u, src_c, src, tgt) -> FeasibilityResult | None:
    """The result of a reduced solve lifted to full size, as cptp_feasible
    describes, or None when it is unresolved or its lift fails the
    full-size check; small is None when the face is {0}."""
    di, do = src.shape[1], tgt.shape[1]
    # 1 - P_S conjugated, as the input factor of a Choi matrix holds transposes
    off_s = np.eye(di) - (qs @ qs.conj().T).conj()
    if small is None:
        w, steps, ys, f_c = np.eye(di * do) / do, 0, pis, np.zeros((qs.shape[1],) * 2)
    elif small.status == "unresolved":
        return None
    else:
        q = (np.eye(do)[:, None, :, None] * qs.conj()[None, :, None, :]).reshape(do * di, -1)
        tau = np.einsum("ab,ij->aibj", np.eye(do) / do, off_s).reshape(do * di, do * di)
        w, steps = q @ small.choi.matrix @ q.conj().T + tau, small.iterations
        if small.status == "feasible":
            err = _errors(w, src, tgt)
            if err <= CPTP_STOP_TOL and (res := max(err, _below_zero(w))) <= CPTP_STOP_TOL:
                return FeasibilityResult(True, ChoiMatrix(w, din=di, dout=do), res, "feasible", steps)
            return None
        ys, f_c = np.array(small.witness.image_duals), small.witness.trace_dual
        ys = _herm(ys + _kernel_weight(_farkas_z(ys, f_c, src_c), mu, u, pis, di, do * di) * pis)
    lam_c = float(np.linalg.eigvalsh(_farkas_z(ys, f_c, src_c))[0])
    f = _herm(qs.conj() @ f_c @ qs.T + lam_c * off_s)
    lam = np.linalg.eigvalsh(_farkas_z(ys, f, src))
    value = float(np.einsum("kab,kba->", ys, tgt).real) + float(np.trace(f).real)
    if not _margin_holds(lam, value, (*ys, f), di):
        return None
    res, wit = max(_errors(w, src, tgt), _below_zero(w)), FarkasWitness(list(ys), f)
    return FeasibilityResult(False, ChoiMatrix(w, din=di, dout=do), res, "infeasible", steps, wit)


def _kernel_weight(z, mu, u, pis, di, n) -> float:
    """The weight t of M in the lift Z + t M of a witness Z that separates
    on the face, M = sum_k Pi_k (x) src_k^T with eigenvalues mu and
    eigenvectors U (_face); 0 when the face is the whole space.

    On U, Z has the blocks Z_f on the face, B beside it and Z_m on the range
    of M, where M is at least m = lambda_min(M on its range). By the Schur
    complement, Z + t M >= (lambda_min(Z_f) - delta) 1 once t m >=
    lambda_min(Z_f) - delta - lambda_min(Z_m) + |B|^2 / delta, |B| the
    spectral norm. The margin test grows by about CPTP_TOL t K, K = n
    max(mu) + sum_k |Pi_k|_1, and the separation shrinks by d_in delta;
    delta = |B| sqrt(CPTP_TOL K / (d_in m)) makes the two losses equal at
    their least sum."""
    r = int(_round_off_zero(mu).sum())
    if r == len(mu):
        return 0.0
    z = u.conj().T @ z @ u
    m = float(mu[r])
    scale = np.sqrt(CPTP_TOL * (n * float(mu[-1]) + float(np.abs(pis).sum())) / (di * m))
    b = float(np.linalg.norm(z[:r, r:], 2))
    lam_f, lam_m = (float(np.linalg.eigvalsh(block)[0]) for block in (z[:r, :r], z[r:, r:]))
    return max(0.0, (lam_f - lam_m + b / scale - b * scale) / m)


def _interior_point(src, tgt, face) -> FeasibilityResult:
    """cptp_feasible on stacked sources and targets at their own size, on
    the face W = Q W_r Q^dag of the orthonormal columns Q = face (the
    identity for the whole cone), r = face.shape[1].

    The face's constraints are tr(Q^dag A_p Q W_r) = b_p. W_r is written
    V - mu 1_r with V >= 0; trace preservation fixes mu = (tr V - d_in) /
    r, which leaves the standard-form semidefinite program min tr V
    subject to A'(V) = b', V >= 0 (A' the constraints on their parts
    traceless relative to 1_r). A channel on the face exists iff its
    optimum is at most d_in, and both it and its dual max b'.y s.t. 1 -
    A'*(y) >= 0 are strictly feasible. Dependent constraint rows are
    dropped once by an SVD; an inconsistent system is refuted by its
    least-squares residual (a linear Farkas certificate). The projection P
    of 1 onto A'(V) = b' is tried as a channel first. The rows of A' are
    traceless, so V_0 = P + (d_in / r - lambda_min(P)) 1 meets the
    constraints too and has lambda_min(V_0) = d_in / r, the eigenvalue of
    the maximally mixed Choi matrix on the face (on the whole cone, of the
    completely depolarizing channel). From V_0, y = 0 and S = 1, strictly
    feasible on both sides, a primal-dual interior-point method (HKM
    direction, Mehrotra predictor-corrector) closes the duality gap; the
    constraints then hold to round-off at every iterate, so each step
    tests lambda_min(W) before the constraint errors, which are those of
    Q W_r Q^dag. A witness is the negated dual point, taken once b'.y >
    d_in, and returned only after the margin check on the face; it
    separates at full size when the face is the whole cone. iterations
    counts the steps completed: 0 for a projected start that was a
    channel, and for round-off that stops the first step.
    """
    di, do = src.shape[1], tgt.shape[1]
    n = face.shape[1]
    e_out, e_in, trace_block, trace_b = _shape_constants(di, do)
    # constraint p is tr(A_p W) = b_p: the image constraints E (x) rho^T with
    # tr(E sigma), then the partial-trace constraints 1 (x) F with tr F
    a = np.concatenate([np.einsum("pab,kji->kpaibj", e_out, src).reshape(-1, do * di, do * di), trace_block])
    a = face.conj().T @ a @ face
    b = np.concatenate([np.einsum("pab,kba->kp", e_out, tgt).real.reshape(-1), trace_b])
    tr_a = np.trace(a, axis1=1, axis2=2).real
    a_flat = (a - (tr_a / n)[:, None, None] * np.eye(n)).reshape(len(b), -1)
    b_red = b - di * tr_a / n
    u, sv, vt = np.linalg.svd(np.hstack([a_flat.real, a_flat.imag]), full_matrices=False)
    r = int(np.sum(sv > 1e-10 * sv[0]))
    # the r independent rows are orthonormal; a dual y on them is lift @ y on
    # the original constraints. A'(m) = Re(ops_t @ m.ravel()), as the rows of
    # ops_t are the transposed rows of ops; A'*(y) = y @ ops.
    lift = u[:, :r] / sv[:r]
    ops = vt[:r, : n * n] + 1j * vt[:r, n * n :]
    ops_m = ops.reshape(r, n, n)
    ops_t = ops_m.transpose(0, 2, 1).reshape(r, n * n)
    rhs = lift.T @ b_red

    def witness(y):
        """The FarkasWitness -y on the original constraints, or None.

        Z = -sum_p y_p A_p has tr(Z W) = value = -b.y on every W meeting the
        constraints. A Hermitian W with constraint errors <= t = CPTP_TOL
        and eigenvalues >= -t has tr(Z W) <= value + t l1 (l1 the entrywise
        mass of the duals), negative mass <= n t and positive mass within
        [d_in (1 - t), d_in (1 + t) + n t], so
        tr(Z W) >= d_in lam - t (|lam| (d_in + n) + n |Z|) with
        lam = lambda_min(Z). A witness is returned only when value lies
        below that bound by t l1 (_margin_holds; a margin >= 0, so the
        duals are built only below d_in lam), so it excludes every such W
        and every channel.
        """
        lam = np.linalg.eigvalsh(-np.tensordot(y, a, 1))
        value = -float(b @ y)
        if value >= di * float(lam[0]):
            return None
        k = len(src) * do * do
        ys = list(np.tensordot(-y[:k].reshape(len(src), -1), e_out, 1))
        trace_dual = np.tensordot(-y[k:], e_in, 1)
        return FarkasWitness(ys, trace_dual) if _margin_holds(lam, value, (*ys, trace_dual), di) else None

    def result(w, status, it, wit=None, res=None):
        w = face @ w @ face.conj().T
        res = max(_errors(w, src, tgt), _below_zero(w)) if res is None else res
        return FeasibilityResult(status == "feasible", ChoiMatrix(w, din=di, dout=do), res, status, it, wit)

    eye = np.eye(n, dtype=complex)
    w = di / n * eye  # the maximally mixed Choi matrix on the face
    # the part of b' outside the range of A' refutes an inconsistent system
    if (wit := witness(b_red - u[:, :r] @ (u[:, :r].T @ b_red))) is not None:
        return result(w, "infeasible", 0, wit)
    # the point P of A'(V) = b' nearest to 1, as the rows of ops are
    # orthonormal, and its channel W_P = P - mu 1, tried first
    xp = eye + ((rhs - (ops_t @ eye.reshape(-1)).real) @ ops).reshape(n, n)
    wp = xp - (float(np.trace(xp).real) - di) / n * eye
    if (neg := _below_zero(wp)) <= CPTP_STOP_TOL and (
        res := max(_errors(face @ wp @ face.conj().T, src, tgt), neg)
    ) <= CPTP_STOP_TOL:
        return result(wp, "feasible", 0, res=res)

    # the steps start at V_0 = W_P + (d_in / n + neg) 1, which is P shifted
    # by (d_in / n - lambda_min(P)) 1; the dual slack S = 1 - A'*(y) is kept
    # exact, so the dual stays feasible
    x, s, y = _herm(wp) + (di / n + neg) * eye, eye, np.zeros(r)
    for it in range(1, CPTP_MAX_ITERS + 1):
        try:  # the inverse Cholesky factors of x and s, stacked
            lxs = np.linalg.inv(np.linalg.cholesky(np.array([x, s])))
        except np.linalg.LinAlgError:  # round-off has pushed an iterate off the cone
            return result(w, "unresolved", it - 1)
        lxs_h = lxs.conj().swapaxes(1, 2)
        s_inv = lxs_h[1] @ lxs[1]
        xs = x @ s
        comp = float(np.trace(xs).real) / n
        # one eigendecomposition of the Schur matrix serves both Newton
        # solves; it nears singular at the optimum, so the eigenvalues that
        # _round_off_zero cuts are left out, as lstsq would
        schur = (ops_t @ (x @ ops_m @ s_inv).reshape(r, n * n).T).real
        lam, vec = np.linalg.eigh(_herm(schur))
        inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=~_round_off_zero(lam))
        rp = rhs - (ops_t @ x.reshape(-1)).real
        # predictor, then corrector: A(dX) = rp, A*(dy) + dS = 0,
        # X dS + dX S = rc, dX symmetrized (HKM); each step is min(1, frac t)
        # for x and for s, t the largest step keeping each PSD
        rc, frac = -xs, 1.0
        for corrector in (False, True):
            dy = vec @ (inv_lam * (vec.T @ (rp - (ops_t @ (rc @ s_inv).reshape(-1)).real)))
            ds = -(dy @ ops).reshape(n, n)
            dx = _herm((rc - x @ ds) @ s_inv)
            low = np.linalg.eigvalsh(lxs @ np.array([dx, ds]) @ lxs_h)[:, 0]
            tp, td = (min(1.0, frac * (-1.0 / v)) if v < 0 else 1.0 for v in low.tolist())
            if not corrector:
                comp_aff = float(np.trace((x + tp * dx) @ (s + td * ds)).real) / n
                sigma = min(1.0, comp_aff / comp) ** 3
                rc, frac = sigma * comp * eye - xs - dx @ ds, 0.98
        x, y = x + tp * dx, y + td * dy
        s = eye - (y @ ops).reshape(n, n)

        # W is Hermitian, as x is
        w = x - (float(np.trace(x).real) - di) / n * eye
        if (neg := -float(np.linalg.eigvalsh(w)[0])) <= CPTP_STOP_TOL and (
            res := max(_errors(face @ w @ face.conj().T, src, tgt), neg)
        ) <= CPTP_STOP_TOL:
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


# Largest Choi dimension d_in d_out dominance_check sends to cptp_feasible;
# a pair the overlap rule decides needs no solver call and no size check.
CERTIFY_MAX_CHOI = 16


def _overlap_rule(pairs) -> list[bool | None]:
    """Uhlmann's rule on (source pair, target pair) items of one source and
    one target dimension, in one stacked pass: pure sources map onto two
    states iff |<psi0|psi1>| <= F = ||sqrt(sigma0) sqrt(sigma1)||_1, a sum of
    singular values (exact to round-off, where square roots of eigenvalues
    near 0 are not). True or False where the two differ by more than
    CPTP_STOP_TOL, else None, as for a source whose eigenvalues below the
    top one have absolute sum, or top one distance to 1, above
    CPTP_STOP_TOL, or a target whose trace is that far from 1."""
    src, tgt = (_herm(np.array(side)) for side in zip(*pairs))
    w, v = np.linalg.eigh(src)
    pure = (np.abs(w[..., :-1]).sum(-1) <= CPTP_STOP_TOL) & (np.abs(w[..., -1] - 1.0) <= CPTP_STOP_TOL)
    pure = pure.all(-1) & (np.abs(np.trace(tgt, axis1=-2, axis2=-1) - 1.0) <= CPTP_STOP_TOL).all(-1)
    overlap = np.abs(np.einsum("ki,ki->k", v[:, 0, :, -1].conj(), v[:, 1, :, -1]))
    lam, u = np.linalg.eigh(tgt)
    g = u * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]  # sigma = g g^dag
    fid = np.linalg.svd(g[:, 0].conj().swapaxes(1, 2) @ g[:, 1], compute_uv=False).sum(-1)
    decided = (pure & (np.abs(overlap - fid) > CPTP_STOP_TOL)).tolist()
    return [bool(o < f) if ok else None for ok, o, f in zip(decided, overlap.tolist(), fid.tolist())]


def _certified(pairs, certify: bool) -> str:
    """The weakest method showing each source pair at least as informative
    as its target, over (source, target, source commutes) triples:
    sweep-sufficient-commuting when every source commutes, else, with
    certify set, randomization-certificate when a channel maps each other
    pair onto its target, else sweep-necessary. _overlap_rule decides the
    pure sources, all in one pass; a pair it leaves open goes to
    cptp_feasible up to a Choi dimension of CERTIFY_MAX_CHOI. Pairs are
    taken in order, and the first without a channel ends the search."""
    open_pairs = [(src, tgt) for src, tgt, commuting in pairs if not commuting]
    if not open_pairs:
        return "sweep-sufficient-commuting"
    if not certify:
        return "sweep-necessary"
    for (src, tgt), channel in zip(open_pairs, _overlap_rule(open_pairs)):
        if channel is None:
            channel = (
                src[0].shape[0] * tgt[0].shape[0] <= CERTIFY_MAX_CHOI
                and cptp_feasible(list(src), list(tgt)).feasible
            )
        if not channel:
            return "sweep-necessary"
    return "randomization-certificate"


def dominance_check(
    candidate_outputs,
    challenger_outputs,
    grid=None,
    certify: bool = True,
) -> ComparisonVerdict:
    """Compare two output families over every member pair.

    Every pair is swept once, all of them in one _sweep batch, each on the
    grid and both its pairs' kinks (_breakpoints: each ratio p_i / q_i with
    q_i above round-off of its pair's scale; a q_i below that, about 3e-15
    for qubits, counts as 0, as no floating-point route tells the two
    apart); with diff the candidate curve minus the
    challenger's, the candidate beats where diff > m and the challenger
    where diff < -m, with m = SWEEP_TOL or the two norms' _norm_error where
    that is larger (at large s, where a difference of SWEEP_TOL can be
    round-off). A pair where neither beats is a settled tie when it is
    identical (entries within 1e-12) or both of its pairs commute. The
    witness (witness_s, gap) is the challenger's largest margin -diff over
    the points where it beats and over all pairs (first pair, then first s,
    on ties), reported only when the challenger beats somewhere. Then:

    - both sides beat somewhere: incomparable;
    - otherwise, when every other pair is a settled tie and each pair the
      beating side beats is certified (its own pair commutes, or a channel
      maps it onto the other's): dominates if the candidate beats,
      dominated if the challenger does, equivalent if neither. The method
      is the weakest over those pairs and the ties; the claim holds at
      every s >= 0, by a commuting pair or a channel per pair.

    Anything else is inconclusive: it claims nothing, though its witness,
    when present, is a real point where the challenger beats. Settled ties
    are checked first, and certification stops at the first pair that
    fails, so no verdict claims more than its routes prove. With three or
    more members a positive verdict is pairwise evidence only.

    The sweep computes only the norms that these three facts (the candidate
    beats, the challenger beats, the witness) can turn on. After its first
    round, each point of a pair has bounds lo <= diff <= hi on the diff
    that computing it would give (lo = hi = diff where both norms are
    computed, else from _convex_bounds, with lo < hi), and a point is
    computed in the second round iff

    - no computed point has diff > m yet, and hi > m there; or
    - -lo > m there, and -lo >= B, with B the largest -diff > m at a
      computed point (-inf if none).

    A point left out has diff <= hi <= m, or a computed point beats already,
    so "the candidate beats" is what it is with every point computed; the
    same holds for the challenger, as -diff <= -lo <= m or B is finite.
    And -diff <= -lo < B, the margin of a computed point, wherever the
    challenger could beat at a point left out, so the largest margin, and
    each point that ties it, is computed: witness_s and gap are those of
    the whole grid, bit for bit, as a computed norm has the same bits
    however many points are computed.
    """
    cand = _validate_family("candidate_outputs", candidate_outputs)
    chal = _validate_family("challenger_outputs", challenger_outputs)
    if len(cand) != len(chal):
        raise ValueError("families must have matching member counts")
    grid = _sweep_grid(grid)
    combos = list(combinations(range(len(cand)), 2))
    pairs = [((cand[i], cand[j]), (chal[i], chal[j])) for i, j in combos]
    # alpha + beta s: the _norm_error of each candidate pair plus its
    # challenger pair's
    first, second = np.array(combos).T
    alpha = beta = 0.0
    for fam in (cand, chal):
        fro = np.linalg.norm(np.array(fam), axis=(1, 2))
        a_fam, b_fam = _norm_error(len(fam[0]), fro[first], fro[second])
        alpha, beta = alpha + a_fam, beta + b_fam

    def win_margin(k, s):
        return np.maximum(SWEEP_TOL, alpha[k] + beta[k] * s)

    def undecided(grids, bounds):
        # every group's points in one row, group k's from starts[k] on
        sizes = [len(s) for s in grids]
        k, starts = np.repeat(np.arange(len(grids)), sizes), np.cumsum([0, *sizes[:-1]])
        lo_c, hi_c, lo_h, hi_h = (np.concatenate([b[p][x] for b in bounds]) for p in (0, 1) for x in (0, 1))
        m = win_margin(k, np.concatenate(grids))
        lo, hi = lo_c - hi_h, hi_c - lo_h
        known = (lo_c == hi_c) & (lo_h == hi_h)
        beats = np.logical_or.reduceat(known & (lo > m), starts)[k]
        best = np.maximum.reduceat(np.where(known & (-lo > m), -lo, -np.inf), starts)[k]
        return np.split(((hi > m) & ~beats) | ((-lo > m) & (-lo >= best)), starts[1:])

    # (source, target, source commutes) of the pairs each side beats; the
    # method of each tie pair, None unless it is settled
    wins, losses, ties = [], [], []
    witness_s = gap = None
    swept = _sweep(pairs, grid, undecided)
    for k, ((pc, ph), ((spec_c, spec_h), _, s, (norms_c, norms_h))) in enumerate(zip(pairs, swept)):
        # NaN where the sweep left a point out, which no comparison counts
        diff, m = norms_c - norms_h, win_margin(k, s)
        beats, beaten = bool((diff > m).any()), bool((diff < -m).any())
        if beats:
            wins.append((pc, ph, spec_c is not None))
        if beaten:
            losses.append((ph, pc, spec_h is not None))
            margin = np.where(-diff > m, -diff, -np.inf)
            j = int(np.argmax(margin))
            if gap is None or margin[j] > gap:
                witness_s, gap = float(s[j]), float(margin[j])
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
    method = _certified(losses or wins, certify)
    if method == "sweep-necessary":
        return verdict("inconclusive")
    strength = ("sweep-necessary", "randomization-certificate", "sweep-sufficient-commuting")
    relation = "dominated" if losses else "dominates" if wins else "equivalent"
    return verdict(relation, min([method, *ties], key=strength.index))
