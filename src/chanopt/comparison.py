"""Trace-norm comparison of state families.

The central object is the sweep curve s -> ||rho_plus - s rho_minus||_1 of a
pair of states. For each pair of members, weak domination of one curve by
another over all s >= 0 is necessary for the "always at least as
informative" ordering of the two output pairs; it is also sufficient when
the dominating pair commutes, and in general a channel mapping one pair onto
the other (cptp_feasible) certifies the ordering directly. dominance_check
sweeps every member pair once: a pair the challenger beats anywhere refutes
"dominates", one the candidate beats refutes "dominated", and only the
direction the sweep leaves open is certified, pair by pair. With three or
more members a positive verdict is pairwise evidence, not one channel for
the whole family.

A commuting pair's curve is sum_i |p_i - s q_i| over its joint eigenvalues
(_joint_spectrum, the package's one joint-eigenbasis routine); it is read
that way whenever the joint eigenbasis is accurate enough to prove the
closed form within SWEEP_TOL / 10 (_sweep_operands). Any other pair's curve
is |tr a - s tr b| wherever a - s b is proven semidefinite within
SWEEP_TOL / 10 (_hermitian_sweep), and one stacked eigendecomposition
covers the indefinite middle of the grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import ChoiMatrix
from .numerics import (
    as_matrix,
    dagger,
    hermitian_eig,
    is_density,
    max_abs,
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
    Hermitian matrices, which take _hermitian_sweep: the closed form
    |tr a - s_k tr b| where a - s_k b is semidefinite, each such value proven
    within SWEEP_TOL / 10 of the norm (the bounds are in _hermitian_sweep),
    and one stacked eigvalsh at the other s_k.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if np.ndim(a) == 1:
        p, q = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.abs(p - s[:, None] * q).sum(axis=1)
    return _hermitian_sweep(as_matrix(a), as_matrix(b), s)


def _stacked_eigvalsh(a, b, s) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a - s_k b, one row per
    s_k, from one stacked eigvalsh."""
    stack = a[None, :, :] - s[:, None, None] * b[None, :, :]
    return np.linalg.eigvalsh(0.5 * (stack + stack.conj().swapaxes(1, 2)))


def _semidefinite_ends(a, b) -> tuple[float, float]:
    """A guess (lo, hi) with a - s b >= 0 for s <= lo and <= 0 for s >= hi.

    For PSD a and b, c = a + b vanishes exactly where both do, and on the
    range of c, a - s b = c^1/2 (m - s (1 - m)) c^1/2 with m = c^-1/2 a c^-1/2,
    whose eigenvalues t lie in [0, 1]. So a - s b >= 0 iff s <= t_min /
    (1 - t_min) and <= 0 iff s >= t_max / (1 - t_max), infinite at t = 1.
    Eigenvalues of c below 1e-12 of its largest count as outside its range;
    with no range left the guess is (0, inf), which closes no s > 0. Nothing
    here is trusted: _hermitian_sweep certifies what it uses.
    """
    w, v = np.linalg.eigh(a + b)
    keep = w > 1e-12 * max(float(w[-1]), 0.0)
    if not keep.any():
        return 0.0, np.inf
    vr = v[:, keep] / np.sqrt(w[keep])
    t = np.linalg.eigvalsh(dagger(vr) @ a @ vr)
    lo, hi = float(t[0]), float(t[-1])
    return (lo / (1.0 - lo) if lo < 1.0 else np.inf), (hi / (1.0 - hi) if hi < 1.0 else np.inf)


def _hermitian_sweep(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 of a Hermitian pair: |tr a - s_k tr b| at the s_k > 0
    outside the indefinite middle that _semidefinite_ends guesses, one
    stacked eigvalsh at the rest.

    The stack also holds s = 0 and the last point of each closed side: s_k,
    the largest s on the PSD side, and s_m, the smallest on the NSD side.
    With the computed violations delta_a = max(0, -lambda_min(a)), delta_k =
    max(0, -lambda_min(a - s_k b)) and delta_m = max(0, lambda_max(a - s_m b)):

    - lambda_min(a - s b) is concave in s, so it is >= -max(delta_a,
      delta_k) on [0, s_k]; as ||X||_1 - tr X is twice the negative mass of
      X, the closed form is within 2 d max(delta_a, delta_k) there.
    - a >= -delta_a and a - s_m b <= delta_m give s_m b >= -(delta_a +
      delta_m), so a - s b <= (s / s_m)(delta_m + delta_a) for s >= s_m; as
      ||X||_1 + tr X is twice the positive mass, the closed form is within
      2 d (max s / s_m)(delta_m + delta_a) on [s_m, max s].

    The closed form is taken only when both bounds are at most
    SWEEP_TOL / 10, the rule _sweep_operands applies to commuting pairs;
    otherwise the whole grid is stacked. A stacked s_k gets the same bits
    in any stack, so the values do not depend on where the split falls.
    """
    lo, hi = _semidefinite_ends(a, b)
    psd = (s > 0) & (s <= lo)
    nsd = (s > 0) & (s >= hi) & ~psd
    s_k = s[psd].max(initial=0.0)
    s_m = s[nsd].min(initial=np.inf)
    closed = (psd & (s < s_k)) | (nsd & (s > s_m))
    if closed.any():
        stacked = ~closed
        # with no s on the NSD side, a stands in for a - s_m b and is not read
        ends = [0.0, s_k, s_m if nsd.any() else 0.0]
        lam = _stacked_eigvalsh(a, b, np.concatenate([ends, s[stacked]]))
        d = len(a)
        delta_a = max(-lam[0, 0], 0.0)
        err = 2 * d * max(delta_a, -lam[1, 0])
        if nsd.any():
            err = max(err, 2 * d * (s.max() / s_m) * (max(lam[2, -1], 0.0) + delta_a))
        if err <= SWEEP_TOL / 10:
            norms = np.empty(len(s))
            norms[stacked] = np.abs(lam[3:]).sum(axis=1)
            norms[closed] = np.abs(np.trace(a).real - s[closed] * np.trace(b).real)
            return norms
    return np.abs(_stacked_eigvalsh(a, b, s)).sum(axis=1)


def _joint_spectrum(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """(V, p, q, r) for a Hermitian pair that commutes within COMMUTE_TOL,
    None for any other pair.

    Diagonalizes b, then rediagonalizes a inside each (near-)degenerate
    eigenspace of b, eigenvalues within 1e-8 of its scale. V holds the joint
    basis vectors as columns, p and q the eigenvalues of a and of b paired
    by column, and r = max |V^dag m V - diag(lambda_m)| over both members m:
    how far V is from diagonalizing them, which each caller bounds before it
    trusts (p, q).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if max_abs(a @ b - b @ a) > COMMUTE_TOL:
        return None
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
    bp = np.unique(p[mask] / q[mask])
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


def _sweep(pairs, grid):
    """The joint spectra of the pairs (None where a pair does not commute),
    the grid merged with every pair's kinks, and each pair's norms there."""
    spectra = [_joint_spectrum(*pair) for pair in pairs]
    s = np.unique(np.concatenate([grid, *map(_breakpoints, spectra)]))
    norms = [sweep_norms(*_sweep_operands(p, sp, s), s) for p, sp in zip(pairs, spectra)]
    return spectra, s, norms


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
    if rho_plus.shape != rho_minus.shape:
        raise ValueError("state pair must share one dimension")
    _check_pair(rho_plus, rho_minus)
    (spectrum,), s, (norms,) = _sweep([(rho_plus, rho_minus)], _sweep_grid(grid))
    return SweepCurve(s_values=s, norms=norms, breakpoints=_breakpoints(spectrum))


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
    """Raise unless both matrices are density matrices."""
    for name, m in (("rho_plus", plus), ("rho_minus", minus)):
        if not is_density(m):
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
    return 0.5 * (m + m.conj().T)


def _hermitian_basis(d: int) -> np.ndarray:
    """An orthonormal basis of the d x d Hermitian matrices, shape (d^2, d, d)."""
    basis = np.zeros((d, d, d, d), dtype=complex)
    for a in range(d):
        basis[a, a, a, a] = 1.0
        for b in range(a + 1, d):
            basis[a, b, a, b] = basis[a, b, b, a] = np.sqrt(0.5)
            basis[b, a, a, b] = -1j * np.sqrt(0.5)
            basis[b, a, b, a] = 1j * np.sqrt(0.5)
    return basis.reshape(d * d, d, d)


def _max_step(m_chol_inv, dm) -> float:
    """Largest t keeping m + t dm PSD (inf if every t >= 0 does), from the
    inverse Cholesky factor of m."""
    lam = float(np.linalg.eigvalsh(_herm(m_chol_inv @ dm @ m_chol_inv.conj().T))[0])
    return -1.0 / lam if lam < 0 else np.inf


def cptp_feasible(sources, targets) -> FeasibilityResult:
    """Search for a channel W with W(sources[k]) = targets[k] for all k.

    The Choi matrix is written W = V - mu 1 with V >= 0; trace preservation
    fixes mu = (tr V - d_in) / (d_in d_out), which leaves the standard-form
    semidefinite program min tr V subject to A'(V) = b', V >= 0 (A' the
    constraints on the traceless parts). A channel exists iff its optimum is
    at most d_in, and both it and its dual max b'.y s.t. 1 - A'*(y) >= 0 are
    strictly feasible. Dependent constraint rows are dropped once by an SVD;
    an inconsistent system is refuted by its least-squares residual (a
    linear Farkas certificate). One infeasible-start primal-dual
    interior-point method (HKM direction, Mehrotra predictor-corrector) then
    closes the gap from both sides. The status is one of:

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
    interior-point steps taken, and residual is the violation of choi, the
    last iterate.
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
    e_out, e_in = _hermitian_basis(do), _hermitian_basis(di)
    # constraint p is tr(A_p W) = b_p: the image constraints E (x) rho^T with
    # tr(E sigma), then the partial-trace constraints 1 (x) F with tr F
    a = np.concatenate([
        np.einsum("pab,kji->kpaibj", e_out, src).reshape(-1, n, n),
        np.einsum("ab,pij->paibj", np.eye(do), e_in).reshape(-1, n, n),
    ])
    b = np.concatenate([
        np.einsum("pab,kba->kp", e_out, tgt).real.reshape(-1),
        np.trace(e_in, axis1=1, axis2=2).real,
    ])
    tr_a = np.trace(a, axis1=1, axis2=2).real
    a_flat = (a - (tr_a / n)[:, None, None] * np.eye(n)).reshape(len(b), -1)
    b_red = b - di * tr_a / n
    u, sv, vt = np.linalg.svd(
        np.concatenate([a_flat.real, a_flat.imag], axis=1), full_matrices=False
    )
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

    def violation(w):
        w4 = w.reshape(do, di, do, di)
        image = np.einsum("aibj,kij->kab", w4, src) - tgt
        trace = np.einsum("aiaj->ij", w4) - np.eye(di)
        lam_min = float(np.linalg.eigvalsh(_herm(w))[0])
        return max(float(np.abs(image).max()), float(np.abs(trace).max()), -lam_min)

    def witness(y):
        """The FarkasWitness -y on the original constraints, or None.

        Z = -sum_p y_p A_p has tr(Z W) = value = -b.y on every W meeting the
        constraints. A Hermitian W with constraint errors <= t = CPTP_TOL
        and eigenvalues >= -t has tr(Z W) <= value + t l1 (l1 the entrywise
        mass of the duals), negative mass <= n t and positive mass within
        [d_in (1 - t), d_in (1 + t) + n t], so
        tr(Z W) >= d_in lam - t (|lam| (d_in + n) + n |Z|) with
        lam = lambda_min(Z). A witness is returned only when value lies
        below that bound by t l1, so it excludes every such W and every
        channel.
        """
        k = len(sources) * do * do
        ys = list(np.tensordot(-y[:k].reshape(len(sources), -1), e_out, 1))
        trace_dual = np.tensordot(-y[k:], e_in, 1)
        lam = np.linalg.eigvalsh(-np.tensordot(y, a, 1))
        z_norm = max(abs(float(lam[0])), abs(float(lam[-1])))
        l1 = sum(float(np.abs(m).sum()) for m in (*ys, trace_dual))
        margin = CPTP_TOL * (abs(float(lam[0])) * (di + n) + n * z_norm + l1)
        if -float(b @ y) >= di * float(lam[0]) - margin:
            return None
        return FarkasWitness(ys, trace_dual)

    def result(w, status, it, wit=None):
        choi = ChoiMatrix(w, din=di, dout=do)
        return FeasibilityResult(status == "feasible", choi, violation(w), status, it, wit)

    eye = np.eye(n, dtype=complex)
    w = di / n * eye  # the completely depolarizing channel, which x = 1 gives
    # the part of b' outside the range of A' refutes an inconsistent system
    wit = witness(b_red - u[:, :r] @ (u[:, :r].T @ b_red))
    if wit is not None:
        return result(w, "infeasible", 0, wit)

    # the dual slack S = 1 - A'*(y) is kept exact, so the dual stays feasible
    x, s, y = eye, eye, np.zeros(r)
    for it in range(1, CPTP_MAX_ITERS + 1):
        try:
            lx = np.linalg.inv(np.linalg.cholesky(x))
            ls = np.linalg.inv(np.linalg.cholesky(s))
        except np.linalg.LinAlgError:  # round-off has pushed an iterate off the cone
            return result(w, "unresolved", it - 1)
        s_inv = ls.conj().T @ ls
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

        dx, dy, ds = direction(-x @ s)
        tp, td = min(1.0, _max_step(lx, dx)), min(1.0, _max_step(ls, ds))
        comp_aff = float(np.trace((x + tp * dx) @ (s + td * ds)).real) / n
        sigma = min(1.0, comp_aff / comp) ** 3
        dx, dy, ds = direction(sigma * comp * eye - x @ s - dx @ ds)
        tp, td = min(1.0, 0.98 * _max_step(lx, dx)), min(1.0, 0.98 * _max_step(ls, ds))
        x, y = x + tp * dx, y + td * dy
        s = _herm(eye - adj(y))

        w = x - (float(np.trace(x).real) - di) / n * eye
        if violation(w) <= CPTP_STOP_TOL:
            return result(w, "feasible", it)
        if rhs @ y > di:
            wit = witness(lift @ y)
            if wit is not None:
                return result(w, "infeasible", it, wit)
    return result(w, "unresolved", CPTP_MAX_ITERS)


# ---------------------------------------------------------------------------
# Dominance


def _validate_family(name: str, fam) -> list[np.ndarray]:
    mats = [as_matrix(m) for m in fam]
    if len(mats) < 2:
        raise ValueError(f"{name} needs at least two members")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError(f"{name} members must share one dimension")
        if not is_density(m):
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

    Each pair is swept once on the grid and both pairs' kinks; with diff the
    candidate curve minus the challenger's, the candidate beats where diff >
    SWEEP_TOL and the challenger where diff < -SWEEP_TOL. A pair where
    neither beats is a settled tie when it is identical (entries within
    1e-12) or both of its pairs commute. The witness (witness_s, gap) is the
    challenger's largest margin over all pairs (first pair, then first s, on
    ties), reported only when the challenger beats somewhere. Then:

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
    for i, j in combinations(range(len(cand)), 2):
        pc, ph = (cand[i], cand[j]), (chal[i], chal[j])
        (spec_c, spec_h), s, (norms_c, norms_h) = _sweep([pc, ph], grid)
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
