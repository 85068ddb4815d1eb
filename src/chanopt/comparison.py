"""Trace-norm comparison of state families, one member pair at a time.

The central object is the sweep curve s -> ||rho_plus - s rho_minus||_1 of a
pair of states. For each pair of members, weak domination of one curve by
another over all s >= 0 is necessary for the "always at least as
informative" ordering of the two output pairs; it is also sufficient when
the dominating pair commutes, and in general a channel mapping one pair onto
the other (cptp_feasible) certifies the ordering directly. dominance_check
runs the three routes on every member pair, merges the pair verdicts, and
never claims more than the routes used can support.

A commuting pair's curve is sum_i |p_i - s q_i| over its joint eigenvalues;
it is read that way whenever the joint eigenbasis is accurate enough to
prove the closed form within SWEEP_TOL / 10 (_sweep_operands). Every other
pair is swept by one stacked eigendecomposition (or SVD) over the grid.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .numerics import (
    as_matrix,
    dagger,
    hermitian_eig,
    is_density,
    is_density_spectrum,
    is_hermitian,
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


def commutes(a, b) -> bool:
    a = as_matrix(a)
    b = as_matrix(b)
    return max_abs(a @ b - b @ a) <= COMMUTE_TOL


def default_grid(points: int = 200) -> np.ndarray:
    """{0} plus points geometrically spaced points on [1e-3, 1e3]."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e3, points)])


@dataclass
class SweepCurve:
    """Samples of s -> ||rho_plus - s rho_minus||_1.

    breakpoints lists the kinks (ratios of joint eigenvalues); it is exact for
    commuting pairs, whose norms are then sum_i |p_i - s q_i| over the joint
    eigenvalues, and empty otherwise, in which case the curve is a convex
    grid sample rather than a piecewise-linear description.
    """

    s_values: np.ndarray
    norms: np.ndarray
    breakpoints: np.ndarray

    def __post_init__(self):
        self.s_values = np.asarray(self.s_values, dtype=float)
        self.norms = np.asarray(self.norms, dtype=float)
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        if self.s_values.shape != self.norms.shape:
            raise ValueError("s_values and norms must have matching lengths")
        if len(self.s_values) and (np.diff(self.s_values) < 0).any():
            raise ValueError("s_values must be sorted")
        if len(self.s_values) and self.s_values[0] < 0:
            raise ValueError("s must be nonnegative")

    def to_csv(self) -> str:
        bp = set(np.round(self.breakpoints, 15))
        buf = io.StringIO()
        buf.write("s,norm,is_breakpoint\n")
        for s, nv in zip(self.s_values, self.norms):
            flag = 1 if round(float(s), 15) in bp else 0
            buf.write(f"{float(s)!r},{float(nv)!r},{flag}\n")
        return buf.getvalue()


def joint_eigenbasis(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common eigenbasis of a commuting Hermitian pair.

    Diagonalizes b, then rediagonalizes a inside each (near-)degenerate
    eigenspace of b, eigenvalues within 1e-8 of its scale; valid only when
    [a, b] = 0 up to tolerance. Returns the basis vectors as columns and the
    eigenvalues of a and of b, paired by column.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    lam, v = hermitian_eig(b)
    scale = max(float(np.abs(lam).max()), 1.0)
    blocks, ps = [], []
    i = 0
    while i < len(lam):
        j = i
        while j + 1 < len(lam) and lam[j + 1] - lam[j] <= 1e-8 * scale:
            j += 1
        cols = v[:, i : j + 1]
        mu, w = hermitian_eig(dagger(cols) @ a @ cols)
        blocks.append(cols @ w)
        ps.append(mu)
        i = j + 1
    return np.hstack(blocks), np.concatenate(ps), lam


def sweep_norms(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 for every s_k.

    a and b are either a pair of square matrices or the paired joint
    eigenvalues (p, q) of a commuting Hermitian pair. The spectrum takes the
    closed form sum_i |p_i - s_k q_i|; a Hermitian pair takes one stacked
    eigvalsh, any other pair one stacked svd: the split trace_norm makes,
    decided once for the pair.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if np.ndim(a) == 1:
        p, q = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.abs(p - s[:, None] * q).sum(axis=1)
    a = as_matrix(a)
    b = as_matrix(b)
    stack = a[None, :, :] - s[:, None, None] * b[None, :, :]
    if is_hermitian(a) and is_hermitian(b):
        herm = 0.5 * (stack + stack.conj().swapaxes(1, 2))
        return np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    return np.linalg.svd(stack, compute_uv=False).sum(axis=1)


def _joint_spectrum(a, b) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The paired joint eigenvalues (p, q) of a commuting pair, with the
    residual r = max |V^dag m V - diag(lambda_m)| over both members m to
    which the joint basis V diagonalizes them; None for a noncommuting
    pair."""
    if not commutes(a, b):
        return None
    v, p, q = joint_eigenbasis(a, b)
    vh = dagger(v)
    r = max(max_abs(vh @ m @ v - np.diag(lam)) for m, lam in ((a, p), (b, q)))
    return p, q, r


def _breakpoints(spectrum) -> np.ndarray:
    """Kinks of a commuting pair's curve (ratios of joint eigenvalues); a
    noncommuting pair (spectrum None) gets none."""
    if spectrum is None:
        return np.array([])
    p, q, _ = spectrum
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
        p, q, r = spectrum
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
    if s.min() < 0:
        raise ValueError("s must be nonnegative")
    return s


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
    spectrum = _joint_spectrum(rho_plus, rho_minus)
    bp = _breakpoints(spectrum)
    s = np.unique(np.concatenate([_sweep_grid(grid), bp]))
    norms = sweep_norms(*_sweep_operands((rho_plus, rho_minus), spectrum, s), s)
    return SweepCurve(s_values=s, norms=norms, breakpoints=bp)


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
    """Raise unless both states are density matrices. A state is a square
    matrix, or the spectrum of a Hermitian one (the joint eigenvalues of a
    commuting pair)."""
    for name, m in (("rho_plus", plus), ("rho_minus", minus)):
        valid = is_density_spectrum(m) if m.ndim == 1 else is_density(m)
        if not valid:
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


# Largest Choi dimension d_in d_out a pair verdict sends to cptp_feasible.
CERTIFY_MAX_CHOI = 16


def _channel_maps(sources, targets) -> bool:
    """Whether cptp_feasible certifies a channel mapping the source pair onto
    the target pair; pairs above CERTIFY_MAX_CHOI are not tried."""
    if sources[0].shape[0] * targets[0].shape[0] > CERTIFY_MAX_CHOI:
        return False
    return cptp_feasible(list(sources), list(targets)).feasible


def _pair_verdict(cand, chal, grid, certify) -> ComparisonVerdict:
    cand_spec, chal_spec = _joint_spectrum(*cand), _joint_spectrum(*chal)
    cand_comm, chal_comm = cand_spec is not None, chal_spec is not None
    s_all = np.unique(np.concatenate([grid, _breakpoints(cand_spec), _breakpoints(chal_spec)]))
    cand_norms = sweep_norms(*_sweep_operands(cand, cand_spec, s_all), s_all)
    chal_norms = sweep_norms(*_sweep_operands(chal, chal_spec, s_all), s_all)
    diff = cand_norms - chal_norms
    cand_beats = bool((diff > SWEEP_TOL).any())
    chal_beats = bool((diff < -SWEEP_TOL).any())

    identical = (
        cand[0].shape == chal[0].shape
        and max_abs(cand[0] - chal[0]) <= 1e-12
        and max_abs(cand[1] - chal[1]) <= 1e-12
    )

    if not cand_beats and not chal_beats:
        if identical:
            method = "sweep-sufficient-commuting" if cand_comm else "randomization-certificate"
            return ComparisonVerdict("equivalent", method=method)
        if cand_comm and chal_comm:
            return ComparisonVerdict("equivalent", method="sweep-sufficient-commuting")
        return ComparisonVerdict("inconclusive", method="sweep-necessary")

    if cand_beats and chal_beats:
        k = int(np.argmax(-diff))
        return ComparisonVerdict(
            "incomparable",
            witness_s=float(s_all[k]),
            gap=float(-diff[k]),
            method="sweep-necessary",
        )

    if cand_beats:
        if cand_comm:
            return ComparisonVerdict("dominates", method="sweep-sufficient-commuting")
        if certify and _channel_maps(cand, chal):
            return ComparisonVerdict("dominates", method="randomization-certificate")
        return ComparisonVerdict("inconclusive", method="sweep-necessary")

    # challenger strictly beats somewhere and is never beaten: the candidate
    # cannot dominate (the sweep inequality is necessary), so the relation is
    # settled; the method records how the reverse direction was certified.
    k = int(np.argmax(-diff))
    witness = float(s_all[k])
    gap = float(-diff[k])
    if chal_comm:
        method = "sweep-sufficient-commuting"
    elif certify and _channel_maps(chal, cand):
        method = "randomization-certificate"
    else:
        method = "sweep-necessary"
    return ComparisonVerdict("dominated", witness_s=witness, gap=gap, method=method)


def dominance_check(
    candidate_outputs,
    challenger_outputs,
    grid=None,
    certify: bool = True,
) -> ComparisonVerdict:
    """Compare two output families member-pair by member-pair.

    dominates is only reported through a sufficiency route (commuting
    candidate pair, or an explicit channel mapping candidate outputs onto the
    challenger's); when a noncommuting candidate merely wins the sweep on the
    grid the verdict stays inconclusive.
    """
    cand = _validate_family("candidate_outputs", candidate_outputs)
    chal = _validate_family("challenger_outputs", challenger_outputs)
    if len(cand) != len(chal):
        raise ValueError("families must have matching member counts")
    grid = _sweep_grid(grid)

    verdicts = []
    for i in range(len(cand)):
        for j in range(i + 1, len(cand)):
            verdicts.append(
                _pair_verdict((cand[i], cand[j]), (chal[i], chal[j]), grid, certify)
            )

    rels = {v.relation for v in verdicts}
    witnessed = [v for v in verdicts if v.witness_s is not None]
    worst = max(witnessed, key=lambda v: v.gap) if witnessed else None

    def combined_method(subset):
        methods = {v.method for v in subset}
        if "sweep-necessary" in methods:
            return "sweep-necessary"
        if "randomization-certificate" in methods:
            return "randomization-certificate"
        return "sweep-sufficient-commuting"

    if "incomparable" in rels or {"dominates", "dominated"} <= rels:
        v = next(v for v in verdicts if v.relation == "incomparable") if "incomparable" in rels else worst
        return ComparisonVerdict(
            "incomparable", witness_s=v.witness_s, gap=v.gap, method="sweep-necessary"
        )
    if rels == {"equivalent"}:
        return ComparisonVerdict("equivalent", method=combined_method(verdicts))
    if rels <= {"dominates", "equivalent"}:
        return ComparisonVerdict("dominates", method=combined_method(verdicts))
    if rels <= {"dominated", "equivalent"}:
        return ComparisonVerdict(
            "dominated",
            witness_s=worst.witness_s,
            gap=worst.gap,
            method=combined_method([v for v in verdicts if v.relation == "dominated"]),
        )
    return ComparisonVerdict(
        "inconclusive",
        witness_s=worst.witness_s if worst else None,
        gap=worst.gap if worst else None,
        method="sweep-necessary",
    )
