"""Trace-norm comparison of binary state families.

The central object is the sweep curve s -> ||rho_plus - s rho_minus||_1.
Weak domination of one curve by another over all s >= 0 is necessary for the
"always at least as informative" ordering of the output families; it is also
sufficient when the dominating pair commutes, and in general a channel mapping
one family onto the other certifies the ordering directly. dominance_check
wires the three routes together and never claims more than the route used can
support.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .numerics import as_matrix, dagger, hermitian_eig, is_density, is_hermitian, max_abs, trace_norm

COMMUTE_TOL = 1e-9


def commutes(a, b, tol: float = COMMUTE_TOL) -> bool:
    a = as_matrix(a)
    b = as_matrix(b)
    return max_abs(a @ b - b @ a) <= tol


def default_grid() -> np.ndarray:
    """{0} plus 200 geometrically spaced points on [1e-3, 1e3]."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 200)])


@dataclass
class SweepCurve:
    """Samples of s -> ||rho_plus - s rho_minus||_1.

    breakpoints lists the kinks (ratios of joint eigenvalues); it is exact for
    commuting pairs and empty otherwise, in which case the curve is a convex
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


def joint_eigenbasis(a, b, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common eigenbasis of a commuting Hermitian pair.

    Diagonalizes b, then rediagonalizes a inside each (near-)degenerate
    eigenspace of b; valid only when [a, b] = 0 up to tolerance. Returns the
    basis vectors as columns and the eigenvalues of a and of b, paired by
    column.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    lam, v = hermitian_eig(b)
    scale = max(float(np.abs(lam).max()), 1.0)
    blocks, ps = [], []
    i = 0
    while i < len(lam):
        j = i
        while j + 1 < len(lam) and lam[j + 1] - lam[j] <= tol * scale:
            j += 1
        cols = v[:, i : j + 1]
        mu, w = hermitian_eig(dagger(cols) @ a @ cols)
        blocks.append(cols @ w)
        ps.append(mu)
        i = j + 1
    return np.hstack(blocks), np.concatenate(ps), lam


def sweep_norms(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 for every s_k, from one stacked decomposition.

    A Hermitian pair takes one stacked eigvalsh, any other pair one stacked
    svd: the split trace_norm makes, decided once for the pair.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    s = np.asarray(s, dtype=float).reshape(-1)
    stack = a[None, :, :] - s[:, None, None] * b[None, :, :]
    if is_hermitian(a) and is_hermitian(b):
        herm = 0.5 * (stack + stack.conj().swapaxes(1, 2))
        return np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    return np.linalg.svd(stack, compute_uv=False).sum(axis=1)


def _breakpoints(a, b) -> tuple[bool, np.ndarray]:
    """Whether the pair commutes, and if so the kinks of its curve (ratios
    of joint eigenvalues); a noncommuting pair gets no kinks."""
    if not commutes(a, b):
        return False, np.array([])
    _, p, q = joint_eigenbasis(a, b)
    mask = q > 1e-12
    bp = np.unique(p[mask] / q[mask])
    return True, bp[bp >= 0]


def _sweep_grid(grid) -> np.ndarray:
    s = default_grid() if grid is None else np.asarray(grid, dtype=float).reshape(-1)
    if len(s) == 0:
        raise ValueError("empty s grid")
    if s.min() < 0:
        raise ValueError("s must be nonnegative")
    return s


def gap_curve(rho_plus, rho_minus, grid=None) -> SweepCurve:
    """Sweep curve of a state pair on the given s grid.

    Commuting pairs get their exact kink locations merged into the grid and
    reported as breakpoints; between consecutive breakpoints the curve is
    linear. Noncommuting pairs are sampled on the grid alone (the curve is
    still convex, which bounds it between samples).
    """
    rho_plus = as_matrix(rho_plus)
    rho_minus = as_matrix(rho_minus)
    if rho_plus.shape != rho_minus.shape:
        raise ValueError("state pair must share one dimension")
    for name, m in (("rho_plus", rho_plus), ("rho_minus", rho_minus)):
        if not is_density(m, tol=1e-8):
            raise ValueError(f"{name} is not a density matrix")
    _, bp = _breakpoints(rho_plus, rho_minus)
    s = np.unique(np.concatenate([_sweep_grid(grid), bp]))
    return SweepCurve(s_values=s, norms=sweep_norms(rho_plus, rho_minus, s), breakpoints=bp)


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


def alberti_uhlmann(psi_plus, psi_minus, phi_plus, phi_minus, tol: float = 1e-9) -> bool:
    """Whether a channel can map the pure pair (psi+, psi-) onto (phi+, phi-).

    For pure pairs the exact criterion is an overlap increase:
    |<psi+|psi->| <= |<phi+|phi->| + tol.
    """
    vecs = []
    for name, v in (
        ("psi_plus", psi_plus),
        ("psi_minus", psi_minus),
        ("phi_plus", phi_plus),
        ("phi_minus", phi_minus),
    ):
        v = np.asarray(v, dtype=complex).reshape(-1)
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError(f"{name} is not unit norm")
        vecs.append(v)
    src = abs(np.vdot(vecs[0], vecs[1]))
    dst = abs(np.vdot(vecs[2], vecs[3]))
    return bool(src <= dst + tol)


def bayes_binary_risk(rho_plus, rho_minus, prior: float) -> float:
    """Minimum Bayes risk for 0-1 loss over all binary measurements."""
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must lie in [0,1], got {prior}")
    rho_plus = as_matrix(rho_plus)
    rho_minus = as_matrix(rho_minus)
    for name, m in (("rho_plus", rho_plus), ("rho_minus", rho_minus)):
        if not is_density(m, tol=1e-8):
            raise ValueError(f"{name} is not a density matrix")
    risk = 0.5 * (1.0 - trace_norm(prior * rho_plus - (1.0 - prior) * rho_minus))
    return max(risk, 0.0)


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


def _constraint_system(sources, targets, di, do):
    """Rows of the affine system A vec(W) = b.

    Image constraints: tr_in[W (1 (x) rho^T)][a,b] = sum_ij rho[i,j] W[a di + i, b di + j]
    = sigma[a,b]. Trace constraints pin tr_out W = 1.
    """
    n = do * di
    rows, rhs = [], []
    for rho, sig in zip(sources, targets):
        for a in range(do):
            for b in range(do):
                row = np.zeros((n, n), dtype=complex)
                row[a * di : (a + 1) * di, b * di : (b + 1) * di] = rho
                rows.append(row.reshape(-1))
                rhs.append(sig[a, b])
    for i in range(di):
        for j in range(di):
            row = np.zeros((n, n), dtype=complex)
            for a in range(do):
                row[a * di + i, a * di + j] = 1.0
            rows.append(row.reshape(-1))
            rhs.append(1.0 if i == j else 0.0)
    return np.array(rows), np.array(rhs)


def _herm(m):
    return 0.5 * (m + m.conj().T)


def cptp_feasible(sources, targets, max_iters: int = 5000, tol: float = 1e-7) -> FeasibilityResult:
    """Search for a channel W with W(sources[k]) = targets[k] for all k.

    Alternating Dykstra projections between the PSD cone and the affine set
    {image constraints, unit partial trace}, plus a factored Gauss-Newton
    refinement (W = G G^dag keeps the cone exactly) to extract an exact
    certificate from a stalled iterate. The status is one of:

    - "feasible": choi is a verified Choi matrix (constraint violation and
      negative-eigenvalue mass both <= tol).
    - "infeasible": witness is a FarkasWitness that no channel meets the
      constraints, nor any Hermitian W within tol of them. It is built from
      the gap between the PSD and the affine iterates, which converges to a
      separating normal, and is checked at iterations 1, 2, 4, 8, ...
    - "unresolved": neither was found within the iteration budget; this is
      a numerical verdict, not a proof.

    feasible is True exactly for "feasible"; iterations counts the Dykstra
    steps taken.

    The refinement matters: when targets sit on a low-rank face of the cone,
    plain alternating projections approach the face tangentially and the
    violation decays like 1/k, which no practical iteration cap separates
    from a near-miss infeasible instance.
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
    ncx = n * n
    a_cx, b_cx = _constraint_system(sources, targets, di, do)
    m_cx = len(b_cx)
    # realified system: vec -> [Re, Im], matrix -> [[P,-Q],[Q,P]]
    p_re, q_im = a_cx.real, a_cx.imag
    a_re = np.block([[p_re, -q_im], [q_im, p_re]])
    b_re = np.concatenate([b_cx.real, b_cx.imag])
    a_pinv = np.linalg.pinv(a_re)
    # witness pull-back only: a_re has singular values near round-off, and
    # keeping them inflates the dual vector (and the margin) by ~1e14
    dual_pinv_t = np.linalg.pinv(a_re, rcond=1e-10).T

    def proj_aff(x):
        return x - a_pinv @ (a_re @ x - b_re)

    def to_mat(x):
        return (x[:ncx] + 1j * x[ncx:]).reshape(n, n)

    def to_vec(w):
        flat = w.reshape(-1)
        return np.concatenate([flat.real, flat.imag])

    def proj_psd(x):
        w = _herm(to_mat(x))
        lam, v = np.linalg.eigh(w)
        w2 = (v * np.clip(lam, 0.0, None)) @ v.conj().T
        return to_vec(w2), w2

    def affine_error(w):
        return float(np.abs(a_cx @ w.reshape(-1) - b_cx).max())

    def violation(w):
        lam_min = np.linalg.eigvalsh(_herm(w)).min()
        return max(affine_error(w), max(0.0, -float(lam_min)))

    def witness(gap):
        """A FarkasWitness from the realified gap y - z, or None.

        For u pulled back from the gap, Z = herm(to_mat(a_re^T u)) has
        tr(Z W) = <b, u> on every Hermitian W in the affine set. A Hermitian
        W with constraint errors <= tol (complex modulus) and eigenvalues
        >= -tol has positive mass <= d_in (1 + tol) + n tol and negative
        mass <= n tol, which gives <b, u> >= d_in low - margin for it, with
        low = min(lambda_min(Z), 0). A witness is returned only when <b, u>
        lies below that bound, so it excludes every such W and every channel.
        """
        u = dual_pinv_t @ gap
        z = _herm(to_mat(a_re.T @ u))
        value = float(b_re @ u)
        lam = np.linalg.eigvalsh(z)
        low = min(float(lam[0]), 0.0)
        z_norm = max(abs(float(lam[0])), abs(float(lam[-1])))
        margin = max(tol, 1e-12) * (-low * (di + n) + n * z_norm + float(np.abs(u).sum()))
        if value >= di * low - margin:
            return None
        # the same functional split by constraint block: Hermitian duals of
        # the image constraints and of the partial-trace constraint
        mu = u[:m_cx] + 1j * u[m_cx:]
        k = do * do
        ys = [_herm(mu[i * k : (i + 1) * k].reshape(do, do)) for i in range(len(sources))]
        return FarkasWitness(ys, _herm(mu[len(sources) * k :].reshape(di, di)))

    a3 = a_cx.reshape(-1, n, n)

    def refine(w_seed):
        from scipy.optimize import least_squares

        lam, v = np.linalg.eigh(_herm(w_seed))
        lam_c = np.clip(lam, 0.0, None)
        top = max(float(lam_c.max()), 1e-30)
        r_est = max(1, int(np.sum(lam_c > 1e-3 * top)))
        for r in list(range(r_est, n + 1)) + list(range(1, r_est)):
            g0_m = v[:, -r:] * np.sqrt(np.clip(lam[-r:], 1e-12, None))
            g0 = np.concatenate([g0_m.real.reshape(-1), g0_m.imag.reshape(-1)])

            def resid(g, r=r):
                gm = (g[: n * r] + 1j * g[n * r :]).reshape(n, r)
                err = a_cx @ (gm @ gm.conj().T).reshape(-1) - b_cx
                return np.concatenate([err.real, err.imag])

            def jac(g, r=r):
                gm = (g[: n * r] + 1j * g[n * r :]).reshape(n, r)
                t1 = np.einsum("mij,jk->mik", a3, gm.conj())
                t2 = np.einsum("mpi,pk->mik", a3, gm)
                jc = np.concatenate(
                    [(t1 + t2).reshape(-1, n * r), (1j * (t1 - t2)).reshape(-1, n * r)],
                    axis=1,
                )
                return np.concatenate([jc.real, jc.imag], axis=0)

            method = "lm" if 2 * len(b_cx) >= 2 * n * r else "trf"
            try:
                sol = least_squares(
                    resid, g0, jac=jac, method=method, max_nfev=1200,
                    xtol=3e-16, ftol=3e-16, gtol=3e-16,
                )
            except Exception:
                continue
            gm = (sol.x[: n * r] + 1j * sol.x[n * r :]).reshape(n, r)
            w = gm @ gm.conj().T
            if violation(w) <= tol:
                return w
        return None

    def choi(w):
        return ChoiMatrix(w, din=di, dout=do)

    mean_target = sum(targets) / len(targets)
    x = proj_aff(to_vec(np.kron(mean_target, np.eye(di))))
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    best_v = np.inf
    best_w = to_mat(x)

    phase1 = min(300, max(1, max_iters // 3))
    it = 0
    while it < max_iters:
        y, w_psd = proj_psd(x + p_corr)
        p_corr = x + p_corr - y
        z = proj_aff(y + q_corr)
        q_corr = y + q_corr - z
        disp = float(np.abs(z - x).max())
        x = z
        # proj_psd has just clipped w_psd's spectrum at 0, so only the affine
        # residual can exceed tol here; a returned certificate is re-checked
        # in full by violation()
        v = affine_error(w_psd)
        if v < best_v:
            best_v, best_w = v, w_psd
        it += 1
        if v <= tol:
            v_full = violation(w_psd)
            if v_full <= tol:
                return FeasibilityResult(True, choi(w_psd), v_full, "feasible", it)
        if it & (it - 1) == 0:
            wit = witness(y - z)
            if wit is not None:
                return FeasibilityResult(False, choi(best_w), violation(best_w), "infeasible", it, wit)
        if it == phase1:
            w_ref = refine(best_w)
            if w_ref is not None:
                return FeasibilityResult(True, choi(w_ref), violation(w_ref), "feasible", it)
        if disp < 1e-15:
            break

    wit = witness(y - z) if it else None
    status = "unresolved" if wit is None else "infeasible"
    return FeasibilityResult(False, choi(best_w), violation(best_w), status, it, wit)


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
        if not is_density(m, tol=1e-8):
            raise ValueError(f"{name} contains a non-density matrix")
    return mats


def _pair_verdict(cand, chal, grid, tol, certify) -> ComparisonVerdict:
    cand_comm, cand_bp = _breakpoints(cand[0], cand[1])
    chal_comm, chal_bp = _breakpoints(chal[0], chal[1])
    s_all = np.unique(np.concatenate([grid, cand_bp, chal_bp]))
    diff = sweep_norms(cand[0], cand[1], s_all) - sweep_norms(chal[0], chal[1], s_all)
    cand_beats = bool((diff > tol).any())
    chal_beats = bool((diff < -tol).any())

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
        if certify and cand[0].shape[0] * chal[0].shape[0] <= 16:
            res = cptp_feasible(list(cand), list(chal))
            if res.feasible:
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
    else:
        method = "sweep-necessary"
        if certify and cand[0].shape[0] * chal[0].shape[0] <= 16:
            res = cptp_feasible(list(chal), list(cand))
            if res.feasible:
                method = "randomization-certificate"
    return ComparisonVerdict("dominated", witness_s=witness, gap=gap, method=method)


def dominance_check(
    candidate_outputs,
    challenger_outputs,
    grid=None,
    tol: float = 1e-9,
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
                _pair_verdict((cand[i], cand[j]), (chal[i], chal[j]), grid, tol, certify)
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
