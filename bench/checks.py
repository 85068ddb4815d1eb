"""Output checks made apart from chanopt.

Every function here recomputes what it needs with plain numpy (its own Choi
application, partial transpose, closed-form curves) or tests a property the
method must have, and raises CheckFailed with a reason on the first mismatch.
Nothing in this module imports chanopt, so a fault in the program cannot
also hide in its check.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

DAMP_GAP = (math.sqrt(2.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# States and channels


def check_density(rho, tol: float = 1e-9, where: str = "state") -> None:
    """Hermitian, unit trace and PSD up to tol (Cholesky of rho + tol*I).

    Cholesky costs a third of an eigendecomposition, which keeps the check
    affordable on the 1024-dimensional outputs of the repetition workload.
    """
    rho = np.asarray(rho)
    require(rho.ndim == 2 and rho.shape[0] == rho.shape[1], f"{where}: not square")
    require(bool(np.isfinite(rho).all()), f"{where}: non-finite entries")
    herm = float(np.abs(rho - rho.conj().T).max())
    require(herm <= tol, f"{where}: not Hermitian (deviation {herm:.3e})")
    tr = complex(np.trace(rho))
    require(abs(tr - 1.0) <= tol, f"{where}: trace {tr.real:.12g} is not 1")
    try:
        np.linalg.cholesky(0.5 * (rho + rho.conj().T) + tol * np.eye(rho.shape[0]))
    except np.linalg.LinAlgError:
        raise CheckFailed(f"{where}: not positive semidefinite") from None


def kraus_apply(kraus, rho, rest: int = 1) -> np.ndarray:
    """sum_k (K (x) I_rest) rho (K (x) I_rest)^dag by an einsum contraction."""
    k = np.asarray(kraus)
    dout, din = k.shape[1], k.shape[2]
    t = np.asarray(rho).reshape(din, rest, din, rest)
    out = np.einsum("kai,ixjy,kbj->axby", k, t, k.conj(), optimize=True)
    return out.reshape(dout * rest, dout * rest)


def choi_apply(w, din: int, dout: int, rho) -> np.ndarray:
    """L(rho) = tr_in[W (1 (x) rho^T)] for W on H_out (x) H_in."""
    t = np.asarray(w).reshape(dout, din, dout, din)
    return np.einsum("aibj,ij->ab", t, np.asarray(rho))


def check_choi(w, din: int, dout: int, sources, targets, tol: float = 1e-7) -> None:
    """A certificate channel: PSD, trace preserving, sources onto targets."""
    w = np.asarray(w)
    require(w.shape == (din * dout, din * dout), f"Choi matrix has shape {w.shape}")
    herm = float(np.abs(w - w.conj().T).max())
    require(herm <= tol, f"Choi matrix not Hermitian ({herm:.3e})")
    lam_min = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min())
    require(lam_min >= -tol, f"Choi matrix not PSD (min eigenvalue {lam_min:.3e})")
    t = w.reshape(dout, din, dout, din)
    tp = float(np.abs(np.einsum("aiaj->ij", t) - np.eye(din)).max())
    require(tp <= tol, f"Choi matrix not trace preserving ({tp:.3e})")
    for k, (src, tgt) in enumerate(zip(sources, targets)):
        err = float(np.abs(choi_apply(w, din, dout, src) - tgt).max())
        require(err <= tol, f"certificate misses target {k} by {err:.3e}")


def overlap_feasible(sources, targets) -> bool:
    """Pure-pair criterion: a channel exists iff |<s1|s2>| <= |<t1|t2>|."""

    def overlap(pair):
        a, b = (np.asarray(m) for m in pair)
        # |<x|y>|^2 = tr(|x><x| |y><y|) for pure states
        return math.sqrt(max(float(np.trace(a @ b).real), 0.0))

    return overlap(sources) <= overlap(targets)


def partial_transpose_min_eig(choi_state, d: int) -> float:
    t = np.asarray(choi_state).reshape(d, d, d, d)
    pt = t.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T)).min())


def choi_state(kraus) -> np.ndarray:
    """(L (x) I)(|Phi><Phi|) for the maximally entangled |Phi>."""
    k = np.asarray(kraus)
    d = k.shape[2]
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    return kraus_apply(k, np.outer(phi, phi.conj()), rest=d)


# ---------------------------------------------------------------------------
# Sweep curves and verdicts


def commuting_curve(p, q, s) -> np.ndarray:
    """sum_i |p_i - s q_i| on the joint eigenvalues of a commuting pair."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.abs(p[None, :] - s[:, None] * q[None, :]).sum(axis=1)


def check_curve(s_values, norms, p, q, tol: float = 1e-9) -> None:
    want = commuting_curve(p, q, s_values)
    err = float(np.abs(np.asarray(norms) - want).max())
    require(err <= tol, f"commuting curve off its closed form by {err:.3e}")


def check_breakpoints(breakpoints, p, q, tol: float = 1e-9) -> None:
    """Kinks of a commuting curve sit at the ratios p_i / q_i >= 0.

    The tolerance is relative: a ratio over a small q_i carries the
    eigensolver's absolute error divided by q_i.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = q > 1e-12
    want = p[mask] / q[mask]
    want = want[want >= 0]
    got = np.asarray(breakpoints, dtype=float)
    ok = len(got) > 0 and all(np.abs(got - r).min() <= tol * max(1.0, r) for r in want) and all(
        np.abs(want - g).min() <= tol * max(1.0, g) for g in got
    )
    require(ok, f"breakpoints {got.tolist()} differ from joint-eigenvalue ratios")


def check_damp_verdict(relation, witness_s, gap, tol: float = 1e-9) -> None:
    """The damping counterexample: incomparable at s = 1/2, gap (sqrt2 - 1)/2."""
    require(relation == "incomparable", f"damp verdict {relation!r} is not incomparable")
    require(witness_s is not None and abs(witness_s - 0.5) <= tol,
            f"damp witness s = {witness_s!r}, want 0.5")
    require(gap is not None and abs(gap - DAMP_GAP) <= tol,
            f"damp gap = {gap!r}, want {DAMP_GAP!r}")


def damp_curves(xi: float, s) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms for full damping at xi against the undamped member:
    the excited input and the entangled input."""
    s = np.asarray(s, dtype=float)
    excited = np.abs(1.0 - xi - s) + xi
    entangled = 0.5 * np.sqrt((1.0 - s + xi) ** 2 + 4.0 * s * xi) + 0.5 * np.abs(1.0 - xi - s)
    return excited, entangled


def check_damp_sweep_csv(text: str, xi: float = 0.5, tol: float = 1e-9) -> int:
    """Rows of the damp-counterexample sweep CSV against the closed forms."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) > 0, "sweep CSV has no rows")
    by_input: dict[str, list] = {}
    for r in rows:
        by_input.setdefault(r["input"], []).append((float(r["s"]), float(r["norm"])))
    require(set(by_input) == {"excited", "entangled"},
            f"sweep CSV inputs {sorted(by_input)}")
    for name, pts in by_input.items():
        s = np.array([p[0] for p in pts])
        got = np.array([p[1] for p in pts])
        want = damp_curves(xi, s)[0 if name == "excited" else 1]
        err = float(np.abs(got - want).max())
        require(err <= tol, f"sweep CSV {name} curve off by {err:.3e}")
    return len(rows)


# ---------------------------------------------------------------------------
# Phase closure


def closure_residual(x, omegas) -> float:
    x = np.asarray(x, dtype=float)
    return float(abs(np.dot(x[:-1], np.asarray(omegas, dtype=complex)) + x[-1]))


def check_closures(x, solutions, tol: float = 1e-9) -> None:
    for k, om in enumerate(solutions):
        om = np.asarray(om, dtype=complex)
        require(bool(np.all(np.abs(np.abs(om) - 1.0) <= tol)), f"solution {k} leaves the unit circle")
        res = closure_residual(x, om)
        require(res <= tol, f"solution {k} does not close (residual {res:.3e})")
