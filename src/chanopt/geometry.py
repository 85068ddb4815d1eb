"""Unit-phase solutions of weighted closure sums.

Ang(x) is the set of phase vectors (w_1..w_{d-1}) of unit modulus with
x_1 w_1 + ... + x_{d-1} w_{d-1} + x_d = 0: the closed polygons with the
given side lengths. Nonemptiness is the polygon inequality, d=3 is the
triangle case solved exactly, and d >= 4 is sampled through the chain of
partial-sum moduli, which parametrizes the solution set. A closure is a
complex array of its d-1 phases, and k closures a (k, d-1) array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def closure_residual(x, omegas):
    """|x_1 w_1 + ... + x_{d-1} w_{d-1} + x_d| of one closure, or of each row
    of a stack of them, summed at x scaled as _sorted_desc scales it, so
    that no partial sum overflows, and scaled back: both are exact. hypot(re,
    im) rounds like abs() of one complex number; np.abs of a complex array
    can differ from it in the last bit."""
    e = np.frexp(np.abs(x).max())[1]
    y = np.ldexp(np.asarray(x, dtype=float), -e)
    z = (y[:-1] * np.asarray(omegas)).sum(-1) + y[-1]
    return np.ldexp(np.hypot(z.real, z.imag), e)


def _sorted_desc(x):
    """x in descending order, scaled by the power of two that puts its
    largest entry into [0.5, 1), and that order. Closures do not depend on
    the scale, and the scaling is exact, so lengths of any size close
    without overflow and normal-range lengths keep every bit."""
    order = np.argsort(-x, kind="stable")
    return np.ldexp(x[order], -np.frexp(x[order[0]])[1]), order


def _restore_order(om_sorted, order) -> np.ndarray:
    """Closures in the input order from rows of phases at sorted positions
    1..d-1 (sorted position d carries 1), each checked to be unit modulus."""
    full = np.ones((len(om_sorted), len(order)), dtype=complex)
    full[:, order[:-1]] = om_sorted
    om = full[:, :-1] / full[:, -1:]
    if (np.abs(np.abs(om) - 1.0) > 1e-10).any():
        raise ValueError("entries must have unit modulus")
    return om


def ang_nonempty(x) -> bool:
    """Polygon condition: the largest entry at most the sum of the rest."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) < 3:
        raise ValueError("need at least three lengths")
    if (x < 0).any():
        raise ValueError("entries must be nonnegative")
    y, _ = _sorted_desc(x)
    return bool(y[0] <= y[1:].sum())


def ang_solve_triangle(x) -> np.ndarray:
    """All closures of three lengths as a (k, 2) array: no row, one
    degenerate flat solution, or a conjugate pair from the law of cosines,
    rows in lexicographic order of (re, im) of each entry."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != 3:
        raise ValueError("expected exactly three lengths")
    if (x < 0).any():
        raise ValueError("entries must be nonnegative")
    y, order = _sorted_desc(x)
    slack = y[1] + y[2] - y[0]
    if slack < -1e-12 * y[0]:
        return np.empty((0, 2), dtype=complex)
    if slack <= 1e-12 * y[0]:
        return _restore_order(np.array([[-1.0, 1.0]]), order)
    c = (y[1] ** 2 - y[0] ** 2 - y[2] ** 2) / (2 * y[0] * y[2])
    w1 = np.exp(1j * np.arccos(np.clip(c, -1.0, 1.0)))
    w2 = -(y[0] * w1 + y[2]) / y[1]
    w2 /= abs(w2)
    sol = _restore_order(np.array([[w1, w2]]), order)
    # np.unique of sol and its conjugate without its import of numpy.ma: one
    # row if sol is real, else first the row below the axis where they part
    off = sol[0].imag[sol[0].imag != 0]
    if not len(off):
        return sol
    return np.concatenate([sol.conj(), sol] if off[0] > 0 else [sol, sol.conj()])


def _chain_intervals(y, r_next, k):
    lo = max(abs(r_next - y[k - 1]), y[0] - y[1 : k - 1].sum())
    hi = min(r_next + y[k - 1], y[: k - 1].sum())
    return lo, hi


def ang_sample(x, n: int, seed) -> np.ndarray:
    """Draw n closures of d >= 4 lengths, uniform over chain coordinates, as
    an (n, d-1) array.

    Walks k = d-1 down to 3 drawing the partial-sum modulus r_k inside the
    intersection of its two feasibility intervals (open interior, shrunk by
    a relative 1e-6 margin), resolving each phase up to a seeded binary
    orientation, then closes the last two phases by a triangle solve.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = len(x)
    if d < 4:
        raise ValueError("sampler needs at least four lengths")
    if (x <= 0).any():
        raise ValueError("entries must be strictly positive")
    y, order = _sorted_desc(x)
    if y[0] >= y[1:].sum():
        raise ValueError(
            "largest entry must be strictly below the sum of the rest"
        )
    rng = np.random.default_rng(seed)

    om_sorted = np.zeros((n, d - 1), dtype=complex)
    for om in om_sorted:
        z = complex(y[d - 1])
        r_next = y[d - 1]
        for k in range(d - 1, 2, -1):
            lo, hi = _chain_intervals(y, r_next, k)
            if hi - lo <= 0:
                raise RuntimeError("empty feasibility interval in the chain")
            margin = 1e-6 * (hi - lo)
            r_k = rng.uniform(lo + margin, hi - margin)
            c = (r_k**2 - r_next**2 - y[k - 1] ** 2) / (2 * y[k - 1] * r_next)
            sign = 1.0 if rng.integers(2) else -1.0
            alpha = np.angle(z) + sign * np.arccos(np.clip(c, -1.0, 1.0))
            om[k - 1] = np.exp(1j * alpha)
            z += y[k - 1] * om[k - 1]
            r_next = r_k
        # close the two largest sides against the accumulated tail
        c = (y[1] ** 2 - y[0] ** 2 - r_next**2) / (2 * y[0] * r_next)
        sign = 1.0 if rng.integers(2) else -1.0
        theta = np.angle(z) + sign * np.arccos(np.clip(c, -1.0, 1.0))
        om[0] = np.exp(1j * theta)
        om[1] = -(y[0] * om[0] + z) / y[1]
        om[1] /= abs(om[1])
    out = _restore_order(om_sorted, order)
    if (closure_residual(x, out) > 1e-9 * x.max()).any():
        raise RuntimeError("sample failed the closure check")
    return out


@dataclass
class ParallelShadow:
    subset_holds: bool
    # the first sampled closure of x that is not one of x', as a row
    violating_sample: np.ndarray | None = None


# Closure residual beyond which a sample leaves the solution set of x'.
PARALLEL_TOL = 1e-6


def ang_parallel_property(x, x_prime, n: int = 50, seed=0) -> ParallelShadow:
    """Falsifiable shadow of the proportionality statement: when x' is not a
    multiple of x, sampled closures of x should leak out of the solution set
    of x'. Tests membership of each sample; d=3 uses the exact solutions,
    in the order ang_solve_triangle gives them."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xp = np.asarray(x_prime, dtype=float).reshape(-1)
    if len(x) != len(xp) or len(x) < 3:
        raise ValueError("vectors must share a length of at least three")
    if len(x) == 3:
        samples = ang_solve_triangle(x)
        if not len(samples):
            raise ValueError("no closures exist for x")
    else:
        samples = ang_sample(x, n, seed)
    leaks = samples[closure_residual(xp, samples) > PARALLEL_TOL]
    return ParallelShadow(not len(leaks), leaks[0] if len(leaks) else None)
