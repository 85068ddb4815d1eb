"""Unit-phase solutions of weighted closure sums.

Ang(x) is the set of phase vectors (w_1..w_{d-1}) of unit modulus with
x_1 w_1 + ... + x_{d-1} w_{d-1} + x_d = 0: the closed polygons with the
given side lengths. Nonemptiness is the polygon inequality, d=3 is the
triangle case solved exactly, and d >= 4 is sampled through the chain of
partial-sum moduli, which parametrizes the solution set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AngleVector:
    omegas: tuple[complex, ...]

    def __post_init__(self):
        om = tuple(complex(w) for w in self.omegas)
        if any(abs(abs(w) - 1.0) > 1e-10 for w in om):
            raise ValueError("entries must have unit modulus")
        object.__setattr__(self, "omegas", om)

    def __len__(self):
        return len(self.omegas)

    def conjugate(self) -> "AngleVector":
        return AngleVector(tuple(w.conjugate() for w in self.omegas))


def closure_residual(x, av: AngleVector) -> float:
    x = np.asarray(x, dtype=float)
    om = np.asarray(av.omegas)
    return float(abs((x[:-1] * om).sum() + x[-1]))


def _sorted_desc(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    order = np.argsort(-x, kind="stable")
    return x[order], order


def _restore_order(om_sorted, order, d) -> AngleVector:
    # om_sorted covers sorted positions 1..d-1; sorted position d carries 1.
    full = np.empty(d, dtype=complex)
    full[order] = np.concatenate([om_sorted, [1.0]])
    full = full / full[d - 1]
    return AngleVector(tuple(full[: d - 1]))


def ang_nonempty(x) -> bool:
    """Polygon condition: the largest entry at most the sum of the rest."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) < 3:
        raise ValueError("need at least three lengths")
    if (x < 0).any():
        raise ValueError("entries must be nonnegative")
    y = np.sort(x)[::-1]
    return bool(y[0] <= y[1:].sum())


def ang_solve_triangle(x) -> set[AngleVector]:
    """All closures of three lengths: empty, one degenerate flat solution,
    or a conjugate pair from the law of cosines."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != 3:
        raise ValueError("expected exactly three lengths")
    if (x < 0).any():
        raise ValueError("entries must be nonnegative")
    y, order = _sorted_desc(x)
    slack = y[1] + y[2] - y[0]
    scale = max(y[0], 1.0)
    if slack < -1e-12 * scale:
        return set()
    if slack <= 1e-12 * scale:
        return {_restore_order(np.array([-1.0, 1.0]), order, 3)}
    c = (y[1] ** 2 - y[0] ** 2 - y[2] ** 2) / (2 * y[0] * y[2])
    w1 = np.exp(1j * np.arccos(np.clip(c, -1.0, 1.0)))
    w2 = -(y[0] * w1 + y[2]) / y[1]
    w2 /= abs(w2)
    sol = _restore_order(np.array([w1, w2]), order, 3)
    return {sol, sol.conjugate()}


def _chain_intervals(y, r_next, k):
    lo = max(abs(r_next - y[k - 1]), y[0] - y[1 : k - 1].sum())
    hi = min(r_next + y[k - 1], y[: k - 1].sum())
    return lo, hi


def ang_sample(x, n: int, seed) -> list[AngleVector]:
    """Draw n closures of d >= 4 lengths, uniform over chain coordinates.

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

    out = []
    for _ in range(n):
        om = np.zeros(d - 1, dtype=complex)
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
        av = _restore_order(om, order, d)
        if closure_residual(x, av) > 1e-9:
            raise RuntimeError("sample failed the closure check")
        out.append(av)
    return out


@dataclass
class ParallelShadow:
    subset_holds: bool
    violating_sample: AngleVector | None = None


# Closure residual beyond which a sample leaves the solution set of x'.
PARALLEL_TOL = 1e-6


def ang_parallel_property(x, x_prime, n: int = 50, seed=0) -> ParallelShadow:
    """Falsifiable shadow of the proportionality statement: when x' is not a
    multiple of x, sampled closures of x should leak out of the solution set
    of x'. Tests membership of each sample; d=3 uses the exact solutions."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xp = np.asarray(x_prime, dtype=float).reshape(-1)
    if len(x) != len(xp) or len(x) < 3:
        raise ValueError("vectors must share a length of at least three")
    if len(x) == 3:
        samples = list(ang_solve_triangle(x))
        if not samples:
            raise ValueError("no closures exist for x")
    else:
        samples = ang_sample(x, n, seed)
    for av in samples:
        if closure_residual(xp, av) > PARALLEL_TOL:
            return ParallelShadow(False, av)
    return ParallelShadow(True, None)


def samples_to_csv(x, samples: list[AngleVector]) -> str:
    d = len(np.asarray(x).reshape(-1))
    head = ["index"]
    for i in range(1, d):
        head += [f"re_omega{i}", f"im_omega{i}"]
    head.append("residual")
    lines = [",".join(head)]
    for idx, av in enumerate(samples):
        row = [str(idx)]
        for w in av.omegas:
            row += [repr(float(w.real)), repr(float(w.imag))]
        row.append(repr(closure_residual(x, av)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
