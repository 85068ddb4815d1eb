"""Shared fixtures and independent oracles.

The oracles here recompute quantities by the most literal method available
(double loops, eigendecompositions, exhaustive grids) so the library's
closed forms and solvers are checked against something that cannot share
their bugs.
"""
import numpy as np
import pytest

from chanopt.channels import make_family
from chanopt.comparison import SWEEP_TOL
from chanopt.presets import preset_document


# the rng fixture's seed, which tests/corpus.py also draws some sets from
FIXTURE_SEED = 20240815


@pytest.fixture
def rng():
    return np.random.default_rng(FIXTURE_SEED)


def factor_permutation(dims, perm) -> np.ndarray:
    """The dense 0/1 matrix P that reorders tensor factors: factor i of P v
    is factor perm[i] of v."""
    dims = list(dims)
    total = int(np.prod(dims))
    dst = np.transpose(np.arange(total).reshape(dims), perm).reshape(-1)
    p = np.zeros((total, total))
    p[np.arange(total), dst] = 1.0
    return p


def random_pure(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d: int, rank: int | None = None) -> np.ndarray:
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def preset_family(name: str):
    """The family of a named preset, built from its spec document."""
    family = preset_document(name)["family"]
    return make_family(family["kind"], family)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic n-point covering of the unit sphere."""
    k = np.arange(n)
    z = 1.0 - (2 * k + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)


def bloch_state(r) -> np.ndarray:
    """Qubit state vector with the given Bloch direction (unit r)."""
    x, y, z = (float(v) for v in r)
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def random_kraus(rng, din, dout, rank):
    """Kraus operators of a random channel: blocks of a random isometry
    (rank is raised to the smallest that admits one)."""
    rank = max(rank, -(-din // dout))
    g = rng.normal(size=(rank * dout, din)) + 1j * rng.normal(size=(rank * dout, din))
    q, _ = np.linalg.qr(g)
    return [q[k * dout : (k + 1) * dout] for k in range(rank)]


def bloch(r) -> np.ndarray:
    """Qubit density matrix with Bloch vector r (|r| <= 1)."""
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Oracles


def trace_norm_oracle(m) -> float:
    """Sum of singular values from an explicit SVD."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def partial_trace_oracle(m, dims, keep: int) -> np.ndarray:
    """Index-loop partial trace, no einsum."""
    m = np.asarray(m, dtype=complex)
    dims = tuple(dims)
    dk = dims[keep]
    out = np.zeros((dk, dk), dtype=complex)
    idx = [range(d) for d in dims]
    import itertools

    def flat(multi):
        f = 0
        for d, i in zip(dims, multi):
            f = f * d + i
        return f

    for row in itertools.product(*idx):
        for a in range(dk):
            col = list(row)
            col[keep] = a
            out[row[keep], a] += m[flat(row), flat(col)]
    return out


def partial_transpose_oracle(m, dims, on: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    k = len(dims)
    t = m.reshape(tuple(dims) + tuple(dims))
    t = np.swapaxes(t, on, k + on)
    n = int(np.prod(dims))
    return t.reshape(n, n)


def bell_weights_oracle(kraus_ops, d: int) -> np.ndarray:
    """Project the Choi matrix onto the Weyl frame by direct matrix products."""
    x = np.zeros((d, d), dtype=complex)
    for b in range(d):
        x[b, (b + 1) % d] = 1.0
    w = np.exp(2j * np.pi / d)
    z = np.diag([w ** (k + 1) for k in range(d)])
    choi = np.zeros((d * d, d * d), dtype=complex)
    for kop in kraus_ops:
        v = np.asarray(kop, dtype=complex).reshape(-1)
        choi += np.outer(v, v.conj())
    weights = []
    for j in range(d):
        for k in range(d):
            u = np.linalg.matrix_power(x, j) @ np.linalg.matrix_power(z, k)
            vu = u.reshape(-1)
            weights.append((vu.conj() @ choi @ vu).real / d**2)
    return np.array(weights)


def ang_grid_search(x, steps: int):
    """Exhaustive phase grid for the closure equation.

    Returns (min residual, resolution bound): the closure can move by at most
    sum(x[:-1]) * (pi / steps) between neighboring grid points, so a true
    solution leaves a residual below that bound somewhere on the grid.
    """
    x = np.asarray(x, dtype=float)
    k = len(x) - 1
    phases = np.exp(2j * np.pi * np.arange(steps) / steps)
    total = np.array(x[-1], dtype=complex)
    for j in range(k):
        total = total[..., None] + x[j] * phases
    best = np.abs(total).min()
    bound = float(np.sum(x[:k])) * (np.pi / steps)
    return float(best), bound


def _pencil_ends_oracle(a, b) -> tuple[float, float]:
    """One pair's semidefinite guess, as the per-pair sweep made it."""
    w, v = np.linalg.eigh(a + b)
    keep = w > 1e-12 * max(float(w[-1]), 0.0)
    if not keep.any():
        return 0.0, np.inf
    vr = v[:, keep] / np.sqrt(w[keep])
    t = np.linalg.eigvalsh(vr.conj().T @ a @ vr)
    lo, hi = float(t[0]), float(t[-1])
    return (lo / (1.0 - lo) if lo < 1.0 else np.inf), (hi / (1.0 - hi) if hi < 1.0 else np.inf)


def _pencil_eigvalsh_oracle(a, b, s) -> np.ndarray:
    stack = a[None, :, :] - s[:, None, None] * b[None, :, :]
    return np.linalg.eigvalsh(0.5 * (stack + stack.conj().swapaxes(1, 2)))


def hermitian_sweep_oracle(a, b, s) -> np.ndarray:
    """||a - s_k b||_1 of one Hermitian pair by the per-pair sweep that the
    batched comparison._hermitian_sweeps replaced: the same guess, the same
    certificate and the same stacked eigvalsh, one pair at a time, so the
    batch must agree with it bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    s = np.asarray(s, dtype=float).reshape(-1)
    lo, hi = _pencil_ends_oracle(a, b)
    psd = (s > 0) & (s <= lo)
    nsd = (s > 0) & (s >= hi) & ~psd
    s_k = s[psd].max(initial=0.0)
    s_m = s[nsd].min(initial=np.inf)
    closed = (psd & (s < s_k)) | (nsd & (s > s_m))
    if closed.any():
        stacked = ~closed
        ends = [0.0, s_k, s_m if nsd.any() else 0.0]
        lam = _pencil_eigvalsh_oracle(a, b, np.concatenate([ends, s[stacked]]))
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
    return np.abs(_pencil_eigvalsh_oracle(a, b, s)).sum(axis=1)


def hull_min_norm_oracle(points, steps: int = 200) -> float:
    """Brute-force min |convex combination| over a barycentric grid."""
    import itertools

    pts = np.asarray(points, dtype=complex)
    k = len(pts)
    if k == 1:
        return float(abs(pts[0]))
    ticks = np.linspace(0.0, 1.0, steps)
    best = np.inf
    if k == 2:
        for t in ticks:
            best = min(best, abs(t * pts[0] + (1 - t) * pts[1]))
        return float(best)
    for combo in itertools.product(ticks, repeat=k - 1):
        rest = 1.0 - sum(combo)
        if rest < -1e-12:
            continue
        w = np.array(list(combo) + [max(rest, 0.0)])
        best = min(best, abs(np.sum(w * pts)))
    return float(best)
