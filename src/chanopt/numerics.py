"""Dense complex linear algebra kernel.

Everything downstream (channels, sweeps, protocols) runs on plain complex
numpy arrays. Single operators are small, mostly under a hundred dimensions,
so this module favors clarity over asymptotics: dense storage,
eigendecompositions wherever convenient, and explicit shape bookkeeping
through :class:`SystemShape`, which :class:`PureState` carries. Joint states of repeated uses reach
DIM_GUARD dimensions; the code that builds them contracts one tensor factor
at a time instead of forming operators on the joint space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10

# Largest joint dimension a spec field or a repetition strategy may ask for.
DIM_GUARD = 4096

# Entries of a large operand processed per slab (apply_at_factor's slabs of
# rho, the sweep's stacks of matrices): 1 MB of complex numbers, small enough
# for the temporaries to stay in cache.
_SLAB_ENTRIES = 1 << 16


def exceeds_dim_guard(dims, n: int = 1) -> bool:
    """Whether n copies of a system with factor dimensions dims go past
    DIM_GUARD: more than DIM_GUARD factors in all, whatever their dimension
    (each one still costs a step), or a joint dimension prod(dims)^n above
    it, in exact integers (an int64 product can wrap). Every size check is
    this one rule; no power above the guard is formed, so n may be huge."""
    base = math.prod(map(int, dims))
    return n * len(dims) > DIM_GUARD or (
        base > 1 and n > 0 and (n >= DIM_GUARD.bit_length() or base**n > DIM_GUARD)
    )


@dataclass(frozen=True)
class SystemShape:
    """Tensor factorization of a square matrix into subsystem dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))

    def check(self, m: np.ndarray) -> None:
        if m.shape != (self.dim, self.dim):
            raise ValueError(
                f"shape mismatch: matrix is {m.shape}, factors {self.factor_dims} "
                f"require {self.dim}x{self.dim}"
            )


# Largest deviation of a pure state's norm from 1. A probability pair's sum
# gets the same slack, so that phi_pv of a pair that passes, which has norm
# sqrt(p1 + p2) for unitary V, is a unit state.
NORM_TOL = 1e-10


@dataclass
class PureState:
    amplitudes: np.ndarray
    shape: SystemShape

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape[0] != self.shape.dim:
            raise ValueError("amplitude length does not match shape")
        # written so that a NaN norm fails too
        if not abs(np.linalg.norm(v) - 1.0) <= NORM_TOL:
            raise ValueError("state is not unit norm")
        self.amplitudes = v

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def reduced(self, keep: int) -> np.ndarray:
        return partial_trace(self.density(), self.shape, keep=keep)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.abs(m - m.conj().T).max() <= tol


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns). The input is
    symmetrized first so that round-off on analytically Hermitian operands
    cannot leak imaginary parts into the spectrum.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("eigendecomposition needs a square matrix")
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def around_factor(dims, k: int, what: str = "factor") -> tuple[int, int, int]:
    """(left, d_k, right): the joint dimensions of the factors before factor
    k, its own and those after it."""
    if not 0 <= k < len(dims):
        raise ValueError(f"{what} index {k} out of range for {len(dims)} factors")
    return math.prod(dims[:k]), dims[k], math.prod(dims[k + 1 :])


def partial_trace(m, shape: SystemShape, keep: int) -> np.ndarray:
    """Trace out every tensor factor except ``keep``.

    The trace of the input is preserved: tr(result) = tr(m).
    """
    m = as_matrix(m)
    shape.check(m)
    left, d, right = around_factor(shape.factor_dims, keep, "keep")
    return np.einsum("aibajb->ij", m.reshape(left, d, right, left, d, right))


def partial_transpose(m, shape: SystemShape, on: int) -> np.ndarray:
    """Transpose a single tensor factor; applying twice is the identity."""
    m = as_matrix(m)
    shape.check(m)
    left, d, right = around_factor(shape.factor_dims, on, "transpose")
    t = m.reshape(left, d, right, left, d, right)
    return np.swapaxes(t, 1, 4).reshape(m.shape)


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|.

    Hermiticity is detected within HERMITICITY_TOL so that analytically
    Hermitian operands take the cheaper, more accurate eigenvalue path.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("trace norm is defined here for square matrices only")
    if is_hermitian(m):
        w, _ = hermitian_eig(m)
        return float(np.abs(w).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def sorted_unique(x) -> np.ndarray:
    """np.unique of a finite 1-d array, without its import of numpy.ma: a
    stable sort, then the first of each run of equal values, so that of
    0.0 and -0.0 the first given is kept (np.unique keeps either)."""
    x = np.sort(np.asarray(x).reshape(-1), kind="stable")
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def max_abs(m) -> float:
    """Largest entry magnitude; the residual measure used throughout."""
    return float(np.abs(np.asarray(m)).max())


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def max_entangled(d: int) -> np.ndarray:
    """Amplitudes of the maximally entangled state on a d x d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


# Hermiticity, trace and eigenvalue slack of a state that counts as a
# density matrix.
DENSITY_TOL = 1e-8


def is_density(m: np.ndarray) -> bool:
    """Whether m is a density matrix: square, Hermitian with trace 1, and no
    eigenvalue below zero, each within DENSITY_TOL."""
    return bool(density_mask(as_matrix(m)))


def density_mask(ms) -> np.ndarray:
    """is_density of every matrix of a stack (..., d, d) of finite complex
    matrices, from one stacked eigvalsh."""
    ms = np.asarray(ms, dtype=complex)
    if ms.shape[-1] != ms.shape[-2]:
        return np.zeros(ms.shape[:-2], dtype=bool)
    ms_h = ms.conj().swapaxes(-1, -2)
    w = np.linalg.eigvalsh(0.5 * (ms + ms_h))
    return (
        (np.abs(ms - ms_h).max(axis=(-2, -1)) <= DENSITY_TOL)
        & (np.abs(np.trace(ms, axis1=-2, axis2=-1).real - 1.0) <= DENSITY_TOL)
        & (w.min(axis=-1) >= -DENSITY_TOL)
        & (np.abs(w.sum(axis=-1) - 1.0) <= DENSITY_TOL)
    )
