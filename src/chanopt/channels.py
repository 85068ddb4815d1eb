"""Channel representations and constructors.

A channel is carried either as a Kraus list (:class:`KrausChannel`) or as a
Choi matrix (:class:`ChoiMatrix`); both know their input and output
dimensions, and conversion goes through :func:`choi_of` and
:meth:`ChoiMatrix.to_kraus`.

Choi convention: ``W = sum_ij L(|i><j|) (x) |i><j|`` on H_out (x) H_in, so a
row-major reshape of a Kraus operator K (dout x din) vectorizes it into the
rank-one contribution vec(K) vec(K)^dag. The map acts as
``L(rho) = tr_in[ W (1 (x) rho^T) ]``.

Basis labels run 0..d-1 throughout.
"""
from __future__ import annotations

import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .numerics import (
    _SLAB_ENTRIES,
    DIM_GUARD,
    SystemShape,
    around_factor,
    as_matrix,
    dagger,
    exceeds_dim_guard,
    hermitian_eig,
    is_unitary,
    max_abs,
    max_entangled,
)

DEFAULT_TOL = 1e-9

# Slack of the equalities behind the measurement-family checks: vanishing
# cross terms and annihilations, unit traces and overlaps, input marginals.
MEASUREMENT_TOL = 1e-8

# What one Kraus operator costs apply_at_factor per entry, in units of one
# multiplication of the superoperator matmul. The Kraus route is bound by
# memory traffic (a product, a tensordot copy and an add per operator), the
# superoperator route by its d_out d_in multiplications per entry; 64 is the
# crossover measured on one x86_64 core with single-threaded OpenBLAS over
# d = 2..32, Kraus rank 1..2d and states of 256 to 2048 dimensions.
_KRAUS_OP_COST = 64


class ConstraintViolation(ValueError):
    """A family constructor received parameters outside its admissible set."""


class SpecError(ValueError):
    """Structural problem in a spec, located by field path (``family.xis[1]``)."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


@contextmanager
def _at(where: str):
    """Report a ValueError raised inside as a constraint violation of the
    spec field where; a SpecError keeps its own location."""
    try:
        yield
    except SpecError:
        raise
    except ValueError as exc:
        raise ConstraintViolation(f"{where}: {exc}") from exc


@dataclass
class KrausChannel:
    """Completely positive trace preserving map as a list of Kraus operators.

    All operators are dout x din; trace preservation sum_k K^dag K = I is the
    caller's responsibility and is what :func:`validate_cptp` checks.
    """

    kraus_ops: list[np.ndarray]
    din: int
    dout: int

    def __post_init__(self):
        if not self.kraus_ops:
            raise ValueError("at least one Kraus operator required")
        ops = [as_matrix(k) for k in self.kraus_ops]
        for k in ops:
            if k.shape != (self.dout, self.din):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"(dout, din) = ({self.dout}, {self.din})"
                )
        self.kraus_ops = ops

    @classmethod
    def from_ops(cls, ops) -> "KrausChannel":
        first = as_matrix(ops[0])
        return cls(list(ops), din=first.shape[1], dout=first.shape[0])

    def apply(self, rho) -> np.ndarray:
        rho = as_matrix(rho)
        return sum(k @ rho @ dagger(k) for k in self.kraus_ops)

    def kraus_sum(self) -> np.ndarray:
        """sum_k K^dag K, equal to the identity for a trace preserving map."""
        return sum(dagger(k) @ k for k in self.kraus_ops)


@dataclass
class ChoiMatrix:
    matrix: np.ndarray
    din: int
    dout: int

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix)
        n = self.din * self.dout
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"Choi matrix shape {self.matrix.shape} does not match "
                f"dout*din = {n}"
            )

    def apply(self, rho) -> np.ndarray:
        """L(rho) = tr_in[ W (1 (x) rho^T) ]."""
        rho = as_matrix(rho)
        m = self.matrix @ np.kron(np.eye(self.dout), rho.T)
        t = m.reshape(self.dout, self.din, self.dout, self.din)
        return np.trace(t, axis1=1, axis2=3)

    def trace_out_output(self) -> np.ndarray:
        """tr_out W; equals I_din for a trace preserving map."""
        t = self.matrix.reshape(self.dout, self.din, self.dout, self.din)
        return np.trace(t, axis1=0, axis2=2)

    def to_kraus(self) -> KrausChannel:
        """Kraus form from the eigendecomposition of the Choi matrix.

        Eigenvalues up to 1e-12 are treated as zero; negative eigenvalues beyond
        tolerance mean the map is not completely positive.
        """
        w, v = hermitian_eig(self.matrix)
        if w.min() < -1e-8:
            raise ValueError(f"Choi matrix is not PSD (min eig {w.min():.3e})")
        ops = []
        for lam, col in zip(w, v.T):
            if lam > 1e-12:
                ops.append(np.sqrt(lam) * col.reshape(self.dout, self.din))
        if not ops:
            raise ValueError("Choi matrix has no positive eigenvalues")
        return KrausChannel(ops, din=self.din, dout=self.dout)


@dataclass
class Povm:
    """Positive operator valued measure: PSD elements summing to the identity."""

    elements: list[np.ndarray]

    def __post_init__(self):
        self.elements = [as_matrix(e) for e in self.elements]
        d = self.elements[0].shape[0]
        for e in self.elements:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share a square dimension")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def validate(self) -> None:
        total = sum(self.elements)
        if max_abs(total - np.eye(self.dim)) > DEFAULT_TOL:
            raise ConstraintViolation("POVM completeness: elements do not sum to I")
        for i, e in enumerate(self.elements):
            w, _ = hermitian_eig(e)
            if w.min() < -DEFAULT_TOL:
                raise ConstraintViolation(f"POVM element {i} is not PSD")


@dataclass
class ChannelFamily:
    """Ordered, labeled channels sharing input and output spaces, as
    make_family builds and checks them.

    ``params`` carries kind-specific structure: the Weyl weights theta of a
    generalized Pauli family, the rotation data of a rotated measurement
    family, and so on. Consumers that need structure (the entanglement
    module, the measurement certifiers) read it from here.
    """

    members: list[tuple[str, KrausChannel]]
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    @property
    def din(self) -> int:
        return self.members[0][1].din

    @property
    def dout(self) -> int:
        return self.members[0][1].dout

    def channels(self) -> list[KrausChannel]:
        return [ch for _, ch in self.members]

    def labels(self) -> list[str]:
        return [label for label, _ in self.members]


# ---------------------------------------------------------------------------
# Core operations


def choi_of(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix sum_k vec(K_k) vec(K_k)^dag with row-major vec."""
    n = ch.dout * ch.din
    w = np.zeros((n, n), dtype=complex)
    for k in ch.kraus_ops:
        v = k.reshape(-1)
        w += np.outer(v, v.conj())
    return ChoiMatrix(w, din=ch.din, dout=ch.dout)


def apply_extended(ch: KrausChannel, rho, shape: SystemShape) -> np.ndarray:
    """Apply the channel to the first tensor factor of rho.

    With a single-factor shape this is plain application; otherwise the map
    acts as L (x) I on the remaining factors.
    """
    rho = as_matrix(rho)
    shape.check(rho)
    return apply_at_factor(ch, rho, shape.factor_dims, 0)


def apply_at_factor(ch: KrausChannel, rho: np.ndarray, dims, k: int) -> np.ndarray:
    """Apply the channel to tensor factor k of a state with the given dims.

    rho is viewed as (L, d_in, M, d_in, R), with L and R the joint
    dimensions of the factors before and after k and M = R L the axes
    between the row and column copies of factor k. Slabs of rho[l], cut
    along M to about _SLAB_ENTRIES entries so that no temporary grows with
    the state, are contracted one at a time and written straight into one
    preallocated output. The contraction uses the superoperator
    S = sum_K K (x) conj(K) (d_out^2 x d_in^2, the realigned Choi matrix,
    one matmul per slab) when that is cheaper, counting its construction:
    on a large state when d_out d_in <= _KRAUS_OP_COST r for Kraus rank r.
    Otherwise, as for a low-rank channel on a large factor or any channel
    on a small state, it applies each Kraus operator from both sides in the
    same slab loop. S never has more than _KRAUS_OP_COST times the entries
    of the Kraus set.
    """
    dims = list(dims)
    if dims[k] != ch.din:
        raise ValueError("factor dimension does not match the channel input")
    din, dout, ops = ch.din, ch.dout, ch.kraus_ops
    left, _, right = around_factor(dims, k)
    mid = right * left
    t = rho.reshape(left, din, mid, din, right)
    out = np.zeros((left, dout, mid, dout, right), dtype=complex)
    # per pair of outer indices (mid^2 of them) S costs d_out^2 d_in^2
    # multiplications and each Kraus operator _KRAUS_OP_COST d_out d_in;
    # building S costs r (d_out d_in)^2 once per call
    rank, outer = len(ops), mid * mid
    superop = None
    if dout * din * (outer + rank) <= _KRAUS_OP_COST * rank * outer:
        flat = np.reshape(ops, (rank, dout * din))
        choi = (flat.T @ flat.conj()).reshape(dout, din, dout, din)
        superop = choi.transpose(0, 2, 1, 3).reshape(dout * dout, din * din)
    step = max(1, _SLAB_ENTRIES // (din * din * right))
    for l in range(left):
        for m in range(0, mid, step):
            slab = t[l, :, m : m + step]
            dst = out[l, :, m : m + step]
            width = slab.shape[1]
            if superop is not None:
                pairs = slab.transpose(0, 2, 1, 3).reshape(din * din, width * right)
                img = (superop @ pairs).reshape(dout, dout, width, right)
                dst[...] = img.transpose(0, 2, 1, 3)
                continue
            for kop in ops:
                rows = (kop @ slab.reshape(din, -1)).reshape(dout, width, din, right)
                dst += np.tensordot(rows, kop.conj(), axes=(2, 1)).transpose(0, 1, 3, 2)
    dim = left * dout * right
    return out.reshape(dim, dim)


@dataclass
class CptpReport:
    trace_preserving: bool
    cp: bool
    min_choi_eig: float

    @property
    def valid(self) -> bool:
        return self.trace_preserving and self.cp


def validate_cptp(ch: KrausChannel, tol: float = DEFAULT_TOL) -> CptpReport:
    tp = max_abs(ch.kraus_sum() - np.eye(ch.din)) <= tol
    w, _ = hermitian_eig(choi_of(ch).matrix)
    min_eig = float(w.min())
    return CptpReport(trace_preserving=bool(tp), cp=min_eig >= -tol, min_choi_eig=min_eig)


def gen_pauli(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Pauli pair (X_d, Z_d).

    X_d is the cyclic shift with X|j> = |j-1 mod d>, Z_d = diag(w^(k+1)) for
    w = exp(2 pi i / d); they satisfy X^d = Z^d = 1 and w Z X = X Z.
    """
    if d < 2:
        raise ValueError(f"generalized Pauli needs dimension >= 2, got {d}")
    x = np.zeros((d, d), dtype=complex)
    for b in range(d):
        x[b, (b + 1) % d] = 1.0
    w = np.exp(2j * np.pi / d)
    z = np.diag([w ** (k + 1) for k in range(d)])
    return x, z


def weyl_ops(d: int) -> list[np.ndarray]:
    """The d^2 Weyl operators X^j Z^k, ordered with j major, k minor."""
    x, z = gen_pauli(d)
    xs = [np.linalg.matrix_power(x, j) for j in range(d)]
    zs = [np.linalg.matrix_power(z, k) for k in range(d)]
    return [xs[j] @ zs[k] for j in range(d) for k in range(d)]


def is_unital(ch: KrausChannel) -> bool:
    if ch.din != ch.dout:
        raise ValueError("unitality is defined for equal input/output dimensions")
    out = sum(k @ dagger(k) for k in ch.kraus_ops)
    return max_abs(out - np.eye(ch.dout)) <= DEFAULT_TOL


# Largest Choi-matrix entry by which the two sides of the covariance
# relation may differ.
COVARIANCE_TOL = 1e-8


def covariance(
    fam: ChannelFamily, group: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[bool, bool]:
    """Whether L(U_g rho U_g^dag) = V_g L(rho) V_g^dag for every member and g
    (covariant), and whether it holds with conj(V_g) for V_g (contravariant),
    compared on Choi matrices. Each member's Choi matrix serves both."""
    din, dout = fam.din, fam.dout
    gs = []
    for u, v in group:
        u = as_matrix(u)
        v = as_matrix(v)
        if not (is_unitary(u) and is_unitary(v)):
            raise ValueError("group elements must be unitary")
        # the input rotation on the Choi matrix, then each relation's output rotation
        rots_out = [np.kron(r, np.eye(din)) for r in (v, v.conj())]
        gs.append((np.kron(np.eye(dout), u.T), rots_out))
    holds = [True, True]
    for _, ch in fam.members:
        w = choi_of(ch).matrix
        for rot_in, rots_out in gs:
            pre = rot_in @ w @ dagger(rot_in)
            for i, rot in enumerate(rots_out):
                holds[i] = holds[i] and max_abs(pre - rot @ w @ dagger(rot)) <= COVARIANCE_TOL
    return holds[0], holds[1]


# ---------------------------------------------------------------------------
# Family constructors
#
# A generalized Pauli family is the mixture (_ou_channel) of weyl_ops, built
# from, and analysed by, its Weyl weights theta in that order, [I, Z, X, XZ]
# for qubits. A qubit spec may give the weights xis = (xi1, xi2, xi3) of X,
# XZ (= -iY) and Z instead:
#   theta = (1 - xi1 - xi2 - xi3, xi3, xi1, xi2).


def gp_theta_from_xi(xi) -> np.ndarray:
    """The Weyl weights theta of the qubit weights xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise ConstraintViolation("gp d=2 takes a 3-component xi vector")
    theta = np.array([1.0 - xi.sum(), xi[2], xi[0], xi[1]])
    if theta.min() < -1e-12 or theta.max() > 1 + 1e-12:
        raise ConstraintViolation(
            f"gp weights must lie in the probability simplex, got theta={theta}"
        )
    return np.clip(theta, 0.0, 1.0)


def gp_weights_from_channel(ch: KrausChannel) -> np.ndarray:
    """Recover Weyl mixing weights from a channel's Choi matrix.

    Works for any channel whose Choi state is diagonal in the basis
    (W_i (x) 1)|Phi_d>; raises ConstraintViolation otherwise.
    """
    d = ch.din
    if ch.dout != d:
        raise ConstraintViolation("weight recovery needs din == dout")
    w = choi_of(ch).matrix / d
    phi = max_entangled(d)
    vecs = [np.kron(u, np.eye(d)) @ phi for u in weyl_ops(d)]
    weights = np.array([np.real(v.conj() @ w @ v) for v in vecs])
    recon = sum(t * np.outer(v, v.conj()) for t, v in zip(weights, vecs))
    if max_abs(recon - w) > DEFAULT_TOL:
        raise ConstraintViolation("channel is not a Weyl mixture")
    return weights


def _damp_channel(p: float, xi: float) -> KrausChannel:
    if not 0.0 <= xi <= 1.0:
        raise ConstraintViolation(f"damp needs xi in [0,1], got {xi}")
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    ops = [
        sp * np.diag([1.0, np.sqrt(xi)]),
        sq * np.diag([np.sqrt(xi), 1.0]),
        sp * np.array([[0.0, np.sqrt(1.0 - xi)], [0.0, 0.0]]),
        sq * np.array([[0.0, 0.0], [np.sqrt(1.0 - xi), 0.0]]),
    ]
    return KrausChannel([op.astype(complex) for op in ops], din=2, dout=2)


def _diag_channel(d: int, theta) -> KrausChannel:
    """Cyclic family of diagonal Kraus operators.

    E_1 carries the parameter vector on its leading diagonal entries followed
    by the norm entry sqrt(sum |theta|^2), zeros after; E_i (i = 2..d) is the
    cyclic conjugate X^(i-1) E_1 X^-(i-1). Trace preservation pins
    sum_m |E_1[m,m]|^2 = 1, which is validated numerically rather than
    assumed in closed form.
    """
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    want = int(np.ceil((d - 1) / 2))
    if theta.shape != (want,):
        raise ConstraintViolation(
            f"diag d={d} needs {want} parameters, got {theta.shape[0]}"
        )
    ent = np.zeros(d, dtype=complex)
    ent[:want] = theta
    ent[want] = np.sqrt(float(np.sum(np.abs(theta) ** 2)))
    e1 = np.diag(ent)
    x, _ = gen_pauli(d)
    ops = []
    for i in range(d):
        xi_pow = np.linalg.matrix_power(x, i)
        ops.append(xi_pow @ e1 @ dagger(xi_pow))
    ch = KrausChannel(ops, din=d, dout=d)
    if max_abs(ch.kraus_sum() - np.eye(d)) > DEFAULT_TOL:
        raise ConstraintViolation(
            "diag parameters violate trace preservation; need sum of squared "
            f"diagonal magnitudes = 1, got {np.sum(np.abs(ent) ** 2):.12f}"
        )
    return ch


def cdep_choi(d: int, theta: float) -> ChoiMatrix:
    """Choi matrix theta * SWAP + (1-theta)/d * I of the contravariant family.

    The SWAP summand alone is the (non-CP) transpose map; the mixture is CP
    exactly on theta in [0, 1/(d+1)].
    """
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    w = theta * swap + (1.0 - theta) / d * np.eye(d * d)
    return ChoiMatrix(w, din=d, dout=d)


def _cdep_channel(d: int, theta: float) -> KrausChannel:
    if not 0.0 <= theta <= 1.0 / (d + 1) + 1e-12:
        raise ConstraintViolation(
            f"cdep parameter range is [0, 1/(d+1)] = [0, {1.0/(d+1):.6f}], got {theta}"
        )
    return cdep_choi(d, theta).to_kraus()


def _ou_channel(us: list[np.ndarray], weights) -> KrausChannel:
    """Mixture of d x d unitaries the caller has checked to be orthogonal."""
    d = us[0].shape[0]
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(us),) or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        raise ConstraintViolation(
            f"mixture weights must be a probability vector over {len(us)} unitaries, got {w}"
        )
    ops = [np.sqrt(max(t, 0.0)) * u for t, u in zip(w, us) if t > 1e-15]
    return KrausChannel(ops, din=d, dout=d)


def _qubit_phase_channel(t1: float, t2: float) -> KrausChannel:
    r2 = t1 * t1 + t2 * t2
    if r2 > 1.0 + 1e-12:
        raise ConstraintViolation(
            f"qubit-phase parameter must satisfy t1^2 + t2^2 <= 1, got {r2:.6f}"
        )
    e1 = np.diag([1.0, t1 + 1j * t2])
    e2 = np.diag([0.0, np.sqrt(max(1.0 - r2, 0.0))])
    return KrausChannel([e1, e2], din=2, dout=2)


def measurement_channel(povm: Povm) -> KrausChannel:
    """Channel that measures a POVM and outputs the outcome label.

    Output dimension is the number of outcomes; Kraus operators are
    sqrt(lam) |i><phi| over the eigenpairs of each element, so the output is
    diagonal in the outcome basis: L(rho) = sum_i tr(rho M_i) |i><i|.
    """
    povm.validate()
    d = povm.dim
    m = len(povm.elements)
    ops = []
    for i, elem in enumerate(povm.elements):
        w, v = hermitian_eig(elem)
        for lam, col in zip(w, v.T):
            if lam > 1e-12:
                out = np.zeros((m, d), dtype=complex)
                out[i, :] = np.sqrt(lam) * col.conj()
                ops.append(out)
    return KrausChannel(ops, din=d, dout=m)


def rotated_povm(base_plus, base_minus, unitaries) -> tuple[list, list, float]:
    """Build the rotated measurement pair M_pm(i) = (1/c) U_i M_pm U_i^dag.

    Requires sum_i U_i A U_i^dag = c tr(A) 1 for all A, which fixes
    c = len(unitaries)/d and makes each rotated set a POVM: exactly
    sum_i U_i (x) conj(U_i) = c vec(1) vec(1)^T, checked entry by entry as
    its realignment sum_i vec(U_i) vec(U_i)^dag = c 1 (rank d^2 at least).
    """
    us = [as_matrix(u) for u in unitaries]
    d = us[0].shape[0]
    c = len(us) / d
    flat = np.reshape(us, (len(us), d * d))
    if len(us) < d * d or max_abs(flat.T @ flat.conj() - c * np.eye(d * d)) > 1e-8:
        raise ConstraintViolation(
            "rotation set does not satisfy sum_i U A U^dag = c tr(A) 1"
        )
    mp = as_matrix(base_plus)
    mm = as_matrix(base_minus)
    plus = [u @ mp @ dagger(u) / c for u in us]
    minus = [u @ mm @ dagger(u) / c for u in us]
    return plus, minus, c


# ---------------------------------------------------------------------------
# Spec schema
#
# Each family kind has one builder below; it reads its fields by name through
# a _Fields accessor and a typed reader. Readers take JSON values (complex
# entries as [re, im] pairs) and numpy arrays alike, and raise SpecError
# naming the full path of the offending field.

_MISSING = object()


class _Fields:
    """Typed reads of one spec object's fields (a non-object is a SpecError),
    located under a path; the document itself has the empty path, so its
    fields are named by bare keys."""

    def __init__(self, node: dict, where: str):
        if not isinstance(node, dict):
            raise SpecError(where, "expected an object")
        self.node = node
        self.where = where

    def __contains__(self, key: str) -> bool:
        return key in self.node

    def __call__(self, key: str, read=None, default=_MISSING):
        """node[key] passed through read(value, path); a missing key without
        a default is a SpecError."""
        path = f"{self.where}.{key}" if self.where else key
        if key not in self.node:
            if default is _MISSING:
                raise SpecError(path, "missing required field")
            return default
        return self.node[key] if read is None else read(self.node[key], path)


def _is_real(node) -> bool:
    # abs() <= max also rejects NaN, infinities and ints too large for a float
    return (
        isinstance(node, numbers.Real)
        and not isinstance(node, bool)
        and abs(node) <= sys.float_info.max
    )


def _real_from(node, where: str) -> float:
    if not _is_real(node):
        raise SpecError(where, "expected a finite real number")
    return float(node)


def _int_from(node, where: str) -> int:
    if not _is_real(node) or node != int(node):
        raise SpecError(where, "expected an integer")
    return int(node)


def _str_from(node, where: str) -> str:
    if not isinstance(node, str):
        raise SpecError(where, "expected a string")
    return node


def _one_of(names):
    """Reader of one of names; any other value is unknown, named by its key."""

    def read_name(node, where: str) -> str:
        if not isinstance(node, str) or node not in names:
            raise SpecError(where, f"unknown {where.rsplit('.', 1)[-1]} {node!r}")
        return node

    return read_name


def _complex_from(node, where: str) -> complex:
    if isinstance(node, numbers.Complex) and not isinstance(node, numbers.Real):
        node = [node.real, node.imag]
    if _is_real(node):
        return complex(node)
    if isinstance(node, (list, tuple)) and len(node) == 2 and all(map(_is_real, node)):
        return complex(node[0], node[1])
    raise SpecError(where, "expected a real number or an [re, im] pair")


def _items(node, where: str) -> list:
    if not (isinstance(node, (list, tuple)) or (isinstance(node, np.ndarray) and node.ndim)):
        raise SpecError(where, "expected a list")
    return list(node)


def _list_of(read):
    """Reader of a nonempty list whose items pass read(item, path[i])."""

    def read_list(node, where: str) -> list:
        items = _items(node, where)
        if not items:
            raise SpecError(where, "expected a nonempty list")
        return [read(v, f"{where}[{i}]") for i, v in enumerate(items)]

    return read_list


def _real_list(node, where: str) -> list[float]:
    """A list of finite reals, possibly empty."""
    return [_real_from(v, f"{where}[{i}]") for i, v in enumerate(_items(node, where))]


def _vector_from(node, where: str) -> np.ndarray:
    return np.array(_list_of(_complex_from)(node, where))


def _matrix_from(node, where: str) -> np.ndarray:
    rows = _list_of(_vector_from)(node, where)
    if len({len(r) for r in rows}) != 1:
        raise SpecError(where, "rows have unequal lengths")
    return np.array(rows)


def _square(d: int):
    """Reader of a d x d matrix."""

    def read_square(node, where: str) -> np.ndarray:
        m = _matrix_from(node, where)
        if m.shape != (d, d):
            raise SpecError(where, f"expected a {d}x{d} matrix")
        return m

    return read_square


def _check_dims(where: str, *dims: int) -> None:
    """Reject a dimension below 1, or factors past the guard
    (exceeds_dim_guard), before anything of that size is allocated."""
    if min(dims) < 1 or exceeds_dim_guard(dims):
        raise ConstraintViolation(
            f"{where}: dimensions {list(dims)} must be at least 1, at most "
            f"{DIM_GUARD} of them, with a product of at most {DIM_GUARD}"
        )


def _qudit_dim(node, where: str) -> int:
    """d of a family of d -> d channels."""
    d = _int_from(node, where)
    _check_dims(where, d, d)
    return d


def _unitaries(node, where: str) -> list[np.ndarray]:
    """A nonempty list of d x d unitaries sharing one d."""
    us = _list_of(_matrix_from)(node, where)
    d = us[0].shape[0]
    for i, u in enumerate(us):
        if u.shape != (d, d) or not is_unitary(u):
            raise ConstraintViolation(f"{where}[{i}]: not a {d}x{d} unitary")
    return us


def _real_pair(node, where: str) -> tuple[float, float]:
    t = _real_list(node, where)
    if len(t) != 2:
        raise SpecError(where, "expected a pair of real numbers")
    return t[0], t[1]


def _labels_from(node, where: str) -> list[str]:
    labels = _list_of(_str_from)(node, where)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise SpecError(f"{where}[{i}]", f"duplicate label {label!r}")
    return labels


def _each(where: str, items, build) -> list:
    """build(item) for each item of the list field at where; a ValueError
    that building item i raises names the path where[i]."""
    built = []
    for i, item in enumerate(items):
        with _at(f"{where}[{i}]"):
            built.append(build(item))
    return built


def _numbered(prefix: str, f: _Fields, key: str, items, build) -> list[tuple]:
    """Members (prefix0, path, channel), (prefix1, ...): build(item) for
    each item of the list field key, with that item's path."""
    where = f"{f.where}.{key}"
    channels = _each(where, items, build)
    return [(f"{prefix}{i}", f"{where}[{i}]", ch) for i, ch in enumerate(channels)]


def _gp(f: _Fields):
    d = f("d", _qudit_dim)
    if d == 2 and "xis" in f:
        key = "xis"
        thetas = _each(f"{f.where}.xis", f("xis", _list_of(_real_list)), gp_theta_from_xi)
    else:
        key = "thetas"
        thetas = [np.array(t, dtype=float) for t in f("thetas", _list_of(_real_list))]
    with _at(f"{f.where}.d"):
        us = weyl_ops(d)
    return _numbered("gp", f, key, thetas, lambda t: _ou_channel(us, t)), {"thetas": thetas}


def _damp(f: _Fields):
    p = f("p", _real_from)
    if not 0.0 <= p <= 1.0:
        raise ConstraintViolation(f"{f.where}.p: damp needs p in [0,1], got {p}")
    xis = f("xis", _list_of(_real_from))
    return _numbered("damp", f, "xis", xis, lambda xi: _damp_channel(p, xi)), {"p": p, "xis": xis}


def _diag(f: _Fields):
    d = f("d", _qudit_dim)
    thetas = f("thetas", _list_of(_vector_from))
    return _numbered("diag", f, "thetas", thetas, lambda t: _diag_channel(d, t)), {"thetas": thetas}


def _cdep(f: _Fields):
    d = f("d", _qudit_dim)
    thetas = f("thetas", _list_of(_real_from))
    return _numbered("cdep", f, "thetas", thetas, lambda t: _cdep_channel(d, t)), {"thetas": thetas}


def _ou(f: _Fields):
    unitaries = f("unitaries", _unitaries)
    for i, j in combinations(range(len(unitaries)), 2):
        if abs(np.trace(dagger(unitaries[j]) @ unitaries[i])) > 1e-9:
            raise ConstraintViolation(
                f"{f.where}.unitaries: ou elements {i},{j} are not orthogonal, tr(U_i U_j^dag) != 0"
            )
    weights = f("weights", _list_of(_real_list))
    members = _numbered("ou", f, "weights", weights, lambda w: _ou_channel(unitaries, w))
    return members, {"unitaries": unitaries}


def _qubit_phase(f: _Fields):
    thetas = f("thetas", _list_of(_real_pair))
    members = _numbered("phase", f, "thetas", thetas, lambda t: _qubit_phase_channel(*t))
    return members, {"thetas": thetas}


def _measurement(f: _Fields):
    """Plain form (``structure: "plain"``): one POVM per member. Rotated form
    (``structure: "rotated"``): the members plus and minus measure the
    rotated sets (1/c) U_i M_pm U_i^dag. Without a ``structure`` the form is
    rotated when ``unitaries`` is given and plain otherwise. Any other
    structure, or ``unitaries`` under an explicit plain one, is a SpecError."""
    default = "rotated" if "unitaries" in f else "plain"
    structure = f("structure", _one_of(("plain", "rotated")), default)
    if structure == "plain":
        if "unitaries" in f:
            raise SpecError(
                f"{f.where}.structure", "a plain family takes no unitaries; the rotated form does"
            )
        povms = _each(f"{f.where}.povms", f("povms", _list_of(_list_of(_matrix_from))), Povm)
        members = _numbered("meas", f, "povms", povms, measurement_channel)
        return members, {"structure": structure, "povms": povms}
    unitaries = f("unitaries", _unitaries)
    square = _square(len(unitaries[0]))
    m_plus = f("m_plus", square)
    m_minus = f("m_minus", square)
    with _at(f"{f.where}.unitaries"):
        plus, minus, c = rotated_povm(m_plus, m_minus, unitaries)
    povms = [Povm(plus), Povm(minus)]
    members = []
    for label, povm in zip(("plus", "minus"), povms):
        path = f"{f.where}.m_{label}"
        with _at(path):
            members.append((label, path, measurement_channel(povm)))
    stored = {
        "structure": "rotated",
        "unitaries": unitaries,
        "m_plus": m_plus,
        "m_minus": m_minus,
        "c": c,
        "povms": povms,
    }
    return members, stored


def _unitary(f: _Fields):
    unitaries = f("unitaries", _unitaries)
    return _numbered("u", f, "unitaries", unitaries, lambda u: KrausChannel.from_ops([u])), {}


def _custom(f: _Fields):
    kraus = f("kraus", _list_of(_list_of(_matrix_from)))
    return _numbered("ch", f, "kraus", kraus, KrausChannel.from_ops), {}


_BUILDERS = {
    "gp": _gp,
    "damp": _damp,
    "diag": _diag,
    "cdep": _cdep,
    "ou": _ou,
    "qubit-phase": _qubit_phase,
    "measurement": _measurement,
    "unitary": _unitary,
    "custom": _custom,
}


def make_family(kind: str, params: dict) -> ChannelFamily:
    """Construct a validated channel family of the given kind.

    ``params`` holds the kind's fields (see README), as JSON values or numpy
    arrays, plus optional unique ``labels``, one per member. A missing or
    mistyped field raises SpecError naming its path; parameters outside the
    kind's admissible set raise ConstraintViolation. Both name the field,
    down to the list item a member was built from. Every member of the
    returned family passes validate_cptp.
    """
    _one_of(_BUILDERS)(kind, "family.kind")
    f = _Fields(params, "family")
    labels = f("labels", _labels_from, None)
    members, stored = _BUILDERS[kind](f)
    if labels is not None:
        if len(labels) != len(members):
            raise ConstraintViolation(
                f"{f.where}.labels: {len(labels)} labels given for {len(members)} members"
            )
        members = [(lab, path, ch) for lab, (_, path, ch) in zip(labels, members)]
    first = members[0][2]
    for label, path, ch in members:
        if (ch.din, ch.dout) != (first.din, first.dout):
            raise ConstraintViolation(f"{path}: member {label!r} has mismatched dimensions")
        report = validate_cptp(ch, DEFAULT_TOL * 10)
        if not report.valid:
            raise ConstraintViolation(
                f"{path}: member {label!r} failed CPTP validation "
                f"(tp={report.trace_preserving}, min Choi eig={report.min_choi_eig:.3e})"
            )
    return ChannelFamily(members=[(lab, ch) for lab, _, ch in members], kind=kind, params=stored)
