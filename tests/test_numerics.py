import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanopt.numerics import (
    DIM_GUARD,
    SystemShape,
    basis_vector,
    dagger,
    density_mask,
    exceeds_dim_guard,
    hermitian_eig,
    is_density,
    is_hermitian,
    max_abs,
    max_entangled,
    partial_trace,
    partial_transpose,
    sorted_unique,
    trace_norm,
)
from conftest import (
    partial_trace_oracle,
    partial_transpose_oracle,
    random_density,
    trace_norm_oracle,
)


def test_system_shape_validates():
    s = SystemShape((2, 3))
    assert s.dim == 6
    with pytest.raises(ValueError):
        SystemShape(())
    with pytest.raises(ValueError):
        SystemShape((2, 0))
    with pytest.raises(ValueError):
        s.check(np.eye(5))


def test_basis_and_entangled_vectors():
    e = basis_vector(3, 1)
    assert e.tolist() == [0, 1, 0]
    phi = max_entangled(2)
    assert np.allclose(phi, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert abs(np.linalg.norm(phi) - 1) < 1e-12


def test_projector_and_hermitian_checks():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    p = np.outer(v, v.conj())
    assert is_hermitian(p)
    assert max_abs(p @ p - p) < 1e-12
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_dim_guard_bounds_uses_whatever_the_base():
    # trivial dimension: the count of uses alone is bounded
    assert not exceeds_dim_guard([1], DIM_GUARD)
    assert exceeds_dim_guard([1], DIM_GUARD + 1)
    # 2^12 = DIM_GUARD sits on the bound
    assert not exceeds_dim_guard([2], 12)
    assert exceeds_dim_guard([2], 13)
    assert exceeds_dim_guard([3], 10**12)
    assert not exceeds_dim_guard([5], 0)


def test_trace_norm_against_svd_oracle(rng):
    for d in (2, 3, 4):
        for _ in range(5):
            a = random_density(rng, d) - 0.7 * random_density(rng, d)
            assert abs(trace_norm(a) - trace_norm_oracle(a)) < 1e-10


# 14 factors: 28 tensor axes, more than an einsum subscript alphabet holds
MANY_FACTORS = (2,) + (1,) * 12 + (3,)


def test_partial_trace_against_loop_oracle(rng):
    for dims in ((2, 2), (2, 3), (3, 2, 2), MANY_FACTORS):
        n = int(np.prod(dims))
        m = random_density(rng, n)
        shape = SystemShape(dims)
        for keep in range(len(dims)):
            got = partial_trace(m, shape, keep=keep)
            want = partial_trace_oracle(m, dims, keep)
            assert max_abs(got - want) < 1e-12
            assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_transpose_involution_and_oracle(rng):
    for dims in ((2, 3), MANY_FACTORS):
        m = random_density(rng, 6)
        shape = SystemShape(dims)
        for on in range(len(dims)):
            pt = partial_transpose(m, shape, on=on)
            assert max_abs(pt - partial_transpose_oracle(m, dims, on)) < 1e-12
            assert max_abs(partial_transpose(pt, shape, on=on) - m) < 1e-12


def test_is_density(rng):
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.eye(2))
    assert not is_density(np.diag([1.5, -0.5]))


def test_density_mask_agrees_with_the_definition(rng):
    """The stacked check gives, matrix by matrix, the literal definition:
    Hermitian, trace 1 and no eigenvalue below zero, each within 1e-8."""
    w, v = np.linalg.eigh(random_density(rng, 3))
    mats = [random_density(rng, 3), np.eye(3) / 3, np.diag([1.5, -0.25, -0.25])]
    for low in (-5e-9, -2e-8):  # one eigenvalue just inside, then outside
        lam = np.array([low, w[1], w[2]])
        mats.append((v * (lam / lam.sum())) @ v.conj().T)
    skew = random_density(rng, 3).astype(complex)
    skew[0, 1] += 2e-8  # Hermitian only to 2e-8
    mats += [skew, 1.01 * random_density(rng, 3)]
    want = []
    for m in mats:
        lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
        want.append(bool(
            np.abs(m - m.conj().T).max() <= 1e-8
            and abs(np.trace(m).real - 1.0) <= 1e-8
            and lam.min() >= -1e-8
        ))
    assert want == [True, True, False, True, False, False, False]
    assert density_mask(np.array(mats)).tolist() == want
    assert [is_density(m) for m in mats] == want
    assert density_mask(np.zeros((2, 2, 3))).tolist() == [False, False]
    assert not is_density(np.ones((2, 3)) / 2)


def test_sorted_unique_matches_np_unique(rng):
    # rounded draws repeat values, signed zeros among them
    cases = [[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.5, 0.0, -0.0], [], [2.0], [-0.0, 3.0]]
    cases += [np.round(rng.normal(size=n), k) for n in (3, 40, 300) for k in (0, 1, 3)]
    for x in map(np.asarray, cases):
        want, got = np.unique(x), sorted_unique(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        zeros = np.signbit(x[x == 0])
        if len(set(zeros)) < 2:
            assert got.tobytes() == want.tobytes()
        else:  # np.unique keeps either zero; here the first one given
            assert np.signbit(got[got == 0]).tolist() == [zeros[0]]


def test_hermitian_eig_reconstructs(rng):
    m = random_density(rng, 4)
    lam, v = hermitian_eig(m)
    assert max_abs(v @ np.diag(lam) @ dagger(v) - m) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_trace_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, 3) - random_density(rng, 3)
    b = random_density(rng, 3) - random_density(rng, 3)
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
