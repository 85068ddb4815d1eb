import numpy as np
import pytest

from chanopt.geometry import (
    _chain_intervals,
    _restore_order,
    ang_nonempty,
    ang_parallel_property,
    ang_sample,
    ang_solve_triangle,
    closure_residual,
)
from conftest import ang_grid_search


# ---------------------------------------------------------------------------
# closures as arrays


def test_closures_have_unit_modulus():
    for x in ([1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 2.0, 1.5]):
        sols = ang_solve_triangle(x)
        assert sols.dtype == complex and sols.shape[1] == 2
        assert np.abs(np.abs(sols) - 1.0).max() <= 1e-10
    samples = ang_sample([1.0, 0.8, 0.6, 0.9], 25, seed=11)
    assert samples.dtype == complex and samples.shape == (25, 3)
    assert np.abs(np.abs(samples) - 1.0).max() <= 1e-10
    # the check both return through
    with pytest.raises(ValueError):
        _restore_order(np.array([[0.5, 1.0]]), np.arange(3))


def test_closure_residual_formula():
    om = np.array([-1.0, 1.0])
    assert closure_residual([2.0, 1.0, 1.0], om) == 0.0
    assert abs(closure_residual([1.0, 1.0, 1.0], om) - 1.0) < 1e-15
    # a stack of closures gets one residual per row
    stacked = closure_residual([1.0, 1.0, 1.0], np.array([om, [1j, -1j]]))
    assert stacked.shape == (2,)
    assert abs(stacked[0] - 1.0) < 1e-15 and abs(stacked[1] - 1.0) < 1e-15


def test_rchain_intervals():
    y = np.array([2.0, 1.5, 1.0, 0.5])
    # r_3 must sit between |y4 - y3| and y4 + y3, and reach past y1 - y2
    lo, hi = _chain_intervals(y, y[3], 3)
    assert lo <= 1.0 <= hi
    assert 3.0 > hi
    assert 0.1 < lo


# ---------------------------------------------------------------------------
# nonemptiness


def test_nonempty_polygon_rule():
    assert ang_nonempty([1.0, 1.0, 1.0])
    assert ang_nonempty([2.0, 1.0, 1.0])
    assert not ang_nonempty([3.0, 1.0, 1.0])
    assert ang_nonempty([1.0, 1.0, 1.0, 2.5])
    assert not ang_nonempty([1.0, 1.0, 1.0, 5.0])
    # the sum of the rest overflows at this scale
    assert ang_nonempty([1e308] * 3)
    assert not ang_nonempty([1e308, 1e307, 1e307])
    with pytest.raises(ValueError):
        ang_nonempty([1.0, 1.0])
    with pytest.raises(ValueError):
        ang_nonempty([1.0, -1.0, 1.0])


@pytest.mark.parametrize("d", [3, 4])
def test_nonempty_matches_grid_search(rng, d):
    # skip instances whose polygon deficit hides inside the grid resolution
    steps = 60
    checked = 0
    while checked < 15:
        x = rng.uniform(0.1, 2.0, size=d)
        y = np.sort(x)[::-1]
        bound = float(x[:-1].sum()) * (np.pi / steps)
        if abs(y[0] - y[1:].sum()) <= 2 * bound:
            continue
        best, bound = ang_grid_search(x, steps)
        assert ang_nonempty(x) == (best <= bound)
        checked += 1


# ---------------------------------------------------------------------------
# triangle solutions


def test_triangle_equilateral():
    sols = ang_solve_triangle([1.0, 1.0, 1.0])
    assert sols.shape == (2, 2)
    assert (closure_residual([1.0, 1.0, 1.0], sols) < 1e-12).all()
    # a conjugate pair, rows in lexicographic (re, im) order
    assert np.array_equal(sols[1], sols[0].conj())
    assert sols[0, 0].imag < 0 < sols[1, 0].imag


def test_triangle_degenerate_flat():
    sols = ang_solve_triangle([2.0, 1.0, 1.0])
    assert sols.shape == (1, 2)
    assert closure_residual([2.0, 1.0, 1.0], sols[0]) < 1e-12
    assert np.abs(sols.imag).max() < 1e-12


def test_triangle_infeasible_empty():
    assert ang_solve_triangle([3.0, 1.0, 1.0]).shape == (0, 2)


def test_triangle_random_instances(rng):
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, size=3)
        sols = ang_solve_triangle(x)
        if not ang_nonempty(x):
            assert len(sols) == 0
            continue
        assert 1 <= len(sols) <= 2
        assert (closure_residual(x, sols) < 1e-9).all()


def test_triangle_rows_are_np_unique_of_the_conjugate_pair(rng):
    # seeded, near-flat and degenerate triangles (slack 0 to 1e-8 either
    # side of the 1e-12 flatness bound), lengths in every order
    cases = [rng.uniform(0.0, 2.0, size=3) for _ in range(200)]
    for a, b in rng.uniform(0.1, 2.0, size=(50, 2)):
        for slack in (0.0, 1e-13, 1e-11, 1e-8):
            cases += [rng.permutation([a + b - slack, a, b]), rng.permutation([abs(a - b) + slack, a, b])]
    rows = 0
    for x in cases:
        sols = ang_solve_triangle(x)
        if len(sols):
            want = np.unique(np.concatenate([sols[:1], sols[:1].conj()]), axis=0)
            assert sols.shape == want.shape and sols.tobytes() == want.tobytes(), x
            rows += len(sols)
    assert rows > len(cases)


def test_triangle_unsorted_input():
    x = [1.0, 2.0, 1.5]
    assert (closure_residual(x, ang_solve_triangle(x)) < 1e-12).all()


@pytest.mark.parametrize("x", [[1e300] * 3, [1e-13] * 3, [3e-13, 4e-13, 5e-13]])
def test_triangle_closes_at_any_scale(x):
    # the closures of the same triangle at unit scale: a conjugate pair, not
    # one flat closure, and no overflow near the float maximum
    sols = ang_solve_triangle(x)
    assert sols.shape == (2, 2)
    assert np.abs(sols - ang_solve_triangle(np.divide(x, max(x)))).max() <= 1e-12
    assert (closure_residual(x, sols) <= 1e-12 * max(x)).all()


def test_power_of_two_scale_keeps_every_bit(rng):
    for _ in range(50):
        x = rng.uniform(0.1, 2.0, size=3)
        assert ang_solve_triangle(x * 2.0**40).tobytes() == ang_solve_triangle(x).tobytes()
    x = rng.uniform(0.5, 1.5, size=5)
    assert ang_sample(x * 2.0**-30, 5, seed=1).tobytes() == ang_sample(x, 5, seed=1).tobytes()


def test_closure_residual_scales_exactly():
    # the sum runs at x scaled by a power of two and the residual is scaled
    # back, both exact: at 2^1023 the partial sum x_1 w_1 + x_2 w_2 = -2^1024
    # of the folded square would overflow, and every scale gives the
    # unit-scale residual's bits
    x = np.ones(4)
    folded = np.array([[-1.0, -1.0, 1.0]], dtype=complex)
    samples = np.concatenate([folded, ang_sample(x, 10, seed=3)])
    for k in (1023, 40, -30):
        scaled = closure_residual(np.ldexp(x, k), samples)
        assert np.isfinite(scaled).all()
        assert scaled.tobytes() == np.ldexp(closure_residual(x, samples), k).tobytes()


def test_triangle_rejections():
    with pytest.raises(ValueError):
        ang_solve_triangle([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ang_solve_triangle([1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# sampler


def test_sample_closure_and_determinism():
    x = [1.0, 0.8, 0.6, 0.9]
    first = ang_sample(x, 25, seed=11)
    again = ang_sample(x, 25, seed=11)
    other = ang_sample(x, 25, seed=12)
    assert first.shape == (25, 3)
    assert (closure_residual(x, first) <= 1e-9).all()
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_sample_symmetric_diversity():
    samples = ang_sample([1.0, 1.0, 1.0, 1.0], 20, seed=3)
    rounded = {tuple(np.round(row, 8)) for row in samples}
    assert len(rounded) >= 3


def test_sample_five_lengths():
    x = [1.3, 1.0, 0.7, 0.5, 0.4]
    assert (closure_residual(x, ang_sample(x, 10, seed=5)) <= 1e-9).all()


@pytest.mark.parametrize("x", [[1e300] * 4, [1e8] * 4, [1e308] * 4])
def test_sample_closes_at_any_scale(x):
    samples = ang_sample(x, 10, seed=7)
    assert (closure_residual(x, samples) <= 1e-9 * max(x)).all()


def test_sample_rejections():
    with pytest.raises(ValueError):
        ang_sample([1.0, 1.0, 1.0], 5, seed=0)
    with pytest.raises(ValueError):
        ang_sample([1.0, 0.0, 1.0, 1.0], 5, seed=0)
    with pytest.raises(ValueError):
        ang_sample([5.0, 1.0, 1.0, 1.0], 5, seed=0)


# ---------------------------------------------------------------------------
# proportionality shadow


def test_parallel_holds_for_multiples():
    x = [1.0, 0.8, 0.6, 0.9]
    res = ang_parallel_property(x, [2.0, 1.6, 1.2, 1.8], n=30, seed=1)
    assert res.subset_holds
    assert res.violating_sample is None


def test_parallel_fails_off_ray():
    x = [1.0, 0.8, 0.6, 0.9]
    xp = [1.0, 0.8, 0.6, 1.4]
    res = ang_parallel_property(x, xp, n=30, seed=1)
    assert not res.subset_holds
    assert closure_residual(x, res.violating_sample) <= 1e-9
    assert closure_residual(xp, res.violating_sample) > 1e-6


def test_parallel_triangle_branch():
    res = ang_parallel_property([1.0, 1.0, 1.0], [3.0, 3.0, 3.0])
    assert res.subset_holds
    res = ang_parallel_property([1.0, 1.0, 1.0], [1.0, 1.0, 1.5])
    assert not res.subset_holds


def test_parallel_rejections():
    with pytest.raises(ValueError):
        ang_parallel_property([1.0, 1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ang_parallel_property([3.0, 1.0, 1.0], [3.0, 1.0, 1.0])
