import numpy as np
import pytest

from chanopt.geometry import (
    AngleVector,
    _chain_intervals,
    ang_nonempty,
    ang_parallel_property,
    ang_sample,
    ang_solve_triangle,
    closure_residual,
    samples_to_csv,
)
from conftest import ang_grid_search


# ---------------------------------------------------------------------------
# containers


def test_angle_vector_validation():
    av = AngleVector((1.0, -1.0, 1j))
    assert len(av) == 3
    conj = av.conjugate()
    assert conj.omegas[2] == -1j
    with pytest.raises(ValueError):
        AngleVector((0.5, 1.0))


def test_closure_residual_formula():
    av = AngleVector((-1.0, 1.0))
    assert closure_residual([2.0, 1.0, 1.0], av) == 0.0
    assert abs(closure_residual([1.0, 1.0, 1.0], av) - 1.0) < 1e-15


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
    assert len(sols) == 2
    for av in sols:
        assert closure_residual([1.0, 1.0, 1.0], av) < 1e-12
    a, b = sols
    assert a.conjugate() in sols and b.conjugate() in sols


def test_triangle_degenerate_flat():
    sols = ang_solve_triangle([2.0, 1.0, 1.0])
    assert len(sols) == 1
    (av,) = sols
    assert closure_residual([2.0, 1.0, 1.0], av) < 1e-12
    assert all(abs(w.imag) < 1e-12 for w in av.omegas)


def test_triangle_infeasible_empty():
    assert ang_solve_triangle([3.0, 1.0, 1.0]) == set()


def test_triangle_random_instances(rng):
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, size=3)
        sols = ang_solve_triangle(x)
        if not ang_nonempty(x):
            assert sols == set()
            continue
        assert 1 <= len(sols) <= 2
        for av in sols:
            assert closure_residual(x, av) < 1e-9


def test_triangle_unsorted_input():
    x = [1.0, 2.0, 1.5]
    for av in ang_solve_triangle(x):
        assert closure_residual(x, av) < 1e-12


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
    assert len(first) == 25
    for av in first:
        assert closure_residual(x, av) <= 1e-9
    assert all(a.omegas == b.omegas for a, b in zip(first, again))
    assert any(a.omegas != b.omegas for a, b in zip(first, other))


def test_sample_symmetric_diversity():
    samples = ang_sample([1.0, 1.0, 1.0, 1.0], 20, seed=3)
    rounded = {tuple(np.round(av.omegas, 8)) for av in samples}
    assert len(rounded) >= 3


def test_sample_five_lengths():
    x = [1.3, 1.0, 0.7, 0.5, 0.4]
    for av in ang_sample(x, 10, seed=5):
        assert closure_residual(x, av) <= 1e-9


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


# ---------------------------------------------------------------------------
# serialization


def test_samples_csv_shape():
    x = [1.0, 0.8, 0.6, 0.9]
    samples = ang_sample(x, 4, seed=2)
    text = samples_to_csv(x, samples)
    lines = text.strip().splitlines()
    assert lines[0] == "index,re_omega1,im_omega1,re_omega2,im_omega2,re_omega3,im_omega3,residual"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "0"
    w1 = complex(float(cells[1]), float(cells[2]))
    assert abs(w1 - samples[0].omegas[0]) < 1e-15
    assert float(cells[-1]) <= 1e-9
