import pytest

import reference
import worker
from run import tail


@pytest.mark.parametrize("n", [20, 999, 1000, 2401])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # 1..n, unsorted
    p, value, count = tail(values)
    assert count == n
    assert value == n - 10                          # exactly 10 samples above it
    assert p == pytest.approx(100 * (n - 10) / n)   # its nearest-rank percentile


def test_too_few_samples_fall_back_to_the_median_rank():
    assert tail([5.0, 1.0, 3.0]) == (pytest.approx(200 / 3), 3.0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_each_cell_is_scaled_by_the_samples_around_it():
    ref = reference.REF_S
    assert reference.scale_factors([ref, ref, 3 * ref, ref]) == [1.0, 0.5, 0.5]


def test_scaled_wall_time_excludes_the_reference_samples():
    class FakeMeter:
        marks = [10.0, 11.0, 13.0, 16.0]
        ref_s = [0.5 * reference.REF_S] * 4     # a host twice as fast as the reference
        cell_s = [0.25, 0.5, 1.0]
    out = worker.scaled_times(FakeMeter, t0=9.0)
    assert out["raw_wall_s"] == pytest.approx(7.0 - 1.5 * reference.REF_S)
    assert out["wall_s"] == pytest.approx(2 * out["raw_wall_s"])
    assert out["cell_s"] == pytest.approx([0.5, 1.0, 2.0])
