"""The kd-tree path against the brute force on evaluation sets with repeated rows.

``KnnIndex.query_batch`` answers each distinct evaluation row once, and
``neighbor_table`` switches to the index at m = 32 when 2k < m. Both must
stay bit for bit equal to ``_brute_table``, the dense oracle.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wknn import knn
from wknn.core import Norm, Sample
from wknn.knn import KnnIndex, _brute_table, neighbor_table
from wknn.rng import stream, uniform_open

# A coarse grid of coordinates: distance ties are common and 0.0 is on it.
_COORDS = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])

@st.composite
def instances(draw):
    norm = draw(st.sampled_from(list(Norm)))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 70))
    grid = draw(st.booleans())
    coord = _COORDS if grid else st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    train = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=m, max_size=m)))
    k = draw(st.integers(1, m))
    kind = draw(st.sampled_from(["identical", "shuffled", "signed_zero", "train_rows"]))
    n = draw(st.integers(2, 30))
    if kind == "train_rows":
        base = train[draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))]
    else:
        base = np.array(draw(st.lists(st.tuples(*[_COORDS] * d), min_size=1, max_size=4)))
    if kind == "identical":
        rows = np.repeat(base[:1], n, axis=0)
    else:
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
        rows = base[picks]
        if kind == "signed_zero":
            # Every row gets a zero first coordinate, -0.0 in every other row.
            rows[:, 0] = np.where(np.arange(n) % 2 == 1, -0.0, 0.0)
        rows = rows[draw(st.permutations(range(n)))]
    return rows, train, k, norm


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(instances())
def test_repeated_rows_match_brute(case):
    rows, train, k, norm = case
    want = _brute_table(rows, train, k, norm)
    assert_same_bits(KnnIndex(Sample(train), norm).query_batch(rows, k), want)
    table = neighbor_table(Sample(rows), Sample(train), k, norm)
    assert_same_bits((table.indices, table.distances), want)


@pytest.mark.parametrize("m", [31, 32])
@pytest.mark.parametrize("norm", list(Norm))
def test_dispatch_boundary(monkeypatch, m, norm):
    builds = []

    class CountingIndex(KnnIndex):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(knn, "KnnIndex", CountingIndex)
    gen = stream(9, m)
    train = np.round(uniform_open(gen, (m, 2)) * 4) / 4  # ties
    rows = np.concatenate([uniform_open(gen, (20, 2)), train[:5], train[:5]])
    for k in (1, 3, m // 2, m - 1, m):
        builds.clear()
        table = neighbor_table(Sample(rows), Sample(train), k, norm)
        assert len(builds) == (1 if m >= 32 and 2 * k < m else 0)
        assert_same_bits((table.indices, table.distances), _brute_table(rows, train, k, norm))
