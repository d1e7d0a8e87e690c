"""The kd-tree path against the brute force on evaluation sets with repeated rows.

``neighbor_table`` switches to the index at m = 32 when 2k < m, queries
each distinct evaluation row once there and keeps one answer per distinct
row; ``KnnIndex.query_batch`` answers every row it is given. Both must
stay bit for bit equal to ``_brute_table``, the dense oracle, also on
adversarial coordinates, and ``knn_weights`` must count a table with
repeated rows without expanding it.

``neighbor_table``, ``knn_weights`` and ``weighted_measure`` build their
results without the public constructors' checks; the properties here show
that every such result would pass those checks unchanged.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wknn import knn
from wknn.core import DiscreteMeasure, InvalidInputError, Norm, NumericalError, Sample
from wknn.knn import KnnIndex, NeighborTable, _brute_table, knn_query, neighbor_table
from wknn.rng import stream, uniform_open
from wknn.weights import WeightVector, knn_weights, weighted_measure

# A coarse grid of coordinates: distance ties are common and 0.0 is on it.
_COORDS = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])

@st.composite
def instances(draw, m_min=2, m_max=70):
    norm = draw(st.sampled_from(list(Norm)))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(m_min, m_max))
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
    assert table.n == len(rows)
    counts = knn_weights(table, len(train)).counts
    assert_same_bits([counts], [np.bincount(want[0].ravel(), minlength=len(train))])
    assert_same_bits((table.indices, table.distances), want)


@pytest.mark.parametrize("norm", list(Norm))
def test_weights_never_expand_repeated_rows(monkeypatch, norm):
    """10^4 identical rows: knn_weights counts the one distinct answer and
    reads neither (n, k) array."""
    train = uniform_open(stream(13, 0), (400, 2))
    rows = np.full((10_000, 2), 0.25)
    table = neighbor_table(Sample(rows), Sample(train), 20, norm)
    want = _brute_table(rows[:1], train, 20, norm)[0]

    def refuse(self):
        raise AssertionError("knn_weights expanded the table")

    monkeypatch.setattr(NeighborTable, "indices", property(refuse))
    monkeypatch.setattr(NeighborTable, "distances", property(refuse))
    monkeypatch.setattr(NeighborTable, "_expand", refuse)
    wv = knn_weights(table, len(train))
    assert (wv.n, wv.k) == (10_000, 20)
    assert_same_bits([wv.counts], [np.bincount(np.repeat(want, 10_000, axis=0).ravel(),
                                               minlength=len(train))])


@st.composite
def adversarial_instances(draw):
    """Integer grids scaled to subnormal spacings or shifted by 1e12, some points
    moved by one ulp: exact ties and near-ties under every norm."""
    norm = draw(st.sampled_from(list(Norm)))
    d = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1e12, -1e12]))
    spacing = draw(st.sampled_from([0.25, 1.0, 5e-324, 1e-310, 2.0**-1060]))

    def points(count):
        grid = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=count,
                             max_size=count))
        pts = offset + spacing * np.array(grid, dtype=np.float64)
        nudge = np.array(draw(st.lists(st.booleans(), min_size=pts.size, max_size=pts.size)))
        pts.flat[nudge] = np.nextafter(pts.flat[nudge], np.inf)
        return pts

    m = draw(st.integers(2, 70))
    train = points(m)
    return points(draw(st.integers(1, 20))), train, draw(st.integers(1, m)), norm


@settings(max_examples=200, derandomize=True, deadline=None)
@given(adversarial_instances())
def test_adversarial_coordinates_match_brute(case):
    rows, train, k, norm = case
    want = _brute_table(rows, train, k, norm)
    assert_same_bits(KnnIndex(Sample(train), norm).query_batch(rows, k), want)


@pytest.mark.parametrize("m_range", [(2, 31), (32, 70)], ids=["brute", "kdtree"])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_internal_results_pass_public_constructors(m_range, data):
    rows, train, k, norm = data.draw(instances(*m_range))
    tr = Sample(train)
    table = neighbor_table(Sample(rows), tr, k, norm)
    wv = knn_weights(table, tr.size)
    mu = weighted_measure(tr, wv)
    assert (table.k, table.n, wv.n) == (k, len(rows), len(rows)) and mu.points is tr
    for built, public, fields in [
        (table, NeighborTable(k=table.k, indices=table.indices, distances=table.distances),
         ("indices", "distances")),
        (wv, WeightVector(k=wv.k, n=wv.n, m=wv.m, counts=wv.counts, w=wv.w), ("counts", "w")),
        (mu, DiscreteMeasure(mu.points, mu.masses), ("masses",)),
    ]:
        got = [getattr(built, f) for f in fields]
        assert not any(a.flags.writeable for a in got)
        assert_same_bits(got, [getattr(public, f) for f in fields])


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
    # One row never pays for a tree; two rows (here distinct) already do.
    for n in (1, 2, len(rows)):
        for k in (1, 3, m // 2, m - 1, m):
            builds.clear()
            table = neighbor_table(Sample(rows[:n]), Sample(train), k, norm)
            assert len(builds) == (1 if n >= 2 and m >= 32 and 2 * k < m else 0)
            assert_same_bits((table.indices, table.distances),
                             _brute_table(rows[:n], train, k, norm))


@pytest.mark.parametrize("m", [5, 40], ids=["brute", "kdtree"])
@pytest.mark.parametrize("norm", [Norm.L1, Norm.L2])
def test_overflowing_distances_raise(m, norm):
    train = uniform_open(stream(10, m), (m, 2))
    # Two rows, so that m=40 reaches the index.
    far = np.array([[1e308, -1e308], [-1e308, 1e308]])
    with pytest.raises(NumericalError):
        neighbor_table(Sample(far), Sample(train), 1, norm)
    with pytest.raises(NumericalError):
        KnnIndex(Sample(train), norm).query_batch(far, 1)
    # The brute-force references stay unguarded and overflow on purpose.
    with np.errstate(over="ignore"):
        assert np.isinf(_brute_table(far, train, 1, norm)[1]).all()
        assert np.isinf(knn_query(far[0], Sample(train), 1, norm)[1]).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_query_batch_rejects_non_finite_rows(bad):
    index = KnnIndex(Sample(uniform_open(stream(12, 0), (40, 2))))
    with pytest.raises(InvalidInputError):
        index.query_batch(np.array([[0.5, 0.5], [bad, 0.5]]), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("norm", list(Norm))
def test_far_training_point_matches_brute(norm):
    """A training point so far out that scipy refuses the tie re-check's ball query
    (its squared distances overflow), while the k nearest stay close and tied.
    The index answers without a numpy warning; only the unguarded oracle overflows."""
    gen = stream(11, 0)
    train = np.vstack([np.round(uniform_open(gen, (39, 2)) * 4) / 4, [[1e200, 0.0]]])
    rows = np.round(uniform_open(gen, (20, 2)) * 8) / 8
    for k in (1, 2, 5):
        with np.errstate(over="ignore"):
            want = _brute_table(rows, train, k, norm)
        assert_same_bits(KnnIndex(Sample(train), norm).query_batch(rows, k), want)
