import numpy as np
import pytest

from wknn.core import InvalidInputError, Norm, Sample
from wknn.knn import KnnIndex, NeighborTable, knn_query, neighbor_table
from wknn.rng import stream, uniform_open


def brute_oracle(query, train, k, norm):
    """Exhaustive sort by (distance, index); the definitional reference."""
    dists = [
        (float(np.abs(query - row).sum()) if norm is Norm.L1
         else float(np.sqrt(((query - row) ** 2).sum())) if norm is Norm.L2
         else float(np.abs(query - row).max()))
        for row in train.points
    ]
    order = sorted(range(train.size), key=lambda j: (dists[j], j))[:k]
    return np.array(order), np.array([dists[j] for j in order])


class TestKnnQuery:
    def test_two_point_line(self):
        idx, dist = knn_query([1.0], Sample([0.0, 10.0]), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(dist, [1.0, 9.0])

    def test_tie_lowest_index_wins(self):
        idx, dist = knn_query([5.0], Sample([0.0, 10.0]), 1)
        assert idx[0] == 0 and dist[0] == 5.0

    def test_matches_exhaustive_sort(self):
        gen = stream(1, 0)
        for _ in range(25):
            train = Sample(uniform_open(gen, (20, 3)))
            q = uniform_open(gen, 3)
            idx, dist = knn_query(q, train, 5)
            oi, od = brute_oracle(q, train, 5, Norm.L2)
            np.testing.assert_array_equal(idx, oi)
            np.testing.assert_allclose(dist, od, rtol=1e-12)

    def test_list_training_sample_coerced(self):
        points = [[0.0, 1.0], [2.0, 0.5], [0.3, 0.3]]
        idx, dist = knn_query([0.0, 0.0], points, 2)
        ref_idx, ref_dist = knn_query([0.0, 0.0], Sample(points), 2)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)
        assert idx.tolist() == [2, 0]

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInputError):
            knn_query([0.0], Sample([0.0, 1.0]), 3)
        with pytest.raises(InvalidInputError):
            knn_query([0.0], Sample([0.0, 1.0]), 0)


class TestNeighborTable:
    def test_self_query_diagonal(self):
        gen = stream(2, 0)
        s = Sample(uniform_open(gen, (15, 2)))
        table = neighbor_table(s, s, 1)
        np.testing.assert_array_equal(table.indices.ravel(), np.arange(15))
        np.testing.assert_array_equal(table.distances.ravel(), np.zeros(15))

    def test_hand_instance(self):
        table = neighbor_table(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 1)
        np.testing.assert_array_equal(table.indices, [[0], [0], [1]])

    def test_rows_equal_per_point_queries(self):
        gen = stream(3, 0)
        ev = Sample(uniform_open(gen, (30, 4)))
        tr = Sample(uniform_open(gen, (50, 4)))
        for k in (1, 3, 7):
            table = neighbor_table(ev, tr, k)
            for i in range(ev.size):
                qi, qd = knn_query(ev.points[i], tr, k)
                np.testing.assert_array_equal(table.indices[i], qi)
                np.testing.assert_array_equal(table.distances[i], qd)

    def test_row_distances_nondecreasing(self):
        gen = stream(4, 0)
        ev = Sample(uniform_open(gen, (40, 3)))
        tr = Sample(uniform_open(gen, (60, 3)))
        table = neighbor_table(ev, tr, 6)
        assert np.all(np.diff(table.distances, axis=1) >= 0)

    def test_translation_invariance(self):
        gen = stream(5, 0)
        ev = uniform_open(gen, (25, 3))
        tr = uniform_open(gen, (40, 3))
        shift = uniform_open(gen, 3) * 10.0
        t1 = neighbor_table(Sample(ev), Sample(tr), 4)
        t2 = neighbor_table(Sample(ev + shift), Sample(tr + shift), 4)
        np.testing.assert_array_equal(t1.indices, t2.indices)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            neighbor_table(Sample([[0.0, 1.0]]), Sample([[0.0]]), 1)


_ROW = np.array([[0, 1]])
_DIST = np.array([[0.5, 1.0]])


class TestNeighborTableConstructor:
    """The public constructor checks and copies tables that come from outside."""

    @pytest.mark.parametrize(
        "k, indices, distances",
        [
            (2, _ROW, np.array([[0.5, 1.0, 2.0]])),  # shape mismatch
            (3, _ROW, _DIST),  # k mismatch
            (2, np.empty((0, 2), dtype=np.int64), np.empty((0, 2))),  # zero rows
            (2, _ROW, np.array([[1.0, 0.5]])),  # decreasing row distances
            (2, np.array([[1, 1]]), _DIST),  # repeated index in a row
            (2, np.array([[-1, 0]]), _DIST),  # negative index
        ],
        ids=["shape", "k", "zero_rows", "decreasing", "repeated", "negative"],
    )
    def test_rejects_invalid_tables(self, k, indices, distances):
        with pytest.raises(InvalidInputError):
            NeighborTable(k=k, indices=indices, distances=distances)

    def test_copies_and_freezes(self):
        idx, dist = _ROW.copy(), _DIST.copy()
        table = NeighborTable(k=2, indices=idx, distances=dist)
        idx[0, 0], dist[0, 0] = 5, 0.0
        np.testing.assert_array_equal(table.indices, _ROW)
        np.testing.assert_array_equal(table.distances, _DIST)
        assert not table.indices.flags.writeable and not table.distances.flags.writeable


class TestIndexOracleEquivalence:
    def test_single_point_sample(self):
        idx = KnnIndex(Sample([[1.0, 2.0]]))
        gen = stream(6, 0)
        for _ in range(5):
            i, d = idx.query_batch(uniform_open(gen, (1, 2)), 1)
            assert i[0, 0] == 0

    def test_duplicated_training_points(self):
        # duplicates: the lower index must always be reported first
        tr = Sample([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        idx = KnnIndex(tr)
        i, d = idx.query_batch([[0.1, 0.1]], 3)
        np.testing.assert_array_equal(i, [[0, 2, 4]])
        i, d = idx.query_batch([[0.9, 0.9]], 4)
        np.testing.assert_array_equal(i, [[1, 3, 0, 2]])

    @pytest.mark.parametrize("norm", list(Norm))
    def test_random_instances_match_brute(self, norm):
        gen = stream(7, {"l1": 1, "l2": 2, "linf": 3}[norm.value])
        for trial in range(60):
            n = int(gen.integers(1, 40))
            m = int(gen.integers(1, 200))
            d = int(gen.integers(1, 6))
            tr_arr = uniform_open(gen, (m, d))
            if trial % 3 == 0:
                tr_arr = np.round(tr_arr * 3) / 3  # force ties
            ev = Sample(uniform_open(gen, (n, d)))
            tr = Sample(tr_arr)
            k = int(gen.integers(1, m + 1))
            table = neighbor_table(ev, tr, k, norm)
            index = KnnIndex(tr, norm)
            ai, ad = index.query_batch(ev.points, k)
            np.testing.assert_array_equal(table.indices, ai)
            np.testing.assert_array_equal(table.distances, ad)
            for i in range(n):
                qi, qd = knn_query(ev.points[i], tr, k, norm)
                np.testing.assert_array_equal(ai[i], qi)
                np.testing.assert_array_equal(ad[i], qd)

    def test_large_sample_uses_index_and_agrees(self):
        from wknn.knn import _brute_table

        gen = stream(8, 0)
        tr = Sample(uniform_open(gen, (1000, 3)))
        ev = Sample(uniform_open(gen, (1000, 3)))
        table = neighbor_table(ev, tr, 3)  # internally indexed (m >= threshold)
        bi, bd = _brute_table(ev.points, tr.points, 3, Norm.L2)
        np.testing.assert_array_equal(table.indices, bi)
        np.testing.assert_array_equal(table.distances, bd)
