import numpy as np
import pytest

from wknn.core import InvalidInputError, Sample
from wknn.knn import NeighborTable, neighbor_table
from wknn.rng import stream
from wknn.weights import WeightVector, knn_weights, weighted_measure


def random_table(gen, n, m, k):
    """Random neighbor table: k distinct indices per row, placeholder distances."""
    idx = np.argsort(gen.random((n, m)), axis=1)[:, :k]
    idx = np.sort(idx, axis=1)  # any distinct set is a valid table row
    return NeighborTable(k=k, indices=idx, distances=np.zeros((n, k)))


class TestKnnWeights:
    def test_single_everything(self):
        table = NeighborTable(k=1, indices=np.array([[0]]), distances=np.zeros((1, 1)))
        wv = knn_weights(table, 1)
        np.testing.assert_array_equal(wv.w, [1.0])

    def test_hand_instance_k1(self):
        table = neighbor_table(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 1)
        wv = knn_weights(table, 2)
        np.testing.assert_allclose(wv.w, [4.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
        np.testing.assert_array_equal(wv.counts, [2, 1])

    def test_hand_instance_k2(self):
        table = neighbor_table(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 2)
        wv = knn_weights(table, 2)
        np.testing.assert_allclose(wv.w, [1.0, 1.0], rtol=1e-15)

    def test_index_out_of_range(self):
        table = NeighborTable(k=1, indices=np.array([[3]]), distances=np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            knn_weights(table, 2)

    def test_sum_and_cauchy_schwarz_invariants(self):
        # sum w = m within 1e-9 and sum w^2 <= m^2/k on random tables
        gen = stream(21, 0)
        for _ in range(500):
            n = int(gen.integers(1, 40))
            m = int(gen.integers(1, 30))
            k = int(gen.integers(1, m + 1))
            wv = knn_weights(random_table(gen, n, m, k), m)
            assert abs(float(wv.w.sum()) - m) <= 1e-9
            assert float(wv.w @ wv.w) <= m * m / k + 1e-9

    def test_integer_multiple_roundtrip(self):
        gen = stream(22, 0)
        for _ in range(100):
            n = int(gen.integers(1, 20))
            m = int(gen.integers(1, 15))
            k = int(gen.integers(1, m + 1))
            wv = knn_weights(random_table(gen, n, m, k), m)
            recovered = np.rint(wv.w * (k * n) / m).astype(np.int64)
            np.testing.assert_array_equal(recovered, wv.counts)
            np.testing.assert_array_equal(wv.w, recovered * (m / (k * n)))

    def test_permutation_invariance(self):
        gen = stream(23, 0)
        ev = Sample((gen.random((12, 2))))
        tr = Sample((gen.random((9, 2))))
        table = neighbor_table(ev, tr, 3)
        wv = knn_weights(table, 9)
        perm = gen.permutation(12)
        shuffled = NeighborTable(
            k=3, indices=table.indices[perm], distances=table.distances[perm]
        )
        np.testing.assert_array_equal(knn_weights(shuffled, 9).w, wv.w)

    def test_k_equals_m_uniform(self):
        gen = stream(24, 0)
        ev = Sample(gen.random((10, 2)))
        tr = Sample(gen.random((6, 2)))
        wv = knn_weights(neighbor_table(ev, tr, 6), 6)
        np.testing.assert_allclose(wv.w, np.ones(6), rtol=1e-15)


class TestWeightVectorConstructor:
    """The public constructor checks and copies vectors that come from outside."""

    @pytest.mark.parametrize(
        "counts, w",
        [
            ([2, 1], [4 / 3, 2 / 3, 0.0]),  # w has the wrong length
            ([2, 1, 0, 0], [4 / 3, 2 / 3, 0.0, 0.0]),  # counts have the wrong length
            ([4, -1, 0], [8 / 3, -2 / 3, 0.0]),  # negative count
            ([2, 2, 0], [4 / 3, 4 / 3, 0.0]),  # counts sum to 4, not k*n = 3
            ([2, 1, 0], [0.0, 0.0, 3.0]),  # w disagrees with counts * m/(k*n)
            ([2, 1, 0], [2.0, 1.0 + 1e-11, 0.0]),  # off by more than 1e-12 (relative)
            ([2, 1, 0], [2.0, np.nan, 0.0]),
        ],
        ids=["w_length", "counts_length", "negative", "sum", "w_counts", "w_rounding", "w_nan"],
    )
    def test_rejects_invalid_vectors(self, counts, w):
        with pytest.raises(InvalidInputError):
            WeightVector(k=1, n=3, m=3, counts=np.array(counts), w=np.array(w))

    def test_accepts_w_within_tolerance(self):
        wv = WeightVector(k=2, n=3, m=3, counts=np.array([4, 2, 0]),
                          w=np.array([2.0, 1.0 + 1e-13, 0.0]))
        assert wv.w[1] == 1.0 + 1e-13

    def test_copies_and_freezes(self):
        counts, w = np.array([2, 1, 0]), np.array([2.0, 1.0, 0.0])
        wv = WeightVector(k=1, n=3, m=3, counts=counts, w=w)
        counts[0], w[0] = 7, 7.0
        np.testing.assert_array_equal(wv.counts, [2, 1, 0])
        np.testing.assert_array_equal(wv.w, [2.0, 1.0, 0.0])
        assert not wv.counts.flags.writeable and not wv.w.flags.writeable


class TestWeightedMeasure:
    def test_hand_masses(self):
        table = neighbor_table(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 1)
        wv = knn_weights(table, 2)
        measure = weighted_measure(Sample([0.0, 10.0]), wv)
        np.testing.assert_allclose(measure.masses, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_uniform_weights_uniform_measure(self):
        gen = stream(25, 0)
        tr = Sample(gen.random((5, 2)))
        wv = knn_weights(neighbor_table(tr, tr, 5), 5)
        measure = weighted_measure(tr, wv)
        np.testing.assert_allclose(measure.masses, 0.2, rtol=1e-15)

    def test_degenerate_support(self):
        # all evaluation mass lands on one training point
        table = neighbor_table(Sample([0.1, 0.2]), Sample([0.0, 10.0]), 1)
        wv = knn_weights(table, 2)
        measure = weighted_measure(Sample([0.0, 10.0]), wv)
        np.testing.assert_array_equal(measure.masses, [1.0, 0.0])

    def test_size_mismatch(self):
        table = neighbor_table(Sample([0.1]), Sample([0.0, 10.0]), 1)
        wv = knn_weights(table, 2)
        with pytest.raises(InvalidInputError):
            weighted_measure(Sample([0.0, 1.0, 2.0]), wv)
