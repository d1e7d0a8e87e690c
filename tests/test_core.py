import io

import numpy as np
import pytest

from wknn.core import (
    DiscreteMeasure,
    InvalidInputError,
    Norm,
    Sample,
    LabeledSample,
    distance,
    pairwise_distances,
    read_sample_csv,
    uniform_empirical,
    validate_measure,
    write_sample_csv,
    _write_table,
)


class TestDistance:
    def test_pythagoras(self):
        assert distance([0.0, 0.0], [3.0, 4.0], Norm.L2) == 5.0

    def test_identical_points(self):
        for norm in Norm:
            assert distance([1.0, 2.0], [1.0, 2.0], norm) == 0.0

    def test_l1_linf(self):
        assert distance([0.0, 0.0], [3.0, 4.0], Norm.L1) == 7.0
        assert distance([0.0, 0.0], [3.0, 4.0], Norm.LINF) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            distance([0.0], [0.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            distance([np.nan], [0.0])

    def test_metric_axioms_random_triples(self):
        # nonnegativity, symmetry, triangle inequality on random triples
        rng = np.random.default_rng(2024)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            norm = [Norm.L1, Norm.L2, Norm.LINF][int(rng.integers(3))]
            a, b, c = rng.normal(size=(3, d)) * rng.exponential()
            dab = distance(a, b, norm)
            dba = distance(b, a, norm)
            assert dab >= 0.0
            assert dab == dba
            assert dab <= distance(a, c, norm) + distance(c, b, norm) + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            a, b = rng.normal(size=(2, d))
            lam = float(rng.normal())
            for norm in Norm:
                got = distance(lam * a, lam * b, norm)
                assert got == pytest.approx(abs(lam) * distance(a, b, norm), rel=1e-12)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=4)
        b = a.copy()
        b[2] += 1e-9
        for norm in Norm:
            assert distance(a, a, norm) == 0.0
            assert distance(a, b, norm) > 0.0


class TestSampleTypes:
    def test_1d_promotion(self):
        s = Sample([1.0, 2.0, 9.0])
        assert (s.size, s.dim) == (3, 1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Sample(np.empty((0, 2)))

    def test_immutable(self):
        s = Sample([[0.0, 1.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0

    def test_labeled_row_mismatch(self):
        with pytest.raises(InvalidInputError):
            LabeledSample(Sample([[0.0], [1.0]]), np.zeros(3))

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        for norm in Norm:
            mat = pairwise_distances(a, b, norm)
            for i in range(4):
                for j in range(5):
                    assert mat[i, j] == pytest.approx(distance(a[i], b[j], norm), rel=1e-12)


class TestValidateMeasure:
    def test_valid_half_half(self):
        m = validate_measure([[0.0], [1.0]], [0.5, 0.5])
        assert isinstance(m, DiscreteMeasure)
        assert m.size == 2

    def test_sum_off(self):
        with pytest.raises(InvalidInputError, match="sum"):
            validate_measure([[0.0], [1.0]], [0.7, 0.2])

    def test_negative_mass(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            validate_measure([[0.0], [1.0]], [1.0, -1e-3])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            validate_measure([[0.0], [1.0]], [1.0])

    def test_uniform_empirical(self):
        m = uniform_empirical(Sample([[0.0], [1.0], [2.0], [3.0]]))
        assert np.allclose(m.masses, 0.25)

    @pytest.mark.parametrize(
        "points", [[0.0, 1.0, 2.0], np.arange(6.0).reshape(3, 2)], ids=["list", "array_3x2"]
    )
    def test_uniform_empirical_coerces_like_sample(self, points):
        m = uniform_empirical(points)
        ref = uniform_empirical(Sample(points))
        np.testing.assert_array_equal(m.points.points, ref.points.points)
        np.testing.assert_array_equal(m.masses, ref.masses)
        assert m.masses.tolist() == [1.0 / 3.0] * 3


class TestCsvRoundTrip:
    def test_sample_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        s = Sample(rng.normal(size=(7, 3)))
        path = tmp_path / "s.csv"
        write_sample_csv(path, s)
        back = read_sample_csv(path)
        assert isinstance(back, Sample)
        np.testing.assert_array_equal(back.points, s.points)

    def test_labeled_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        ls = LabeledSample(Sample(rng.normal(size=(5, 2))), rng.normal(size=(5, 2)))
        path = tmp_path / "ls.csv"
        write_sample_csv(path, ls)
        back = read_sample_csv(path)
        assert isinstance(back, LabeledSample)
        np.testing.assert_array_equal(back.inputs.points, ls.inputs.points)
        np.testing.assert_array_equal(back.outputs, ls.outputs)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sample_csv(path, Sample([[1.0]]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "x1"

    def test_one_writer_for_paths_and_streams(self, tmp_path):
        # Floats to 17 significant digits (numpy's included), None empty, the rest str().
        rows = [(0.1, None, 3, "x"), (np.float64(1e-300), 2.5, np.int64(-1), "")]
        path, stream = tmp_path / "t.csv", io.StringIO()
        _write_table(path, ("a", "b", "c", "d"), rows)
        _write_table(stream, ("a", "b", "c", "d"), rows)
        want = b"a,b,c,d\n0.10000000000000001,,3,x\n1e-300,2.5,-1,\n"
        assert path.read_bytes() == stream.getvalue().encode() == want

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError, match="header"):
            read_sample_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            read_sample_csv(path)
