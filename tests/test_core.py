import numpy as np
import pytest

from ftppi.core import (
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    LabeledDataset,
    ParameterError,
    Predictor,
    RngSeed,
    UnlabeledDataset,
    as_seed,
    read_labeled_csv,
    read_predictions_csv,
    read_unlabeled_csv,
)


def make_labeled(n, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, dim)), rng.normal(size=n))


class TestRngSeed:
    def test_same_seed_same_stream(self):
        a = RngSeed(42).generator().standard_normal(5)
        b = RngSeed(42).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_child_seeds_differ_by_tag(self):
        root = RngSeed(7)
        assert root.child(0).seed != root.child(1).seed
        assert root.child(1, 2).seed != root.child(2, 1).seed

    def test_child_is_deterministic(self):
        assert RngSeed(7).child(3, 1).seed == RngSeed(7).child(3, 1).seed

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x", None, True])
    def test_rejects_invalid_seeds(self, bad):
        with pytest.raises(ParameterError):
            RngSeed(bad)

    def test_as_seed_passthrough(self):
        s = RngSeed(5)
        assert as_seed(s) is s
        assert as_seed(5) == s


class TestDatasets:
    def test_shapes_and_accessors(self):
        data = make_labeled(10, dim=3)
        assert (data.n, data.dim, len(data)) == (10, 3, 10)

    def test_one_dim_features_promoted(self):
        data = LabeledDataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert data.xs.shape == (3, 1)

    def test_arrays_are_defensive_copies(self):
        xs = np.ones((4, 2))
        ys = np.zeros(4)
        data = LabeledDataset(xs, ys)
        xs[0, 0] = 99.0
        ys[0] = 99.0
        assert data.xs[0, 0] == 1.0
        assert data.ys[0] == 0.0

    def test_arrays_are_readonly(self):
        data = make_labeled(4)
        with pytest.raises(ValueError):
            data.xs[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.ys[0] = 1.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            LabeledDataset([[1.0], [np.nan]], [0.0, 0.0])
        with pytest.raises(DomainError):
            LabeledDataset([[1.0], [2.0]], [0.0, np.inf])
        with pytest.raises(DomainError):
            UnlabeledDataset([[np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            LabeledDataset(np.empty((0, 2)), np.empty(0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            LabeledDataset(np.ones((3, 2)), np.ones(4))

    def test_subset_keeps_rows(self):
        data = make_labeled(10)
        sub = data.subset([2, 5, 7])
        np.testing.assert_array_equal(sub.xs, data.xs[[2, 5, 7]])
        np.testing.assert_array_equal(sub.ys, data.ys[[2, 5, 7]])

    def test_subset_is_a_readonly_copy(self):
        idx = [4, 0, 4, 9]
        data = make_labeled(10)
        sub = data.subset(idx)
        pool = UnlabeledDataset(data.xs)
        pool_sub = pool.subset(idx)
        pairs = [(sub.xs, data.xs), (sub.ys, data.ys), (pool_sub.xs, pool.xs)]
        for part, whole in pairs:
            np.testing.assert_array_equal(part, whole[idx])
            assert not part.flags.writeable
            assert not np.shares_memory(part, whole)
            assert part.base is None
        assert (type(sub), type(pool_sub)) == (LabeledDataset, UnlabeledDataset)
        assert (sub.n, sub.dim, pool_sub.m, pool_sub.dim) == (4, 2, 4, 2)

    def test_subset_rejects_out_of_range(self):
        data = make_labeled(5)
        with pytest.raises(DomainError):
            data.subset([0, 5])
        with pytest.raises(DomainError):
            data.subset([-1])


class TestPredictor:
    def test_batch_predictions_and_cache(self):
        calls = []

        def fn(xs):
            calls.append(xs.shape[0])
            return xs[:, 0] * 2.0

        pred = Predictor(fn, s=5)
        data = make_labeled(8)
        first = pred.on(data)
        second = pred.on(data)
        assert calls == [8]
        assert first is second
        np.testing.assert_allclose(first, data.xs[:, 0] * 2.0)

    def test_cache_is_per_dataset_object(self):
        pred = Predictor(lambda xs: xs[:, 0], s=0)
        a, b = make_labeled(4, seed=1), make_labeled(4, seed=2)
        assert not np.array_equal(pred.on(a), pred.on(b))

    def test_rejects_nonfinite_predictions(self):
        pred = Predictor(lambda xs: np.full(xs.shape[0], np.inf), s=0)
        with pytest.raises(DomainError):
            pred.on(make_labeled(3))

    def test_rejects_wrong_length(self):
        pred = Predictor(lambda xs: xs[:2, 0], s=0)
        with pytest.raises(DomainError):
            pred.on(make_labeled(5))

    def test_provenance_tag_validation(self):
        with pytest.raises(ParameterError):
            Predictor(lambda xs: xs[:, 0], s=-1)

    def test_precomputed_answers_only_known_datasets(self):
        data = make_labeled(4)
        other = make_labeled(4, seed=9)
        pred = Predictor.precomputed([(data, [1.0, 2.0, 3.0, 4.0])])
        np.testing.assert_array_equal(pred.on(data), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DomainError):
            pred.on(other)

    def test_precomputed_validates_length(self):
        data = make_labeled(4)
        with pytest.raises(DomainError):
            Predictor.precomputed([(data, [1.0, 2.0])])


class TestCsvReaders:
    def test_labeled_roundtrip(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = read_labeled_csv(str(p))
        np.testing.assert_array_equal(data.ys, [1.0, 4.0])
        np.testing.assert_array_equal(data.xs, [[2.0, 3.0], [5.0, 6.0]])

    def test_unlabeled_roundtrip(self, tmp_path):
        p = tmp_path / "unl.csv"
        p.write_text("x1\n0.5\n-0.25\n")
        data = read_unlabeled_csv(str(p))
        np.testing.assert_array_equal(data.xs, [[0.5], [-0.25]])

    def test_predictions_roundtrip(self, tmp_path):
        p = tmp_path / "pred.csv"
        p.write_text("f\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_predictions_csv(str(p)), [1.5, 2.5])

    def test_error_is_row_and_column_addressed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,x1\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(CsvFormatError, match=r"row 3.*x1.*oops"):
            read_labeled_csv(str(p))

    def test_wrong_field_count_addressed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,x1\n1.0,2.0,3.0\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_labeled_csv(str(p))

    def test_header_must_match(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,feat\n1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="x1"):
            read_labeled_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(CsvFormatError):
            read_labeled_csv("/nonexistent/nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_labeled_csv(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("y,x1\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            read_labeled_csv(str(p))
