import gc
import pickle
import threading
import weakref

import numpy as np
import pytest

from ftppi.allocate import (
    FeasibilityInput,
    allocation_objective,
    foc_residual,
    solve_optimal_allocation,
)
from ftppi.core import (
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    LabeledDataset,
    ParameterError,
    Predictor,
    RngSeed,
    UnlabeledDataset,
    _threaded_blocks,
    as_seed,
    check_int,
    read_labeled_csv,
    read_predictions_csv,
    read_unlabeled_csv,
)
from ftppi.m_estim import categorical_loss, linear_regression_loss, mnl_loss
from ftppi.rampup import RampUpPlan, run_rampup
from ftppi.scaling import ScalingLaw, ScalingObservation
from ftppi.simulate import (
    SimTrainer,
    SyntheticWorld,
    bootstrap_robustness,
    brute_force_allocation,
    external_ft_experiment,
    generate_world_data,
    run_estimator_comparison,
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

    def test_subset_keeps_the_kind_of_its_source(self):
        data = make_labeled(6)
        for whole in (data, UnlabeledDataset(data.xs)):
            sub = whole.subset([5, 1, 1])
            assert type(sub) is type(whole)
            assert type(sub.subset([0])) is type(whole)
            assert repr(sub) == repr(whole).replace("=6,", "=3,")

    def test_unlabeled_has_no_outcomes(self):
        # callers tell the two kinds apart by the ``ys`` attribute
        pool = UnlabeledDataset(make_labeled(3).xs)
        assert not hasattr(pool, "ys")
        assert not hasattr(pool.subset([0, 2]), "ys")
        assert hasattr(make_labeled(3).subset([1]), "ys")

    def test_datasets_are_weak_keys(self):
        data = make_labeled(4)
        kinds = [data, UnlabeledDataset(data.xs), data.subset([1, 2])]
        table = weakref.WeakKeyDictionary((d, i) for i, d in enumerate(kinds))
        assert [table[d] for d in kinds] == [0, 1, 2]
        kinds.pop()
        gc.collect()
        assert len(table) == 2

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

    def test_precomputed_copies_the_callers_values(self):
        data = make_labeled(4)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        pred = Predictor.precomputed([(data, values)])
        values[:] = 0.0
        np.testing.assert_array_equal(pred.on(data), [1.0, 2.0, 3.0, 4.0])
        assert values.flags.writeable and not pred.on(data).flags.writeable

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


# ---------------------------------------------------------------------------
# Counts: every entry point that takes a size or a replicate count accepts
# Python and numpy integers alike and rejects anything else by name.
# ---------------------------------------------------------------------------

LAW = ScalingLaw(3.0, 0.5, 0.5)
WORLD = SyntheticWorld(1.5, 4.0, 1, LAW, s_min=1)


def _loss_values(loss, xs, ys):
    theta = np.linspace(0.1, 0.4, loss.dim)
    return (
        loss.name,
        loss.dim,
        loss.batch_loss_mean(xs, ys, theta),
        loss.batch_score(xs, ys, theta),
        loss.batch_hessian_mean(xs, ys, theta),
    )


def _rampup(cv_folds):
    data, _ = generate_world_data(WORLD, 400, 1, 3)
    plan = RampUpPlan((20, 40, 80), n_v=50)
    return run_rampup(data, plan, SimTrainer(WORLD, RngSeed(4)), 5, cv_folds=cv_folds)


def _bootstrap(**counts):
    args = dict(n_datasets=2, n_training_seeds=1, n_fit=40, resamples=3, n_alloc=None)
    args.update(counts)
    return bootstrap_robustness(WORLD, seed=1, s_grid=[2, 4, 8, 16], **args)


#: (argument label in the error message, call with the count under test,
#: a valid count, whether None is a valid value for that argument)
COUNT_ARGUMENTS = [
    ("seed", lambda v: RngSeed(v), 5, False),
    ("Predictor: provenance tag s", lambda v: Predictor(None, v).s, 5, False),
    ("n", lambda v: FeasibilityInput(LAW, v, 4.0), 10, False),
    ("n", lambda v: foc_residual(LAW, v, 1.5), 10, False),
    ("n", lambda v: allocation_objective(LAW, v, 1.5), 10, False),
    ("n", lambda v: solve_optimal_allocation(LAW, v), 10, False),
    (
        "categorical_loss: d",
        lambda v: _loss_values(categorical_loss(v), np.zeros((3, 1)), np.array([1.0, 2.0, 3.0])),
        3,
        False,
    ),
    (
        "linear_regression_loss: d",
        lambda v: _loss_values(linear_regression_loss(v), np.eye(2), np.array([1.0, -1.0])),
        2,
        False,
    ),
    (
        "mnl_loss: n_options",
        lambda v: _loss_values(mnl_loss(v, 1), np.eye(2), np.array([1.0, 2.0])),
        2,
        False,
    ),
    (
        "mnl_loss: dim_per_option",
        lambda v: _loss_values(mnl_loss(1, v), np.ones((2, 2)), np.array([0.0, 1.0])),
        2,
        False,
    ),
    ("schedule size", lambda v: RampUpPlan((v, 20, 30), 10), 10, False),
    ("schedule size", lambda v: RampUpPlan((10, 20, v), 10), 30, False),
    ("n_v", lambda v: RampUpPlan((10, 20, 30), v), 10, True),
    ("cv_folds", _rampup, 2, True),
    ("ScalingObservation.s", lambda v: ScalingObservation(v, 1.0), 10, False),
    ("feature_dim", lambda v: SyntheticWorld(1.5, 4.0, v, LAW), 2, False),
    ("s_min", lambda v: SyntheticWorld(1.5, 4.0, 1, LAW, s_min=v), 2, True),
    ("n", lambda v: generate_world_data(WORLD, v, 5, 1), 6, False),
    ("m", lambda v: generate_world_data(WORLD, 6, v, 1), 5, False),
    ("training size", lambda v: SimTrainer(WORLD, RngSeed(1)).pseudo_sd(v), 10, False),
    ("n", lambda v: brute_force_allocation(WORLD, v, 5, 0.25, 2, 1), 20, False),
    ("m", lambda v: brute_force_allocation(WORLD, 20, v, 0.25, 2, 1), 5, False),
    ("replicates", lambda v: brute_force_allocation(WORLD, 20, 5, 0.25, v, 1), 2, False),
    ("n", lambda v: run_estimator_comparison(WORLD, v, 5, 2, 1), 20, False),
    ("m", lambda v: run_estimator_comparison(WORLD, 20, v, 2, 1), 5, False),
    ("replicates", lambda v: run_estimator_comparison(WORLD, 20, 5, v, 1), 2, False),
    ("n", lambda v: external_ft_experiment(WORLD, 0.5, v, 5, 2, 1), 20, False),
    ("m", lambda v: external_ft_experiment(WORLD, 0.5, 20, v, 2, 1), 5, False),
    ("replicates", lambda v: external_ft_experiment(WORLD, 0.5, 20, 5, v, 1), 2, False),
    ("n_datasets", lambda v: _bootstrap(n_datasets=v), 2, False),
    ("n_training_seeds", lambda v: _bootstrap(n_training_seeds=v), 2, False),
    ("n_fit", lambda v: _bootstrap(n_fit=v), 40, False),
    ("resamples", lambda v: _bootstrap(resamples=v), 3, False),
    ("n_alloc", lambda v: _bootstrap(n_alloc=v), 100, True),
    (
        "mnl_loss: workers",
        lambda v: _loss_values(mnl_loss(1, 1, v), np.ones((2, 1)), np.array([0.0, 1.0])),
        2,
        False,
    ),
]


# Each row's id carries its row number.  Rows 6, 11 and 12 tested functions
# that are gone; their numbers are not reused, so no other row's id moves.
_ROW_NUMBERS = [i for i in range(len(COUNT_ARGUMENTS) + 3) if i not in (6, 11, 12)]
_COUNT_IDS = [f"{i}-{row[0]}" for i, row in zip(_ROW_NUMBERS, COUNT_ARGUMENTS)]
_NON_COUNTS = [
    pytest.param(what, call, bad, id=f"{name}-{bad!r}")
    for name, (what, call, _, none_ok) in zip(_COUNT_IDS, COUNT_ARGUMENTS)
    for bad in (True, 2.5, "3", None)
    if not (bad is None and none_ok)  # None is then the argument's default, or allowed
]


class TestCountArguments:
    @pytest.mark.parametrize("what,call,bad", _NON_COUNTS)
    def test_non_integers_are_rejected_by_name(self, what, call, bad):
        with pytest.raises(ParameterError, match=f"^{what} must be an integer, got "):
            call(bad)

    @pytest.mark.parametrize("what,call,good,none_ok", COUNT_ARGUMENTS, ids=_COUNT_IDS)
    def test_numpy_integer_gives_identical_result(self, what, call, good, none_ok):
        assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))

    def test_check_int_returns_plain_int(self):
        assert type(check_int(np.uint8(7), "k", 0)) is int
        with pytest.raises(ParameterError, match="^k must be >= 8, got 7$"):
            check_int(np.int32(7), "k", 8)
        with pytest.raises(ParameterError, match="^k must be an integer, got "):
            check_int(np.bool_(True), "k", 0)


class TestThreadedBlocks:
    """The thread kernel: item i on worker i % w, worker 0 the calling thread."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_item_order_on_their_workers(self, workers):
        ran_on = {}

        def fn(item):
            ran_on[item] = threading.current_thread()
            return item * item

        before = threading.active_count()
        assert _threaded_blocks(fn, range(7), workers) == [i * i for i in range(7)]
        assert threading.active_count() == before
        w = min(workers, 7)
        assert ran_on[0] is threading.current_thread()
        assert len(set(ran_on.values())) == w
        for i, thread in ran_on.items():
            assert thread is ran_on[i % w]

    def test_no_items(self):
        assert _threaded_blocks(lambda item: 1 / 0, [], 3) == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earliest_failing_items_error_is_raised(self, workers):
        """Items 2 and 4 fail: item 2's error is raised whichever worker met which first."""
        meets_item_4 = threading.Event()

        def fn(item):
            if item == 2:
                # worker 2 of 3, or worker 0 of 2: let item 4 fail first when it can
                meets_item_4.wait(timeout=0.2 if workers == 3 else 0)
                raise ValueError("item 2")
            if item == 4:
                meets_item_4.set()
                raise KeyError("item 4")
            return item

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 2"):
            _threaded_blocks(fn, range(6), workers)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_scratch_is_each_workers_own(self, workers):
        """Items i and i + w get the same buffers, of the shapes asked for;
        different workers get different ones."""
        got = {}

        def fn(item, row, grid):
            got[item] = (row, grid)
            return item

        assert _threaded_blocks(fn, range(7), workers, [5, (2, 3)]) == list(range(7))
        w = min(workers, 7)
        for i, (row, grid) in got.items():
            assert row.shape == (5,) and grid.shape == (2, 3) and row.dtype == np.float64
            assert row is got[i % w][0] and grid is got[i % w][1]
        buffers = [id(buf) for i in range(w) for buf in got[i]]
        assert len(set(buffers)) == 2 * w

    @pytest.mark.parametrize("workers", [1, 3])
    def test_scratch_allocated_before_any_thread_starts(self, workers, monkeypatch):
        made = []
        empty = np.empty

        def spy(shape, *args, **kwargs):
            made.append((shape, threading.current_thread(), threading.active_count()))
            return empty(shape, *args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(np, "empty", spy)
        _threaded_blocks(lambda item, buf: buf.fill(item), range(6), workers, [4])
        monkeypatch.undo()
        assert made == [(4, threading.current_thread(), before)] * workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_error_raised_with_scratch(self, workers):
        def fn(item, buf):
            buf[0] = item
            if item in (2, 4):
                raise ValueError(f"item {item}")
            return item

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 2"):
            _threaded_blocks(fn, range(6), workers, [3])
        assert threading.active_count() == before
