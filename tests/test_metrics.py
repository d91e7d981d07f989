"""Precision/recall and RMSE evaluation primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorprep.metrics import ConfusionCounts, mean_rmse, precision_recall, rmse


class TestPrecisionRecall:
    def test_perfect_detector(self):
        p, r, counts = precision_recall({1, 2}, {1, 2}, set(range(10)))
        assert p == 1.0 and r == 1.0
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 0, 0, 8)

    def test_hand_counted_confusion(self):
        truth = set(range(10))
        predicted = set(range(8)) | {20, 21}
        universe = set(range(30))
        p, r, counts = precision_recall(truth, predicted, universe)
        assert (counts.tp, counts.fp, counts.fn) == (8, 2, 2)
        assert p == 0.8 and r == 0.8

    def test_partial_detection(self):
        truth = set(range(50))
        predicted = set(range(40)) | {90, 91, 92, 93, 94}
        p, r, _ = precision_recall(truth, predicted, set(range(100)))
        assert p == pytest.approx(40 / 45)
        assert r == pytest.approx(0.8)

    def test_empty_everything_is_perfect(self):
        p, r, _ = precision_recall(set(), set(), set(range(5)))
        assert p == 1.0 and r == 1.0

    def test_no_predictions_on_nonempty_truth(self):
        p, r, _ = precision_recall({1}, set(), set(range(5)))
        assert p == 0.0 and r == 0.0

    def test_predictions_on_empty_truth(self):
        p, r, _ = precision_recall(set(), {1, 2}, set(range(5)))
        assert p == 0.0 and r == 0.0

    def test_counts_cover_universe(self):
        _, _, counts = precision_recall({0, 1}, {1, 2}, set(range(7)))
        assert counts.total == 7

    def test_subset_violations(self):
        with pytest.raises(ValueError, match="truth"):
            precision_recall({9}, set(), {1})
        with pytest.raises(ValueError, match="predicted"):
            precision_recall(set(), {9}, {1})

    @settings(max_examples=50, deadline=None)
    @given(
        truth=st.sets(st.integers(0, 20)),
        predicted=st.sets(st.integers(0, 20)),
    )
    def test_bounds(self, truth, predicted):
        p, r, _ = precision_recall(truth, predicted, set(range(21)))
        assert 0.0 <= p <= 1.0
        assert 0.0 <= r <= 1.0


    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.tuples(st.integers(-5, 30), st.integers(-5, 30), st.sampled_from([1, 1, 2, 3, -1, -2])),
        cells=st.one_of(st.integers(-8, 33), st.sampled_from([2.0, 3.5, -0.0, True, "3", (1,), None])),
        data=st.data(),
    )
    def test_range_universe_equals_its_set(self, bounds, cells, data):
        # evaluate passes a range; the result, errors included, is that of the set of its cells.
        universe = range(*bounds)
        truth = data.draw(st.sets(st.one_of(st.sampled_from(list(universe) or [0]), st.just(cells))))
        predicted = data.draw(st.sets(st.one_of(st.sampled_from(list(universe) or [0]), st.just(cells))))

        def outcome(u):
            try:
                return precision_recall(truth, predicted, u)
            except ValueError as exc:
                return str(exc)

        assert outcome(universe) == outcome(set(universe))


class TestRmse:
    def test_identical_is_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_worked(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_mean_rmse(self):
        assert mean_rmse([1.0, 3.0]) == 2.0

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(20)
        b = a.copy()
        b[3] += 0.5
        assert rmse(a, b) > 0.0
        assert rmse(a, a) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12))
    def test_joint_permutation_invariance(self, actual):
        rng = np.random.default_rng(0)
        estimated = [v + 1.0 for v in actual]
        order = rng.permutation(len(actual))
        base = rmse(actual, estimated)
        permuted = rmse(np.asarray(actual)[order], np.asarray(estimated)[order])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            mean_rmse([])


class TestConfusionCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConfusionCounts(1, -1, 0, 0)
