import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lungsound import evaluation as ev
from lungsound.errors import DataError, InvalidInputError

# Published reference operating points used as fixed oracles: an SE/SP pair
# and the composite scores it implies, quoted to two decimals.
REFERENCE_POINTS = [
    # (SE, SP, AS, HS, Score)
    (0.81, 0.91, 0.86, 0.86, 0.86),
    (0.66, 0.59, 0.63, 0.62, 0.62),
]


class TestTasks:
    def test_task_ids_and_class_counts(self):
        assert set(ev.TASKS) == {"1-1", "1-2", "2-1", "2-2"}
        assert len(ev.TASKS["1-1"].class_names) == 2
        assert len(ev.TASKS["1-2"].class_names) == 7
        assert len(ev.TASKS["2-1"].class_names) == 3
        assert len(ev.TASKS["2-2"].class_names) == 5

    def test_event_label_mapping(self):
        task = ev.TASKS["1-1"]
        assert task.map_label("N") == 0
        for lab in ("Rho", "W", "Str", "B", "CC", "FC"):
            assert task.map_label(lab) == 1

    def test_record_collapse_mapping(self):
        task = ev.TASKS["2-1"]
        assert task.map_label("N") == 0
        for lab in ("CAS", "DAS", "CD"):
            assert task.map_label(lab) == 1
        assert task.map_label("PQ") == 2

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            ev.TASKS["2-2"].map_label("Rho")

    def test_normal_class_is_zero_everywhere(self):
        # se_sp reads class 0 as Normal
        for task in ev.TASKS.values():
            assert task.map_label("N") == 0
            assert task.class_names[0] in ("Normal", "N")


class TestConfusion:
    def test_hand_counted_matrix(self):
        cm = ev.confusion([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        assert cm.tolist() == [[1, 1], [1, 2]]

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 100)
        pred = rng.integers(0, 4, 100)
        assert ev.confusion(truth, pred, 4).sum() == 100

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            ev.confusion([0, 3], [0, 0], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ev.confusion([0, 1], [0], 2)


class TestSeSp:
    def test_binary_oracle(self):
        # 100 normal (80 right), 100 abnormal (70 right)
        cm = np.array([[80, 20], [30, 70]])
        se, sp, flags = ev.se_sp(cm)
        assert sp == pytest.approx(0.8)
        assert se == pytest.approx(0.7)
        assert flags == []

    def test_multiclass_exact_class_credit(self):
        # abnormal correct only when the exact class matches: (5+0+2)/12
        cm = np.array(
            [[9, 1, 0, 0], [1, 5, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]]
        )
        se, sp, _ = ev.se_sp(cm)
        assert sp == pytest.approx(0.9)
        assert se == pytest.approx(7 / 12)

    def test_no_normal_samples_flags(self):
        cm = np.array([[0, 0], [2, 8]])
        se, sp, flags = ev.se_sp(cm)
        assert sp == 0.0
        assert se == pytest.approx(0.8)
        assert "no_normal_samples" in flags

    def test_no_abnormal_samples_flags(self):
        cm = np.array([[9, 1], [0, 0]])
        se, sp, flags = ev.se_sp(cm)
        assert se == 0.0
        assert sp == pytest.approx(0.9)
        assert "no_abnormal_samples" in flags


class TestScores:
    @pytest.mark.parametrize("se,sp,as_,hs,score", REFERENCE_POINTS)
    def test_reference_operating_points(self, se, sp, as_, hs, score):
        got_as, got_hs, got_score = ev.scores(se, sp)
        assert got_as == pytest.approx(as_, abs=0.0051)
        assert got_hs == pytest.approx(hs, abs=0.0051)
        assert got_score == pytest.approx(score, abs=0.0051)

    def test_equal_se_sp_collapses_all_three(self):
        as_, hs, score = ev.scores(0.7, 0.7)
        assert as_ == hs == score == pytest.approx(0.7)

    def test_zero_zero_gives_zero(self):
        assert ev.scores(0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            ev.scores(1.2, 0.5)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_harmonic_never_exceeds_arithmetic(self, se, sp):
        as_, hs, score = ev.scores(se, sp)
        assert hs <= as_ + 1e-12
        assert min(hs, as_) - 1e-12 <= score <= as_ + 1e-12

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_symmetric_in_se_sp(self, se, sp):
        assert ev.scores(se, sp) == ev.scores(sp, se)


class TestEvaluatePredictions:
    def test_argmax_with_tie_goes_to_lowest_index(self):
        probs = np.array([[0.5, 0.5], [0.4, 0.6]])
        report = ev.evaluate_predictions([0, 1], probs, ev.TASKS["1-1"])
        assert report.confusion_matrix.tolist() == [[1, 0], [0, 1]]

    def test_always_normal_predictor_scores_quarter(self):
        # SP=1, SE=0 -> AS=0.5, HS=0 -> Score=0.25
        probs = np.tile([0.9, 0.1], (10, 1))
        truth = [0] * 5 + [1] * 5
        report = ev.evaluate_predictions(truth, probs, ev.TASKS["1-1"])
        assert report.sp == 1.0
        assert report.se == 0.0
        assert report.score == pytest.approx(0.25)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, 40)
        probs = rng.dirichlet(np.ones(3), size=40)
        perm = rng.permutation(40)
        a = ev.evaluate_predictions(truth, probs, ev.TASKS["2-1"])
        b = ev.evaluate_predictions(truth[perm], probs[perm], ev.TASKS["2-1"])
        assert np.array_equal(a.confusion_matrix, b.confusion_matrix)
        assert a.score == b.score

    def test_binary_collapse_consistency(self):
        """Collapsing 2-2 truths and predictions into Normal/Adventitious
        (ignoring PQ) must give the SP that 2-2 reports for Normal."""
        rng = np.random.default_rng(1)
        truth22 = rng.integers(0, 4, 60)  # no PQ samples
        probs22 = rng.dirichlet(np.ones(5), size=60)
        probs22[:, 4] = 0.0  # never predict PQ
        probs22 /= probs22.sum(axis=1, keepdims=True)
        rep22 = ev.evaluate_predictions(truth22, probs22, ev.TASKS["2-2"])

        pred22 = probs22.argmax(axis=1)
        cm_bin = ev.confusion(
            (truth22 != 0).astype(int), (pred22 != 0).astype(int), 2
        )
        se_bin, sp_bin, _ = ev.se_sp(cm_bin)
        assert rep22.sp == pytest.approx(sp_bin)
        assert rep22.se <= se_bin + 1e-12  # exact-class credit is stricter


class TestScoreReport:
    def make_report(self):
        cm = np.array([[8, 2], [3, 7]])
        return ev.report_from_confusion(cm, ev.TASKS["1-1"])

    def test_json_retally_oracle(self):
        """Recompute every metric from the serialized confusion matrix."""
        report = self.make_report()
        payload = json.loads(report.to_json())
        cm = np.array(payload["confusion_matrix"])
        se, sp, _ = ev.se_sp(cm)
        as_, hs, score = ev.scores(se, sp)
        assert payload["SE"] == pytest.approx(se)
        assert payload["SP"] == pytest.approx(sp)
        assert payload["AS"] == pytest.approx(as_)
        assert payload["HS"] == pytest.approx(hs)
        assert payload["Score"] == pytest.approx(score)
        assert payload["task"] == "1-1"
        assert payload["classes"] == ["Normal", "Adventitious"]

    def test_per_class_recall(self):
        report = self.make_report()
        assert report.per_class_recall == (pytest.approx(0.8),
                                           pytest.approx(0.7))

    def test_json_is_deterministic(self):
        assert self.make_report().to_json() == self.make_report().to_json()
