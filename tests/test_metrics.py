"""Classification-metric tests against a hand-computed confusion oracle."""

import json

import numpy as np
import pytest

from tscl.errors import DimensionError, ParameterError
from tscl.metrics import confusion_matrix, evaluate

# Fixed 20-sample fixture over 3 classes, laid out so the confusion matrix
# (rows = true, cols = predicted) is exactly:
#     [[6, 1, 1],
#      [2, 4, 1],
#      [0, 2, 3]]
Y_TRUE = np.array([0] * 8 + [1] * 7 + [2] * 5)
Y_PRED = np.array(
    [0, 0, 0, 0, 0, 0, 1, 2]  # true class 0
    + [0, 0, 1, 1, 1, 1, 2]  # true class 1
    + [1, 1, 2, 2, 2]  # true class 2
)
EXPECTED_CONFUSION = np.array([[6, 1, 1], [2, 4, 1], [0, 2, 3]])


def test_confusion_matrix_matches_hand_count():
    np.testing.assert_array_equal(
        confusion_matrix(Y_TRUE, Y_PRED, 3), EXPECTED_CONFUSION
    )


def test_fixture_metrics_match_confusion_oracle():
    # Derived by hand from the matrix above:
    #   class 0: tp=6 fp=2 fn=2 -> P = R = F1 = 0.75
    #   class 1: tp=4 fp=3 fn=3 -> P = R = F1 = 4/7
    #   class 2: tp=3 fp=2 fn=2 -> P = R = F1 = 0.6
    report = evaluate(Y_TRUE, Y_PRED, 3)
    assert report.accuracy == pytest.approx(13 / 20, abs=1e-15)
    expected_f1 = {0: 0.75, 1: 4 / 7, 2: 0.6}
    for y, f1 in expected_f1.items():
        m = report.per_class[y]
        assert m.f1 == pytest.approx(f1, abs=1e-12)
        assert m.precision == pytest.approx(f1, abs=1e-12)  # symmetric fixture
        assert m.recall == pytest.approx(f1, abs=1e-12)
        assert not m.undefined
    assert report.macro_f1 == pytest.approx((0.75 + 4 / 7 + 0.6) / 3, abs=1e-12)
    assert report.per_class[0].support == 8
    assert report.per_class[1].support == 7
    assert report.per_class[2].support == 5


def test_perfect_predictions():
    y = np.array([0, 1, 2, 1, 0, 2, 2])
    report = evaluate(y, y, 3)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert all(m.f1 == 1.0 for m in report.per_class.values())
    np.testing.assert_array_equal(report.confusion, np.diag([2, 2, 3]))


def test_class_with_no_truth_and_no_predictions_is_flagged():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    report = evaluate(y_true, y_pred, 3)
    ghost = report.per_class[2]
    assert ghost.undefined
    assert ghost.f1 == 0.0
    assert ghost.support == 0
    # The macro average still counts the unscored class as zero.
    assert report.macro_f1 == pytest.approx(
        (report.per_class[0].f1 + report.per_class[1].f1) / 3, abs=1e-12
    )


def test_predicted_only_class_scores_zero_without_flag():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 2, 1, 2])
    report = evaluate(y_true, y_pred, 3)
    phantom = report.per_class[2]
    assert not phantom.undefined
    assert phantom.f1 == 0.0
    assert phantom.precision == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(DimensionError, match="true labels"):
        evaluate(np.array([0, 1]), np.array([0]), 2)


def test_out_of_range_labels_rejected():
    with pytest.raises(ParameterError, match="labels must lie"):
        evaluate(np.array([0, 3]), np.array([0, 1]), 3)
    with pytest.raises(ParameterError, match="labels must lie"):
        evaluate(np.array([0, -1]), np.array([0, 1]), 3)


def test_nonpositive_class_count_rejected():
    with pytest.raises(ParameterError, match="at least one class"):
        evaluate(np.array([], dtype=int), np.array([], dtype=int), 0)


def test_to_dict_structure_and_determinism():
    report = evaluate(Y_TRUE, Y_PRED, 3)
    d = report.to_dict()
    assert d["metric_scale"] == "fraction"
    assert set(d) == {"accuracy", "macro_f1", "metric_scale", "per_class", "confusion"}
    assert set(d["per_class"]) == {"0", "1", "2"}
    assert d["confusion"] == EXPECTED_CONFUSION.tolist()
    assert json.dumps(d, sort_keys=True) == json.dumps(
        evaluate(Y_TRUE, Y_PRED, 3).to_dict(), sort_keys=True
    )
