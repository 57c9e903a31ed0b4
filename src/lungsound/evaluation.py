"""Task definitions and the SE/SP/AS/HS/Score metric suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvalidInputError

EVENT_LABELS = ("N", "Rho", "W", "Str", "B", "CC", "FC")
RECORD_LABELS = ("N", "CAS", "DAS", "CD", "PQ")
# the five scores of a report, in the order the files list them
SCORE_NAMES = ("SE", "SP", "AS", "HS", "Score")


@dataclass(frozen=True)
class TaskSpec:
    """One of the four tasks; class 0 is Normal in every one."""

    task_id: str
    class_names: tuple
    label_map: dict
    level: str  # "event" or "record"

    def map_label(self, raw):
        try:
            return self.label_map[raw]
        except KeyError:
            raise DataError(f"label {raw!r} not valid for task {self.task_id}")


TASKS = {
    "1-1": TaskSpec(
        task_id="1-1",
        class_names=("Normal", "Adventitious"),
        label_map={"N": 0, "Rho": 1, "W": 1, "Str": 1, "B": 1, "CC": 1, "FC": 1},
        level="event",
    ),
    "1-2": TaskSpec(
        task_id="1-2",
        class_names=("N", "Rho", "W", "Str", "CC", "FC", "B"),
        label_map={"N": 0, "Rho": 1, "W": 2, "Str": 3, "CC": 4, "FC": 5, "B": 6},
        level="event",
    ),
    "2-1": TaskSpec(
        task_id="2-1",
        class_names=("Normal", "Adventitious", "Poor Quality"),
        label_map={"N": 0, "CAS": 1, "DAS": 1, "CD": 1, "PQ": 2},
        level="record",
    ),
    "2-2": TaskSpec(
        task_id="2-2",
        class_names=("N", "CAS", "DAS", "CD", "PQ"),
        label_map={"N": 0, "CAS": 1, "DAS": 2, "CD": 3, "PQ": 4},
        level="record",
    ),
}


def confusion(truth, pred, n_classes):
    """Count matrix with rows = truth, cols = prediction."""
    truth = np.asarray(truth, dtype=int)
    pred = np.asarray(pred, dtype=int)
    if truth.shape != pred.shape:
        raise InvalidInputError("truth and prediction lengths differ")
    if truth.size and (truth.min() < 0 or truth.max() >= n_classes
                       or pred.min() < 0 or pred.max() >= n_classes):
        raise InvalidInputError("class index out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truth, pred), 1)
    return cm


def se_sp(cm):
    """Specificity = recall of Normal (class 0); sensitivity = exact-class
    credit over all non-Normal samples. Degenerate 0/0 cases yield 0 plus a
    flag."""
    cm = np.asarray(cm)
    flags = []
    normal_total = cm[0].sum()
    if normal_total == 0:
        sp = 0.0
        flags.append("no_normal_samples")
    else:
        sp = cm[0, 0] / normal_total
    abnormal_total = cm[1:].sum()
    if abnormal_total == 0:
        se = 0.0
        flags.append("no_abnormal_samples")
    else:
        se = (np.trace(cm) - cm[0, 0]) / abnormal_total
    return float(se), float(sp), flags


def scores(se, sp):
    """AS = mean, HS = harmonic mean, Score = mean of the two."""
    if not (0.0 <= se <= 1.0 and 0.0 <= sp <= 1.0):
        raise InvalidInputError("SE and SP must lie in [0, 1]")
    as_ = (se + sp) / 2.0
    hs = 0.0 if se + sp == 0 else 2.0 * se * sp / (se + sp)
    return as_, hs, (as_ + hs) / 2.0


@dataclass(frozen=True)
class ScoreReport:
    task_id: str
    class_names: tuple
    confusion_matrix: np.ndarray
    se: float
    sp: float
    as_score: float
    hs_score: float
    score: float
    per_class_recall: tuple
    flags: tuple = field(default=())

    def named_scores(self):
        """{name: value} of the five scores, in `SCORE_NAMES` order."""
        return dict(zip(SCORE_NAMES, (self.se, self.sp, self.as_score,
                                      self.hs_score, self.score)))

    def to_json(self):
        return json.dumps(
            {
                "task": self.task_id,
                "classes": list(self.class_names),
                "confusion_matrix": self.confusion_matrix.tolist(),
                **self.named_scores(),
                "per_class_recall": list(self.per_class_recall),
                "flags": list(self.flags),
            },
            indent=2,
            sort_keys=True,
        )


def report_from_confusion(cm, task):
    se, sp, flags = se_sp(cm)
    as_, hs, score = scores(se, sp)
    row_totals = cm.sum(axis=1)
    recalls = tuple(
        float(cm[c, c] / row_totals[c]) if row_totals[c] else 0.0
        for c in range(cm.shape[0])
    )
    return ScoreReport(
        task_id=task.task_id,
        class_names=task.class_names,
        confusion_matrix=cm,
        se=se,
        sp=sp,
        as_score=as_,
        hs_score=hs,
        score=score,
        per_class_recall=recalls,
        flags=tuple(flags),
    )


def evaluate_predictions(truth, probabilities, task):
    """Argmax predictions (ties -> lowest index) against integer truth."""
    probs = np.asarray(probabilities)
    pred = probs.argmax(axis=1)
    cm = confusion(truth, pred, len(task.class_names))
    return report_from_confusion(cm, task)
