"""Thresholded classification metrics, ROC/PR curves, and threshold selection.

Prediction rule everywhere: positive iff score >= threshold (ties positive).
AUC-ROC uses the trapezoid rule; AUC-PR uses the step-wise right-continuous
sum, which avoids the optimistic linear interpolation between PR points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(eq=False)
class ScoredSet:
    """Parallel score/label arrays; scores in [0, 1], labels in {0, 1}."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise MetricsError("scores and labels must be equal-length 1-D arrays")
        if not np.isfinite(self.scores).all():
            raise MetricsError("scores must be finite")
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise MetricsError("scores must lie in [0, 1]")
        if not np.isin(self.labels, (0, 1)).all():
            raise MetricsError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class EvalReport:
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float  # percent
    precision: float  # percent
    recall: float  # percent
    f1: float
    roc_points: tuple
    pr_points: tuple
    auc_roc: float
    auc_pr: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(s: ScoredSet, threshold: float):
    """(tp, fp, tn, fn) for the >=-threshold rule."""
    pred = s.scores >= threshold
    pos = s.labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    return tp, fp, tn, fn


def _sweep(s: ScoredSet):
    """Cumulative (tp, fp) at each distinct score, thresholds descending."""
    order = np.argsort(-s.scores, kind="stable")
    scores = s.scores[order]
    labels = s.labels[order]
    tp_cum = np.cumsum(labels)
    fp_cum = np.cumsum(1 - labels)
    # last index of each run of equal scores
    last = np.flatnonzero(np.diff(scores) != 0)
    last = np.concatenate([last, [scores.size - 1]])
    return scores[last], tp_cum[last], fp_cum[last]


def roc_curve(s: ScoredSet):
    """((fpr, tpr) points, trapezoid AUC); needs both classes present."""
    n_pos = int(np.sum(s.labels == 1))
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("ROC needs at least one example of each class")
    _, tps, fps = _sweep(s)
    points = [(0.0, 0.0)]
    points += [(float(fp) / n_neg, float(tp) / n_pos) for tp, fp in zip(tps, fps)]
    points.append((1.0, 1.0))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
    return points, auc


def pr_curve(s: ScoredSet):
    """((recall, precision) points, step-wise AUC-PR); needs >= 1 positive."""
    n_pos = int(np.sum(s.labels == 1))
    if n_pos == 0:
        raise MetricsError("the PR curve needs at least one positive example")
    _, tps, fps = _sweep(s)
    points = [(float(tp) / n_pos, float(tp) / float(tp + fp)) for tp, fp in zip(tps, fps)]
    auc = 0.0
    prev_recall = 0.0
    for recall, precision in points:
        auc += (recall - prev_recall) * precision
        prev_recall = recall
    return points, float(auc)


def optimal_threshold(s: ScoredSet) -> float:
    """Distinct score maximising F1; ties resolve to the larger threshold."""
    n_pos = int(np.sum(s.labels == 1))
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("threshold selection needs both classes present")
    thresholds, tps, fps = _sweep(s)
    best_t, best_f1 = None, -1.0
    for t, tp, fp in zip(thresholds, tps, fps):
        fn = n_pos - tp
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom else 0.0
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t


def evaluate(s: ScoredSet, threshold: float) -> EvalReport:
    """Confusion counts, percentage metrics, and both curves at one threshold."""
    if not len(s):
        raise MetricsError("cannot evaluate an empty set: it has no scored graphs")
    tp, fp, tn, fn = confusion(s, threshold)
    accuracy = 100.0 * (tp + tn) / len(s)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    roc_points, auc_roc = roc_curve(s)
    pr_points, auc_pr = pr_curve(s)
    return EvalReport(
        threshold=float(threshold),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        roc_points=tuple(roc_points),
        pr_points=tuple(pr_points),
        auc_roc=auc_roc,
        auc_pr=auc_pr,
    )


def format_report(report: EvalReport) -> str:
    """Key-value text with full-precision values; rounding is the reader's job."""
    lines = [
        f"threshold: {report.threshold!r}",
        f"n: {report.n}",
        f"tp: {report.tp}",
        f"fp: {report.fp}",
        f"tn: {report.tn}",
        f"fn: {report.fn}",
        f"accuracy_pct: {report.accuracy!r}",
        f"precision_pct: {report.precision!r}",
        f"recall_pct: {report.recall!r}",
        f"f1: {report.f1!r}",
        f"auc_roc: {report.auc_roc!r}",
        f"auc_pr: {report.auc_pr!r}",
        "auc_pr_estimator: stepwise",
        "roc_points: " + ";".join(f"{x!r},{y!r}" for x, y in report.roc_points),
        "pr_points: " + ";".join(f"{x!r},{y!r}" for x, y in report.pr_points),
    ]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_report(report))


def write_curve_csv(path, points, x_name: str, y_name: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{x_name},{y_name}\n")
        for x, y in points:
            fh.write(f"{x!r},{y!r}\n")
