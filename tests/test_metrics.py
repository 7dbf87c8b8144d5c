import numpy as np
import pytest

from qgfraud.metrics import (
    EvalReport,
    MetricsError,
    ScoredSet,
    confusion,
    evaluate,
    format_report,
    optimal_threshold,
    pr_curve,
    roc_curve,
    write_curve_csv,
    write_report,
)
from qgfraud.rng import make_rng
from tests.oracles import pair_auc


def scored(scores, labels):
    return ScoredSet(np.asarray(scores, dtype=float), np.asarray(labels, dtype=int))


def random_scored(rng, n=None, tie_prone=False):
    n = n or int(rng.integers(2, 200))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():  # force both classes
        labels[0] = 1 - labels[0]
    if tie_prone:
        scores = rng.integers(0, 5, size=n) / 4.0
    else:
        scores = rng.uniform(0, 1, size=n)
    return scored(scores, labels)


class TestScoredSet:
    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            scored([0.5], [1, 0])

    def test_score_out_of_range(self):
        with pytest.raises(MetricsError):
            scored([1.5], [1])

    def test_bad_labels(self):
        with pytest.raises(MetricsError):
            scored([0.5], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(MetricsError, match="finite"):
            scored([bad, 0.2, 0.9], [1, 0, 1])


class TestConfusion:
    def test_basic(self):
        assert confusion(scored([0.9, 0.1], [1, 0]), 0.5) == (1, 0, 1, 0)

    def test_zero_threshold_everything_positive(self):
        tp, fp, tn, fn = confusion(scored([0.2, 0.8, 0.5], [0, 1, 0]), 0.0)
        assert tn == fn == 0 and tp + fp == 3

    def test_threshold_above_max_everything_negative(self):
        tp, fp, tn, fn = confusion(scored([0.2, 0.8], [1, 0]), 0.81)
        assert tp == fp == 0 and tn + fn == 2

    def test_tie_counts_positive(self):
        tp, fp, _, _ = confusion(scored([0.5, 0.5], [1, 0]), 0.5)
        assert (tp, fp) == (1, 1)


class TestRocCurve:
    def test_perfect_separation(self):
        _, auc = roc_curve(scored([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]))
        assert auc == pytest.approx(1.0, abs=1e-12)

    def test_constant_scores_give_half(self):
        _, auc = roc_curve(scored([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]))
        assert auc == pytest.approx(0.5, abs=1e-12)

    def test_worked_example(self):
        # pairs: (0.8 vs 0.6) win, (0.4 vs 0.6) loss -> (1 + 0) / 2
        points, auc = roc_curve(scored([0.8, 0.6, 0.4], [1, 0, 1]))
        assert auc == pytest.approx(0.5, abs=1e-12)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)

    def test_matches_pair_counting_oracle(self):
        rng = make_rng(17)
        for trial in range(60):
            s = random_scored(rng, tie_prone=trial % 3 == 0)
            _, auc = roc_curve(s)
            assert auc == pytest.approx(pair_auc(s.scores, s.labels), abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = make_rng(23)
        for _ in range(20):
            s = random_scored(rng)
            _, auc1 = roc_curve(s)
            _, auc2 = roc_curve(scored(s.scores**2, s.labels))  # x^2 monotone on [0, 1]
            assert auc1 == pytest.approx(auc2, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricsError):
            roc_curve(scored([0.5, 0.6], [1, 1]))


class TestPrCurve:
    def test_perfect_ranking(self):
        _, auc = pr_curve(scored([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]))
        assert auc == pytest.approx(1.0, abs=1e-12)

    def test_single_positive_example(self):
        points, auc = pr_curve(scored([0.3], [1]))
        assert points == [(1.0, 1.0)]
        assert auc == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_exact(self):
        # thresholds .9/.8/.7: (R, P) = (1/2, 1), (1/2, 1/2), (1, 2/3)
        points, auc = pr_curve(scored([0.9, 0.8, 0.7], [1, 0, 1]))
        assert points == [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
        assert auc == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(MetricsError):
            pr_curve(scored([0.5], [0]))


class TestOptimalThreshold:
    def test_perfectly_separated(self):
        # any threshold in the gap works; the largest optimal distinct score wins
        assert optimal_threshold(scored([0.9, 0.8, 0.2], [1, 1, 0])) == pytest.approx(0.8)

    def test_worked_example(self):
        # F1 at .9 = 2/3, at .8 = 1/2, at .7 = 4/5
        assert optimal_threshold(scored([0.9, 0.8, 0.7], [1, 0, 1])) == pytest.approx(0.7)

    def test_low_negative_appendix_is_irrelevant(self):
        base = scored([0.9, 0.8, 0.7], [1, 0, 1])
        extended = scored([0.9, 0.8, 0.7, 0.05], [1, 0, 1, 0])
        assert optimal_threshold(base) == optimal_threshold(extended)

    def test_beats_half_threshold(self):
        rng = make_rng(31)
        for _ in range(40):
            s = random_scored(rng)
            t = optimal_threshold(s)

            def f1_at(th):
                tp, fp, _, fn = confusion(s, th)
                return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0

            assert f1_at(t) >= f1_at(0.5) - 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(MetricsError):
            optimal_threshold(scored([0.1, 0.2], [0, 0]))


class TestEvaluate:
    def test_ideal_classifier(self):
        rep = evaluate(scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]), 0.5)
        assert rep.accuracy == 100.0
        assert rep.f1 == 1.0
        assert rep.auc_roc == pytest.approx(1.0)

    def test_constant_score_tie_rule(self):
        rep = evaluate(scored([0.5] * 4, [1, 0, 1, 0]), 0.5)
        assert rep.accuracy == 50.0
        assert rep.recall == 100.0
        assert rep.precision == 50.0

    def test_counts_add_up(self):
        rng = make_rng(3)
        s = random_scored(rng, n=50)
        rep = evaluate(s, 0.4)
        assert rep.n == 50
        assert rep.tp + rep.fp + rep.tn + rep.fn == 50

    def test_f1_is_harmonic_mean(self):
        rng = make_rng(5)
        for _ in range(20):
            s = random_scored(rng)
            rep = evaluate(s, float(rng.uniform(0, 1)))
            p, r = rep.precision / 100.0, rep.recall / 100.0
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert rep.f1 == pytest.approx(expected, abs=1e-12)


class TestReportIO:
    def test_format_contains_required_keys(self):
        rep = evaluate(scored([0.9, 0.1], [1, 0]), 0.5)
        text = format_report(rep)
        for key in ("threshold", "accuracy_pct", "precision_pct", "recall_pct", "f1",
                    "auc_roc", "auc_pr", "roc_points", "pr_points"):
            assert f"{key}:" in text

    def test_report_values_are_plain_floats(self):
        rep = evaluate(scored([0.9, 0.4, 0.1], [1, 1, 0]), 0.5)
        assert "np.float" not in format_report(rep)

    def test_write_is_deterministic(self, tmp_path):
        rep = evaluate(scored([0.7, 0.3], [1, 0]), 0.5)
        write_report(rep, tmp_path / "a.txt")
        write_report(rep, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        write_curve_csv(tmp_path / "c1.csv", rep.roc_points, "fpr", "tpr")
        write_curve_csv(tmp_path / "c2.csv", rep.roc_points, "fpr", "tpr")
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
