"""Expected-error metrics, confidence scoring, and leave-one-out evaluation."""

import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import assert_same_arrays, collapse_starts, first_draws, fit_of, random_model
from hetmix import (IGNORE_MISSING, MODEL_MISSING, OUTCOME, Dataset, DegenerateSampleError,
                    EmConfig, FinitePrediction, InferenceRequest, SchemaError,
                    SchemaViolationError, TrainingError,
                    VariableSchema, chance_prediction, confidence_bins,
                    confidence_score, error_density, expected_absolute_error,
                    fit, infer, loo_evaluate, max_absolute_error,
                    normalized_error, percentile_ranks, prediction_error,
                    probability_of_error, sample_cohort, scott_bandwidth,
                    threshold_curve, training_confidence_scores)
from hetmix.demo import small_demo_model
from hetmix.distributions import log_sum_exp
from hetmix.evaluation import FoldFailure, _evaluate_folds, _fold_seed
from hetmix.inference import predict_batch, target_tables
from hetmix.model import ZeroLikelihoodError, evidence_log_likelihoods
from hetmix.schema import MISSING, _kept_ranges, validate_dataset
from hetmix.training import _fit_many

EIGHT = VariableSchema("g8", "ordinal", tuple(range(1, 9)))
THREE_WAY = VariableSchema("s3", "categorical", ("a", "b", "c"))


def _uniform(domain):
    k = len(domain)
    return FinitePrediction(domain, np.full(k, 1.0 / k))


class TestPointMetrics:
    def test_expected_absolute_error(self):
        pred = FinitePrediction((1, 2, 3), np.array([0.5, 0.25, 0.25]))
        assert expected_absolute_error(pred, 1) == pytest.approx(0.75)
        assert expected_absolute_error(pred, 3) == pytest.approx(1.25)

    def test_point_mass_is_exact(self):
        pred = FinitePrediction((1, 2, 3), np.array([0.0, 1.0, 0.0]))
        assert expected_absolute_error(pred, 2) == 0.0
        cat = FinitePrediction(("a", "b"), np.array([1.0, 0.0]))
        assert probability_of_error(cat, "a") == 0.0

    def test_chance_ordinal_endpoints(self):
        # uniform over {1..8}: truth 8 gives 3.5, truth 4 gives 2.0
        pred = _uniform(EIGHT.domain)
        assert expected_absolute_error(pred, 8) == pytest.approx(3.5)
        assert expected_absolute_error(pred, 4) == pytest.approx(2.0)
        assert max_absolute_error(EIGHT) == 7.0
        assert normalized_error(EIGHT, 3.5) == pytest.approx(50.0)

    def test_chance_categorical(self):
        pred = _uniform(THREE_WAY.domain)
        assert probability_of_error(pred, "b") == pytest.approx(2.0 / 3.0)
        assert max_absolute_error(THREE_WAY) == 1.0
        assert normalized_error(THREE_WAY, 2.0 / 3.0) == \
            pytest.approx(100.0 * 2 / 3)

    def test_prediction_error_dispatch(self):
        ordinal = VariableSchema("g", "ordinal", (1, 2, 3))
        cat = VariableSchema("s", "categorical", ("a", "b"))
        assert prediction_error(ordinal, _uniform((1, 2, 3)), 3) == \
            pytest.approx(1.0)
        assert prediction_error(cat, _uniform(("a", "b")), "a") == \
            pytest.approx(0.5)
        with pytest.raises(Exception):
            prediction_error(VariableSchema("x", "real"), None, 1.0)

    def test_chance_prediction(self):
        schema = VariableSchema("g", "ordinal", (1, 2, 3))
        pred = chance_prediction(schema)
        assert pred.probabilities.tolist() == [1 / 3, 1 / 3, 1 / 3]

    def test_chance_needs_a_finite_domain(self):
        with pytest.raises(SchemaError, match="^x: need a finite domain$"):
            chance_prediction(VariableSchema("x", "real"))

    @given(st.integers(2, 9), st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalized_error_bounded(self, width, truth_idx, data):
        domain = tuple(range(width))
        schema = VariableSchema("g", "ordinal", domain)
        truth = domain[min(truth_idx, width - 1)]
        raw = data.draw(st.lists(st.floats(0.01, 1.0),
                                 min_size=width, max_size=width))
        probs = np.asarray(raw) / np.sum(raw)
        err = expected_absolute_error(FinitePrediction(domain, probs), truth)
        assert 0.0 <= normalized_error(schema, err) <= 100.0 + 1e-9


class TestPercentiles:
    def test_strict_fraction(self):
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        assert percentile_ranks(2.5, ref) == pytest.approx(0.5)
        assert percentile_ranks(0.0, ref) == 0.0
        assert percentile_ranks(9.0, ref) == 1.0
        assert percentile_ranks(2.0, ref) == pytest.approx(0.25)  # ties above

    def test_vectorized_matches_loop(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=40)
        queries = np.concatenate([rng.normal(size=15), ref[:5]])  # some ties
        got = percentile_ranks(queries, ref)
        want = [np.count_nonzero(ref < q) / ref.size for q in queries]
        assert got.tolist() == want
        assert [percentile_ranks(q, ref) for q in queries] == want

    def test_monotone_in_the_query(self):
        ref = np.array([0.0, 1.0, 1.0, 5.0])
        values = [-1.0, 0.5, 1.0, 2.0, 6.0]
        ranks = [percentile_ranks(v, ref) for v in values]
        assert ranks == sorted(ranks)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            percentile_ranks(0.0, np.array([]))

    def test_nan_is_refused_and_minus_inf_ranks_zero(self):
        """A NaN score would rank as the most confident, and a NaN reference would shrink
        every rank: each is a ValueError naming its argument. A zero likelihood's -inf
        score has no reference score below it."""
        for scores, ref, name in ((math.nan, [0.0, 2.0], "scores"),
                                  ([1.0, math.nan], [0.0, 2.0], "scores"),
                                  (1.0, [0.0, math.nan, 2.0], "training_scores")):
            with pytest.raises(ValueError, match=f"^{name} must not hold NaN$") as err:
                percentile_ranks(scores, ref)
            assert not isinstance(err.value, DegenerateSampleError)
        assert percentile_ranks([-math.inf, 1.0], [-math.inf, 0.0, 2.0]).tolist() == [0.0, 2 / 3]


class TestThresholdCurve:
    def test_frozen_two_subject_curve(self):
        percentiles = np.array([0.2, 0.8])
        errors = np.array([10.0, 2.0])
        curve = threshold_curve(percentiles, errors,
                                thresholds=np.array([0.0, 0.5, 0.9]))
        assert curve.mean_error[:2].tolist() == [6.0, 2.0]
        assert math.isnan(curve.mean_error[2])
        assert curve.kept.tolist() == [2, 1, 0]
        assert curve.improvement[1] == pytest.approx(4.0)

    def test_improvement_of_an_empty_sweep_is_empty(self):
        improvement = threshold_curve([0.5], [1.0], []).improvement
        assert improvement.shape == (0,)

    @given(data=st.data(), n=st.integers(0, 12), steps=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_improvement_is_e0_minus_e_tau_bit_for_bit(self, data, n, steps):
        unit = st.floats(0.0, 1.0)
        percentiles = data.draw(st.lists(unit, min_size=n, max_size=n))
        errors = data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
        thresholds = data.draw(st.lists(unit, min_size=steps, max_size=steps))
        curve = threshold_curve(percentiles, errors, thresholds)
        want = curve.mean_error[0] - curve.mean_error
        assert curve.improvement.tobytes() == want.tobytes()

    def test_zero_threshold_equals_unconditional_mean(self):
        rng = np.random.default_rng(11)
        percentiles = rng.uniform(size=30)
        errors = rng.uniform(0, 40, size=30)
        curve = threshold_curve(percentiles, errors)
        assert curve.thresholds[0] == 0.0
        assert curve.mean_error[0] == errors.mean()
        assert curve.kept[0] == 30

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            threshold_curve(np.array([0.5]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("thresholds, axes", [(0.5, 0), ([[0.1, 0.2]], 2)])
    def test_thresholds_must_be_one_dimensional(self, thresholds, axes):
        with pytest.raises(ValueError, match=f"^thresholds must be 1-D, got {axes} axes$"):
            threshold_curve([0.5], [1.0], thresholds)


class TestConfidenceBins:
    def test_split_at_half(self):
        percentiles = np.array([0.1, 0.4, 0.6, 0.9])
        errors = np.array([40.0, 20.0, 10.0, 2.0])
        bins = confidence_bins(percentiles, errors)
        assert bins.low_mean == pytest.approx(30.0)
        assert bins.high_mean == pytest.approx(6.0)
        assert bins.low_count == 2 and bins.high_count == 2

    def test_empty_bin_warns(self):
        with pytest.warns(UserWarning):
            bins = confidence_bins(np.array([0.8, 0.9]), np.array([1.0, 2.0]))
        assert math.isnan(bins.low_mean)
        assert bins.high_mean == pytest.approx(1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            confidence_bins(np.array([0.2, 0.8]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("cutoff", [[0.5], math.nan, -0.1, 1.5, math.inf, "0.5", None, True])
    def test_cutoff_must_be_a_real_number_in_the_unit_interval(self, cutoff):
        """As ``evaluate --bin-cutoff`` requires: not a list echoed into the bins, nor a
        NaN that puts every subject in the high bin."""
        with pytest.raises(ValueError, match=r"^cutoff must be a real number in \[0, 1\]"):
            confidence_bins([0.2, 0.8], [1.0, 2.0], cutoff)

    @pytest.mark.parametrize("cutoff, low", [(0, 0), (0.25, 1), (np.float64(0.5), 1), (1, 2)])
    def test_cutoff_ends_and_numpy_floats_are_accepted(self, cutoff, low):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a bin is empty at either end
            bins = confidence_bins([0.2, 0.8], [1.0, 2.0], cutoff)
        assert (bins.cutoff, bins.low_count) == (cutoff, low)


class TestDensity:
    def test_scott_bandwidth_frozen(self):
        values = np.arange(100, dtype=float)
        sd = float(np.std(values, ddof=1))
        assert scott_bandwidth(values) == pytest.approx(sd * 100 ** -0.2)
        assert scott_bandwidth(np.array([0.0, 2.0])) == \
            pytest.approx(math.sqrt(2.0) * 2 ** -0.2)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            scott_bandwidth(np.array([3.0]))
        with pytest.raises(DegenerateSampleError):
            scott_bandwidth(np.array([2.0, 2.0, 2.0]))

    @pytest.mark.parametrize("values", [[], [1.0], [1.0, 1.0], [0.0, -0.0], [math.inf, math.inf],
                                        [2.0, 2.0, 2.0], [-0.0, -0.0, 0.0], [1.0, 1.0, 2.0],
                                        [1.0, 2.0]])
    def test_degenerate_as_np_unique_counts_it(self, values):
        """A sample without NaN is refused exactly when ``np.unique`` (which folds +-0.0
        together) finds fewer than 2 distinct values in it; a NaN is refused as a NaN
        (``TestReportArrays``)."""
        x = np.array(values, dtype=float)
        if np.unique(x).size < 2:
            with pytest.raises(DegenerateSampleError):
                scott_bandwidth(x)
        else:
            assert isinstance(scott_bandwidth(x), float)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 3.0, size=200)
        h = scott_bandwidth(values)
        grid = np.linspace(values.min() - 6 * h, values.max() + 6 * h, 2001)
        dens = error_density(values, grid)
        assert (dens >= 0).all()
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_density_refuses_nan_values(self):
        """A NaN error is a plain ValueError naming ``values``, not an all-NaN curve, nor
        the DegenerateSampleError whose skip message ``evaluate`` prints."""
        for values in ([1.0, 2.0, math.nan], [math.nan, math.nan]):
            with pytest.raises(ValueError, match="^values must not hold NaN$") as err:
                error_density(values, np.linspace(0.0, 3.0, 5))
            assert not isinstance(err.value, DegenerateSampleError)


# each confidence report with arrays that pass its checks, by argument name
_REPORTS = {
    percentile_ranks: {"scores": [0.5, 1.5], "training_scores": [0.0, 1.0, 2.0]},
    threshold_curve: {"percentiles": [0.2, 0.8], "errors": [1.0, 2.0], "thresholds": [0.0, 0.5]},
    confidence_bins: {"percentiles": [0.2, 0.8], "errors": [1.0, 2.0]},
    scott_bandwidth: {"values": [1.0, 2.0, 3.0]},
    error_density: {"values": [1.0, 2.0, 3.0], "grid": [0.0, 2.0, 4.0]},
}


class TestReportArrays:
    @pytest.mark.parametrize("report, name, values", [
        *(pytest.param(report, name, [math.nan, *args[name][1:]], id=f"{report.__name__}-{name}")
          for report, args in _REPORTS.items() for name in args),
        *(pytest.param(scott_bandwidth, "values", values, id="-".join(map(str, values)))
          for values in ([math.nan, math.nan], [math.nan, 1.0], [1.0, 1.0, math.nan])),
    ])
    def test_a_nan_is_refused_by_name(self, report, name, values):
        """No report drops, bins or smooths a NaN: a NaN in any of its arrays is a plain
        ValueError naming that argument, not the DegenerateSampleError whose skip message
        ``evaluate`` prints."""
        with pytest.raises(ValueError, match=f"^{name} must not hold NaN$") as err:
            report(**{**_REPORTS[report], name: values})
        assert not isinstance(err.value, DegenerateSampleError)

    def test_infinities_pass(self):
        """-inf, a zero likelihood, ranks 0, and an infinite error enters its means."""
        assert percentile_ranks([-math.inf, math.inf], [-math.inf, 0.0]).tolist() == [0.0, 1.0]
        curve = threshold_curve([0.2, 0.8], [1.0, math.inf], [0.0, 0.5])
        assert curve.mean_error.tolist() == [math.inf, math.inf]
        bins = confidence_bins([0.2, 0.8], [-math.inf, 1.0])
        assert (bins.low_mean, bins.high_mean) == (-math.inf, 1.0)

    @pytest.mark.parametrize("values", [[math.inf, 1.0, 2.0], [1.0, 2.0, -math.inf],
                                        [-math.inf, math.inf]])
    def test_an_infinity_is_refused_by_the_bandwidth(self, values):
        """A sample std with an infinity is NaN (inf - inf): ``scott_bandwidth``, and
        ``error_density`` through it, refuse one among distinct values with a plain
        ValueError, not a NaN bandwidth or an all-NaN curve."""
        for call in (lambda: scott_bandwidth(values), lambda: error_density(values, [0.0, 1.0])):
            with pytest.raises(ValueError, match="^values must be finite$") as err:
                call()
            assert not isinstance(err.value, DegenerateSampleError)

    @pytest.mark.parametrize("values", [
        [1e200, -1e200, 0.0], [1.7e308, 1.7e308, -1.0],
        [1e308, -1e308, *[0.0] * 6, 1e308, -1e308, *[0.0] * 6]],
        ids=["squares", "sum", "sums-of-opposite-signs"])
    def test_a_spread_past_the_float_range_is_refused_by_the_bandwidth(self, values):
        """Finite values whose std overflows (inf, or NaN from inf - inf) are refused by name,
        with no warning, not smoothed by an infinite bandwidth into a curve of zeros."""
        for call in (lambda: scott_bandwidth(values), lambda: error_density(values, [0.0, 1.0])):
            with pytest.raises(ValueError, match="^values spread too wide for a finite std$"):
                call()

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [0.1, -7.5, 1e150, 3.0],
                                        np.random.default_rng(4).normal(size=999)])
    def test_bandwidth_is_the_std_rule_bit_for_bit(self, values):
        want = float(np.std(np.asarray(values), ddof=1) * len(values) ** (-1.0 / 5.0))
        assert scott_bandwidth(values).hex() == want.hex()

    @pytest.mark.parametrize("report", [threshold_curve, confidence_bins])
    def test_pair_shapes_must_match(self, report):
        with pytest.raises(ValueError, match="^percentiles and errors lengths differ$"):
            report([0.2, 0.8], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^percentiles and errors lengths differ$"):
            report([[0.2, 0.8]], [1.0, 2.0])

    TABLE = [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("call, name", [
        (lambda t: error_density(t, [0.0, 1.0]), "values"),
        (lambda t: error_density([1.0, 2.0], t), "grid"),
        (lambda t: scott_bandwidth(t), "values"),
        (lambda t: percentile_ranks(t, [0.0, 2.0]), "scores"),
        (lambda t: percentile_ranks(1.0, t), "training_scores"),
        (lambda t: threshold_curve(t, t), "percentiles"),
        (lambda t: confidence_bins(t, t), "percentiles")],
        ids=["density-values", "density-grid", "bandwidth", "ranks-scores", "ranks-training",
             "threshold-curve", "confidence-bins"])
    def test_more_than_one_axis_is_refused_by_name(self, call, name):
        """A report reads its arrays as 1-D: a table is refused, not flattened,
        broadcast or ranked as rows."""
        with pytest.raises(ValueError, match=f"^{name} must be 1-D, got 2 axes$"):
            call(self.TABLE)

    @pytest.mark.parametrize("call, name", [
        (lambda: percentile_ranks(0.5, 1.0), "training_scores"),
        (lambda: error_density([0.0, 1.0], 0.5), "grid"),
        (lambda: error_density(0.5, [0.0, 1.0]), "values"),
        (lambda: scott_bandwidth(0.5), "values"),
        (lambda: threshold_curve(0.5, 1.0), "percentiles"),
        (lambda: threshold_curve([0.5], [1.0], 0.5), "thresholds"),
        (lambda: confidence_bins(0.5, 1.0), "percentiles")],
        ids=["ranks-training", "density-grid", "density-values", "bandwidth",
             "threshold-curve", "thresholds", "confidence-bins"])
    def test_no_axis_is_refused_by_name(self, call, name):
        """A scalar where a report reads an array is refused by the same 1-D rule, not
        ranked along a missing axis, indexed past its end, or binned as one subject."""
        with pytest.raises(ValueError, match=f"^{name} must be 1-D, got 0 axes$"):
            call()

    def test_a_scalar_score_ranks_to_a_scalar(self):
        rank = percentile_ranks(1.0, [0.0, 2.0])
        assert (rank.ndim, float(rank)) == (0, 0.5)

    def test_a_grid_point_far_from_every_value_has_zero_density(self):
        """(grid - value) / h squared past the float range is a term of exp(-inf) = 0, with
        no overflow warning; the other points keep their bits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = error_density([0.0, 1.0, 2.0], [0.0, 1e200])
        assert far[1] == 0.0
        assert far[0] == error_density([0.0, 1.0, 2.0], [0.0])[0] > 0.0


class TestConfidenceScores:
    def test_score_is_log_evidence(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        cohort, _ = sample_cohort(model, 5, np.random.default_rng(1))
        scores = training_confidence_scores(model, cohort, MODEL_MISSING)
        for i in range(cohort.n_subjects):
            evidence = {cohort.schemas[j].name: cohort.value(i, j)
                        for j in cohort.input_columns}
            parts = evidence_log_likelihoods(model, evidence, MODEL_MISSING)
            assert scores[i] == pytest.approx(float(logsumexp(parts)),
                                              rel=1e-12)
            assert confidence_score(model, evidence, MODEL_MISSING) == \
                pytest.approx(scores[i], rel=1e-12)

    def test_outcome_columns_excluded(self):
        model = small_demo_model()
        cohort, _ = sample_cohort(model, 6, np.random.default_rng(2))
        assert len(cohort.outcome_columns) > 0
        scores = training_confidence_scores(model, cohort, MODEL_MISSING)
        manual = training_confidence_scores(model, cohort, MODEL_MISSING,
                                            columns=cohort.input_columns)
        assert np.array_equal(scores, manual)
        with_outcomes = training_confidence_scores(
            model, cohort, MODEL_MISSING,
            columns=range(cohort.n_variables))
        assert not np.array_equal(scores, with_outcomes)


class TestOnePassFold:
    """The fold's single likelihood pass equals the single-record reference
    path (infer, confidence_score, training_confidence_scores) on the
    training subset."""

    @pytest.mark.parametrize("mode", [MODEL_MISSING, IGNORE_MISSING])
    def test_matches_single_record_reference(self, mode):
        cohort, _ = sample_cohort(small_demo_model(), 16, np.random.default_rng(4))
        targets = ("severity", "status")
        config = EmConfig(max_iterations=20, restarts=1, seed=3)
        input_cols = [j for j in cohort.input_columns
                      if cohort.schemas[j].name not in targets]
        compared = 0
        for subject in range(cohort.n_subjects):
            # a held-out zero likelihood fails the fold
            failed, errors, log_scores, percentiles = _evaluate_folds(
                cohort, [subject], (1, 2), targets, mode, config)
            train = cohort.drop_subject(subject)
            evidence = {cohort.schemas[j].name: cohort.value(subject, j)
                        for j in input_cols}
            truths = {name: cohort.value(subject, cohort.column_index(name))
                      for name in targets}
            truths = {n: v for n, v in truths.items() if v is not MISSING}
            fold_config = EmConfig(max_iterations=20, restarts=1,
                                   seed=_fold_seed(3, subject))
            reference_failed = False
            for order in (1, 2):
                model, _ = fit(train, order, fold_config)
                try:
                    predicted = infer(model, InferenceRequest(
                        evidence, tuple(truths), mode)) if truths else {}
                except ZeroLikelihoodError:
                    reference_failed = True
                    break
                if failed:
                    continue
                assert np.isnan(errors[order, 0]).tolist() == [n not in truths for n in targets]
                for t, name in enumerate(targets):
                    if name not in truths:
                        continue
                    schema = cohort.schema(name)
                    err = prediction_error(schema, predicted[name], truths[name])
                    assert errors[order, 0, t] == pytest.approx(err, rel=1e-12, abs=1e-12)
                log_c = confidence_score(model, evidence, mode)
                pct = percentile_ranks(log_c, training_confidence_scores(
                    model, train, mode, input_cols))
                assert (log_scores[order, 0], percentiles[order, 0]) == \
                    pytest.approx((log_c, pct), rel=1e-12)
                compared += 1
            assert bool(failed) == reference_failed
        assert compared >= cohort.n_subjects  # most folds succeed on both orders

    def test_scores_at_many_components_are_the_fold_models_own(self):
        """At 8 and 12 components, where a strided log-sum-exp across components could
        round otherwise: each fold's log score equals (==) ``confidence_score`` of its model,
        refit alone by ``_fit_many`` from its ``_fold_seed``, and its percentile the rank of
        that score among the other rows' ``training_confidence_scores``."""
        cohort, _ = sample_cohort(small_demo_model(), 60, np.random.default_rng(2))
        config, orders, n = EmConfig(max_iterations=2, restarts=1, seed=0), (1, 8, 12), 60
        targets = tuple(s.name for s in cohort.schemas if s.role == OUTCOME)
        failed, _, log_scores, percentiles = _evaluate_folds(cohort, range(n), orders, targets,
                                                             MODEL_MISSING, config)
        cols = [j for j in cohort.input_columns if cohort.schemas[j].name not in targets]
        compared = 0
        for subject in sorted(set(range(n)) - set(failed)):
            kept = (np.arange(n) != subject)[None]
            fits = _fit_many(cohort, kept, _kept_ranges(cohort, kept)[3],
                             [_fold_seed(config.seed, subject)], orders, config)
            evidence = {cohort.schemas[j].name: cohort.value(subject, j) for j in cols}
            for o, (params, _) in enumerate(fits, 1):
                model = fit_of(params, 0, cohort.schemas)
                log_c = confidence_score(model, evidence, MODEL_MISSING)
                others = np.delete(training_confidence_scores(model, cohort, MODEL_MISSING, cols),
                                   subject)
                assert (log_scores[o, subject], percentiles[o, subject]) == \
                    (log_c, percentile_ranks(log_c, others))
                compared += 1
        assert compared >= 3 * (n - 2)


class TestFoldSeeds:
    def test_distinct_and_stable(self):
        seeds = {_fold_seed(7, i) for i in range(50)}
        assert len(seeds) == 50
        assert _fold_seed(7, 3) == _fold_seed(7, 3)
        assert _fold_seed(8, 3) != _fold_seed(7, 3)

    def test_each_fold_seeded_once_per_batch(self, monkeypatch):
        """A batch of folds draws each fold's seed once, not once per order, and trains
        every order in one ``_fit_many`` from those seeds, which spawns each fold's
        restarts' seeds once; ``fit`` spawns its restarts' seeds once."""
        import hetmix.evaluation as ev
        import hetmix.training as training
        calls, spawns, seeds, fit_many = [], [], [], training._fit_many

        class Counted(np.random.SeedSequence):
            def spawn(self, n_children):
                spawns.append(n_children)
                return super().spawn(n_children)

        def counted(seed, subject):
            calls.append(subject)
            return _fold_seed(seed, subject)

        def recorded(dataset, kept, scales, fold_seeds, orders, config):
            seeds.append((list(fold_seeds), list(orders)))
            return fit_many(dataset, kept, scales, fold_seeds, orders, config)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        monkeypatch.setattr(ev, "_fold_seed", counted)
        monkeypatch.setattr(ev, "_fit_many", recorded)
        cohort, _ = sample_cohort(small_demo_model(), 10, np.random.default_rng(1))
        config = EmConfig(max_iterations=2, restarts=2, seed=3)
        _evaluate_folds(cohort, range(2, 8), (1, 2, 3), ("severity",), MODEL_MISSING, config)
        assert calls == list(range(2, 8)) and spawns == [2] * 6
        (fold_seeds, orders), = seeds
        assert orders == [1, 2, 3]
        assert fold_seeds == [_fold_seed(3, s) for s in range(2, 8)]
        spawns.clear()
        fit(cohort, 2, config)
        assert spawns == [2]


class TestMaskFolds:
    """A fold is its held-out row: its checks and column scales read the cohort
    with that row masked, and must match a copy of the cohort without it."""

    TARGETS = ("severity", "status")

    @pytest.fixture(scope="class")
    def cohort(self):
        """Subjects 1 and 2 hold marker_a's unique maximum and minimum, 6 dose's
        unique maximum, 4 the only "beta" of site, and 7 and 8 the only two
        observed marker_b values."""
        base, _ = sample_cohort(small_demo_model(), 14, np.random.default_rng(5))
        rows = [list(base.row(i)) for i in range(base.n_subjects)]
        a, b, dose, site = (base.column_index(name)
                            for name in ("marker_a", "marker_b", "dose", "site"))
        for i, row in enumerate(rows):
            row[site] = "beta" if i == 4 else "alpha"
            row[b] = float(i) if i in (7, 8) else MISSING
        rows[1][a], rows[2][a], rows[6][dose] = 1e3, -1e3, 1e3
        return Dataset(base.schemas, rows)

    def test_scales_match_the_copy(self, cohort, monkeypatch):
        import hetmix.training as training
        n = cohort.n_subjects
        copies = np.concatenate([_kept_ranges(cohort.drop_subject(s))[3] for s in range(n)])
        kept = np.arange(n) != np.arange(n)[:, None]
        assert _kept_ranges(cohort, kept)[3].tolist() == copies.tolist()
        batches = []
        real = training._em_batch

        def recorded(dataset, kept, scales, orders, starts, config):
            batches.append((kept, scales))
            return real(dataset, kept, scales, orders, starts, config)

        monkeypatch.setattr(training, "_em_batch", recorded)
        _evaluate_folds(cohort, range(n), (1,), self.TARGETS, MODEL_MISSING,
                        EmConfig(max_iterations=2, restarts=2))
        (kept, scales), = batches
        assert (kept.sum(axis=1) == n - 1).all()  # each fit leaves out one row
        held_out = np.argmin(kept, axis=1)
        assert 4 not in held_out and len(held_out) > n  # two restarts a fold
        for row, s in zip(scales, held_out.tolist()):
            assert row.tolist() == copies[s].tolist()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_checks_and_scales_match_the_copies(self, data):
        """Every fold's schema check (its failure text) and column scales, from one
        ``_kept_ranges`` pass over the folds, equal those of the cohort without
        the held-out row: on a column whose distinct values give it a unique
        min and max holder, one observed in two rows only, one observed in one
        row only, and one of 0.0 / -0.0 ties (its first kept value is the one shown)."""
        n = data.draw(st.integers(3, 9))
        schemas = (VariableSchema("spread", "nonnegative"), VariableSchema("pair", "real"),
                   VariableSchema("lone", "ordinal", (1, 2, 3)),
                   VariableSchema("zeros", "real"), EIGHT, THREE_WAY)
        spread = [float(v) for v in data.draw(st.permutations(range(n)))]
        pair = data.draw(st.lists(st.sampled_from([-1.0, 2.0]), min_size=2, max_size=2))
        pair_rows = data.draw(st.permutations(range(n)))[:2]
        lone_row = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))  # None: 1, 2, 1, ...
        cells = st.lists(st.one_of(st.just(MISSING), st.sampled_from([0.0, -0.0, 0.5])),
                         min_size=n, max_size=n)
        zeros = data.draw(cells)
        levels = data.draw(st.lists(st.sampled_from([1, 2, MISSING]), min_size=n, max_size=n))
        symbols = data.draw(st.lists(st.sampled_from(["a", "b"]), min_size=n, max_size=n))
        rows = [(spread[i], pair[pair_rows.index(i)] if i in pair_rows else MISSING,
                 1 + i % 2 if lone_row is None else 3 if i == lone_row else MISSING,
                 zeros[i], levels[i], symbols[i])
                for i in range(n)]
        cohort = Dataset(schemas, rows)
        copies = [cohort.drop_subject(s) for s in range(n)]
        kept = np.arange(n) != np.arange(n)[:, None]
        assert (_kept_ranges(cohort, kept)[3].tolist()
                == np.concatenate([_kept_ranges(copy)[3] for copy in copies]).tolist())
        failed, *_ = _evaluate_folds(cohort, range(n), (), ("s3",), MODEL_MISSING, EmConfig())
        assert failed == {s: str(SchemaViolationError(violations)) for s, copy in enumerate(copies)
                          if (violations := validate_dataset(copy))}

    def test_failure_text_matches_the_copy(self, cohort):
        # ignore_missing: no held-out subject has zero likelihood, so only
        # the schema fails a fold
        failed, *_ = _evaluate_folds(cohort, range(cohort.n_subjects), (1,), self.TARGETS,
                                     IGNORE_MISSING, EmConfig(max_iterations=2, restarts=1))
        assert failed == {s: str(SchemaViolationError(violations))
                          for s in range(cohort.n_subjects)
                          if (violations := validate_dataset(cohort.drop_subject(s)))}
        assert sorted(failed) == [4, 7, 8]

    def test_every_fold_of_a_batch_can_fail_its_check(self, monkeypatch):
        """Each of three folds loses a column's variability: no order trains, each
        fold carries the text ``validate_dataset`` gives for its copy of the cohort,
        and ``loo_evaluate`` aborts."""
        import hetmix.evaluation as ev
        schemas = (VariableSchema("a", "real"), VariableSchema("b", "real"),
                   VariableSchema("y", "ordinal", (1, 2, 3), OUTCOME))
        cohort = Dataset(schemas, [(1.0, MISSING, 1), (2.0, 5.0, 2), (MISSING, 6.0, 3)])
        assert not validate_dataset(cohort)

        def never(*args):
            raise AssertionError("a fold that failed its check was trained")

        monkeypatch.setattr(ev, "_fit_many", never)
        failed, *arrays = _evaluate_folds(cohort, range(3), (1, 2), ("y",), MODEL_MISSING,
                                          EmConfig())
        assert failed == {s: str(SchemaViolationError(validate_dataset(cohort.drop_subject(s))))
                          for s in range(3)}
        assert all(np.isnan(a[1:]).all() for a in arrays)  # no order was reached
        with pytest.raises(TrainingError, match=r"^3 of 3 folds failed: "):
            loo_evaluate(cohort, (1, 2), ("y",), MODEL_MISSING, EmConfig())

    def test_a_fold_too_narrow_to_fit_fails_alone(self):
        """x spans 1 over the cohort but about 1e-200 without its one 1.0, and w is constant
        without that row: the fold that holds it out is refused as ``validate_dataset``
        refuses its copy, both columns in column order, not fitted with a variance floor
        of 0, and the other folds run."""
        schemas = (VariableSchema("x", "real"), VariableSchema("w", "real"),
                   VariableSchema("y", "ordinal", (1, 2, 3), OUTCOME))
        x = [1e-200 * (1.0 + i / 10.0) for i in range(10)] + [0.0] * 19 + [1.0]
        w = [2.5] * 29 + [3.0]
        y = np.random.default_rng(2).integers(1, 4, size=30).tolist()
        cohort = Dataset(schemas, list(zip(x, w, y)))
        assert not validate_dataset(cohort)
        message = str(SchemaViolationError(validate_dataset(cohort.drop_subject(29))))
        assert re.search(r"'x': values span .*, below 2\*\*-480: too narrow to fit; "
                         r"column 'w': constant column \(always 2\.5\)$", message), message
        got = loo_evaluate(cohort, (1, 2), ("y",), MODEL_MISSING,
                           EmConfig(restarts=2, max_iterations=20))
        assert got.failures == (FoldFailure(29, message),)
        assert got.subjects.tolist() == list(range(29))

    def test_no_fold_copies_the_cohort(self, monkeypatch):
        def never(*args):
            raise AssertionError("a fold copied the cohort")

        monkeypatch.setattr(Dataset, "_take", never)
        assert (~np.isnan(_tiny_loo(orders=(1,)).log_scores[1])).sum() > 20


def _unreached(subjects, orders, targets):
    """What ``_evaluate_folds`` gives for ``subjects`` when no fold fails and none is scored."""
    shape = (1 + len(orders), len(subjects))
    return {}, np.full((*shape, len(targets)), np.nan), *np.full((2, *shape), np.nan)


def _tiny_loo(n=24, orders=(1, 2), workers=1, seed=0, sample_seed=17):
    cohort, _ = sample_cohort(small_demo_model(), n,
                              np.random.default_rng(sample_seed))
    config = EmConfig(max_iterations=60, rel_tol=1e-5, restarts=1, seed=seed)
    return loo_evaluate(cohort, orders, ("severity", "status"), MODEL_MISSING,
                        config, n_workers=workers)


@pytest.fixture(scope="module")
def result():
    return _tiny_loo()


class TestLooEvaluate:

    @pytest.mark.parametrize("mode", [MODEL_MISSING, IGNORE_MISSING])
    def test_normalized_is_each_errors_normalized_error(self, mode):
        """``normalized`` is ``normalized_error`` of ``errors``, target by target, bit for bit,
        and NaN exactly where the error is NaN (a missing truth)."""
        cohort, _ = sample_cohort(small_demo_model(), 24, np.random.default_rng(17))
        targets = ("severity", "status")
        got = loo_evaluate(cohort, (1, 2), targets, mode,
                           EmConfig(max_iterations=60, rel_tol=1e-5, restarts=1))
        assert np.isnan(got.errors[1:]).any() and not np.isnan(got.errors[1:]).all()
        for t, name in enumerate(targets):
            want = normalized_error(cohort.schema(name), got.errors[..., t])
            assert (np.isnan(got.normalized[..., t]) == np.isnan(got.errors[..., t])).all()
            assert got.normalized[..., t].tobytes() == want.tobytes()

    def test_structure(self, result):
        assert result.orders == (0, 1, 2)
        assert result.targets == ("severity", "status")
        for order in result.orders:
            for target in result.targets:
                summary = result.summary(order, target)
                assert summary.n_subjects > 0
                assert 0.0 <= summary.mean_normalized <= 100.0 + 1e-9
        # every order averages over the same subjects
        for target in result.targets:
            counts = {result.summary(o, target).n_subjects
                      for o in result.orders}
            assert len(counts) == 1

    @pytest.mark.parametrize("order, target", [(3, "severity"), (1, "marker_a")])
    def test_summary_of_a_pair_it_does_not_hold(self, result, order, target):
        with pytest.raises(KeyError) as caught:
            result.summary(order, target)
        assert caught.value.args == ((order, target),)

    def test_chance_rows_are_uniform_errors(self, result):
        # order 0 normalized error for a 3-way categorical truth is always
        # 100 * (1 - 1/3) whenever the truth is observed
        records = result.normalized[0, :, result.targets.index("status")]
        records = records[~np.isnan(records)]
        assert records.size
        for record in records:
            assert record == pytest.approx(100.0 * (1 - 1 / 3))

    def test_confidence_records_have_percentiles(self, result):
        assert np.isnan(result.log_scores[0]).all() and np.isnan(result.percentiles[0]).all()
        for order in (1, 2):
            assert result.subjects.size > 0
            assert ((0.0 <= result.percentiles[order]) & (result.percentiles[order] <= 1.0)).all()
            assert np.isfinite(result.log_scores[order]).all()

    def test_skipped_subjects_appear_nowhere(self, result):
        """A subject whose truth is missing has a NaN error at every order, and one whose
        truth is observed has a number at every order."""
        cohort, _ = sample_cohort(small_demo_model(), 24, np.random.default_rng(17))
        truths = cohort._values[result.subjects][:, [cohort.column_index(name)
                                                     for name in result.targets]]
        assert np.isnan(truths).any()
        for order in result.orders:
            assert (np.isnan(result.errors[order]) == np.isnan(truths)).all()
            assert (np.isnan(result.normalized[order]) == np.isnan(truths)).all()

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        cohort, _ = sample_cohort(small_demo_model(), 13, np.random.default_rng(2))
        rows = [list(cohort.row(i)) for i in range(cohort.n_subjects)]
        site = cohort.column_index("site")
        for i, row in enumerate(rows):  # only subject 4 varies "site": its fold loses it
            row[site] = "beta" if i == 4 else "alpha"
        cohort = Dataset(cohort.schemas, rows)
        config = EmConfig(max_iterations=60, rel_tol=1e-5, restarts=2, seed=0)
        # ignore_missing: no held-out row fails by a missing-cell factor of 0
        runs = [loo_evaluate(cohort, (1, 2), ("severity", "status"), IGNORE_MISSING,
                             config, n_workers=workers) for workers in (1, 2, 3)]
        failure = runs[0].failures
        assert [f.subject for f in failure] == [4]
        assert "constant column" in failure[0].message
        assert 4 not in runs[0].subjects and runs[0].errors.shape == (3, 12, 2)
        for other in runs[1:]:
            assert_same_arrays(other, runs[0])

    def test_one_em_batch_per_fold_batch(self, monkeypatch):
        """A 120-row cohort, 2 restarts, orders 1-3 (the loo-n120 benchmark's shape) runs its
        120 folds x 2 restarts of every order as one EM batch, whose orders draw their
        starts in turn into one buffer sized by the largest."""
        import hetmix.training as training
        batches, starts, em_batch = [], [], training._em_batch

        def recorded(dataset, kept, scales, orders, draw, config):
            def recorded_draw(order, out):
                starts.append((out.shape, out.base))
                draw(order, out)

            batches.append((kept.shape, list(orders)))
            return em_batch(dataset, kept, scales, orders, recorded_draw, config)

        monkeypatch.setattr(training, "_em_batch", recorded)
        cohort, _ = sample_cohort(small_demo_model(), 120, np.random.default_rng(0))
        loo_evaluate(cohort, (1, 2, 3), ("severity",), MODEL_MISSING,
                     EmConfig(max_iterations=2, restarts=2, seed=0))
        assert batches == [((240, 120), [1, 2, 3])]
        assert [shape for shape, _ in starts] == [(240, order, 120) for order in (1, 2, 3)]
        buffer = starts[0][1]
        assert buffer.shape == (240 * 3 * 120,) and all(base is buffer for _, base in starts)

    def test_too_few_subjects(self):
        cohort, _ = sample_cohort(small_demo_model(), 2,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError):
            loo_evaluate(cohort, (1,), ("severity",), MODEL_MISSING, EmConfig())

    @pytest.mark.parametrize("orders", [(6,), (1, 7), (10**15,)])
    def test_order_above_the_fold_subjects_rejected(self, monkeypatch, orders):
        """Each fold of a 6-row cohort trains on 5 subjects: order 6 is refused before any fold."""
        import hetmix.evaluation as ev
        monkeypatch.setattr(ev, "_evaluate_folds", lambda *a, **k: pytest.fail("a fold ran"))
        cohort, _ = sample_cohort(small_demo_model(), 6, np.random.default_rng(0))
        message = rf"^order {max(orders)} exceeds the 5 subject\(s\) a fit trains on$"
        with pytest.raises(ValueError, match=message):
            loo_evaluate(cohort, orders, ("severity",), MODEL_MISSING, EmConfig())

    @pytest.mark.parametrize("workers", [0, -4, True, False, 2.5, 1.0, "2", None])
    def test_workers_not_an_integer_of_at_least_one_rejected(self, monkeypatch, workers):
        import hetmix.evaluation as ev
        monkeypatch.setattr(ev, "_evaluate_folds", lambda *a, **k: pytest.fail("a fold ran"))
        cohort, _ = sample_cohort(small_demo_model(), 20, np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"^n_workers must be an integer >= 1, got "
                                             rf"{re.escape(repr(workers))}$"):
            loo_evaluate(cohort, (1,), ("severity",), MODEL_MISSING, EmConfig(),
                         n_workers=workers)

    def test_order_below_one_rejected(self):
        cohort, _ = sample_cohort(small_demo_model(), 6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^orders must be >= 1$"):
            loo_evaluate(cohort, (0, 1), ("severity",), MODEL_MISSING, EmConfig())
        with pytest.raises(ValueError, match="^orders must be integers"):
            loo_evaluate(cohort, (2.5,), ("severity",), MODEL_MISSING, EmConfig())

    def test_continuous_target_rejected(self):
        cohort, _ = sample_cohort(small_demo_model(), 6,
                                  np.random.default_rng(0))
        with pytest.raises(SchemaError, match="^marker_a: expected-error metrics need an "
                                              "ordinal or categorical target, not a real one$"):
            loo_evaluate(cohort, (1,), ("marker_a",), MODEL_MISSING, EmConfig())

    @staticmethod
    def _schedule(monkeypatch, n, workers, cpus, affinity=True, orders=(1,), restarts=5):
        """(batches, pools, warnings) of a ``loo_evaluate`` of ``orders`` whose folds and pool
        are stand-ins (a serial pool: no process starts), on a host with ``cpus`` CPUs that this
        process may use, read from ``os.sched_getaffinity`` or, without it, ``os.cpu_count``."""
        import concurrent.futures
        import warnings

        import hetmix.evaluation as ev
        batches, pools = [], []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                pools[-1].append(chunksize)
                return map(fn, *iterables)

        def record(dataset, subjects, orders, targets, mode, config):
            batches.append(subjects)
            return _unreached(subjects, orders, targets)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(ev, "_evaluate_folds", record)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cohort, _ = sample_cohort(small_demo_model(), n, np.random.default_rng(0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loo_evaluate(cohort, orders, ("severity",), MODEL_MISSING,
                         EmConfig(restarts=restarts), n_workers=workers)
        return batches, pools, [str(w.message) for w in caught]

    # order 1 and 5 restarts: a fold's posteriors are 5 x 1 x n cells, and a batch holds at most
    # _BATCH_CELLS // (5 n) folds, or 48 if that is fewer: 218 folds at n = 120, 436 at n = 60,
    # 43 at n = 600, so 48
    @pytest.mark.parametrize("n, workers, sizes, chunksize", [
        (120, 1, [120], None), (120, 2, [60] * 2, 1), (60, 3, [20] * 3, 1),
        (60, 4, [15] * 4, 1), (5, 8, [1] * 5, 1), (600, 2, [43] * 12 + [42] * 2, 7)])
    def test_batches(self, monkeypatch, n, workers, sizes, chunksize):
        """k batches per worker, k = ceil(n / (folds a batch holds * workers)), contiguous and
        equal; a worker's batches are one task of the pool. Eight CPUs: no case is capped."""
        batches, pools, caught = self._schedule(monkeypatch, n, workers, cpus=8)
        assert caught == []
        assert list(map(len, batches)) == sizes
        assert [s for batch in batches for s in batch] == list(range(n))
        assert all(type(s) is int for batch in batches for s in batch)
        assert pools == ([] if chunksize is None else [[min(workers, len(sizes)), chunksize]])

    @pytest.mark.parametrize("orders, restarts, sizes", [
        ((1, 3), 2, [100] * 2), ((2,), 1, [200]), ((3,), 6, [40] * 5), ((2,), 500, [40] * 5)])
    def test_batches_are_sized_by_posterior_cells(self, monkeypatch, orders, restarts, sizes):
        """One worker on 200 folds: a batch holds _BATCH_CELLS // (restarts x largest order
        x 200) folds, and at least _FOLDS_PER_BATCH. Orders 1-3 of 2 restarts: 109 (k = 2);
        order 2 (and the baseline order 1) of 1: 327 (one batch); order 3 of 6: 36, so 48
        (k = 5); 500 restarts: none, so 48."""
        import hetmix.evaluation as ev
        assert ev._BATCH_CELLS == 2 ** 17 and ev._FOLDS_PER_BATCH == 48
        batches, pools, _ = self._schedule(monkeypatch, 200, 1, cpus=8, orders=orders,
                                           restarts=restarts)
        assert list(map(len, batches)) == sizes and pools == []

    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_capped_at_the_cpus(self, monkeypatch, affinity):
        """5000 workers on 2000 folds and two CPUs run as two, and a warning says so: two
        processes, each with k = ceil(2000 / (2 * 48)) = 21 batches of at most 48 folds (the
        cells of 13 folds' posteriors, 5 restarts x 1 x 2000 each, are fewer)."""
        batches, pools, caught = self._schedule(monkeypatch, 2000, 5000, cpus=2,
                                                affinity=affinity)
        assert caught == ["n_workers 5000 capped at the 2 CPU(s) this process may use"]
        assert len(batches) == 42 and {len(batch) for batch in batches} == {47, 48}
        assert pools == [[2, 21]]

    @pytest.mark.parametrize("workers", [np.int64(2), 10**6, 2**70])
    def test_large_or_numpy_worker_counts_run(self, monkeypatch, workers):
        """Any integer >= 1 is a worker count (capped at the CPUs); the pool is a stand-in."""
        batches, pools, caught = self._schedule(monkeypatch, 120, workers, cpus=2)
        assert [s for batch in batches for s in batch] == list(range(120))
        assert pools == [[2, 1]]
        assert caught == ([] if workers == 2 else
                          [f"n_workers {workers} capped at the 2 CPU(s) this process may use"])

    def test_fold_failures_excluded(self, monkeypatch):
        import hetmix.evaluation as ev
        real = ev._evaluate_folds

        def flaky(dataset, subjects, orders, targets, mode, config):
            failed, *arrays = real(dataset, subjects, orders, targets, mode, config)
            return {**failed, **({1: "synthetic failure"} if 1 in subjects else {})}, *arrays

        monkeypatch.setattr(ev, "_evaluate_folds", flaky)
        got = _tiny_loo(n=12, orders=(1,), sample_seed=2)
        assert [f.subject for f in got.failures] == [1]
        assert got.subjects.tolist() == [0] + list(range(2, 12))
        assert got.errors.shape[1] == got.log_scores.shape[1] == 11

    def test_fold_whose_restarts_all_fail(self, monkeypatch):
        """A fold whose every order-2 restart collapses comes back from the real
        _evaluate_folds as a failure record with the TrainingError text, is
        excluded by loo_evaluate, and leaves the other folds, and its own order 1, as they
        were."""
        import hetmix.evaluation as ev
        cohort, _ = sample_cohort(small_demo_model(), 12, np.random.default_rng(2))
        config = EmConfig(max_iterations=20, restarts=2, seed=0)
        args = ((1, 2), ("severity", "status"), IGNORE_MISSING, config)
        clean = ev._evaluate_folds(cohort, range(12), *args)
        # fold 3's order-2 starts give component 0 no responsibility
        doomed = first_draws(np.random.SeedSequence(_fold_seed(config.seed, 3)).spawn(2))
        collapse_starts(monkeypatch, lambda order, stream: order == 2 and stream[0] in doomed)
        got = ev._evaluate_folds(cohort, range(12), *args)
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        message = (f"all 2 restart(s) failed for order 2: restart 0: {collapsed}; "
                   f"restart 1: {collapsed}")
        assert clean[0] == {} and got[0] == {3: message}
        others = np.arange(12) != 3
        assert_same_arrays([a[:, others] for a in got[1:]], [a[:, others] for a in clean[1:]])
        assert_same_arrays([a[:2, 3] for a in got[1:]], [a[:2, 3] for a in clean[1:]])
        assert all(np.isnan(a[2, 3]).all() for a in got[1:])  # order 2 was not reached
        result = loo_evaluate(cohort, *args)
        assert [(f.subject, f.message) for f in result.failures] == [(3, message)]
        assert result.subjects[~np.isnan(result.errors[1]).all(axis=1)].tolist() == \
            [s for s in range(12) if s != 3]

    @pytest.mark.parametrize("doomed", [(1,), (1, 2)])
    def test_a_fold_keeps_its_first_failure(self, monkeypatch, doomed):
        """Fold 3's restarts collapse at order 1 (and at order 2 too): its fits of both
        orders train in the fold batch's one EM, but the fold carries its order-1
        failure, no later order is scored for it, and the other folds are as they were."""
        cohort, _ = sample_cohort(small_demo_model(), 12, np.random.default_rng(2))
        config = EmConfig(max_iterations=20, restarts=2, seed=0)
        args = ((1, 2), ("severity", "status"), IGNORE_MISSING, config)
        clean = _evaluate_folds(cohort, range(12), *args)
        # fold 3's starts of the doomed orders give component 0 nothing
        marked = first_draws(np.random.SeedSequence(_fold_seed(config.seed, 3)).spawn(2))
        collapse_starts(monkeypatch, lambda order, stream: order in doomed and stream[0] in marked)
        got = _evaluate_folds(cohort, range(12), *args)
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        assert got[0] == {3: f"all 2 restart(s) failed for order 1: restart 0: {collapsed}; "
                             f"restart 1: {collapsed}"}
        others = np.arange(12) != 3
        assert_same_arrays([a[:, others] for a in got[1:]], [a[:, others] for a in clean[1:]])
        assert_same_arrays([a[:1, 3] for a in got[1:]], [a[:1, 3] for a in clean[1:]])
        assert all(np.isnan(a[1:, 3]).all() for a in got[1:])

    def test_every_live_fold_failing_an_order_ends_the_folds(self, collapsing_starts):
        """When no live fold trains an order (every start collapses), no stack is
        scored: each subject carries its TrainingError text, every order from 1 on
        stays NaN, and order 0 is kept."""
        cohort, _ = sample_cohort(small_demo_model(), 12, np.random.default_rng(2))
        targets = ("severity", "status")
        config = EmConfig(max_iterations=20, restarts=2, seed=0)
        failed, *arrays = _evaluate_folds(cohort, range(12), (1, 2), targets, IGNORE_MISSING,
                                          config)
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        assert failed == {s: f"all 2 restart(s) failed for order 1: restart 0: {collapsed}; "
                          f"restart 1: {collapsed}" for s in range(12)}
        assert all(np.isnan(a[1:]).all() for a in arrays)
        _, *chance = _evaluate_folds(cohort, range(12), (), targets, IGNORE_MISSING, config)
        assert_same_arrays([a[:1] for a in arrays], chance)

    def test_held_out_zero_likelihood_names_the_subject(self):
        """Subject 0 is the only one missing ``dose`` and subject 2 the only one
        missing ``stage``, so under model_missing the model of each one's own
        fold gives it zero likelihood: each failure names its held-out subject,
        and the abort does not say that a fold failed to train."""
        cohort, _ = sample_cohort(small_demo_model(), 13, np.random.default_rng(2))
        config = EmConfig(max_iterations=60, restarts=2, seed=0)
        failure = "held-out subject {} has zero likelihood under every component"
        failed, *_ = _evaluate_folds(cohort, range(13), (1, 2), ("severity", "status"),
                                     MODEL_MISSING, config)
        assert failed == {0: failure.format(0), 2: failure.format(2)}
        with pytest.raises(TrainingError) as caught:
            loo_evaluate(cohort, (1, 2), ("severity", "status"), MODEL_MISSING, config)
        assert str(caught.value) == \
            f"2 of 13 folds failed: {failure.format(0)}; {failure.format(2)}"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sample_seed, failed, zero_kept", [(2, [0, 2], []), (38, [], [7])])
    def test_held_out_predictions_match_per_fold_calls(self, monkeypatch, sample_seed, failed,
                                                       zero_kept):
        """Per order, one ``predict_batch`` on every fold's held-out log joint and
        stacked tables gives each fold's probabilities, errors, log_c and
        percentile the bits that a ``predict_batch`` / ``percentile_ranks`` call on
        that fold's model alone gives, with no RuntimeWarning from a -inf row. A
        held-out zero likelihood fails the fold, with its text (folds 0 and 2 of
        seed 2, see above), unless the subject has no observed target (fold 7 of
        seed 38): then it keeps its -inf confidence and no errors."""
        import hetmix.evaluation as ev
        cohort, _ = sample_cohort(small_demo_model(), 13, np.random.default_rng(sample_seed))
        targets = ("severity", "status")
        input_cols = [j for j in cohort.input_columns if cohort.schemas[j].name not in targets]
        fits, batches = [], []
        real_fit, real_predict = ev._fit_many, ev.predict_batch

        def fit_many(dataset, kept, scales, seeds, orders, config):
            assert (kept.sum(axis=1) == 12).all()  # each fold leaves out one row
            fitted = real_fit(dataset, kept, scales, seeds, orders, config)
            fits.extend((order, np.argmin(kept, axis=1).tolist(), result)
                        for order, result in zip(orders, fitted))
            return fitted

        def predict(tables, log_joint):
            batches.append(real_predict(tables, log_joint))
            return batches[-1]

        monkeypatch.setattr(ev, "_fit_many", fit_many)
        monkeypatch.setattr(ev, "predict_batch", predict)
        failures, errors, log_scores, percentiles = ev._evaluate_folds(
            cohort, range(13), (1, 2), targets, MODEL_MISSING,
            EmConfig(max_iterations=20, restarts=2, seed=0))
        failure = "held-out subject {} has zero likelihood under every component"
        compared, zero_seen, gone = 0, set(), set()
        for (order, held_out, (params, traces)), (batch, zero) in zip(fits, batches,
                                                                       strict=True):
            rows = iter(range(len(batch.posteriors)))
            held = [s for s, trace in zip(held_out, traces)
                    if not isinstance(trace, TrainingError)]
            # a fold that failed at an earlier order is trained, but scored no more
            trained = [(s, fit_of(params, i, cohort.schemas)) for i, s in enumerate(held)
                       if s not in gone]
            gone.update(set(held_out) - set(held))
            for f, (s, model) in enumerate(trained):
                log_joint = ev._log_joint(model, cohort, MODEL_MISSING, input_cols)
                truths = {name: cohort.value(s, cohort.column_index(name)) for name in targets}
                truths = {name: value for name, value in truths.items() if value is not MISSING}
                alone, alone_zero = predict_batch(target_tables(model, truths),
                                                  log_joint[:, s][None])
                assert bool(alone_zero) == (f in zero)
                if f in zero:
                    zero_seen.add(s)
                else:
                    row = next(rows)
                if f in zero and truths:
                    assert failures[s] == failure.format(s)
                    gone.add(s)
                    continue
                if s in failures:  # failed at a later order
                    continue
                assert np.isnan(errors[order, s]).tolist() == [n not in truths for n in targets]
                for t, name in enumerate(targets):
                    if name not in truths:
                        continue
                    schema, probs = cohort.schema(name), alone.probabilities[name][0]
                    assert batch.probabilities[name][row].tobytes() == probs.tobytes()
                    err = prediction_error(schema, FinitePrediction(schema.domain, probs),
                                           truths[name])
                    assert errors[order, s, t] == err
                scores = log_sum_exp(log_joint, axis=0)
                log_c = float(scores[s])
                pct = float(percentile_ranks(log_c, np.delete(scores, s)))
                assert (log_scores[order, s], percentiles[order, s]) == (log_c, pct)
                compared += 1
        assert sorted(failures) == failed
        assert sorted(zero_seen) == failed + zero_kept
        assert compared == 2 * (13 - len(failed))

    def test_abort_when_too_many_folds_fail(self, monkeypatch):
        import hetmix.evaluation as ev

        def broken(dataset, subjects, orders, targets, mode, config):
            return {s: "synthetic failure" for s in subjects}, *_unreached(subjects, orders,
                                                                          targets)[1:]

        monkeypatch.setattr(ev, "_evaluate_folds", broken)
        with pytest.raises(TrainingError):
            _tiny_loo(n=12, orders=(1,))

    # a bad cell in row 3, then one symbol in every row (a constant column)
    @pytest.mark.parametrize("column, cell, row", [("marker_a", "oops", 3),
                                                   ("site", "alpha", None)])
    def test_cohort_validated_before_any_fold(self, monkeypatch, column, cell, row):
        import hetmix.evaluation as ev

        def never(*args):
            raise AssertionError("a fold ran on an invalid cohort")

        monkeypatch.setattr(ev, "_evaluate_folds", never)
        cohort, _ = sample_cohort(small_demo_model(), 30, np.random.default_rng(0))
        rows = [list(cohort.row(i)) for i in range(cohort.n_subjects)]
        for i in range(cohort.n_subjects) if row is None else [row]:
            rows[i][cohort.column_index(column)] = cell
        bad = Dataset(cohort.schemas, rows)
        with pytest.raises(SchemaViolationError) as caught:
            loo_evaluate(bad, (1,), ("severity",), MODEL_MISSING, EmConfig())
        assert [(v.row, v.column) for v in caught.value.violations] == [(row, column)]
