"""Expected-error metrics, confidence scoring, and leave-one-out evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import random_model
from hetmix import (IGNORE_MISSING, MODEL_MISSING, Dataset, DegenerateSampleError,
                    EmConfig, FinitePrediction, InferenceRequest,
                    SchemaViolationError, TrainingError,
                    VariableSchema, chance_prediction, confidence_bins,
                    confidence_score, error_density, expected_absolute_error,
                    fit, infer, loo_evaluate, max_absolute_error,
                    normalized_error, percentile_ranks, prediction_error,
                    probability_of_error, sample_cohort, scott_bandwidth,
                    threshold_curve, training_confidence_scores)
from hetmix.demo import small_demo_model
from hetmix.distributions import log_sum_exp
from hetmix.evaluation import _evaluate_folds, _fold_seed
from hetmix.inference import predict_batch, target_tables
from hetmix.model import ZeroLikelihoodError, evidence_log_likelihoods
from hetmix.schema import MISSING, validate_dataset
from hetmix.training import _scales

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

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 3.0, size=200)
        h = scott_bandwidth(values)
        grid = np.linspace(values.min() - 6 * h, values.max() + 6 * h, 2001)
        dens = error_density(values, grid)
        assert (dens >= 0).all()
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


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
            fold = _evaluate_folds(cohort, [subject], (1, 2), targets, mode, config)[0]
            if fold[1] is None:  # a held-out zero likelihood fails the fold
                fold = None
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
                if fold is None:
                    continue
                _, errors, confidence, skipped = fold
                assert skipped == [n for n in targets if n not in truths]
                assert set(errors[order]) == set(truths)
                for name, truth in truths.items():
                    schema = cohort.schema(name)
                    err = prediction_error(schema, predicted[name], truth)
                    want = (err, normalized_error(schema, err))
                    assert errors[order][name] == pytest.approx(want, rel=1e-12, abs=1e-12)
                log_c = confidence_score(model, evidence, mode)
                pct = percentile_ranks(log_c, training_confidence_scores(
                    model, train, mode, input_cols))
                assert confidence[order] == pytest.approx((log_c, pct), rel=1e-12)
                compared += 1
            assert (fold is None) == reference_failed
        assert compared >= cohort.n_subjects  # most folds succeed on both orders


class TestFoldSeeds:
    def test_distinct_and_stable(self):
        seeds = {_fold_seed(7, i) for i in range(50)}
        assert len(seeds) == 50
        assert _fold_seed(7, 3) == _fold_seed(7, 3)
        assert _fold_seed(8, 3) != _fold_seed(7, 3)


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
        copies = np.concatenate([_scales(cohort.drop_subject(s)) for s in range(n)])
        assert _scales(cohort, np.arange(n) != np.arange(n)[:, None]).tolist() == copies.tolist()
        batches = []
        real = training._em_batch

        def recorded(dataset, scales, held_out, inits, config):
            batches.append((scales, held_out))
            return real(dataset, scales, held_out, inits, config)

        monkeypatch.setattr(training, "_em_batch", recorded)
        _evaluate_folds(cohort, range(n), (1,), self.TARGETS, MODEL_MISSING,
                        EmConfig(max_iterations=2, restarts=2))
        (scales, held_out), = batches
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
        assert (_scales(cohort, kept).tolist()
                == np.concatenate([_scales(copy) for copy in copies]).tolist())
        folds = _evaluate_folds(cohort, range(n), (), ("s3",), MODEL_MISSING, EmConfig())
        for (s, errors, _, extra), copy in zip(folds, copies):
            if violations := validate_dataset(copy):
                assert (errors, extra) == (None, str(SchemaViolationError(violations)))
            else:
                assert errors is not None

    def test_failure_text_matches_the_copy(self, cohort):
        # ignore_missing: no held-out subject has zero likelihood, so only
        # the schema fails a fold
        folds = _evaluate_folds(cohort, range(cohort.n_subjects), (1,), self.TARGETS,
                                IGNORE_MISSING, EmConfig(max_iterations=2, restarts=1))
        failed = []
        for s, errors, _, extra in folds:
            if violations := validate_dataset(cohort.drop_subject(s)):
                failed.append(s)
                assert (errors, extra) == (None, str(SchemaViolationError(violations)))
            else:
                assert errors is not None
        assert failed == [4, 7, 8]

    def test_no_fold_copies_the_cohort(self, monkeypatch):
        def never(*args):
            raise AssertionError("a fold copied the cohort")

        monkeypatch.setattr(Dataset, "_take", never)
        assert len(_tiny_loo(orders=(1,)).confidence_records[1]) > 20


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

    def test_chance_rows_are_uniform_errors(self, result):
        # order 0 normalized error for a 3-way categorical truth is always
        # 100 * (1 - 1/3) whenever the truth is observed
        records = [r for r in result.eae_records[0] if r.target == "status"]
        assert records
        for record in records:
            assert record.normalized == pytest.approx(100.0 * (1 - 1 / 3))

    def test_confidence_records_have_percentiles(self, result):
        for order in (1, 2):
            records = result.confidence_records[order]
            assert len(records) > 0
            for record in records:
                assert 0.0 <= record.percentile <= 1.0
                assert math.isfinite(record.log_score)

    def test_skipped_subjects_appear_nowhere(self, result):
        for subject, target in result.skipped:
            for order in result.orders:
                present = {(r.subject, r.target)
                           for r in result.eae_records[order]}
                assert (subject, target) not in present

    def test_worker_count_invariance(self):
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
        for other in runs[1:]:
            assert other == runs[0]
            assert other.failures == failure
            for order in runs[0].eae_records:
                assert ([(r.subject, r.target, r.error) for r in other.eae_records[order]]
                        == [(r.subject, r.target, r.error) for r in runs[0].eae_records[order]])
            for order in runs[0].confidence_records:
                assert ([(r.subject, r.log_score, r.percentile)
                         for r in other.confidence_records[order]]
                        == [(r.subject, r.log_score, r.percentile)
                            for r in runs[0].confidence_records[order]])

    def test_too_few_subjects(self):
        cohort, _ = sample_cohort(small_demo_model(), 2,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError):
            loo_evaluate(cohort, (1,), ("severity",), MODEL_MISSING, EmConfig())

    def test_order_below_one_rejected(self):
        cohort, _ = sample_cohort(small_demo_model(), 6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^orders must be >= 1$"):
            loo_evaluate(cohort, (0, 1), ("severity",), MODEL_MISSING, EmConfig())
        with pytest.raises(ValueError, match="^orders must be integers"):
            loo_evaluate(cohort, (2.5,), ("severity",), MODEL_MISSING, EmConfig())

    def test_continuous_target_rejected(self):
        cohort, _ = sample_cohort(small_demo_model(), 6,
                                  np.random.default_rng(0))
        with pytest.raises(Exception):
            loo_evaluate(cohort, (1,), ("marker_a",), MODEL_MISSING, EmConfig())

    def test_fold_failures_excluded(self, monkeypatch):
        import hetmix.evaluation as ev
        real = ev._evaluate_folds

        def flaky(dataset, subjects, orders, targets, mode, config):
            folds = real(dataset, subjects, orders, targets, mode, config)
            return [(1, None, None, "synthetic failure") if fold[0] == 1 else fold
                    for fold in folds]

        monkeypatch.setattr(ev, "_evaluate_folds", flaky)
        got = _tiny_loo(n=12, orders=(1,), sample_seed=2)
        assert [f.subject for f in got.failures] == [1]
        subjects = {r.subject for r in got.eae_records[1]}
        assert 1 not in subjects

    def test_fold_whose_restarts_all_fail(self, monkeypatch):
        """A fold whose every order-2 restart collapses comes back from the real
        _evaluate_folds as a failure record with the TrainingError text, is
        excluded by loo_evaluate, and leaves the other folds as they were."""
        import hetmix.evaluation as ev
        cohort, _ = sample_cohort(small_demo_model(), 12, np.random.default_rng(2))
        config = EmConfig(max_iterations=20, restarts=2, seed=0)
        args = ((1, 2), ("severity", "status"), IGNORE_MISSING, config)
        clean = ev._evaluate_folds(cohort, range(12), *args)
        doomed, real = _fold_seed(config.seed, 3), np.random.default_rng

        class Collapsing:  # fold 3's order-2 starts give component 0 no responsibility
            def __init__(self, seed):
                self.rng, self.doomed = real(seed), seed.entropy == doomed

            def dirichlet(self, alpha, size):
                start = self.rng.dirichlet(alpha, size)
                if self.doomed and len(alpha) == 2:
                    start[:, 0] = 0.0
                return start

        monkeypatch.setattr(np.random, "default_rng", Collapsing)
        got = ev._evaluate_folds(cohort, range(12), *args)
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        message = (f"all 2 restart(s) failed for order 2: restart 0: {collapsed}; "
                   f"restart 1: {collapsed}")
        assert clean[3][1] is not None and got[3] == (3, None, None, message)
        assert got[:3] + got[4:] == clean[:3] + clean[4:]
        result = loo_evaluate(cohort, *args)
        assert [(f.subject, f.message) for f in result.failures] == [(3, message)]
        assert {r.subject for r in result.eae_records[1]} == set(range(12)) - {3}

    def test_held_out_zero_likelihood_names_the_subject(self):
        """Subject 0 is the only one missing ``dose`` and subject 2 the only one
        missing ``stage``, so under model_missing the model of each one's own
        fold gives it zero likelihood: each failure names its held-out subject,
        and the abort does not say that a fold failed to train."""
        cohort, _ = sample_cohort(small_demo_model(), 13, np.random.default_rng(2))
        config = EmConfig(max_iterations=60, restarts=2, seed=0)
        failure = "held-out subject {} has zero likelihood under every component"
        folds = _evaluate_folds(cohort, range(13), (1, 2), ("severity", "status"),
                                MODEL_MISSING, config)
        assert [(s, extra) for s, errors, _, extra in folds if errors is None] == \
            [(0, failure.format(0)), (2, failure.format(2))]
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

        def fit_many(dataset, held_out, seeds, order, config):
            fits.append((order, held_out, real_fit(dataset, held_out, seeds, order, config)))
            return fits[-1][2]

        def predict(tables, log_joint):
            batches.append(real_predict(tables, log_joint))
            return batches[-1]

        monkeypatch.setattr(ev, "_fit_many", fit_many)
        monkeypatch.setattr(ev, "predict_batch", predict)
        folds = {s: rest for s, *rest in ev._evaluate_folds(
            cohort, range(13), (1, 2), targets, MODEL_MISSING,
            EmConfig(max_iterations=20, restarts=2, seed=0))}
        failure = "held-out subject {} has zero likelihood under every component"
        compared, zero_seen = 0, set()
        for (order, held_out, fitted), (batch, zero) in zip(fits, batches, strict=True):
            rows = iter(range(len(batch.posteriors)))
            trained = [(s, best[0]) for s, best in zip(held_out, fitted)
                       if not isinstance(best, TrainingError)]
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
                    assert folds[s] == [None, None, failure.format(s)]
                    continue
                errors, confidence, _ = folds[s]
                if errors is None:  # failed at a later order
                    continue
                assert set(errors[order]) == set(truths)
                for name, truth in truths.items():
                    schema, probs = cohort.schema(name), alone.probabilities[name][0]
                    assert batch.probabilities[name][row].tobytes() == probs.tobytes()
                    err = prediction_error(schema, FinitePrediction(schema.domain, probs), truth)
                    assert errors[order][name] == (err, normalized_error(schema, err))
                scores = log_sum_exp(log_joint, axis=0)
                log_c = float(scores[s])
                pct = float(percentile_ranks(log_c, np.delete(scores, s)))
                assert confidence[order] == (log_c, pct)
                compared += 1
        assert [s for s, fold in folds.items() if fold[0] is None] == failed
        assert sorted(zero_seen) == failed + zero_kept
        assert compared == 2 * (13 - len(failed))

    def test_abort_when_too_many_folds_fail(self, monkeypatch):
        import hetmix.evaluation as ev

        def broken(dataset, subjects, orders, targets, mode, config):
            return [(s, None, None, "synthetic failure") for s in subjects]

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
