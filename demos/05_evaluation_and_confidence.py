"""
Judging predictions: expected error, references, and confidence
===============================================================

Leave-one-out evaluation answers two questions. First, does conditioning on
a subject's observed inputs actually shrink the expected prediction error,
compared with guessing uniformly (order 0) and with the cohort-wide
marginal (the order-1 baseline)? Second, can the model tell for which
subjects its own answers are trustworthy? The confidence score of a subject
is the likelihood of their evidence under the model, reported as a
percentile within the training cohort.
"""

import numpy as np

from hetmix import (MODEL_MISSING, EmConfig, confidence_bins, loo_evaluate,
                    sample_cohort, small_demo_model, threshold_curve)

cohort, _ = sample_cohort(small_demo_model(), 120, np.random.default_rng(8))
config = EmConfig(max_iterations=50, rel_tol=1e-5, restarts=1, seed=0)

# Each fold retrains on n-1 subjects and predicts the held-out one. Order 0
# (uniform chance) and the order-1 baseline are always in the report, so
# the value of the mixture structure is read off a single table.
# The result holds arrays over (order, subject, target), NaN where a subject's
# true outcome is unobserved.
result = loo_evaluate(cohort, (3,), ("severity",), MODEL_MISSING, config)
print(f"folds failed: {len(result.failures)}, predictions skipped "
      f"(target unobserved): {np.isnan(result.errors[0]).sum()}")

print(f"\n{'order':>5} {'mean error %':>13} {'spread':>8} {'n':>4}")
for order in result.orders:
    s = result.summary(order, "severity")
    label = {0: "chance", 1: "baseline"}.get(order, "mixture")
    print(f"{order:>5} {s.mean_normalized:>13.2f} {s.spread:>8.2f} "
          f"{s.n_subjects:>4}   {label}")

# ------------------------------------------------------------------
# Confidence: each fold scores its held-out subject by the likelihood of
# their observed inputs under the fold's model, then ranks that score
# against the fold's own training cohort. Percentiles near 0 flag subjects
# unlike anything seen in training.
o = result.orders.index(3)
percentiles = result.percentiles[o]
print("\nconfidence percentiles: min {:.2f} median {:.2f} max {:.2f}".format(
    percentiles.min(), np.median(percentiles), percentiles.max()))

# Pair each held-out error with its subject's confidence percentile: if
# confidence is informative, the high-confidence half should be easier.
errors = result.normalized[o, :, result.targets.index("severity")]
known = ~np.isnan(errors)
pcts, errs = percentiles[known], errors[known]

bins = confidence_bins(pcts, errs)
print(f"low-confidence half:  mean error {bins.low_mean:.2f}")
print(f"high-confidence half: mean error {bins.high_mean:.2f}")

curve = threshold_curve(pcts, errs)
print("\nkeep-only-confident sweep (threshold, kept, mean error):")
for tau, n, err in list(zip(curve.thresholds, curve.kept, curve.mean_error))[::5]:
    print(f"  {tau:.2f} {n:>4} {err:>8.2f}")
