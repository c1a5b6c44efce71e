"""
Fitting a mixture by EM and picking its order with BIC
======================================================

A cohort is sampled from the bundled three-component generator, a mixture
of the same order is refit from scratch, and then BIC is swept over a range
of candidate orders to recover the component count from the data alone.
"""

import numpy as np

from hetmix import (MODEL_MISSING, EmConfig, bic_score, fit, sample_cohort,
                    select_order, small_demo_model, total_log_likelihood)

true_model = small_demo_model()
cohort, labels = sample_cohort(true_model, 500, np.random.default_rng(1))
print(f"cohort: {cohort.n_subjects} subjects x {cohort.n_variables} variables")

# ------------------------------------------------------------------
# Fit a 3-component mixture. Restarts rerun EM from independent random
# responsibility draws and keep the best final likelihood.
config = EmConfig(max_iterations=100, rel_tol=1e-6, restarts=3, seed=0)
model, trace = fit(cohort, 3, config)

print(f"\nEM converged: {trace.converged} after {trace.iterations} iterations "
      f"(restart {trace.restart_index} won)")
nlls = trace.nll_per_iteration
print("NLL head:", [round(v, 2) for v in nlls[:4]])
print("NLL tail:", [round(v, 2) for v in nlls[-4:]])
print("fitted weights:", np.round(np.sort(model.weights)[::-1], 3),
      " true:", np.sort(true_model.weights)[::-1])

# ------------------------------------------------------------------
# Order selection: fit each candidate order and keep the smallest BIC.
# The penalty grows with the parameter count, so overfit orders lose even
# when their raw likelihood is slightly better.
selection = select_order(cohort, range(1, 6), config)
print(f"\nBIC sweep (winner: order {selection.best_order})")
print(f"{'order':>5} {'nll':>10} {'bic':>10}")
for score in selection.scores:
    print(f"{score.order:>5} {score.nll:>10.2f} {score.bic:>10.2f}")

# BIC uses the NLL the fit already computed; rescoring the model gives the same bits.
rescored_nll = -total_log_likelihood(selection.best_model, cohort, MODEL_MISSING)
assert selection.scores[2].bic == bic_score(selection.best_model, cohort.n_subjects,
                                            rescored_nll)
