"""
The four per-variable distribution families
===========================================

Each variable kind is tied to one family: real -> Gaussian, nonnegative ->
zero-inflated Gamma, ordinal -> Gaussian masses quantized onto the integer
domain, categorical -> a probability table. All four expose log_density and
sample, and all four have a closed-form weighted maximum-likelihood step,
which the EM M-step runs on all components of a variable at once.
"""

import math

import numpy as np

from hetmix import (Categorical, Dataset, Gaussian, InflatedGamma, QuantizedGaussian,
                    VariableSchema, fit)

rng = np.random.default_rng(42)

# ------------------------------------------------------------------
# Gaussian: plain mean and variance.
g = Gaussian(mean=37.0, variance=0.25)
print("Gaussian density at 37.5:", math.exp(g.log_density(37.5)))

# Zero-inflated Gamma: a point mass at exactly 0.0 plus a Gamma(shape,
# scale) body, for assay-style columns where zero means "below detection".
ig = InflatedGamma(zero_prob=0.3, shape=2.0, scale=1.5)
draws = ig.sample(rng, size=8)
print("InflatedGamma draws:", np.round(np.asarray(draws, dtype=float), 2))

# Quantized Gaussian: Gaussian weights evaluated on the ordinal domain and
# renormalized, so a grade behaves like a noisy rounding of a latent score.
qg = QuantizedGaussian(mean=2.4, variance=0.5, domain=(1, 2, 3, 4, 5))
print("QuantizedGaussian masses:", np.round(qg.masses, 3), "sum", qg.masses.sum())

# Categorical: an explicit table over string levels.
cat = Categorical(probs=(0.7, 0.2, 0.1), domain=("north", "south", "west"))
print("Categorical mass of 'south':", math.exp(cat.log_density("south")))

# ------------------------------------------------------------------
# A one-component fit of a one-column cohort recovers the parameters: its
# M-step weighs every row 1, so it is the ordinary MLE; EM weighs rows by
# fractional responsibilities.
n = 20_000
for schema, true in ((VariableSchema("conc", "nonnegative"), ig),
                     (VariableSchema("grade", "ordinal", (1, 2, 3, 4, 5)), qg)):
    cohort = Dataset((schema,), [(x,) for x in true.sample(rng, size=n).tolist()])
    model, _ = fit(cohort, 1)
    print("\ntrue  ", true)
    print("fitted", model.params[0][0])
