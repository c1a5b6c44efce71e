"""
The four per-variable distribution families
===========================================

Each variable kind is tied to one family: real -> Gaussian, nonnegative ->
zero-inflated Gamma, ordinal -> Gaussian masses quantized onto the integer
domain, categorical -> a probability table. All four expose log_density and
sample, and all four have a closed-form weighted maximum-likelihood step.
weighted_mle is its checked entry for one component; the EM M-step runs the
same step, unchecked, on all components of a variable at once.
"""

import math

import numpy as np

from hetmix import (Categorical, Gaussian, InflatedGamma, QuantizedGaussian,
                    VariableKind, weighted_mle)

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
# weighted_mle recovers parameters from (value, weight) pairs. With all
# weights 1 this is the ordinary MLE; EM passes fractional responsibilities.
n = 20_000
sample = ig.sample(rng, size=n)
fitted = weighted_mle(VariableKind.NONNEGATIVE, sample, np.ones(n))
print("\ntrue ", ig)
print("fitted", fitted)

sample = qg.sample(rng, size=n)
fitted = weighted_mle(VariableKind.ORDINAL, sample, np.ones(n),
                      domain=(1, 2, 3, 4, 5))
print("true ", qg)
print("fitted", fitted)
