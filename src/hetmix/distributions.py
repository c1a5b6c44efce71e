"""Per-variable distribution families: evaluation, sampling, weighted ML updates.

One family per variable kind:

    real         Gaussian(mean, variance)
    nonnegative  InflatedGamma(zero_prob, shape, scale); point mass at 0,
                 Gamma density scaled by (1 - zero_prob) elsewhere
    ordinal      QuantizedGaussian(mean, variance, domain); Gaussian-shaped
                 weights exp(-(d - mean)^2 / (2 variance)) renormalized
                 over the domain
    categorical  Categorical(probs, domain)

All evaluation happens in the log domain. ``log_density`` returns -inf exactly
where the mass is zero and never NaN for in-domain values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln, logsumexp

from .schema import VariableKind

LOG_TWO_PI = math.log(2.0 * math.pi)


class EstimationError(ValueError):
    """A weighted maximum-likelihood update has no usable samples."""


@dataclass(frozen=True)
class ParamFloors:
    """Numerical floors and caps that keep component likelihoods finite.

    ``rel_variance`` floors variances at rel_variance * column_scale**2;
    shape and scale bounds clamp the Gamma update; ``categorical_pseudo``
    is added to every categorical frequency before renormalizing so that
    observed symbols never get exactly zero mass.
    """

    rel_variance: float = 1e-6
    shape_min: float = 1e-3
    shape_max: float = 1e4
    scale_min: float = 1e-9
    categorical_pseudo: float = 1e-9


DEFAULT_FLOORS = ParamFloors()


@dataclass(frozen=True)
class Gaussian:
    """Normal density on the real line."""

    mean: float
    variance: float
    family = "gaussian"
    n_parameters = 2

    def __post_init__(self):
        if not (self.variance > 0) or not math.isfinite(self.variance):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")

    def log_density(self, x):
        return -0.5 * (LOG_TWO_PI + np.log(self.variance)
                       + (np.asarray(x, dtype=float) - self.mean) ** 2 / self.variance)

    def sample(self, rng, size=None):
        out = rng.normal(self.mean, math.sqrt(self.variance), size=size)
        return float(out) if size is None else out

    @property
    def expectation(self) -> float:
        return self.mean


@dataclass(frozen=True)
class InflatedGamma:
    """Nonnegative density: point mass ``zero_prob`` at 0, Gamma elsewhere.

    The continuous part uses the shape/scale parameterization, so the
    positive-branch mean is shape * scale and the log-density at x > 0 is
    log(1 - zero_prob) + (shape-1) log x - x/scale - shape log scale - lgamma(shape).
    """

    zero_prob: float
    shape: float
    scale: float
    family = "inflated_gamma"
    n_parameters = 3

    def __post_init__(self):
        if not (0.0 <= self.zero_prob <= 1.0):
            raise ValueError(f"zero_prob must lie in [0, 1], got {self.zero_prob}")
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be positive")

    def log_density(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if np.any(xs < 0):
            raise ValueError("inflated Gamma is defined on x >= 0")
        out = np.empty(xs.shape)
        zero = xs == 0
        with np.errstate(divide="ignore"):
            out[zero] = np.log(self.zero_prob)
            pos = ~zero
            if pos.any():
                xp = xs[pos]
                out[pos] = (np.log1p(-self.zero_prob)
                            + (self.shape - 1.0) * np.log(xp) - xp / self.scale
                            - self.shape * math.log(self.scale) - gammaln(self.shape))
        return float(out[0]) if scalar else out

    def sample(self, rng, size=None):
        n = 1 if size is None else size
        # draw both streams unconditionally so the call count never depends on the params
        zeros = rng.random(n) < self.zero_prob
        gammas = rng.gamma(self.shape, self.scale, size=n)
        out = np.where(zeros, 0.0, gammas)
        return float(out[0]) if size is None else out

    @property
    def expectation(self) -> float:
        return (1.0 - self.zero_prob) * self.shape * self.scale


@dataclass(frozen=True)
class QuantizedGaussian:
    """Gaussian-shaped masses renormalized over a finite ordered domain."""

    mean: float
    variance: float
    domain: tuple

    family = "quantized_gaussian"
    n_parameters = 2

    def __post_init__(self):
        if not (self.variance > 0) or not math.isfinite(self.variance):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        object.__setattr__(self, "domain", tuple(int(d) for d in self.domain))
        if len(self.domain) < 2 or any(a >= b for a, b in zip(self.domain, self.domain[1:])):
            raise ValueError("domain must be strictly increasing with >= 2 levels")

    @cached_property
    def log_masses(self) -> np.ndarray:
        levels = np.asarray(self.domain, dtype=float)
        scores = -((levels - self.mean) ** 2) / (2.0 * self.variance)
        out = scores - logsumexp(scores)
        out.setflags(write=False)
        return out

    @cached_property
    def masses(self) -> np.ndarray:
        out = np.exp(self.log_masses)
        out.setflags(write=False)
        return out

    def log_density(self, x):
        try:
            idx = self.domain.index(int(x))
        except ValueError:
            raise ValueError(f"level {x!r} not in domain {self.domain}") from None
        return float(self.log_masses[idx])

    def sample(self, rng, size=None):
        codes = rng.choice(len(self.domain), size=size, p=self.masses)
        if size is None:
            return int(self.domain[int(codes)])
        return np.asarray(self.domain, dtype=np.int64)[codes]

    @property
    def expectation(self) -> float:
        return float(np.dot(np.asarray(self.domain, dtype=float), self.masses))


@dataclass(frozen=True)
class Categorical:
    """Probability table over a finite symbol set."""

    probs: tuple
    domain: tuple

    family = "categorical"

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.probs) != len(self.domain):
            raise ValueError("probs and domain lengths differ")
        if len(self.domain) < 2:
            raise ValueError("domain needs at least 2 symbols")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)!r}, not 1")

    @property
    def n_parameters(self) -> int:
        return len(self.domain) - 1

    @cached_property
    def log_masses(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            out = np.log(np.asarray(self.probs))
        out.setflags(write=False)
        return out

    @cached_property
    def masses(self) -> np.ndarray:
        out = np.asarray(self.probs)
        out.setflags(write=False)
        return out

    def log_density(self, x):
        try:
            idx = self.domain.index(x)
        except ValueError:
            raise ValueError(f"symbol {x!r} not in domain {self.domain}") from None
        return float(self.log_masses[idx])

    def sample(self, rng, size=None):
        codes = rng.choice(len(self.domain), size=size, p=np.asarray(self.probs))
        if size is None:
            return self.domain[int(codes)]
        return np.asarray(self.domain, dtype=object)[codes]


Params = Gaussian | InflatedGamma | QuantizedGaussian | Categorical

_FAMILY_BY_KIND = {
    VariableKind.REAL: Gaussian,
    VariableKind.NONNEGATIVE: InflatedGamma,
    VariableKind.ORDINAL: QuantizedGaussian,
    VariableKind.CATEGORICAL: Categorical,
}


def family_for(kind: VariableKind):
    """Distribution class used for a variable kind."""
    return _FAMILY_BY_KIND[VariableKind(kind)]


def _weighted_moments(values, weights):
    total = weights.sum()
    mean = float(np.dot(weights, values) / total)
    var = float(np.dot(weights, (values - mean) ** 2) / total)
    return mean, var


def _floored_variance(var, scale):
    floor = DEFAULT_FLOORS.rel_variance * float(scale) ** 2
    return max(var, floor)


def weighted_mle(kind: VariableKind, values, weights, *, domain=None,
                 scale=None) -> Params:
    """Responsibility-weighted maximum-likelihood update for one family.

    ``values`` holds observed cells only: floats for continuous kinds, integer
    levels for ordinals, symbols (or precomputed integer domain codes) for
    categoricals. ``weights`` are nonnegative with positive total. ``domain``
    is required for finite kinds; ``scale`` feeds the variance floor and
    defaults to the value span (ordinals: the domain span). Floors come from
    DEFAULT_FLOORS.

    The Gamma update excludes zeros from the moment sums (all zero mass lives
    in ``zero_prob``) and uses the closed-form shape approximation
    k = (3 - g + sqrt((g - 3)^2 + 24 g)) / (12 g) with
    g = log(weighted mean) - weighted mean of logs.
    """
    kind = VariableKind(kind)
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0 or not np.isfinite(weights).all() or (weights < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    total = weights.sum()
    if not total > 0:
        raise EstimationError("total weight is zero")

    if kind is VariableKind.CATEGORICAL:
        if domain is None:
            raise EstimationError("categorical update needs the domain")
        domain = tuple(domain)
        values = np.asarray(values)
        if values.dtype.kind in "iu":
            codes = values.astype(np.int64)
        else:
            index = {v: i for i, v in enumerate(domain)}
            codes = np.fromiter((index[v] for v in values), dtype=np.int64, count=len(values))
        counts = np.bincount(codes, weights=weights, minlength=len(domain))
        probs = counts / total + DEFAULT_FLOORS.categorical_pseudo
        probs /= probs.sum()
        return Categorical(tuple(probs), domain)

    values = np.asarray(values, dtype=float)
    if values.shape != weights.shape:
        raise EstimationError("values and weights lengths differ")

    if kind is VariableKind.REAL:
        mean, var = _weighted_moments(values, weights)
        if scale is None:
            scale = values.max() - values.min() if values.size else 1.0
            scale = scale if scale > 0 else 1.0
        return Gaussian(mean, _floored_variance(var, scale))

    if kind is VariableKind.ORDINAL:
        if domain is None:
            raise EstimationError("ordinal update needs the domain")
        domain = tuple(int(d) for d in domain)
        if scale is None:
            scale = domain[-1] - domain[0]
        mean, var = _weighted_moments(values, weights)
        return QuantizedGaussian(mean, _floored_variance(var, scale), domain)

    # nonnegative: zero inflation plus Gamma on the positive part
    if (values < 0).any():
        raise EstimationError("nonnegative update received negative values")
    zero = values == 0
    zero_prob = float(weights[zero].sum() / total)
    zero_prob = min(max(zero_prob, 0.0), 1.0)
    pos = ~zero
    pos_total = weights[pos].sum()
    if not pos_total > 0:
        # nothing positive to fit; the Gamma branch carries no mass
        return InflatedGamma(zero_prob, 1.0, 1.0)
    xp = values[pos]
    wp = weights[pos]
    mean = float(np.dot(wp, xp) / pos_total)
    log_gap = math.log(mean) - float(np.dot(wp, np.log(xp)) / pos_total)
    # log(mean) >= mean(log) by Jensen; clamp fp noise away from zero
    log_gap = max(log_gap, 1e-12)
    shape = (3.0 - log_gap + math.sqrt((log_gap - 3.0) ** 2 + 24.0 * log_gap)) / (12.0 * log_gap)
    shape = min(max(shape, DEFAULT_FLOORS.shape_min), DEFAULT_FLOORS.shape_max)
    scale_par = max(mean / shape, DEFAULT_FLOORS.scale_min)
    return InflatedGamma(zero_prob, shape, scale_par)


def default_params(kind: VariableKind, *, domain=None, scale=1.0) -> Params:
    """Neutral parameters for a component that saw no observed mass.

    Used for (component, variable) cells whose responsibility-weighted
    observation count is effectively zero; the matching missing probability
    is ~1 there, so these values never carry weight in the likelihood.
    """
    kind = VariableKind(kind)
    if kind is VariableKind.REAL:
        return Gaussian(0.0, max(float(scale), 1.0) ** 2)
    if kind is VariableKind.NONNEGATIVE:
        return InflatedGamma(0.5, 1.0, max(float(scale), 1.0))
    if kind is VariableKind.ORDINAL:
        domain = tuple(int(d) for d in domain)
        mid = 0.5 * (domain[0] + domain[-1])
        span = domain[-1] - domain[0]
        return QuantizedGaussian(mid, max(span / 2.0, 1.0) ** 2, domain)
    domain = tuple(domain)
    return Categorical((1.0 / len(domain),) * len(domain), domain)
