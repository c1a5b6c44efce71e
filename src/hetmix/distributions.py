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
where the mass is zero and never NaN for in-domain values. Each density is
written once, on arrays that broadcast: ``log_densities`` evaluates Z
continuous components of one family over N values in one pass.

``weighted_updates`` is the one weighted maximum-likelihood update: it fits
Z components of one family at once from a (Z, M) weight matrix, with no
per-component loop. ``weighted_mle`` is its one-component call.
``log_sum_exp`` is the package's one log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .schema import VariableKind

LOG_TWO_PI = math.log(2.0 * math.pi)


class EstimationError(ValueError):
    """A weighted maximum-likelihood update has no usable samples."""


def log_sum_exp(a, axis=-1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, computed as scipy.special.logsumexp does.

    The largest entries are shifted to 0 and counted apart from the rest
    (Blanchard, Higham and Higham 2021): max + log(count) + log1p(rest / count).
    A slice of all -inf gives -inf, with no warning.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True)
    top = a == peak
    count = top.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.where(top, 0.0, np.exp(a - peak)).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
    return out.squeeze(axis)


def _gaussian_log_pdf(x, mean, variance):
    return -0.5 * (LOG_TWO_PI + np.log(variance) + (x - mean) ** 2 / variance)


def _inflated_gamma_log_pdf(x, zero_prob, shape, scale):
    """Log density at x >= 0 (NaN passes through)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        positive = (np.log1p(-zero_prob) + (shape - 1.0) * np.log(x) - x / scale
                    - shape * np.log(scale) - gammaln(shape))
        return np.where(x == 0, np.log(zero_prob), positive)


def _check_mean_variance(mean, variance):
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not (0 < variance < math.inf):
        raise ValueError(f"variance must be positive and finite, got {variance}")


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
        _check_mean_variance(self.mean, self.variance)

    def log_density(self, x):
        return _gaussian_log_pdf(np.asarray(x, dtype=float), self.mean, self.variance)

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
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise ValueError("shape and scale must be positive and finite")

    def log_density(self, x):
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise ValueError("inflated Gamma is defined on x >= 0")
        out = _inflated_gamma_log_pdf(xs, self.zero_prob, self.shape, self.scale)
        return float(out) if xs.ndim == 0 else out

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
        _check_mean_variance(self.mean, self.variance)
        object.__setattr__(self, "domain", tuple(int(d) for d in self.domain))
        if len(self.domain) < 2 or any(a >= b for a, b in zip(self.domain, self.domain[1:])):
            raise ValueError("domain must be strictly increasing with >= 2 levels")

    @cached_property
    def log_masses(self) -> np.ndarray:
        levels = np.asarray(self.domain, dtype=float)
        scores = -((levels - self.mean) ** 2) / (2.0 * self.variance)
        out = scores - log_sum_exp(scores)
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
        if not all(p >= 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if not abs(sum(self.probs) - 1.0) <= 1e-12:
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


def log_densities(cells, x) -> np.ndarray:
    """(N, Z) log densities of the N values ``x`` under each of the Z
    continuous components ``cells`` of one family. NaN values give NaN rows."""
    x = np.asarray(x, dtype=float)[:, None]
    if isinstance(cells[0], Gaussian):
        mean, variance = np.array([(c.mean, c.variance) for c in cells]).T
        return _gaussian_log_pdf(x, mean, variance)
    zero_prob, shape, scale = np.array([(c.zero_prob, c.shape, c.scale) for c in cells]).T
    return _inflated_gamma_log_pdf(x, zero_prob, shape, scale)


def weighted_mle(kind: VariableKind, values, weights, *, domain=None,
                 scale=None) -> Params:
    """Responsibility-weighted maximum-likelihood update of one component:
    ``weighted_updates`` with a single weight row.

    ``weights`` (one per value) must be finite and nonnegative with a
    positive total; otherwise EstimationError.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0 or not np.isfinite(weights).all() or (weights < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    if not weights.sum() > 0:
        raise EstimationError("total weight is zero")
    return weighted_updates(kind, values, weights[None, :], domain=domain, scale=scale)[0]


def weighted_updates(kind: VariableKind, values, weights, *, domain=None,
                     scale=None) -> list:
    """Responsibility-weighted maximum-likelihood updates of Z components of
    one family at once, one per row of the (Z, M) ``weights``.

    ``values`` holds the M observed cells: floats for continuous kinds, integer
    levels for ordinals, symbols (or precomputed integer domain codes) for
    categoricals. Every weight row must be finite and nonnegative with a
    positive total; callers check this (``weighted_mle``, ``m_step``).
    ``domain`` is required for finite kinds; ``scale`` feeds the variance
    floor and defaults to the value span (ordinals: the domain span). Floors
    come from DEFAULT_FLOORS.

    Each moment is a per-row dot product (``np.vecdot``), so a row's result
    does not depend on the other rows. The Gamma update excludes zeros from
    the moment sums (all zero mass lives in ``zero_prob``) and uses the
    closed-form shape approximation
    k = (3 - g + sqrt((g - 3)^2 + 24 g)) / (12 g) with
    g = log(weighted mean) - weighted mean of logs.
    """
    kind = VariableKind(kind)
    weights = np.asarray(weights, dtype=float)
    n_comp = weights.shape[0]
    total = weights.sum(axis=1)

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
        k = len(domain)
        if codes.size and not 0 <= codes.min() <= codes.max() < k:
            raise EstimationError(f"categorical codes outside 0..{k - 1}")
        # one bincount over (component, code) slots, each summed in value order
        slots = (np.arange(n_comp)[:, None] * k + codes).ravel()
        counts = np.bincount(slots, weights=weights.ravel(), minlength=n_comp * k)
        probs = counts.reshape(n_comp, k) / total[:, None] + DEFAULT_FLOORS.categorical_pseudo
        probs /= probs.sum(axis=1, keepdims=True)
        return [Categorical(row, domain) for row in probs.tolist()]

    values = np.asarray(values, dtype=float)
    if values.shape != weights.shape[1:]:
        raise EstimationError("values and weights lengths differ")

    if kind is VariableKind.REAL or kind is VariableKind.ORDINAL:
        if kind is VariableKind.ORDINAL:
            if domain is None:
                raise EstimationError("ordinal update needs the domain")
            domain = tuple(int(d) for d in domain)
            if scale is None:
                scale = domain[-1] - domain[0]
        elif scale is None:
            scale = values.max() - values.min() if values.size else 1.0
            scale = scale if scale > 0 else 1.0
        mean = np.vecdot(weights, values) / total
        var = np.vecdot(weights, (values - mean[:, None]) ** 2) / total
        var = np.maximum(var, DEFAULT_FLOORS.rel_variance * float(scale) ** 2)
        if kind is VariableKind.REAL:
            return [Gaussian(m, v) for m, v in zip(mean.tolist(), var.tolist())]
        return [QuantizedGaussian(m, v, domain) for m, v in zip(mean.tolist(), var.tolist())]

    # nonnegative: zero inflation plus Gamma on the positive part
    if (values < 0).any():
        raise EstimationError("nonnegative update received negative values")
    zero = values == 0
    zero_prob = np.clip(weights.take(np.flatnonzero(zero), axis=1).sum(axis=1) / total, 0.0, 1.0)
    positive = np.flatnonzero(~zero)
    pos_weights = weights.take(positive, axis=1)
    xp = values[positive]
    pos_total = pos_weights.sum(axis=1)
    # rows with no positive weight give NaN here and InflatedGamma(zero_prob, 1, 1) below
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.vecdot(pos_weights, xp) / pos_total
        log_gap = np.log(mean) - np.vecdot(pos_weights, np.log(xp)) / pos_total
        # log(mean) >= mean(log) by Jensen; clamp fp noise away from zero
        log_gap = np.maximum(log_gap, 1e-12)
        shape = (3.0 - log_gap + np.sqrt((log_gap - 3.0) ** 2 + 24.0 * log_gap)) / (12.0 * log_gap)
        shape = np.clip(shape, DEFAULT_FLOORS.shape_min, DEFAULT_FLOORS.shape_max)
        scale_par = np.maximum(mean / shape, DEFAULT_FLOORS.scale_min)
    return [InflatedGamma(t, k, s) if w > 0 else InflatedGamma(t, 1.0, 1.0)
            for t, k, s, w in zip(zero_prob.tolist(), shape.tolist(), scale_par.tolist(),
                                  pos_total.tolist())]


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
