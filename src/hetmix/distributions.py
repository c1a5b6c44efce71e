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
where the mass is zero and never NaN for in-domain values (a Gamma shape is
below SHAPE_LIMIT). Each density, mass table and parameter check is written
once, on arrays that broadcast.

A *block* holds a family's parameters for Z components, one array per field
but ``domain``: ``mean``, ``variance``, ``zero_prob``, ``shape``, ``scale``
(Z,), ``probs`` (Z, K). EM reads and writes blocks; the dataclasses are their
per-cell view. Every family is an exponential family, so a weighted
maximum-likelihood update reads only weighted sums of sufficient statistics
(``schema._stat_rows``, an ordinal's on its levels; a categorical's are its
missed weight and symbol counts, the weighted sums of its one-hot slots in
``Dataset._stats``); ``_weighted_block`` maps them to the missing probability
and a block in closed form, unchecked; ``_natural_params`` maps a block back to
its log factors' coefficients on them. An ordinal mass table calls ``log_sum_exp``, whose bits
depend on the values alone; EM's E-step (``training._posteriors``) fuses its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .schema import SHAPE_MIN, VariableKind, _checked_domain, _is_int

LOG_TWO_PI = math.log(2.0 * math.pi)


class EstimationError(ValueError):
    """The M-step was given responsibilities that are not finite and nonnegative."""


def log_sum_exp(a, axis=-1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, computed as scipy.special.logsumexp does.

    The largest entries are shifted to 0 and counted apart from the rest
    (Blanchard, Higham and Higham 2021): max + log(count) + log1p(rest / count),
    the rest summed with ``axis`` laid out last, so its bits depend on the values
    alone. A slice of all -inf gives -inf, and a shift past the float range (1e308
    against -1e308) an exp of 0, with no warning.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True)
    top = a == peak
    count = top.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        buffer = np.empty(np.moveaxis(a, axis, -1).shape)  # the one input-sized float temporary
        rest = np.subtract(a, peak, out=np.moveaxis(buffer, -1, axis))  # freed once summed
        # a top entry's exp(0) - 1 is 0; at an infinite peak it is NaN: that sum is zeroed
        rest = np.subtract(np.exp(rest, out=rest), top, out=rest).sum(axis=axis, keepdims=True)
        rest[np.isinf(peak)] = 0.0
        rest /= count
        out = np.log1p(rest, out=rest)
        out += np.log(count, out=count)
        out += peak
    return out.squeeze(axis)


def _gaussian_log_pdf(x, mean, variance):
    return -0.5 * (LOG_TWO_PI + np.log(variance) + (x - mean) ** 2 / variance)


def _inflated_gamma_log_pdf(x, zero_prob, shape, scale):
    """Log density at x >= 0 (NaN passes through); ``shape`` is a float or a block.
    Below SHAPE_LIMIT every term is finite but -x / scale and log1p(-zero_prob),
    which can only be -inf, so no sum is NaN."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        positive = (np.log1p(-zero_prob) + (shape - 1.0) * np.log(x) - x / scale
                    - shape * np.log(scale) - _log_gamma(shape))
        return np.where(x == 0, np.log(zero_prob), positive)


def _log_gamma(shape) -> np.ndarray:
    return np.asarray(np.frompyfunc(math.lgamma, 1, 1)(shape), dtype=float)


def _log_mass_table(kind: VariableKind, domain, block) -> np.ndarray:
    """C-contiguous (Z, K) log masses of a finite block over its domain; an
    ordinal's are its scores less their ``log_sum_exp`` per component. Level d
    scores against the level r nearest the mean m, -(d - r)(d + r - 2m) / (2
    variance): r's is 0, the others <= 0 or -inf, so no extreme mean or variance
    gives inf - inf. The scores are laid out (K, Z); ``log_sum_exp`` sums each
    component's, so its bits are those of a row of the (Z, K) table."""
    if kind is VariableKind.CATEGORICAL:
        with np.errstate(divide="ignore"):
            return np.log(block[0])
    mean, variance = block
    levels = np.asarray(domain, dtype=float)[:, None]
    nearest = levels[np.abs(levels - np.clip(mean, levels[0], levels[-1])).argmin(axis=0), 0]
    with np.errstate(over="ignore"):  # an overflow is a score of -inf
        scores = -((levels - nearest) * ((levels - mean) / 2 + (nearest - mean) / 2)) / variance
    return np.ascontiguousarray((scores - log_sum_exp(scores, axis=0)).T)


# the Gamma shape stays below this: (shape - 1) log x, shape log scale and
# lgamma(shape) are then finite for every finite positive x and scale
SHAPE_LIMIT = 1e300

# parameter field -> (rule, lowest and highest value, whether they are allowed);
# NaN fails every rule, since min and max pass it on and it compares false
_PARAM_RULES = dict(mean=("finite", -math.inf, math.inf, False),
                    weights=("nonnegative", 0.0, math.inf, True),
                    **dict.fromkeys(("zero_prob", "missing_probs"), ("in [0, 1]", 0.0, 1.0, True)),
                    probs=("nonnegative and sum to 1", 0.0, math.inf, True),
                    shape=(f"positive and below {SHAPE_LIMIT:g}", 0.0, SHAPE_LIMIT, False),
                    **dict.fromkeys(("variance", "scale"),
                                    ("positive and finite", 0.0, math.inf, False)))


def _check_params(values: dict, ndim: int = 0) -> list:
    """The values of parameter field -> value as new float arrays, in order;
    ValueError unless each passes its rule. TypeError unless every element is a
    number that ``float`` takes (not a bool, text or None; an int or float
    ndarray, EM's, is not scanned) and the value has ``ndim`` axes (0 for a
    cell, 1 for a block), plus one for ``probs`` and ``missing_probs``."""
    out = []
    for name, value in values.items():
        rule, lo, hi, closed = _PARAM_RULES[name]
        axes = ndim + (name in ("probs", "missing_probs"))
        try:  # float refuses a complex and an int past its range too
            if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf") and not all(
                    isinstance(i, numbers.Number) and not isinstance(i, bool)
                    for i in np.asarray(value, dtype=object).flat):
                raise TypeError
            x = np.array(value, dtype=float)
            if x.ndim != axes:
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            raise TypeError(f"{name} must be numbers (not bools or text) with {axes} axes, "
                            f"got {value!r}") from None
        low, high = x.min(initial=hi), x.max(initial=lo)
        if (not (lo <= low and high <= hi if closed else lo < low and high < hi)
                or name == "probs" and not (abs(x.sum(axis=-1) - 1.0) <= 1e-12).all()):
            raise ValueError(f"{name} must be {rule}, got {value}")
        out.append(x)
    return out


def _store_params(cell, **values):
    """Check a cell's parameter fields, then store them as the floats its methods take."""
    for name, x in zip(values, _check_params(values)):
        object.__setattr__(cell, name, float(x))


# fixed floors and caps of the M-step, which keep component likelihoods finite:
# variances >= REL_VARIANCE_FLOOR * column scale ** 2, the Gamma shape clamped to
# [SHAPE_MIN, SHAPE_MAX] and its scale >= SCALE_MIN, and CATEGORICAL_PSEUDO added
# to every categorical frequency before renormalizing, so no observed symbol has mass 0
REL_VARIANCE_FLOOR = 1e-6
SHAPE_MAX = 1e4  # SHAPE_MIN is schema's: validation reads it too
SCALE_MIN = 1e-9
CATEGORICAL_PSEUDO = 1e-9


@dataclass(frozen=True)
class Gaussian:
    """Normal density on the real line."""

    mean: float
    variance: float
    family = "gaussian"

    def __post_init__(self):
        _store_params(self, mean=self.mean, variance=self.variance)

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

    def __post_init__(self):
        _store_params(self, zero_prob=self.zero_prob, shape=self.shape, scale=self.scale)

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

    def __post_init__(self):
        _store_params(self, mean=self.mean, variance=self.variance)
        object.__setattr__(self, "domain", _checked_domain(VariableKind.ORDINAL, self.domain))

    @cached_property
    def log_masses(self) -> np.ndarray:
        out = _log_mass_table(VariableKind.ORDINAL, self.domain,
                              (np.array([self.mean]), np.array([self.variance])))[0]
        out.setflags(write=False)
        return out

    @cached_property
    def masses(self) -> np.ndarray:
        out = np.exp(self.log_masses)
        out.setflags(write=False)
        return out

    def log_density(self, x):
        """Log mass of one level; a non-integer (bools included) is never a level."""
        if _is_int(x) and int(x) in self.domain:
            return float(self.log_masses[self.domain.index(int(x))])
        raise ValueError(f"level {x!r} not in domain {self.domain}")

    def sample(self, rng, size=None):
        codes = rng.choice(len(self.domain), size=size, p=self.masses)
        if size is None:
            return int(self.domain[int(codes)])
        return np.asarray(self.domain, dtype=object)[codes]

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
        object.__setattr__(self, "probs", tuple(_check_params({"probs": self.probs})[0].tolist()))
        object.__setattr__(self, "domain", _checked_domain(VariableKind.CATEGORICAL, self.domain))
        if len(self.probs) != len(self.domain):
            raise ValueError("probs and domain lengths differ")

    def log_density(self, x):
        try:
            idx = self.domain.index(x)
        except ValueError:
            raise ValueError(f"symbol {x!r} not in domain {self.domain}") from None
        with np.errstate(divide="ignore"):
            return float(np.log(self.probs[idx]))

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


# continuous variable kind -> its family's log density, called as pdf(x, *block)
_LOG_PDF = {VariableKind.REAL: _gaussian_log_pdf,
            VariableKind.NONNEGATIVE: _inflated_gamma_log_pdf}

# variable kind -> its family's block fields, in dataclass order
_BLOCK_FIELDS = {kind: tuple(f.name for f in fields(cls) if f.name != "domain")
                 for kind, cls in _FAMILY_BY_KIND.items()}


def _block_of(schema, cells) -> tuple:
    """The block of the Z cells ``cells`` of the variable ``schema``; ValueError
    unless each cell is of the variable's family and over its domain."""
    family = family_for(schema.kind)
    for z, cell in enumerate(cells):
        if not (isinstance(cell, family) and getattr(cell, "domain", ()) == schema.domain):
            raise ValueError(f"component {z}, variable {schema.name!r}: a {schema.kind.value} "
                             f"variable needs a {family.family} block over {schema.domain}, "
                             f"got {cell!r}")
    return tuple(np.array([getattr(c, f) for c in cells], dtype=float)
                 for f in _BLOCK_FIELDS[schema.kind])


def _cells_of(family, block, domain) -> list:
    """The Z cells of a block of ``family``; finite families take ``domain``."""
    extra = (domain,) if domain else ()
    return [family(*values, *extra) for values in zip(*(a.tolist() for a in block))]


def _weighted_block(kind: VariableKind, sums: np.ndarray, domain, column_scale, unit) -> tuple:
    """(missing_prob, observed, block) of the components whose weighted sums of
    a variable's sufficient statistics, the missed weight first, are the rows of
    (..., width) ``sums`` (a categorical's symbol counts, or ``schema._stat_rows``
    with their (centre, scale) ``unit``): every probability EM estimates,
    q = missed / (missed + observed), ``zero_prob`` and ``probs``, is a closed form here.

    Unchecked: the caller, the M-step, replaces the rows without observed weight.
    A real variance is floored at ``REL_VARIANCE_FLOOR * column_scale ** 2`` (the
    span of the fit's kept values, broadcast against (...,); no other kind reads
    it), an ordinal's at its domain's span's; the other floors are the module's constants.
    A row's result is a closed form of it alone: real and ordinal moments in one
    pass; the Gamma keeps zeros out of its sums (their mass is ``zero_prob``) and
    takes the shape k = (3 - g + sqrt((g - 3)^2 + 24 g)) / (12 g) with
    g = log(weighted mean) - weighted mean of logs.
    """
    missed, stats = sums[..., 0], sums[..., 1:]
    observed = (stats.sum(axis=-1) if kind is VariableKind.CATEGORICAL else stats[..., 0]
                + stats[..., 1] if kind is VariableKind.NONNEGATIVE else stats[..., 0])
    missing_prob = missed / (missed + observed)  # all-missing cells: q == 1 exactly
    if kind is VariableKind.CATEGORICAL:
        probs = stats / observed[..., None] + CATEGORICAL_PSEUDO
        return missing_prob, observed, (probs / probs.sum(axis=-1, keepdims=True),)
    if kind is not VariableKind.NONNEGATIVE:
        centre, scale = unit
        mean = stats[..., 1] / observed
        var = scale ** 2 * (stats[..., 2] / observed - mean ** 2)
        if kind is VariableKind.ORDINAL:  # the integer span, rounded once
            column_scale = float(domain[-1] - domain[0])
        return missing_prob, observed, (centre + scale * mean,
                                        np.maximum(var, REL_VARIANCE_FLOOR * np.square(column_scale)))

    # nonnegative: zero inflation plus Gamma on the positive part
    zeros, positive, sum_x, sum_log = np.moveaxis(stats, -1, 0)
    zero_prob = zeros / observed
    # rows with no positive weight give NaN here and shape = scale = 1 below
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sum_x / positive
        # log(mean) >= mean(log) by Jensen; clamp fp noise away from zero
        log_gap = np.maximum(np.log(mean) - sum_log / positive, 1e-12)
        shape = (3.0 - log_gap + np.sqrt((log_gap - 3.0) ** 2 + 24.0 * log_gap)) / (12.0 * log_gap)
        shape = np.clip(shape, SHAPE_MIN, SHAPE_MAX)
        scale_par = np.maximum(mean / shape, SCALE_MIN)
    shape, scale_par = (np.where(positive > 0, a, 1.0) for a in (shape, scale_par))
    return missing_prob, observed, (zero_prob, shape, scale_par)


def _natural_params(kind: VariableKind, block, log_masses, domain, unit,
                    missing_prob) -> np.ndarray:
    """(Z, width) coefficients on a column's statistics (``Dataset._stats``: a
    categorical's K + 1 one-hot slots, or ``schema._stat_rows`` with their (centre,
    scale) ``unit``) of the log factors of a block with missing probabilities q and a
    finite column's (Z, K) ``log_masses``: log q, then log(1 - q) plus the log mass
    or density's. A categorical's are each symbol's log mass; a real or ordinal
    column's are in x~, from expanding (x - mean)^2, an ordinal's constant the log
    mass at the level r nearest the mean (its score is 0) + ((r - mean)^2 - (mean -
    centre)^2) / (2 variance). -inf where q or zero_prob is 0 or 1, or a mass is 0."""
    with np.errstate(divide="ignore"):
        missed, kept = np.log(missing_prob), np.log1p(-missing_prob)
        if kind is VariableKind.CATEGORICAL:
            return np.column_stack([missed, kept[:, None] + log_masses])
        if kind is VariableKind.NONNEGATIVE:
            zero_prob, shape, scale = block
            return np.stack([missed, kept + np.log(zero_prob), kept + np.log1p(-zero_prob)
                             - shape * np.log(scale) - _log_gamma(shape), -1.0 / scale,
                             shape - 1.0], axis=-1)
        mean, variance = block
        centre, scale = unit
        shift = mean - centre
        if kind is VariableKind.REAL:
            observed = kept - 0.5 * (LOG_TWO_PI + np.log(variance)) - shift ** 2 / (2.0 * variance)
        else:
            top = log_masses.argmax(axis=1)
            nearest = np.asarray(domain, dtype=float)[top]
            observed = (kept + log_masses.max(axis=1)
                        + (nearest - centre) * (nearest + centre - 2.0 * mean) / (2.0 * variance))
        return np.stack([missed, observed, scale * shift / variance,
                         -scale ** 2 / (2.0 * variance)], axis=-1)


def _default_block(kind: VariableKind, domain, scales) -> tuple:
    """The block of neutral parameters for components that saw no observed mass
    on a variable, one per entry of ``scales`` (the column's natural scale for
    each). Their missing probability is ~1 there, so they never carry weight in
    the likelihood."""
    scales = np.maximum(np.asarray(scales, dtype=float), 1.0)
    ones = np.ones_like(scales)
    if kind is VariableKind.REAL:
        return 0.0 * ones, scales ** 2
    if kind is VariableKind.NONNEGATIVE:
        return 0.5 * ones, ones, scales
    if kind is VariableKind.ORDINAL:
        low, high = domain[0], domain[-1]
        return 0.5 * (low + high) * ones, max((high - low) / 2.0, 1.0) ** 2 * ones
    return (np.full((scales.size, len(domain)), 1.0 / len(domain)),)
