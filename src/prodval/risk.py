"""Lower quantiles, value-at-risk, and lower expected shortfall on finite
discrete distributions.

Conventions follow the regulatory usage: for a random variable Y with
negative realizations meaning losses,

    q_u(Y)   = inf{y : P[Y <= y] >= u}            (lower quantile)
    VaR_a(Y) = q_{1-a}(-Y)
    ES_a(Y)  = -(1/a) * integral_0^a q_u(Y) du    (lower expected shortfall)

The quantile function of a finite distribution is piecewise constant, so
the ES integral is evaluated exactly (no sampling). ES is the discrete
expected shortfall of Acerbi & Tasche (2002), "On the coherence of
expected shortfall".

Every function takes either one ``DiscreteDistribution`` and returns a
float, or a ``DistributionRows`` stacking many distributions as the rows
of padded arrays and returns one value per row. A single distribution is
evaluated as a one-row ``DistributionRows`` (``rows_of``), so there is
one implementation of each measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import gt
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BadLevel, EmptyDistribution

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite distribution given by atoms (value, probability).

    Values may repeat. Optional ``labels`` tag each atom with the tree
    node it came from, which the state-price capital bound needs to match
    weights to outcomes.
    """

    values: tuple
    probs: tuple
    labels: Optional[tuple] = field(default=None)

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyDistribution("distribution has no atoms")
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must have equal length")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise ValueError("labels must match atom count")
        # Written as "every p > 0" so that a NaN probability fails too.
        if not all(map(gt, self.probs, repeat(0))):
            raise ValueError("atom probabilities must be strictly positive")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def from_atoms(atoms: Sequence[tuple], labels=None) -> "DiscreteDistribution":
        values = tuple(float(v) for v, _ in atoms)
        probs = tuple(float(p) for _, p in atoms)
        return DiscreteDistribution(values, probs, tuple(labels) if labels else None)

    @staticmethod
    def point(value: float) -> "DiscreteDistribution":
        return DiscreteDistribution((float(value),), (1.0,))

    def negated(self) -> "DiscreteDistribution":
        return DiscreteDistribution(
            tuple(-v for v in self.values), self.probs, self.labels
        )

    def shifted(self, a: float) -> "DiscreteDistribution":
        return DiscreteDistribution(
            tuple(v + a for v in self.values), self.probs, self.labels
        )

    def scaled(self, a: float) -> "DiscreteDistribution":
        if a < 0:
            raise ValueError("scale must be non-negative")
        return DiscreteDistribution(
            tuple(a * v for v in self.values), self.probs, self.labels
        )

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))


@dataclass(frozen=True, eq=False)
class DistributionRows:
    """Finite distributions as the rows of padded (n, m) arrays.

    Row r holds ``counts[r]`` atoms in its first columns, in the order a
    DiscreteDistribution of that row would list them; the columns past
    them are padding with probability 0, which every function ignores.
    ``labels`` tags each atom with its tree node.
    """

    values: np.ndarray
    probs: np.ndarray
    counts: np.ndarray
    labels: Optional[np.ndarray] = None

    @property
    def mask(self) -> np.ndarray:
        """True at real atoms, False at padding."""
        return np.arange(self.values.shape[1]) < self.counts[:, None]

    def with_values(self, values: np.ndarray) -> "DistributionRows":
        return DistributionRows(values, self.probs, self.counts, self.labels)

    def take(self, rows: np.ndarray) -> "DistributionRows":
        """The given rows, in the given order."""
        labels = None if self.labels is None else self.labels[rows]
        return DistributionRows(self.values[rows], self.probs[rows], self.counts[rows], labels)

    def negated(self) -> "DistributionRows":
        return self.with_values(-self.values)

    def min(self) -> np.ndarray:
        """The first smallest atom of each row, as Python's ``min`` picks
        it (of -0.0 and 0.0 the one listed first)."""
        first = np.where(self.mask, self.values, math.inf).argmin(axis=1)
        return np.take_along_axis(self.values, first[:, None], axis=1)[:, 0]

    def mean(self) -> np.ndarray:
        """Per row, math.fsum of value * probability."""
        terms = np.where(self.mask, self.values, 0.0) * self.probs
        return np.array([math.fsum(row) for row in terms.tolist()])

    def prob_at_least(self, threshold: float) -> np.ndarray:
        """Per row, math.fsum of the probabilities of the atoms >= threshold."""
        hit = np.where(self.mask & (self.values >= threshold), self.probs, 0.0)
        return np.array([math.fsum(row) for row in hit.tolist()])

    def _sorted(self):
        """Atom values sorted by (value, probability) within each row,
        padding last, the running sums of their probabilities, added left
        to right from the first atom, and the column order that sorts
        them."""
        order = np.lexsort((self.probs, self.values, ~self.mask), axis=1)
        values = np.take_along_axis(self.values, order, axis=1)
        cum = np.cumsum(np.take_along_axis(self.probs, order, axis=1), axis=1)
        return values, cum, order


Distributions = Union[DiscreteDistribution, DistributionRows]


def _one_value(out: np.ndarray):
    return out[0].item()


def _all_rows(out: np.ndarray) -> np.ndarray:
    return out


def rows_of(dist: Distributions) -> Tuple[DistributionRows, Callable]:
    """``dist`` as DistributionRows (a DiscreteDistribution becomes one
    row), and the function that turns the per-row results back into what
    the caller passed: the array itself, or the one row's Python value."""
    if isinstance(dist, DistributionRows):
        return dist, _all_rows
    labels = None if dist.labels is None else np.array([dist.labels])
    rows = DistributionRows(
        np.array([dist.values], dtype=float),
        np.array([dist.probs], dtype=float),
        np.array([len(dist.values)]),
        labels,
    )
    return rows, _one_value


@dataclass(frozen=True)
class RiskMeasureSpec:
    """Risk-measure selector: ``full`` (worst case, rho = -min), ``var``
    or ``es`` at level ``alpha`` in (0, 1)."""

    variant: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("full", "var", "es"):
            raise BadLevel(f"unknown risk measure variant {self.variant!r}")
        if self.variant in ("var", "es"):
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise BadLevel(f"alpha must lie in (0,1), got {self.alpha}")


def lower_quantile(dist: Distributions, u: float):
    """Smallest atom value whose cumulative probability reaches u.

    Applies the infimum definition literally: the atom where the running
    sum of the sorted probabilities first reaches u (>= u, no
    interpolation), else the largest atom; padding never reaches u before
    the last atom.
    """
    if not (0.0 < u <= 1.0):
        raise BadLevel(f"quantile level must lie in (0,1], got {u}")
    rows, back = rows_of(dist)
    values, cum, _ = rows._sorted()
    hit = cum >= u - _PROB_TOL
    at = np.where(hit.any(axis=1), hit.argmax(axis=1), rows.counts - 1)
    return back(np.take_along_axis(values, at[:, None], axis=1)[:, 0])


def value_at_risk(dist: Distributions, alpha: float):
    """VaR_alpha(Y) = q_{1-alpha}(-Y)."""
    if not (0.0 < alpha < 1.0):
        raise BadLevel(f"alpha must lie in (0,1), got {alpha}")
    rows, back = rows_of(dist)
    return back(lower_quantile(rows.negated(), 1.0 - alpha))


def expected_shortfall(dist: Distributions, alpha: float):
    """ES_alpha(Y) = -(1/alpha) * integral over (0, alpha] of q_u(Y) du.

    The quantile function is piecewise constant on the cumulative
    probability segments, so the integral is a finite sum of segment
    lengths clipped to (0, alpha], added left to right in sorted order.
    Atoms past the level and the padding have empty segments.
    """
    if not (0.0 < alpha < 1.0):
        raise BadLevel(f"alpha must lie in (0,1), got {alpha}")
    rows, back = rows_of(dist)
    values, weights, _ = _tail(rows, alpha)
    return back(-sum_left_to_right(_weighted(values, weights)) / alpha)


def shortfall_tangent(rows: DistributionRows, alpha: float, direction: np.ndarray):
    """Per row ES_alpha of ``rows``, as ``expected_shortfall`` gives it,
    and the slope of a line through it that lies below x ->
    ES_alpha(rows.values + x * direction): minus the direction weighted
    by the sorted atoms' tail weights, over alpha.

    ES_alpha(Y) is the largest -(1/alpha) sum_i h_i y_i over weights
    0 <= h_i <= p_i summing to alpha, and the tail weights of the sorted
    atoms attain it, so the line is a tangent of a convex function.
    """
    values, weights, order = _tail(rows, alpha)
    along = np.take_along_axis(direction, order, axis=1)
    es = -sum_left_to_right(_weighted(values, weights)) / alpha
    return es, -sum_left_to_right(_weighted(along, weights)) / alpha


def _tail(rows: DistributionRows, alpha: float):
    """The sorted atom values of each row, the length of each one's
    cumulative probability segment clipped to (0, alpha] (its tail
    weight; 0 past the level and at the padding), and the column order
    that sorts them."""
    values, cum, order = rows._sorted()
    hi = np.minimum(cum, alpha)
    lo = np.minimum(np.hstack([np.zeros((len(cum), 1)), cum[:, :-1]]), alpha)
    return values, hi - lo, order


def _weighted(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """values * weights, 0 where the weight is 0 (an infinite atom
    outside the tail adds nothing)."""
    with np.errstate(invalid="ignore"):
        return np.where(weights > 0.0, values * weights, 0.0)


def sum_left_to_right(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` added left to right from 0.0, as a Python
    loop or ``sum`` adds them (np.sum adds pairwise, and cumsum alone
    keeps a -0.0 first term)."""
    start = np.zeros((len(terms), 1))
    return np.cumsum(np.hstack([start, terms]), axis=1)[:, -1]


def apply_measure(spec: RiskMeasureSpec, dist: Distributions):
    """Dispatch rho(Y): full -> -min Y, var -> VaR, es -> ES."""
    rows, back = rows_of(dist)
    if spec.variant == "full":
        return back(-rows.min())
    if spec.variant == "var":
        return back(value_at_risk(rows, spec.alpha))
    return back(expected_shortfall(rows, spec.alpha))
