"""Fulfillment and financiability conditions for one-year periods.

A fulfillment condition accepts or rejects the distribution of the
year-end surplus A' - L seen from a date-i node; all variants are
monotone (raising surplus atoms never breaks satisfaction). A
financiability condition states when the capital investment
C_i -> C'_{i+1} = (A'_{i+1} - L_{i+1})_+ is acceptable, and each variant
here admits a largest acceptable C_i, which is what the one-period
builder solves for.

The two audits quantify the definition's "consistent with" and "neutral
to the tradables" properties over one-step self-financing portfolios:
per node, the maximum (or minimum) expected payoff of unit-price
admissible portfolios with non-negative child payoffs is compared
against the period hurdle 1 + r + eta. That optimum is a linear-
fractional program over the cone of the children's attainable payoffs;
it is read off the cone's extreme rays, for the nodes of one date and
child count at a time, without an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import lp
from .errors import (
    BadLevel,
    BadRate,
    MissingCertificate,
    NegativePayoffAtom,
    NumericalFailure,
)
from .lattice import ScenarioTree, node_array
from .market import ConsistencyCertificate, RestrictionSet, TradableSet
from .risk import (
    DiscreteDistribution,
    Distributions,
    RiskMeasureSpec,
    apply_measure,
    lower_quantile,
    rows_of,
    sum_left_to_right,
)

SLACK = 1e-9


@dataclass(frozen=True)
class FulfillmentSpec:
    """full | risk_measure(rho) with rho(surplus) <= 0 | probability(p)
    with P[surplus >= 0] >= p."""

    variant: str
    measure: Optional[RiskMeasureSpec] = None
    p: Optional[float] = None

    def __post_init__(self):
        if self.variant == "full":
            return
        if self.variant == "risk_measure":
            if self.measure is None:
                raise BadLevel("risk_measure fulfillment needs a RiskMeasureSpec")
            return
        if self.variant == "probability":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise BadLevel(f"probability threshold must lie in (0,1], got {self.p}")
            return
        raise BadLevel(f"unknown fulfillment variant {self.variant!r}")

    @staticmethod
    def full() -> "FulfillmentSpec":
        return FulfillmentSpec("full")

    @staticmethod
    def var(alpha: float) -> "FulfillmentSpec":
        return FulfillmentSpec("risk_measure", RiskMeasureSpec("var", alpha))

    @staticmethod
    def es(alpha: float) -> "FulfillmentSpec":
        return FulfillmentSpec("risk_measure", RiskMeasureSpec("es", alpha))

    @staticmethod
    def probability(p: float) -> "FulfillmentSpec":
        return FulfillmentSpec("probability", p=p)

    def required_buffer(self, surplus: Distributions):
        """Smallest deterministic add-on c making ``surplus + c`` satisfy
        the condition (the effective rho of the surplus), for one
        distribution or per row.

        All variants are translation-solvable: full and risk_measure via
        translation invariance, probability via the quantile identity
        P[Y + c >= 0] >= p iff c >= q_p(-Y).
        """
        rows, back = rows_of(surplus)
        if self.variant == "full" or (self.variant == "probability" and self.p == 1.0):
            return back(-rows.min())
        if self.variant == "risk_measure":
            return back(apply_measure(self.measure, rows))
        return back(lower_quantile(rows.negated(), self.p))


def fulfillment_satisfied(spec: FulfillmentSpec, surplus: Distributions):
    """Decide the condition on the year-end surplus distribution, for one
    distribution (a bool) or per row (a bool array).

    full: min >= 0; risk_measure: rho <= 0; probability: P[>= 0] >= p.
    Comparisons carry a 1e-9 slack so boundary constructions pass.
    """
    rows, back = rows_of(surplus)
    if spec.variant == "probability":
        return back(rows.prob_at_least(-SLACK) >= spec.p - 1e-12)
    return back(spec.required_buffer(rows) <= SLACK)


@dataclass(frozen=True, eq=False)
class CapitalSchedule:
    """Non-negative capital C_i per node, a read-only array indexed by
    node id; only the annual nodes' entries are read."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", node_array(self.values, "capital"))


@dataclass(frozen=True)
class FinanciabilitySpec:
    """cost_of_capital(eta) | state_price(certificate) | zero.

    cost_of_capital: E[C'] >= (1 + r + eta) C with the period rate r.
    state_price: C <= sum_c q_c C'_c with q composed from a consistency
    certificate's weights. zero: only C = 0 is acceptable.
    """

    variant: str
    eta: Optional[float] = None
    certificate: Optional[ConsistencyCertificate] = None
    tree: Optional[ScenarioTree] = None

    def __post_init__(self):
        if self.variant == "cost_of_capital":
            if self.eta is None or self.eta < 0:
                raise BadLevel(f"eta must be >= 0, got {self.eta}")
        elif self.variant == "state_price":
            if self.certificate is None or self.tree is None:
                raise MissingCertificate(
                    "state_price financiability needs a certificate and its tree"
                )
        elif self.variant != "zero":
            raise BadLevel(f"unknown financiability variant {self.variant!r}")

    @staticmethod
    def cost_of_capital(eta: float) -> "FinanciabilitySpec":
        return FinanciabilitySpec("cost_of_capital", eta=eta)

    @staticmethod
    def state_price(
        certificate: ConsistencyCertificate, tree: ScenarioTree
    ) -> "FinanciabilitySpec":
        return FinanciabilitySpec(
            "state_price", certificate=certificate, tree=tree
        )

    @staticmethod
    def zero() -> "FinanciabilitySpec":
        return FinanciabilitySpec("zero")


def max_capital(
    spec: FinanciabilitySpec,
    payoff: Distributions,
    rate,
    node=None,
    horizon_index: Optional[int] = None,
):
    """Largest C_i the condition accepts for the given payoff distribution.

    The payoff is C'_{i+1} = (A' - L)_+, so atoms must be non-negative.
    For the state-price bound the distribution must carry node labels and
    ``node``/``horizon_index`` locate the period on the certificate tree.
    Never negative.

    Takes one distribution with one rate and node and returns a float, or
    DistributionRows with an array of rates and of nodes (row r is the
    period from ``node[r]`` with rate ``rate[r]``) and returns an array.
    For rows the first row the condition rejects raises, with the first
    error that row alone would raise.
    """
    rows, back = rows_of(payoff)
    n = len(rows.counts)
    low = rows.min()
    checks = [(low < -SLACK, lambda r: NegativePayoffAtom(f"capital payoff has atom {float(low[r])}"))]
    if spec.variant == "zero":
        capital = np.zeros(n)
    elif spec.variant == "cost_of_capital":
        denom = np.broadcast_to(1.0 + np.asarray(rate, dtype=float) + spec.eta, (n,))
        checks.append((denom <= 0, lambda r: BadRate(f"1 + r + eta = {float(denom[r])} must be positive")))
        with np.errstate(divide="ignore", invalid="ignore"):
            capital = rows.mean() / denom
    elif rows.labels is None or node is None or horizon_index is None:
        checks.append((np.ones(n, dtype=bool), lambda r: MissingCertificate(
            "state-price bound needs labeled payoff atoms and the period location"
        )))
        capital = np.zeros(n)
    else:
        nodes = np.broadcast_to(np.asarray(node, dtype=np.int64), (n,))
        q = _state_prices(spec, rows, nodes, horizon_index, checks)
        capital = sum_left_to_right(q * np.where(rows.mask, rows.values, 0.0))
    _raise_first(checks)
    return back(np.where(capital > 0.0, capital, 0.0))


def _raise_first(checks) -> None:
    """Raise at the first row failing any of ``checks`` (pairs of a
    per-row mask and a function of the row giving the error), with the
    error of the first check that row fails."""
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        r = int(failed.argmax())
        raise next(error(r) for mask, error in checks if mask[r])


def _state_prices(spec, payoff, nodes, horizon_index, checks):
    """Per atom the product of the certificate's weights along the path
    from the atom up to its row's node, multiplied from the atom upward
    (1 at padding). Appends to ``checks`` the row errors, in the order
    they are raised: a horizon before the node's date; an atom whose path
    meets a node without weights; an atom that is not a
    date-``horizon_index`` descendant of its row's node."""
    tree, cert = spec.tree, spec.certificate
    labels = payoff.labels
    steps = horizon_index - tree.date_idx[nodes]
    known = payoff.mask & (labels >= 0) & (labels < tree.n_nodes)
    cur = np.where(known, labels, 0)
    walks = known & (tree.date_idx[cur] == horizon_index) & (steps >= 0)[:, None]
    q = np.ones(labels.shape)
    through_bad = np.zeros(labels.shape, dtype=bool)
    for k in range(int(steps.max(initial=0))):
        moving = walks & (k < steps)[:, None]
        par = tree.parent[cur]
        np.multiply(q, cert.weights[cur], out=q, where=moving)
        through_bad |= moving & ~cert.consistent_at[par]
        np.copyto(cur, par, where=moving)
    descendant = walks & (cur == nodes[:, None])
    through_bad &= descendant
    stray = payoff.mask & ~descendant

    def lowest_unweighted(r: int) -> int:
        """The lowest node without weights on the path of row r's first
        atom whose path meets one."""
        m = int(tree.parent[labels[r, through_bad[r].argmax()]])
        while cert.consistent_at[m]:
            m = int(tree.parent[m])
        return m

    def name(node: int) -> str:
        """A node's config label; an id that names no node as is."""
        return repr(tree.labels[node]) if 0 <= node < tree.n_nodes else str(node)

    checks += [
        (steps < 0, lambda r: ValueError("target date precedes the node's date")),
        (through_bad.any(axis=1), lambda r: NumericalFailure(
            f"no weights at inconsistent node {name(lowest_unweighted(r))}"
        )),
        (stray.any(axis=1), lambda r: MissingCertificate(
            f"no state price for node {name(int(labels[r, stray[r].argmax()]))}"
        )),
    ]
    return q


# --- audits ------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityReport:
    max_deviation: float
    passed: bool


def audit_positive_homogeneity(
    spec: FinanciabilitySpec,
    payoffs: Sequence[DiscreteDistribution],
    scales: Sequence[float],
    rate: float = 0.0,
    node: Optional[int] = None,
    horizon_index: Optional[int] = None,
    tol: float = 1e-9,
) -> HomogeneityReport:
    """Check max_capital(lam * payoff) = lam * max_capital(payoff)."""
    worst = 0.0
    for payoff in payoffs:
        base = max_capital(spec, payoff, rate, node, horizon_index)
        for lam in scales:
            if lam < 0:
                raise BadLevel("homogeneity scales must be non-negative")
            scaled = max_capital(spec, payoff.scaled(lam), rate, node, horizon_index)
            worst = max(worst, abs(scaled - lam * base))
    return HomogeneityReport(worst, worst <= tol)


HOMOGENEITY_SCALES = (0.0, 0.5, 2.0)


def root_homogeneity_payoffs(
    spec: FinanciabilitySpec, tree: ScenarioTree
) -> List[DiscreteDistribution]:
    """Test payoffs for the positive-homogeneity audit over the root's
    first year (node ``tree.root``, horizon index of date 1).

    The state-price bound prices labeled atoms, so it gets a uniform
    ladder 1, 2, ..., k over the k date-1 states; the other variants
    ignore the states and get two fixed payoffs.
    """
    if spec.variant == "state_price":
        targets = tree.descendants_at(tree.root, tree.grid.index(1)).tolist()
        k = len(targets)
        return [
            DiscreteDistribution(
                tuple(float(i + 1) for i in range(k)),
                tuple(1.0 / k for _ in range(k)),
                tuple(targets),
            )
        ]
    return [
        DiscreteDistribution((3.0, 11.0), (0.25, 0.75)),
        DiscreteDistribution((0.0, 5.0), (0.5, 0.5)),
    ]


AUDIT_STATUSES = ("optimal", "vacuous", "unbounded", "by_construction")
"""The audit statuses, indexed by their int8 codes."""

OPTIMAL, VACUOUS, UNBOUNDED, BY_CONSTRUCTION = range(len(AUDIT_STATUSES))


@dataclass(frozen=True, eq=False)
class TradableAuditReport:
    """One audit (``kind`` "consistency" or "neutrality") as arrays over
    the inner nodes, indexed as the rates are: the status as an int8 code
    into ``AUDIT_STATUSES``, the optimum (NaN unless the status is
    optimal), the hurdle 1 + r + eta (NaN where the status is
    by_construction) and whether the node is flagged."""

    kind: str
    status: np.ndarray
    optimum: np.ndarray
    hurdle: np.ndarray
    flagged: np.ndarray

    @property
    def any_flagged(self) -> bool:
        return bool(self.flagged.any())


def period_rates_from_market(market: TradableSet, tree: ScenarioTree) -> np.ndarray:
    """Period rate r_{i,i+1} for every non-terminal node, read off the
    flagged bond at the node's annual ancestor: an array indexed by node
    id over the inner nodes (the ids before the horizon's)."""
    rates = np.empty(tree.n_nodes)
    for j, nodes in enumerate(tree.by_date[:-1]):
        if tree.grid.is_annual(j):
            rates[nodes] = market.period_rates(int(tree.grid.dates[j]))
        else:
            rates[nodes] = rates[tree.parent[nodes]]
    return rates[: tree.n_inner]


def flat_rates(tree: ScenarioTree, r: float) -> np.ndarray:
    """The rate ``r`` at every inner node, as ``period_rates_from_market``
    gives rates."""
    return np.full(tree.n_inner, float(r))


def _verdict(kind: str, outside, ray, positive, flat, hi, lo):
    """Per node the (status code, optimum) of an audit from its
    ``lp.cone_facts``, the optimum NaN unless the status is optimal.

    Both audits optimize the expected one-step payoff p.Yx of the
    unit-price admissible portfolios x (s.x = 1) with non-negative child
    payoffs Yx, the consistency audit its maximum and the neutrality
    audit its minimum. With z = Yx that is p.z over C with λ.z = 1, whose
    optimum is a ratio p.e/λ.e at an extreme ray e of C (Charnes & Cooper
    1962); p > 0, so p.e > 0 on every ray:

    - s outside the row space of Y: every z ∈ C has a unit-price
      portfolio, z = 0 too. The maximum is unbounded if C has a ray and
      0 if not; the minimum is 0.
    - no ray with λ.e > 0: no portfolio has unit price, both are vacuous.
    - otherwise the maximum is unbounded if a ray has λ.e <= 0 (adding it
      costs nothing) and the largest ratio if not; the minimum is the
      smallest ratio.
    """
    if kind == "neutrality":
        unbounded, optimum = False, np.where(outside, 0.0, lo)
    else:
        unbounded, optimum = np.where(outside, ray, flat), np.where(outside, 0.0, hi)
    status = np.where(
        ~(outside | positive), VACUOUS, np.where(unbounded, UNBOUNDED, OPTIMAL)
    ).astype(np.int8)
    return status, np.where(status == OPTIMAL, optimum, np.nan)


def tradable_cone_facts(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
):
    """What both tradable audits are decided from: ``lp.cone_facts`` of
    every inner node, (outside, ray, positive, flat, hi, lo) as arrays
    over the inner nodes, from one call per run of
    ``tree.sibling_groups`` (child count across dates). NumericalFailure
    is raised for the first failing node in child-count order, then in
    id order. None where ``spec`` makes both audits hold by construction
    (state_price and zero), which read no facts. One pass serves both
    audits."""
    if spec.variant in ("state_price", "zero"):
        return None
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    pay = restriction.restrict(market.payoffs)
    price = restriction.restrict(market.prices)
    n = tree.n_inner
    facts = tuple(np.empty(n, dtype=bool) for _ in range(4)) + (np.empty(n), np.empty(n))
    for group, kids in tree.sibling_groups():
        for column, values in zip(facts, lp.cone_facts(pay[kids], price[group], tree.prob[kids])):
            column[group] = values
    return facts


def _audit_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: np.ndarray,
    kind: str,
    facts,
) -> TradableAuditReport:
    """Each inner node's audit, decided by ``_verdict`` from ``facts``
    (``tradable_cone_facts``, computed here when None)."""
    n = tree.n_inner
    if spec.variant in ("state_price", "zero"):
        # Only C = 0 is acceptable under zero: adding a priced
        # self-financing payoff can never be financed, so zero is
        # consistent but not neutral.
        flagged = spec.variant == "zero" and kind == "neutrality"
        return TradableAuditReport(
            kind, np.full(n, BY_CONSTRUCTION, dtype=np.int8), np.full(n, np.nan),
            np.full(n, np.nan), np.full(n, flagged),
        )
    if facts is None:
        facts = tradable_cone_facts(spec, market, tree, restriction)
    status, optimum = _verdict(kind, *facts)
    hurdle = 1.0 + rates + spec.eta
    if kind == "consistency":
        beyond = optimum > hurdle + SLACK
    else:
        beyond = optimum < hurdle - SLACK
    flagged = np.where(status == OPTIMAL, beyond, status == UNBOUNDED)
    return TradableAuditReport(kind, status, optimum, hurdle, flagged)


def audit_consistency_with_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: np.ndarray,
    facts=None,
) -> TradableAuditReport:
    """Flag nodes where a self-financing payoff would be funded above its
    market price (expected step return above the period hurdle).
    ``facts`` may hold ``tradable_cone_facts`` of the same market, tree
    and restriction, to share one pass with the neutrality audit."""
    return _audit_tradables(spec, market, tree, restriction, rates, "consistency", facts)


def audit_neutrality_to_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: np.ndarray,
    facts=None,
) -> TradableAuditReport:
    """Flag nodes where some admissible self-financing portfolio earns an
    expected step return below the period hurdle. ``facts`` as for
    ``audit_consistency_with_tradables``."""
    return _audit_tradables(spec, market, tree, restriction, rates, "neutrality", facts)
