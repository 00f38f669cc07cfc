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
per node, a small LP maximizes (or minimizes) the expected payoff of
unit-price admissible portfolios with non-negative child payoffs and
compares it against the period hurdle 1 + r + eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from . import lp
from .errors import (
    BadLevel,
    BadRate,
    MissingCertificate,
    NegativePayoffAtom,
    NumericalFailure,
)
from .lattice import ScenarioTree
from .market import (
    ConsistencyCertificate,
    RestrictionSet,
    TradableSet,
    compose_state_prices,
)
from .risk import (
    DiscreteDistribution,
    DistributionRows,
    RiskMeasureSpec,
    apply_measure,
    apply_measure_rows,
    lower_quantile,
    lower_quantile_rows,
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

    def required_buffer(self, surplus: DiscreteDistribution) -> float:
        """Smallest deterministic add-on c making ``surplus + c`` satisfy
        the condition (the effective rho of the surplus).

        All variants are translation-solvable: full and risk_measure via
        translation invariance, probability via the quantile identity
        P[Y + c >= 0] >= p iff c >= q_p(-Y).
        """
        if self.variant == "full":
            return -surplus.min()
        if self.variant == "risk_measure":
            return apply_measure(self.measure, surplus)
        if self.p == 1.0:
            return -surplus.min()
        return lower_quantile(surplus.negated(), self.p)

    def required_buffer_rows(self, surplus: DistributionRows) -> np.ndarray:
        """``required_buffer`` of every row."""
        if self.variant == "full" or (self.variant == "probability" and self.p == 1.0):
            return -surplus.min()
        if self.variant == "risk_measure":
            return apply_measure_rows(self.measure, surplus)
        return lower_quantile_rows(surplus.negated(), self.p)


def fulfillment_satisfied(spec: FulfillmentSpec, surplus: DiscreteDistribution) -> bool:
    """Decide the condition on the year-end surplus distribution.

    full: min >= 0; risk_measure: rho <= 0; probability: P[>= 0] >= p.
    Comparisons carry a 1e-9 slack so boundary constructions pass.
    """
    if spec.variant == "probability":
        return surplus.prob_at_least(-SLACK) >= spec.p - 1e-12
    return spec.required_buffer(surplus) <= SLACK


def fulfillment_satisfied_rows(spec: FulfillmentSpec, surplus: DistributionRows) -> np.ndarray:
    """``fulfillment_satisfied`` of every row."""
    if spec.variant == "probability":
        return surplus.prob_at_least(-SLACK) >= spec.p - 1e-12
    return spec.required_buffer_rows(surplus) <= SLACK


@dataclass(frozen=True)
class CapitalSchedule:
    """Non-negative capital per annual node."""

    values: Mapping[int, float]

    def __post_init__(self):
        for node, c in self.values.items():
            if c < 0:
                raise ValueError(f"negative capital {c} at node {node}")

    def at(self, node: int) -> float:
        return float(self.values.get(node, 0.0))


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
    payoff: DiscreteDistribution,
    rate: float,
    node: Optional[int] = None,
    horizon_index: Optional[int] = None,
) -> float:
    """Largest C_i the condition accepts for the given payoff distribution.

    The payoff is C'_{i+1} = (A' - L)_+, so atoms must be non-negative.
    For the state-price bound the distribution must carry node labels and
    ``node``/``horizon_index`` locate the period on the certificate tree.
    Never negative.
    """
    if min(payoff.values) < -SLACK:
        raise NegativePayoffAtom(f"capital payoff has atom {min(payoff.values)}")
    if spec.variant == "zero":
        return 0.0
    if spec.variant == "cost_of_capital":
        denom = 1.0 + rate + spec.eta
        if denom <= 0:
            raise BadRate(f"1 + r + eta = {denom} must be positive")
        return max(0.0, payoff.mean() / denom)
    if payoff.labels is None or node is None or horizon_index is None:
        raise MissingCertificate(
            "state-price bound needs labeled payoff atoms and the period location"
        )
    q = compose_state_prices(spec.certificate, spec.tree, node, horizon_index)
    total = 0.0
    for value, label in zip(payoff.values, payoff.labels):
        if label not in q:
            raise MissingCertificate(f"no state price for node {label}")
        total += q[label] * value
    return max(0.0, total)


def max_capital_rows(
    spec: FinanciabilitySpec,
    payoff: DistributionRows,
    rates: np.ndarray,
    nodes: np.ndarray,
    horizon_index: int,
) -> np.ndarray:
    """``max_capital`` of every row; row r is the payoff of the period
    from ``nodes[r]`` with rate ``rates[r]``, its atoms labeled.

    A row ``max_capital`` would reject is handed to it, so the first
    such row raises that function's error.
    """
    if not len(nodes):
        return np.zeros(0)
    rejected = payoff.min() < -SLACK
    if spec.variant == "zero":
        capital = np.zeros(len(nodes))
    elif spec.variant == "cost_of_capital":
        denom = 1.0 + rates + spec.eta
        rejected |= denom <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            capital = payoff.mean() / denom
    else:
        q, inconsistent = _state_price_rows(spec, payoff, nodes, horizon_index)
        rejected |= inconsistent
        capital = sum_left_to_right(q * np.where(payoff.mask, payoff.values, 0.0))
    if rejected.any():
        r = int(rejected.argmax())
        max_capital(spec, payoff.row(r), float(rates[r]), int(nodes[r]), horizon_index)
    return np.where(capital > 0.0, capital, 0.0)


def _state_price_rows(spec, payoff, nodes, horizon_index):
    """Per atom the product of the certificate's weights from the atom up
    to its row's node (``compose_state_prices``), 0 at padding; and per
    row whether that path meets a node without weights."""
    tree, cert = spec.tree, spec.certificate
    mask = payoff.mask
    atoms = payoff.labels[mask]
    steps = horizon_index - int(tree.date_idx[nodes[0]])
    weight = np.zeros(tree.n_nodes)
    bad = np.zeros(tree.n_nodes, dtype=bool)
    q = np.ones(len(atoms))
    inconsistent = np.zeros(len(atoms), dtype=bool)
    cur = atoms
    for _ in range(steps):
        par = tree.parent[cur]
        # A set, not np.unique, which imports numpy.ma (about 2 MB of
        # resident memory) on first use.
        for m in set(par.tolist()):
            verdict = cert.verdicts[m]
            if verdict.consistent:
                weight[list(verdict.weights)] = list(verdict.weights.values())
            else:
                bad[m] = True
        q = q * weight[cur]
        inconsistent |= bad[par]
        cur = par
    out = np.zeros(mask.shape)
    out[mask] = q
    row_bad = np.zeros(mask.shape, dtype=bool)
    row_bad[mask] = inconsistent
    return out, row_bad.any(axis=1)


def financiability_holds(
    spec: FinanciabilitySpec,
    capital: float,
    payoff: DiscreteDistribution,
    rate: float,
    node: Optional[int] = None,
    horizon_index: Optional[int] = None,
) -> bool:
    """C_i is acceptable iff it does not exceed the maximal capital.

    Valid because every variant is monotone: a smaller capital with the
    same payoff stays acceptable, matching the definition's property (b).
    """
    if capital < 0:
        return False
    return capital <= max_capital(spec, payoff, rate, node, horizon_index) + SLACK


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
        targets = tree.descendants_at(tree.root, tree.grid.index(1))
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


@dataclass(frozen=True)
class NodeAudit:
    status: str  # "optimal" | "vacuous" | "unbounded" | "by_construction"
    optimum: Optional[float]
    hurdle: Optional[float]
    flagged: bool


@dataclass(frozen=True)
class TradableAuditReport:
    kind: str  # "consistency" | "neutrality"
    per_node: Dict[int, NodeAudit]

    @property
    def flagged(self) -> bool:
        return any(a.flagged for a in self.per_node.values())


def period_rates_from_market(market: TradableSet, tree: ScenarioTree) -> Dict[int, float]:
    """Period rate r_{i,i+1} for every non-terminal node, read off the
    flagged bond at the node's annual ancestor."""
    rates = np.empty(tree.n_nodes)
    for j in range(len(tree.grid.dates) - 1):
        nodes = np.asarray(tree.by_date[j], dtype=np.int64)
        if tree.grid.is_annual(j):
            rates[nodes] = [market.period_rate(n) for n in nodes.tolist()]
        else:
            rates[nodes] = rates[tree.parent[nodes]]
    inner = len(tree.parent) - len(tree.by_date[-1])
    return dict(enumerate(rates[:inner].tolist()))


def flat_rates(tree: ScenarioTree, r: float) -> Dict[int, float]:
    return {
        node: r for node in range(tree.n_nodes) if not tree.is_leaf(node)
    }


def _step_return_lp(
    market: TradableSet,
    tree: ScenarioTree,
    restriction: RestrictionSet,
    node: int,
    maximize: bool,
):
    """Optimize the expected one-step payoff of unit-price admissible
    portfolios with non-negative child payoffs."""
    B = restriction.matrix()
    children = tree.children[node]
    payoffs = [B.T @ market.payoff(c) for c in children]
    probs = [tree.prob[c] for c in children]
    s = B.T @ market.price(node)
    c_vec = sum(p * y for p, y in zip(probs, payoffs))
    sign = -1.0 if maximize else 1.0
    return lp.solve_lp(
        c=sign * c_vec,
        A_eq=s.reshape(1, -1),
        b_eq=np.array([1.0]),
        A_ub=-np.array(payoffs),
        b_ub=np.zeros(len(children)),
        nonneg=False,
    ), sign


def _audit_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: Mapping[int, float],
    kind: str,
) -> TradableAuditReport:
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    per_node: Dict[int, NodeAudit] = {}
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        if spec.variant == "state_price":
            per_node[node] = NodeAudit("by_construction", None, None, False)
            continue
        if spec.variant == "zero":
            # Only C = 0 is acceptable: adding a priced self-financing
            # payoff can never be financed, so zero is consistent but
            # not neutral.
            flagged = kind == "neutrality"
            per_node[node] = NodeAudit("by_construction", None, None, flagged)
            continue
        hurdle = 1.0 + rates[node] + spec.eta
        res, sign = _step_return_lp(
            market, tree, restriction, node, maximize=(kind == "consistency")
        )
        if res.status == "infeasible":
            per_node[node] = NodeAudit("vacuous", None, hurdle, False)
            continue
        if res.status == "unbounded":
            if kind == "neutrality":
                raise NumericalFailure(
                    f"neutrality LP unexpectedly unbounded at node {node}"
                )
            per_node[node] = NodeAudit("unbounded", None, hurdle, True)
            continue
        optimum = sign * res.objective
        if kind == "consistency":
            flagged = optimum > hurdle + SLACK
        else:
            flagged = optimum < hurdle - SLACK
        per_node[node] = NodeAudit("optimal", optimum, hurdle, flagged)
    return TradableAuditReport(kind, per_node)


def audit_consistency_with_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: Mapping[int, float],
) -> TradableAuditReport:
    """Flag nodes where a self-financing payoff would be funded above its
    market price (expected step return above the period hurdle)."""
    return _audit_tradables(spec, market, tree, restriction, rates, "consistency")


def audit_neutrality_to_tradables(
    spec: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet],
    rates: Mapping[int, float],
) -> TradableAuditReport:
    """Flag nodes where some admissible self-financing portfolio earns an
    expected step return below the period hurdle."""
    return _audit_tradables(spec, market, tree, restriction, rates, "neutrality")
