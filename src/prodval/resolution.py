"""Failure resolution by proportional write-down.

When the balance sheet fails at an annual date, all outstanding
liability cash flows are scaled down by just enough to remove the
insolvency: xi_i = min(lam L_i, lam A'_i + X^theta_i) / (lam L_i) and
lam_i = xi_i lam_{i-1} along each path, applied forward in time and
never scaled back up. Inflows at date i scale by lam_{i-1} (premiums
count in full before failure is declared), outflows by lam_i.

Illiquid assets cannot be scaled down, so the excess (1 - lam) share of
their inflows accumulates in a side position theta that pays out its
liquidation value at each annual date; those payouts count as resources
when the write-down factor is computed, and as extra inflows of the
scaled strategy.

Scaling the original production strategy by the factors turns it into a
production strategy under the full fulfillment condition for the
adjusted liabilities, with cost scaled by lam node by node; this module
builds that extension and re-validates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .conditions import (
    HOMOGENEITY_SCALES,
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    audit_positive_homogeneity,
    root_homogeneity_payoffs,
)
from .engine import (
    IlliquidPortfolio,
    LiabilitySpec,
    ProductionCostProcess,
    ValidationReport,
    validate_production_strategy,
)
from .errors import HomogeneityAuditFailed, InfeasibleAtNode
from .lattice import ScenarioTree
from .market import TradableSet
from .strategy import Strategy, accumulate_year, row_dots

TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ThetaPsiRecord:
    """Side position holding the non-written-down share of illiquid
    inflows: the (n_nodes, n_assets) assignment, and per node id the
    incoming excess and the payouts (zero off the annual nodes)."""

    assignment: np.ndarray
    inflows: np.ndarray  # (1 - lam) share arriving at each node
    payouts: np.ndarray  # X^theta at annual nodes


@dataclass
class AdjustmentResult:
    """The factors per annual node, and the adjusted flows, capital and
    terminal values as arrays indexed by node id."""

    xi: Dict[int, float]
    lam: Dict[int, float]
    adjusted_inflows: np.ndarray
    adjusted_outflows: np.ndarray
    theta: ThetaPsiRecord
    scaled_strategy: Strategy
    scaled_capital: np.ndarray
    scaled_terminal: np.ndarray
    validation: Optional[ValidationReport] = None
    cost_identity_max_diff: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.validation is not None
            and self.validation.ok
            and self.cost_identity_max_diff <= TOL
        )


def _annual_ancestors(tree: ScenarioTree) -> Tuple[np.ndarray, np.ndarray]:
    """Per node its annual ancestor at floor(t), the node itself at an
    annual date, and the one at ceil(t) - 1, -1 at the root."""
    floor = np.arange(tree.n_nodes)
    prev = np.full(tree.n_nodes, -1)
    for j, nodes in enumerate(tree.by_date[1:], 1):
        prev[nodes] = floor[tree.parent[nodes]]
        if not tree.grid.is_annual(j):
            floor[nodes] = prev[nodes]
    return floor, prev


def _lam_prev(lam: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """lam_{ceil(t-1)} per node: the factor fixed one annual date back
    for annual nodes, at the enclosing year start for interior ones, and
    1 at the root."""
    return np.where(prev >= 0, lam[prev], 1.0)


def _annual_nodes(tree: ScenarioTree) -> List[int]:
    return [n for i in range(tree.grid.horizon + 1) for n in tree.nodes_at(i).tolist()]


def _sweep(
    psi: IlliquidPortfolio,
    lam: np.ndarray,
    prev: np.ndarray,
    market: TradableSet,
    tree: ScenarioTree,
    policy_index: Optional[int],
    cost: Optional[ProductionCostProcess] = None,
) -> Tuple[np.ndarray, ThetaPsiRecord]:
    """Build theta forward, one year at a time; with ``cost``, the
    write-down factors along with it.

    ``lam`` holds a factor per node id. For year i the excess share
    (1 - lam_i) of the illiquid inflows in (i, i+1] accumulates as in
    ``accumulate_year``, and the payouts X^theta at the date-(i+1) nodes
    follow. They depend only on lam at date i, so with ``cost`` the
    factors at date i+1 are exact at that point: xi = min(lam L,
    lam A' + X^theta) / (lam L) from the date's balance sheet rows (1
    where nothing is owed or lam is already 0), and xi times the parent
    year's factor goes into ``lam`` for the next year to read; ``lam``
    then starts at 1. Without ``cost`` it is taken as given. Returns xi
    (1 off the annual dates) and theta.
    """
    if cost is not None:
        _require_nonnegative_cost(cost)
    tree.require_per_node(("illiquid.inflows", psi.inflows))
    n = tree.n_nodes
    psi_in = psi.inflows
    xi = np.ones(n)
    inflows = np.zeros(n)
    assignment = np.zeros((n, market.n_assets))
    payouts = np.zeros(n)
    inflows[0] = (1.0 - 1.0) * psi_in[0]
    payouts[0] = inflows[0]
    for i in range(tree.grid.horizon):
        ends = tree.nodes_at(i + 1)
        year = slice(tree.date_start[tree.grid.index(i) + 1], tree.slice_at(i + 1).stop)
        inflows[year] = (1.0 - _lam_prev(lam, prev[year])) * psi_in[year]
        accumulate_year(market, tree, i, inflows, assignment, policy_index)
        held = assignment[tree.parent[ends]]
        payouts[ends] = inflows[ends] + row_dots(held, market.payoffs[ends])
        if cost is None:
            continue
        assets, liabilities = cost.sheet.assets[ends], cost.sheet.liabilities[ends]
        before = lam[prev[ends]]
        owed = before * liabilities
        resources = before * assets + payouts[ends]
        # Rows with nothing owed may divide by zero; they keep factor 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(resources < owed, resources, owed) / owed
        xi[ends] = np.where((liabilities <= TOL) | (before <= 0.0), 1.0, f)
        lam[ends] = xi[ends] * before
    return xi, ThetaPsiRecord(assignment, inflows, payouts)


def adjustment_factors(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    cost: ProductionCostProcess,
    market: TradableSet,
    tree: ScenarioTree,
    policy_index: Optional[int] = None,
) -> Tuple[Dict[int, float], Dict[int, float], ThetaPsiRecord]:
    """Write-down factors xi and lam per annual node, and the theta
    position, from one exact forward sweep over the annual dates."""
    _, prev = _annual_ancestors(tree)
    lam = np.ones(tree.n_nodes)
    xi, theta = _sweep(psi, lam, prev, market, tree, policy_index, cost)
    annual = _annual_nodes(tree)
    return _on(annual, xi), _on(annual, lam), theta


def _on(nodes: List[int], values: np.ndarray) -> Dict[int, float]:
    """node -> value for the given nodes, in their order."""
    return dict(zip(nodes, values[nodes].tolist()))


def _require_nonnegative_cost(cost: ProductionCostProcess) -> None:
    if cost.infeasible_nodes:
        raise InfeasibleAtNode(
            f"cannot adjust an infeasible cost process, nodes {cost.infeasible_nodes}"
        )
    bad = np.flatnonzero(cost.values < -TOL).tolist()
    if bad:
        raise InfeasibleAtNode(
            "write-down resolution needs non-negative production cost "
            f"(mode B); negative at nodes {bad}"
        )


def extend_to_full_fulfillment(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    cost: ProductionCostProcess,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: np.ndarray,
    policy_index: Optional[int] = None,
) -> AdjustmentResult:
    """Scale the produced strategy into a full-fulfillment production
    strategy for the adjusted liabilities.

    phi-tilde holds lam_{floor(t)} times the original portfolios, the
    capital schedule and terminal values scale by lam, the illiquid
    inflows split into the scaled share (used in production) and the
    excess share (paid out through theta as extra annual inflows).
    Inflows scale by lam_{ceil(t-1)}, outflows by lam_{floor(t)}. The
    result re-validates under the full fulfillment condition and records
    the worst deviation from the scaled-cost identity
    vbar_adjusted = lam * vbar.
    """
    _check_homogeneity(financiability, tree, rates)
    tree.require_per_node(*liab.sections())
    floor, prev = _annual_ancestors(tree)
    lam = np.ones(tree.n_nodes)
    xi, theta = _sweep(psi, lam, prev, market, tree, policy_index, cost)
    lam_floor = lam[floor]
    lam_prev = _lam_prev(lam, prev)

    scaled_strategy = Strategy(
        tree, market.n_assets, lam_floor[:, None] * cost.strategy.assignment
    )
    scaled_capital = np.where(cost.funded, lam_floor * cost.capital, 0.0)
    leaves = tree.by_date[-1]
    scaled_terminal = np.zeros(tree.n_nodes)
    scaled_terminal[leaves] = lam[leaves] * cost.values[leaves]
    adj_liab = LiabilitySpec(
        lam_floor * liab.outflows, lam_prev * liab.inflows, lam_floor * liab.terminal
    )
    validation = validate_production_strategy(
        scaled_strategy,
        IlliquidPortfolio(lam_prev * psi.inflows),
        CapitalSchedule(scaled_capital),
        adj_liab,
        FulfillmentSpec.full(),
        financiability,
        market,
        tree,
        rates,
        mode="B",
        terminal=scaled_terminal,
        extra_annual_inflows=theta.payouts,
    )
    annual = _annual_nodes(tree)
    # The annual nodes before the horizon.
    nodes = annual[: len(annual) - len(leaves)]
    got = row_dots(scaled_strategy.assignment[nodes], market.prices[nodes])
    got -= scaled_capital[nodes]
    want = lam[nodes] * cost.values[nodes]
    diff = np.abs(got - want)
    return AdjustmentResult(
        xi=_on(annual, xi),
        lam=_on(annual, lam),
        adjusted_inflows=adj_liab.inflows,
        adjusted_outflows=adj_liab.outflows,
        theta=theta,
        scaled_strategy=scaled_strategy,
        scaled_capital=scaled_capital,
        scaled_terminal=scaled_terminal,
        validation=validation,
        # The largest deviation; NaN never wins, as in a running max().
        cost_identity_max_diff=float(np.where(diff > 0.0, diff, 0.0).max(initial=0.0)),
    )


def _check_homogeneity(
    financiability: FinanciabilitySpec,
    tree: ScenarioTree,
    rates: np.ndarray,
) -> None:
    """The extension scales capital by lam, which is only admissible for
    positively homogeneous financiability conditions."""
    report = audit_positive_homogeneity(
        financiability,
        root_homogeneity_payoffs(financiability, tree),
        HOMOGENEITY_SCALES,
        rate=float(rates[tree.root]),
        node=tree.root,
        horizon_index=tree.grid.index(1),
    )
    if not report.passed:
        raise HomogeneityAuditFailed(
            f"financiability condition is not positively homogeneous "
            f"(max deviation {report.max_deviation})"
        )
