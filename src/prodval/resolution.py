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

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

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
from .errors import (
    FixedPointDivergence,
    HomogeneityAuditFailed,
    InfeasibleAtNode,
)
from .lattice import ScenarioTree
from .market import TradableSet
from .strategy import Strategy, accumulate_within_years, strategy_value

TOL = 1e-9


@dataclass(frozen=True)
class ThetaPsiRecord:
    """Side position holding the non-written-down share of illiquid
    inflows: per-node assignments, incoming excess, and annual payouts."""

    assignment: Dict[int, Tuple[float, ...]]
    inflows: Dict[int, float]  # (1 - lam) share arriving at each node
    payouts: Dict[int, float]  # X^theta at annual nodes


@dataclass
class AdjustmentResult:
    xi: Dict[int, float]
    lam: Dict[int, float]
    adjusted_inflows: Dict[int, float]
    adjusted_outflows: Dict[int, float]
    theta: ThetaPsiRecord
    scaled_strategy: Strategy
    scaled_capital: Dict[int, float]
    scaled_terminal: Dict[int, float]
    validation: Optional[ValidationReport] = None
    cost_identity_max_diff: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.validation is not None
            and self.validation.ok
            and self.cost_identity_max_diff <= TOL
        )


def _lam_prev(tree: ScenarioTree, lam: Mapping[int, float], node: int) -> float:
    """lam_{ceil(t-1)} at the node: the factor fixed one annual date back
    for annual nodes, at the enclosing year start for interior ones."""
    t = tree.date_of(node)
    if t.denominator == 1:
        i = int(t)
        if i == 0:
            return 1.0
        return lam[tree.ancestor_at(node, tree.grid.index(i - 1))]
    i = math.floor(t)
    return lam[tree.ancestor_at(node, tree.grid.index(i))]


def _lam_floor(tree: ScenarioTree, lam: Mapping[int, float], node: int) -> float:
    t = tree.date_of(node)
    i = math.floor(t)
    return lam[tree.ancestor_at(node, tree.grid.index(i))]


def theta_psi_strategy(
    psi: IlliquidPortfolio,
    lam: Mapping[int, float],
    market: TradableSet,
    tree: ScenarioTree,
    policy_index: Optional[int] = None,
) -> ThetaPsiRecord:
    """Accumulate the excess illiquid inflows and pay everything out at
    each annual date.

    The interim balance is invested in the period's risk-free bond unless
    ``policy_index`` picks another tradable. The annual payout is the
    position's full liquidation value (price plus its own inflows) plus
    the excess arriving at that date.
    """
    inflows: Dict[int, float] = {}
    for node in range(tree.n_nodes):
        scale = 1.0 - _lam_prev(tree, lam, node)
        inflows[node] = scale * psi.z(node)
    assignment = accumulate_within_years(market, tree, inflows.get, policy_index)
    payouts: Dict[int, float] = {}
    for i in range(tree.grid.horizon + 1):
        for node in tree.nodes_at(i):
            payouts[node] = inflows[node]
            parent = int(tree.parent[node])
            if parent >= 0:
                held = np.asarray(assignment[parent], dtype=float)
                payouts[node] += float(held @ market.payoff(node))
    return ThetaPsiRecord(assignment, inflows, payouts)


def adjustment_factors(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    cost: ProductionCostProcess,
    market: TradableSet,
    tree: ScenarioTree,
    policy_index: Optional[int] = None,
    max_iter: int = 100,
    tol: float = 1e-12,
) -> Tuple[Dict[int, float], Dict[int, float], ThetaPsiRecord]:
    """Write-down factors xi and lam per annual node, with the theta
    position resolved by fixed-point iteration from lam = 1.

    The excess payouts X^theta at a date depend only on factors at
    earlier dates, so each pass extends correctness one failure date
    further and the iteration converges within the number of years.
    """
    _require_nonnegative_cost(cost)
    T = tree.grid.horizon
    annual_nodes = [n for i in range(T + 1) for n in tree.nodes_at(i)]
    lam = {n: 1.0 for n in annual_nodes}
    xi: Dict[int, float] = {n: 1.0 for n in tree.nodes_at(0)}
    theta = theta_psi_strategy(psi, lam, market, tree, policy_index)
    for _ in range(max_iter):
        new_lam = {n: 1.0 for n in tree.nodes_at(0)}
        new_xi = {n: 1.0 for n in tree.nodes_at(0)}
        for i in range(1, T + 1):
            for node in tree.nodes_at(i):
                prev = new_lam[tree.ancestor_at(node, tree.grid.index(i - 1))]
                row = cost.rows[node]
                if row.liabilities <= TOL or prev <= 0.0:
                    f = 1.0
                else:
                    resources = prev * row.assets + theta.payouts[node]
                    f = min(prev * row.liabilities, resources) / (
                        prev * row.liabilities
                    )
                new_xi[node] = f
                new_lam[node] = f * prev
        drift = max(abs(new_lam[n] - lam[n]) for n in annual_nodes)
        lam, xi = new_lam, new_xi
        theta = theta_psi_strategy(psi, lam, market, tree, policy_index)
        if drift <= tol:
            return xi, lam, theta
    raise FixedPointDivergence(
        f"write-down factors did not settle within {max_iter} passes"
    )


def _require_nonnegative_cost(cost: ProductionCostProcess) -> None:
    if cost.infeasible_nodes:
        raise InfeasibleAtNode(
            f"cannot adjust an infeasible cost process, nodes {cost.infeasible_nodes}"
        )
    bad = [n for n, v in cost.values.items() if v < -TOL]
    if bad:
        raise InfeasibleAtNode(
            "write-down resolution needs non-negative production cost "
            f"(mode B); negative at nodes {bad}"
        )


def adjusted_liability(
    liab: LiabilitySpec,
    lam: Mapping[int, float],
    tree: ScenarioTree,
) -> LiabilitySpec:
    """Scale inflows by lam_{ceil(t-1)} and outflows by lam_{floor(t)}."""
    inflows = {
        n: _lam_prev(tree, lam, n) * v for n, v in liab.inflows.items()
    }
    outflows = {
        n: _lam_floor(tree, lam, n) * v for n, v in liab.outflows.items()
    }
    terminal = {
        n: _lam_floor(tree, lam, n) * v for n, v in liab.terminal.items()
    }
    return LiabilitySpec(outflows, inflows, terminal)


def extend_to_full_fulfillment(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    cost: ProductionCostProcess,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Mapping[int, float],
    policy_index: Optional[int] = None,
) -> AdjustmentResult:
    """Scale the produced strategy into a full-fulfillment production
    strategy for the adjusted liabilities.

    phi-tilde holds lam_{floor(t)} times the original portfolios, the
    capital schedule and terminal values scale by lam, the illiquid
    inflows split into the scaled share (used in production) and the
    excess share (paid out through theta as extra annual inflows). The
    result re-validates under the full fulfillment condition and records
    the worst deviation from the scaled-cost identity
    vbar_adjusted = lam * vbar.
    """
    _check_homogeneity(financiability, tree, rates)
    xi, lam, theta = adjustment_factors(
        liab, psi, cost, market, tree, policy_index
    )
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1

    lam_floor = np.array([_lam_floor(tree, lam, n) for n in range(tree.n_nodes)])
    scaled_strategy = Strategy(
        tree, market.n_assets, lam_floor[:, None] * cost.strategy.assignment
    )
    scaled_capital = {
        n: _lam_floor(tree, lam, n) * c for n, c in cost.capital.items()
    }
    scaled_terminal = {
        n: lam[n] * cost.values[n] for n in tree.by_date[J]
    }
    adj_liab = adjusted_liability(liab, lam, tree)
    adj_psi = IlliquidPortfolio(
        {
            n: _lam_prev(tree, lam, n) * v
            for n, v in psi.inflows.items()
        }
    )
    validation = validate_production_strategy(
        scaled_strategy,
        adj_psi,
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
    worst = 0.0
    for i in range(T):
        for node in tree.nodes_at(i):
            got = strategy_value(scaled_strategy, market, node) - scaled_capital.get(
                node, 0.0
            )
            want = lam[node] * cost.values[node]
            worst = max(worst, abs(got - want))
    return AdjustmentResult(
        xi=xi,
        lam=lam,
        adjusted_inflows=dict(adj_liab.inflows),
        adjusted_outflows=dict(adj_liab.outflows),
        theta=theta,
        scaled_strategy=scaled_strategy,
        scaled_capital=scaled_capital,
        scaled_terminal=scaled_terminal,
        validation=validation,
        cost_identity_max_diff=worst,
    )


def _check_homogeneity(
    financiability: FinanciabilitySpec,
    tree: ScenarioTree,
    rates: Mapping[int, float],
) -> None:
    """The extension scales capital by lam, which is only admissible for
    positively homogeneous financiability conditions."""
    report = audit_positive_homogeneity(
        financiability,
        root_homogeneity_payoffs(financiability, tree),
        HOMOGENEITY_SCALES,
        rate=rates[tree.root],
        node=tree.root,
        horizon_index=tree.grid.index(1),
    )
    if not report.passed:
        raise HomogeneityAuditFailed(
            f"financiability condition is not positively homogeneous "
            f"(max deviation {report.max_deviation})"
        )
