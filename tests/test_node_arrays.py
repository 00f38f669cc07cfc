"""Per-node inputs are read-only float arrays indexed by node id.

The holders (LiabilitySpec, IlliquidPortfolio, CashflowProcess,
CapitalSchedule) check their values when built and name the first bad
node; the entry points that meet a tree check each array's length and
name its section. The cost identities of the illiquid replica shift and
the short position come out as arrays with the bits of the per-node
loops they replaced.
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prodval.engine
from prodval.cli import _engine_rates
from prodval.conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    period_rates_from_market,
)
from prodval.config import financiability_of, load_config
from prodval.engine import (
    IlliquidPortfolio,
    LiabilitySpec,
    backward_value,
    illiquid_replica_shift,
    validate_production_strategy,
)
from prodval.errors import DimensionMismatch, InteriorFlowsPresent
from prodval.market import check_consistency
from prodval.resolution import extend_to_full_fulfillment
from prodval.risk import RiskMeasureSpec
from prodval.solvency import RateCurve, multi_period_solvency
from prodval.strategy import (
    CashflowProcess,
    short_position_cashflows,
    stopped,
    strategy_value,
)

from util import random_paying_strategy, random_stop, random_tree, state_price_market

CONFIGS = Path(__file__).parent.parent / "configs"


def two_point():
    """Node ids: root 0, mid 1, lo 2, hi 3."""
    return load_config(str(CONFIGS / "two_point.json"))


def zeros(n=4):
    return np.zeros(n)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: LiabilitySpec([0.0, 0.0, math.nan, 1.0], zeros(), zeros()),
            ValueError,
            "liability outflow at node 2 must be finite",
        ),
        (
            lambda: LiabilitySpec(zeros(), [0.0, -1.0, -2.0, 0.0], zeros()),
            ValueError,
            r"negative liability inflow -1\.0 at node 1",
        ),
        (
            lambda: LiabilitySpec(zeros(), zeros(), [0.0, 0.0, -5.0, math.inf]),
            ValueError,
            "terminal value at node 3 must be finite",
        ),
        (
            lambda: IlliquidPortfolio([0.0, 0.0, 0.0, -0.5]),
            ValueError,
            r"negative illiquid inflow -0\.5 at node 3",
        ),
        (
            lambda: CashflowProcess(zeros(), [0.0, -math.inf, 0.0, 0.0]),
            ValueError,
            "outflow at node 1 must be finite",
        ),
        (
            lambda: LiabilitySpec(np.zeros((4, 1)), zeros(), zeros()),
            DimensionMismatch,
            "liability outflow must be a 1-D array indexed by node id",
        ),
    ],
    ids=["nan", "negative", "terminal_inf", "illiquid", "cashflow_inf", "two_d"],
)
def test_holders_name_the_first_bad_node(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_holders_copy_and_freeze_their_arrays():
    outflows = np.array([0.0, 0.0, 80.0, 120.0])
    liab = LiabilitySpec(outflows, zeros(), [0.0, 0.0, -3.0, 0.0])
    outflows[2] = 1.0
    assert liab.outflows.tolist() == [0.0, 0.0, 80.0, 120.0]
    assert liab.terminal.dtype == float
    for arr in (liab.outflows, liab.inflows, liab.terminal, IlliquidPortfolio(zeros()).inflows):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _backward(problem, liab, psi):
    return backward_value(
        liab, psi, problem.engine, problem.fulfillment, financiability_of(problem),
        problem.market, problem.tree, _engine_rates(problem),
    )


@pytest.mark.parametrize("length", [3, 5])
@pytest.mark.parametrize(
    "section", ["liability.outflows", "liability.inflows", "liability.terminal",
                "illiquid.inflows"]
)
def test_backward_value_names_the_section_of_the_wrong_length(section, length):
    problem = two_point()
    liab, psi = problem.liability, problem.illiquid
    wrong = np.zeros(length)
    if section == "illiquid.inflows":
        psi = IlliquidPortfolio(wrong)
    else:
        liab = replace(liab, **{section.split(".")[1]: wrong})
    with pytest.raises(
        DimensionMismatch, match=rf"^{re.escape(section)} has {length} entries for 4 nodes$"
    ):
        _backward(problem, liab, psi)


def test_validation_solvency_and_adjust_check_lengths():
    problem = two_point()
    tree, market = problem.tree, problem.market
    rates = _engine_rates(problem)
    fin = financiability_of(problem)
    cost = _backward(problem, problem.liability, problem.illiquid)
    capital = np.zeros(4)
    capital[0] = cost.capital[0]
    args = (cost.strategy, problem.illiquid, CapitalSchedule(capital), problem.liability,
            problem.fulfillment, fin, market, tree, rates)
    assert validate_production_strategy(*args).ok
    with pytest.raises(DimensionMismatch, match="^capital has 2 entries for 4 nodes$"):
        validate_production_strategy(*args[:2], CapitalSchedule(zeros(2)), *args[3:])
    with pytest.raises(DimensionMismatch, match="^terminal has 5 entries for 4 nodes$"):
        validate_production_strategy(*args, terminal=zeros(5))
    with pytest.raises(
        DimensionMismatch, match="^extra_annual_inflows has 3 entries for 4 nodes$"
    ):
        validate_production_strategy(*args, extra_annual_inflows=zeros(3))
    short = LiabilitySpec(zeros(3), zeros(3), zeros(3))
    with pytest.raises(DimensionMismatch, match="^liability.outflows has 3 entries for 4 nodes$"):
        multi_period_solvency(
            short, RateCurve.from_market(market, tree), 0.06, RiskMeasureSpec("full"), 3, tree
        )
    with pytest.raises(DimensionMismatch, match="^illiquid.inflows has 6 entries for 4 nodes$"):
        extend_to_full_fulfillment(
            problem.liability, IlliquidPortfolio(zeros(6)), cost, fin, market, tree, rates
        )
    with pytest.raises(DimensionMismatch, match="^outflow has 3 entries for 4 nodes$"):
        short_position_cashflows(
            cost.strategy, set(tree.by_date[-1]), market, tree, CashflowProcess(zeros(), zeros(3))
        )


def test_solvency_names_the_lowest_interior_node_with_a_flow():
    problem = two_point()
    tree = problem.tree
    liab = LiabilitySpec(zeros(), [0.0, 2.0, 0.0, 0.0], zeros())
    with pytest.raises(InteriorFlowsPresent, match=r"^cash flow at interior date 1/2 \(node 1\)$"):
        multi_period_solvency(
            liab, RateCurve.from_market(problem.market, tree), 0.06, RiskMeasureSpec("full"),
            3, tree,
        )


def test_replica_shift_inflows_and_capital_keep_per_node_bits(monkeypatch):
    """The illiquid inflows and the raised capital of the shift hold, at
    every node, the bits of the per-node dot products with the static
    position."""
    rng = np.random.default_rng(5)
    tree = random_tree(rng, years=2, interior_per_year=2)
    market, _ = state_price_market(rng, tree, n_risky=2)
    fin = FinanciabilitySpec.state_price(check_consistency(market, tree), tree)
    rates = period_rates_from_market(market, tree)
    liab = LiabilitySpec(rng.uniform(0.0, 5.0, tree.n_nodes), zeros(tree.n_nodes),
                         zeros(tree.n_nodes))
    psi = IlliquidPortfolio(zeros(tree.n_nodes))
    config = prodval.engine.EngineConfig(mode="A")
    cost = backward_value(liab, psi, config, FulfillmentSpec.full(), fin, market, tree, rates)
    capital = cost.capital
    # Bonds only: worthless at the horizon, paying 1 at their maturity.
    units = np.concatenate([[0.0, 0.0], rng.uniform(0.5, 2.0, market.n_assets - 2)])
    seen = []
    original = prodval.engine.validate_production_strategy

    def recording(strategy, psi, capital, *args, **kwargs):
        seen.append((strategy, psi, capital))
        return original(strategy, psi, capital, *args, **kwargs)

    monkeypatch.setattr(prodval.engine, "validate_production_strategy", recording)
    report = illiquid_replica_shift(
        liab, units, cost.strategy, CapitalSchedule(capital), FulfillmentSpec.full(), fin,
        market, tree, rates,
    )
    (shift_strategy, shift_psi, shift_capital), = seen
    nodes = range(tree.n_nodes)
    assert shift_psi.inflows.tolist() == [float(units @ market.inflow(n)) for n in nodes]
    assert shift_capital.values.tolist() == [
        capital[n] + float(units @ market.price(n)) for n in nodes
    ]
    assert shift_psi.inflows.any()
    assert report.max_abs_diff <= 1e-9
    # The per-node loop the report's arrays replaced.
    annual = [n for i in range(tree.grid.horizon) for n in tree.nodes_at(i).tolist()]
    rows = []
    for n in annual:
        v_star = strategy_value(shift_strategy, market, n) - float(shift_capital.values[n])
        v_base = strategy_value(cost.strategy, market, n) - float(capital[n])
        v = float(units @ market.price(n))
        rows.append((v_star, v_base - v, v_star - (v_base - v)))
    assert report.nodes.tolist() == annual
    assert list(zip(report.got.tolist(), report.want.tolist(), report.diff.tolist())) == rows


def test_short_position_identity_keeps_per_node_bits():
    """The additivity report holds, at every annual node before the
    horizon, the bits of the per-node loop it replaced."""
    rng = np.random.default_rng(7)
    tree = random_tree(rng, years=2)
    market, _ = state_price_market(rng, tree)
    rates = period_rates_from_market(market, tree)
    liab = LiabilitySpec(rng.uniform(0.0, 5.0, tree.n_nodes), zeros(tree.n_nodes),
                         zeros(tree.n_nodes))
    fin = FinanciabilitySpec.cost_of_capital(0.06)
    config = prodval.engine.EngineConfig(mode="A")
    cost = backward_value(
        liab, IlliquidPortfolio(zeros(tree.n_nodes)), config, FulfillmentSpec.full(), fin,
        market, tree, rates,
    )
    phi, flows = random_paying_strategy(rng, tree, market, scale=0.5)
    stop = random_stop(rng, tree)
    report = prodval.engine.add_short_position(
        liab, cost.strategy, CapitalSchedule(cost.capital), phi, stop, flows,
        FulfillmentSpec.full(), fin, market, tree, rates,
    )
    phi_p = stopped(phi, tree, stop)
    combined = cost.strategy.plus(phi_p)
    annual = [n for i in range(tree.grid.horizon) for n in tree.nodes_at(i).tolist()]
    rows = []
    for n in annual:
        c = float(cost.capital[n])
        v_comb = strategy_value(combined, market, n) - c
        v_base = strategy_value(cost.strategy, market, n) - c
        shift = strategy_value(phi_p, market, n)
        rows.append((v_comb, v_base + shift, v_comb - (v_base + shift)))
    assert report.ok
    assert report.nodes.tolist() == annual
    assert list(zip(report.got.tolist(), report.want.tolist(), report.diff.tolist())) == rows
    assert report.max_abs_diff == max(abs(d) for _, _, d in rows)
