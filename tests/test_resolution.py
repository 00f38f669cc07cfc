from fractions import Fraction

import numpy as np
import pytest

from prodval.conditions import (
    FinanciabilitySpec,
    FulfillmentSpec,
    period_rates_from_market,
)
from prodval.engine import (
    EngineConfig,
    IlliquidPortfolio,
    backward_value,
)
from prodval.errors import InfeasibleAtNode
from prodval.lattice import DateGrid, build_tree
from prodval.market import TradableSet
from prodval.resolution import (
    adjustment_factors,
    extend_to_full_fulfillment,
)

from test_engine import bond_market
from util import by_node, liability


def fail_tree(p_bad=0.1):
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "m", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
        {"id": "ok", "date": 1, "parent": "m", "p": 1 - p_bad},
        {"id": "bad", "date": 1, "parent": "m", "p": p_bad},
    ]
    return build_tree(grid, nodes)


def run_engine(tree, market, liab, psi=None, p=0.85):
    rates = period_rates_from_market(market, tree)
    cost = backward_value(
        liab,
        psi or IlliquidPortfolio.none(tree.n_nodes),
        EngineConfig(mode="B"),
        FulfillmentSpec.probability(p),
        FinanciabilitySpec.cost_of_capital(0.06),
        market,
        tree,
        rates,
    )
    return cost, rates


class TestAdjustmentFactors:
    def test_no_failure_keeps_everything(self):
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 10.0})
        cost, _ = run_engine(tree, market, liab)
        xi, lam, theta = adjustment_factors(
            liab, IlliquidPortfolio.none(tree.n_nodes), cost, market, tree
        )
        assert all(v == 1.0 for v in xi.values())
        assert all(v == 1.0 for v in lam.values())

    def test_single_failure_ratio(self):
        # Funding covers 10; the bad branch owes 100, so xi = 0.1 there.
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 100.0})
        cost, _ = run_engine(tree, market, liab)
        xi, lam, _ = adjustment_factors(
            liab, IlliquidPortfolio.none(tree.n_nodes), cost, market, tree
        )
        assert xi[bad_leaf] == pytest.approx(0.1, abs=1e-12)
        assert lam[bad_leaf] == pytest.approx(0.1, abs=1e-12)
        assert xi[ok_leaf] == 1.0

    def test_zero_liability_means_factor_one(self):
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        liab = liability(tree, outflows={ok_leaf: 10.0})
        cost, _ = run_engine(tree, market, liab, p=0.85)
        xi, lam, _ = adjustment_factors(
            liab, IlliquidPortfolio.none(tree.n_nodes), cost, market, tree
        )
        bad_leaf = tree.labels.index("bad")
        assert xi[bad_leaf] == 1.0

    def test_requires_nonnegative_cost(self):
        from prodval.engine import BalanceSheet, ProductionCostProcess
        from prodval.strategy import Strategy

        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        n = tree.n_nodes
        values = np.zeros(n)
        values[0] = -1.0
        cost = ProductionCostProcess(
            values=values,
            capital=np.zeros(n),
            head=np.zeros(n, dtype=int),
            heads=((), ("infeasible",), ("risk_free",)),
            scale=np.zeros(n),
            strategy=Strategy.zero(tree, market.n_assets),
            sheet=BalanceSheet(*np.zeros((3, n)), np.zeros(n, dtype=np.int8)),
            mode="A",
            infeasible_nodes=[],
        )
        with pytest.raises(InfeasibleAtNode, match=r"negative at nodes \[0\]$"):
            adjustment_factors(
                liability(tree), IlliquidPortfolio.none(tree.n_nodes), cost, market, tree
            )


class TestExtension:
    def test_no_failure_instance_is_unchanged(self):
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 10.0})
        cost, rates = run_engine(tree, market, liab)
        res = extend_to_full_fulfillment(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            cost,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res.ok
        assert all(v == 1.0 for v in res.lam.values())
        assert res.adjusted_outflows.tolist() == liab.outflows.tolist()

    def test_deterministic_shortfall_scales_the_branch(self):
        # The bad branch can pay 80% of its claim: lam = 0.8 there.
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 12.5})
        cost, rates = run_engine(tree, market, liab)
        assert cost.values[0] == pytest.approx(10.0, abs=1e-12)
        res = extend_to_full_fulfillment(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            cost,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res.lam[bad_leaf] == pytest.approx(0.8, abs=1e-12)
        assert res.adjusted_outflows[bad_leaf] == pytest.approx(10.0, abs=1e-12)
        # Flows on the never-failing path are untouched.
        assert res.adjusted_outflows[ok_leaf] == 10.0
        assert res.ok

    def test_scaled_cost_identity_and_monotone_lambda(self):
        tree = fail_tree()
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 100.0})
        cost, rates = run_engine(tree, market, liab)
        res = extend_to_full_fulfillment(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            cost,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res.ok
        assert res.cost_identity_max_diff <= 1e-9
        for node in range(tree.n_nodes):
            t = tree.date_of(node)
            if t.denominator == 1 and int(t) >= 1:
                prev = res.lam[tree.ancestor_at(node, tree.grid.index(int(t) - 1))]
                assert res.lam[node] <= prev + 1e-12

    def test_illiquid_excess_raises_the_factor(self):
        """With prior failure, the non-written-down share of illiquid
        inflows pays out through theta and softens later write-downs."""

        def two_year_tree():
            grid = DateGrid(
                (
                    Fraction(0),
                    Fraction(1, 2),
                    Fraction(1),
                    Fraction(3, 2),
                    Fraction(2),
                ),
                2,
            )
            nodes = [
                {"id": "r", "date": 0, "parent": None, "p": 1.0},
                {"id": "m1", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
                {"id": "A", "date": 1, "parent": "m1", "p": 0.9},
                {"id": "B", "date": 1, "parent": "m1", "p": 0.1},
                {"id": "Am", "date": Fraction(3, 2), "parent": "A", "p": 1.0},
                {"id": "Bm", "date": Fraction(3, 2), "parent": "B", "p": 1.0},
                {"id": "Aok", "date": 2, "parent": "Am", "p": 1.0},
                {"id": "Bok", "date": 2, "parent": "Bm", "p": 0.9},
                {"id": "Bbad", "date": 2, "parent": "Bm", "p": 0.1},
            ]
            return build_tree(grid, nodes)

        tree = two_year_tree()
        market = bond_market(tree, {0: 0.0, 1: 0.0})
        idx = {lab: tree.labels.index(lab) for lab in tree.labels}
        liab = liability(
            tree,
            outflows={idx["A"]: 10.0, idx["B"]: 100.0, idx["Bok"]: 50.0, idx["Bbad"]: 500.0},
        )
        psi = IlliquidPortfolio(by_node(tree, {idx["Bm"]: 40.0}))

        cost_with, rates = run_engine(tree, market, liab, psi=psi)
        res_with = extend_to_full_fulfillment(
            liab,
            psi,
            cost_with,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        cost_without, _ = run_engine(tree, market, liab)
        res_without = extend_to_full_fulfillment(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            cost_without,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res_with.ok and res_without.ok
        assert res_without.xi[idx["Bbad"]] == pytest.approx(0.1, abs=1e-9)
        assert res_with.xi[idx["Bbad"]] > res_without.xi[idx["Bbad"]] + 0.1
