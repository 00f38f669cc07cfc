import math
from fractions import Fraction

import numpy as np
import pytest

from prodval.conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    flat_rates,
    period_rates_from_market,
)
from prodval.engine import (
    FAILURE_KINDS,
    EngineConfig,
    IlliquidPortfolio,
    StrategyFamily,
    backward_value,
    balance_sheet,
    build_one_period,
    classify_failure,
    validate_production_strategy,
)
from prodval.errors import CloseOutUnavailable
from prodval.lattice import DateGrid, build_tree
from prodval.market import TradableSet, check_consistency
from prodval.strategy import CashflowProcess, Strategy, strategy_value

from util import (
    by_node,
    liability,
    make_grid,
    pathwise_tree,
    random_tree,
    state_price_market,
)


def two_point_tree():
    """Root, one interior node, two leaves carrying the 80/120 liability."""
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "m", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
        {"id": "lo", "date": 1, "parent": "m", "p": 0.5},
        {"id": "hi", "date": 1, "parent": "m", "p": 0.5},
    ]
    return build_tree(grid, nodes)


def bond_market(tree, rates_by_period):
    """Single-bond-per-period market with deterministic compounding."""
    years = tree.grid.horizon
    n = years
    prices = {}
    inflows = {}
    for node in range(tree.n_nodes):
        t = tree.date_of(node)
        s = [0.0] * n
        z = [0.0] * n
        for i in range(years):
            r = rates_by_period[i]
            if t < i:
                s[i] = 1.0 / (1 + r)  # forward price, flat within earlier years
            elif i <= t < i + 1:
                frac = float(t - i)
                s[i] = (1 + r) ** (frac - 1.0)
            elif t == i + 1:
                s[i] = 0.0
                z[i] = 1.0
        prices[node] = tuple(s)
        inflows[node] = tuple(z)
    return TradableSet(
        tree=tree,
        prices=by_node(tree, prices),
        inflows=by_node(tree, inflows),
        bond_periods={i: i for i in range(years)},
        close_out=True,
    )


class TestTwoPointExample:
    """L1 in {80, 120} each 1/2, r = 2%, eta = 6%, VaR 0.5%."""

    def make(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        liab = liability(tree, outflows={leaves[0]: 80.0, leaves[1]: 120.0})
        return tree, market, liab

    def test_backward_value_matches_hand_arithmetic(self):
        tree, market, liab = self.make()
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        a0 = 120.0 / 1.02
        scr = (0.5 * 40.0 + 0.5 * 0.0) / 1.08
        assert res.values[0] == pytest.approx(a0 - scr, abs=1e-9)
        assert res.capital[0] == pytest.approx(scr, abs=1e-9)
        assert round(res.values[0], 6) == 99.128540

    def test_risk_free_family_ignores_mix_indices(self):
        """Only a fixed mix reads ``mix_indices``; on another variant they
        change neither the value nor the parameters."""
        tree, market, liab = self.make()
        args = (
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        psi = IlliquidPortfolio.none(tree.n_nodes)
        plain = backward_value(liab, psi, EngineConfig(mode="B"), *args)
        stray = backward_value(
            liab, psi, EngineConfig(family=StrategyFamily("risk_free", mix_indices=(0,))), *args
        )
        assert stray.heads == plain.heads == ((), ("infeasible",), ("risk_free",))
        np.testing.assert_array_equal(stray.head, plain.head)
        np.testing.assert_array_equal(stray.values, plain.values)
        np.testing.assert_array_equal(stray.scale, plain.scale)

    def test_fulfillment_boundary_is_tight(self):
        # Step 1 satisfies the risk-measure form with equality.
        tree, market, liab = self.make()
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        # Assets grow to rho(-L) = 120 exactly; worst surplus is zero.
        payoff = strategy_value(res.strategy, market, 0) * 1.02
        assert payoff == pytest.approx(120.0, abs=1e-9)

    def test_built_strategy_validates(self):
        tree, market, liab = self.make()
        rates = period_rates_from_market(market, tree)
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        report = validate_production_strategy(
            res.strategy,
            IlliquidPortfolio.none(tree.n_nodes),
            CapitalSchedule(res.capital),
            liab,
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
            mode="B",
        )
        assert report.ok

    def test_inflated_capital_fails_financiability(self):
        tree, market, liab = self.make()
        rates = period_rates_from_market(market, tree)
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        report = validate_production_strategy(
            res.strategy,
            IlliquidPortfolio.none(tree.n_nodes),
            CapitalSchedule(1.01 * res.capital),
            liab,
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
            mode="B",
        )
        assert not report.ok
        assert any(not c.financiability_ok for c in report.checks)

    def test_shrunk_strategy_fails_fulfillment_under_full(self):
        tree, market, liab = self.make()
        rates = period_rates_from_market(market, tree)
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        shrunk = res.strategy.scaled(0.99)
        report = validate_production_strategy(
            shrunk,
            IlliquidPortfolio.none(tree.n_nodes),
            CapitalSchedule(np.zeros(tree.n_nodes)),
            liab,
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
            mode="B",
        )
        assert any(not c.fulfillment_ok for c in report.checks)


class TestPremiumExample:
    """Premiums (0, 100), claims (10, 0) at dates 1 and 2, r = 0."""

    def make(self):
        tree = pathwise_tree(years=2)
        market = bond_market(tree, {0: 0.0, 1: 0.0})
        n1 = tree.nodes_at(1)[0]
        n2 = tree.nodes_at(2)[0]
        liab = liability(
            tree, outflows={n1: 10.0}, inflows={n2: 100.0}
        )
        return tree, market, liab, n1

    def test_mode_b_value_is_ten_exactly(self):
        tree, market, liab, _ = self.make()
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        assert res.values[0] == 10.0

    def test_mode_a_pulls_back_future_premiums(self):
        tree, market, liab, n1 = self.make()
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="A"),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        assert res.values[n1] == pytest.approx(-100.0 / 1.06, abs=1e-9)
        expected = 10.0 / 1.06 - 100.0 / 1.06**2
        assert res.values[0] == pytest.approx(expected, abs=1e-9)
        assert round(res.values[0], 6) == -79.565682

    def test_mode_a_requires_close_out(self):
        tree, market, liab, _ = self.make()
        no_close = TradableSet(
            tree=tree,
            prices=market.prices,
            inflows=market.inflows,
            bond_periods=market.bond_periods,
            close_out=False,
        )
        with pytest.raises(CloseOutUnavailable):
            backward_value(
                liab,
                IlliquidPortfolio.none(tree.n_nodes),
                EngineConfig(mode="A"),
                FulfillmentSpec.full(),
                FinanciabilitySpec.cost_of_capital(0.06),
                no_close,
                tree,
                period_rates_from_market(no_close, tree),
            )


def node_values(tree, values):
    """Per-node array of a node -> value mapping, zero elsewhere."""
    out = np.zeros(tree.n_nodes)
    out[list(values)] = list(values.values())
    return out


class TestBuildOnePeriod:
    def test_two_point_closed_form(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        ell = {leaves[0]: 80.0, leaves[1]: 120.0}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            np.zeros(tree.n_nodes),
            StrategyFamily.risk_free(),
            FulfillmentSpec.var(0.005),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.02],
        )
        assert res.candidate.tolist() == [0]
        assert res.scale[0] == pytest.approx(120.0 / 1.02, abs=1e-9)
        assert res.capital[0] == pytest.approx(20.0 / 1.08, abs=1e-9)
        assert res.vbar[0] == pytest.approx(99.1285403050109, abs=1e-9)

    def test_deterministic_liability_full(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        ell = {nu: 50.0 for nu in tree.by_date[2].tolist()}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            np.zeros(tree.n_nodes),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.02],
        )
        assert res.vbar[0] == pytest.approx(50.0 / 1.02, abs=1e-12)
        assert res.capital[0] == 0.0

    def test_zero_liability(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        ell = {nu: 0.0 for nu in tree.by_date[2].tolist()}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            np.zeros(tree.n_nodes),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.02],
        )
        assert res.vbar[0] == 0.0

    def test_interior_outflow_prefunded(self):
        # A claim at the interior date must be funded by the scale.
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.0})
        mid = tree.by_date[1][0]
        ell = {nu: 0.0 for nu in tree.by_date[2].tolist()}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            node_values(tree, {mid: -7.0}),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.0],
        )
        assert res.candidate.tolist() == [0]
        assert res.scale[0] == pytest.approx(7.0, abs=1e-9)
        assert res.vbar[0] == pytest.approx(7.0, abs=1e-9)

    def test_interior_constraint_can_bind_alone(self):
        # Interior funding dominates: the year ends with a net inflow but
        # the scale must still cover the interior claim.
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.0})
        mid = tree.by_date[1][0]
        ell = {nu: -10.0 for nu in tree.by_date[2].tolist()}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            node_values(tree, {mid: -7.0}),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.0],
            mode="A",
        )
        assert res.candidate.tolist() == [0]
        assert res.scale[0] == pytest.approx(7.0, abs=1e-9)
        # Year-end surplus: 7 - 7 + 10 = 10 on both leaves.
        assert res.capital[0] == pytest.approx(10.0 / 1.06, abs=1e-9)
        assert res.vbar[0] == pytest.approx(7.0 - 10.0 / 1.06, abs=1e-9)

    def test_infeasible_family_returns_sentinel(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        ell = {leaves[0]: math.inf, leaves[1]: 1.0}
        res = build_one_period(
            [0],
            node_values(tree, ell),
            np.zeros(tree.n_nodes),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates=[0.02],
        )
        assert res.candidate.tolist() == [-1]
        assert (res.vbar.tolist(), res.capital.tolist()) == ([math.inf], [0.0])


class TestBalanceSheet:
    def test_empty_book(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        outflow = np.zeros(tree.n_nodes)
        outflow[leaves[0]] = 3.0
        sheet = balance_sheet(
            [leaves[0]],
            outflow,
            np.zeros(tree.n_nodes),
            Strategy.zero(tree, market.n_assets),
            [0.0],
            market,
        )
        assert sheet.assets.tolist() == [0.0]
        assert sheet.liabilities.tolist() == [3.0]
        assert sheet.capital_payoff.tolist() == [0.0]
        assert sheet.failure.tolist() == [FAILURE_KINDS.index("default")]

    def test_negative_cost_is_an_asset(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaf = tree.by_date[2][0]
        outflow = np.zeros(tree.n_nodes)
        outflow[leaf] = 10.0
        sheet = balance_sheet(
            [leaf],
            outflow,
            np.zeros(tree.n_nodes),
            Strategy.zero(tree, market.n_assets),
            [-94.34],
            market,
            mode="A",
        )
        assert sheet.assets[0] == pytest.approx(94.34)
        assert sheet.liabilities[0] == 10.0
        assert FAILURE_KINDS[sheet.failure[0]] == "none"

    def test_positive_cost_adds_to_liabilities(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaf = tree.by_date[2][0]
        outflow = np.zeros(tree.n_nodes)
        outflow[leaf] = 10.0
        sheet = balance_sheet(
            [leaf],
            outflow,
            np.zeros(tree.n_nodes),
            Strategy.zero(tree, market.n_assets),
            [90.0],
            market,
        )
        assert sheet.liabilities[0] == 100.0

    def test_failure_classification(self):
        assert FAILURE_KINDS[classify_failure(10.0, 5.0, 10.0, 3.0)] == "none"
        assert FAILURE_KINDS[classify_failure(4.0, 5.0, 2.0, 3.0)] == "default"
        assert FAILURE_KINDS[classify_failure(4.0, 5.0, 3.5, 3.0)] == "cannot_continue"
        codes = classify_failure(
            np.array([10.0, 4.0, 4.0]),
            np.array([5.0, 5.0, 5.0]),
            np.array([10.0, 2.0, 3.5]),
            np.array([3.0, 3.0, 3.0]),
        )
        assert codes.dtype == np.int8
        assert [FAILURE_KINDS[k] for k in codes] == ["none", "default", "cannot_continue"]

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_rows_for_a_date_match_the_per_node_formulas(self, mode):
        """The array form equals the per-node arithmetic bit for bit, on a
        signed strategy holding every asset, with liability, illiquid and
        extra inflows."""
        rng = np.random.default_rng(61)
        tree = random_tree(rng, years=2, interior_per_year=2)
        market, _ = state_price_market(rng, tree, n_risky=3)
        n = market.n_assets
        strategy = Strategy(
            tree,
            n,
            rng.uniform(-1.0, 2.0, size=(tree.n_nodes, n)),
            by_node(tree, {0: tuple(rng.uniform(0.0, 1.0, size=n))}),
            sign_class="unrestricted",
        )
        nodes = tree.nodes_at(2)

        def flows():
            return dict(zip(nodes, rng.uniform(0.0, 5.0, len(nodes)).tolist()))

        liab = liability(tree, outflows=flows(), inflows=flows())
        psi = IlliquidPortfolio(by_node(tree, flows()))
        cost = rng.uniform(-20.0, 20.0, size=len(nodes)).tolist()
        extra = rng.uniform(0.0, 1.0, size=len(nodes)).tolist()
        outflow = liab.outflows
        inflow = liab.inflows + psi.inflows
        inflow[list(nodes)] += extra
        sheet = balance_sheet(nodes, outflow, inflow, strategy, cost, market, mode)
        rows = list(zip(*(column.tolist() for column in sheet)))
        assert len(rows) == len(nodes)
        for row, m, c, e in zip(rows, nodes, cost, extra):
            tradables = float(strategy.held_into(m) @ market.payoff(m))
            x = float(liab.outflows[m])
            inflows = float(liab.inflows[m]) + float(psi.inflows[m]) + e
            assets = tradables + inflows + max(0.0, -c)
            liabilities = x + max(0.0, c)
            resources = tradables + inflows + (max(0.0, -c) if mode == "A" else 0.0)
            assert row == (
                assets,
                liabilities,
                max(0.0, assets - liabilities),
                classify_failure(assets, liabilities, resources, x),
            )
            one = balance_sheet([m], outflow, inflow, strategy, [c], market, mode)
            assert row == tuple(column.item() for column in one)
        assert {FAILURE_KINDS[r[3]] for r in rows} == {"none", "default", "cannot_continue"}


class TestEngineProperties:
    def test_mode_dominance(self):
        # Mode B is a constrained version of mode A.
        rng = np.random.default_rng(61)
        for _ in range(10):
            tree = random_tree(rng, years=2, max_branch=2)
            market, _ = state_price_market(rng, tree, n_risky=1, with_bonds=True)
            J = len(tree.grid.dates) - 1
            annual = [n for i in range(1, tree.grid.horizon + 1) for n in tree.nodes_at(i).tolist()]
            liab = liability(
                tree,
                outflows={n: float(rng.uniform(0, 5)) for n in annual},
                inflows={n: float(rng.uniform(0, 8)) for n in annual},
            )
            rates = period_rates_from_market(market, tree)
            common = dict(
                fulfillment=FulfillmentSpec.full(),
                financiability=FinanciabilitySpec.cost_of_capital(0.06),
                market=market,
                tree=tree,
                rates=rates,
            )
            res_a = backward_value(
                liab, IlliquidPortfolio.none(tree.n_nodes), EngineConfig(mode="A"), **common
            )
            res_b = backward_value(
                liab, IlliquidPortfolio.none(tree.n_nodes), EngineConfig(mode="B"), **common
            )
            assert res_a.values[0] <= res_b.values[0] + 1e-9

    def test_mode_b_clamp_keeps_validity(self):
        # Where the unclamped cost is negative, mode B reports zero cost
        # with capital equal to the strategy value, and still validates.
        tree = pathwise_tree(years=1)
        market = bond_market(tree, {0: 0.0})
        leaf = tree.by_date[2][0]
        liab = liability(tree, inflows={leaf: 50.0})
        rates = period_rates_from_market(market, tree)
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res.values[0] == 0.0
        assert res.capital[0] == pytest.approx(
            strategy_value(res.strategy, market, 0), abs=1e-12
        )
        report = validate_production_strategy(
            res.strategy,
            IlliquidPortfolio.none(tree.n_nodes),
            CapitalSchedule(res.capital),
            liab,
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
            mode="B",
        )
        assert report.ok

    def test_step1_boundary_for_risk_measure_form(self):
        # rho(A' - L) = 0 within 1e-9 for the built risk-free strategy.
        rng = np.random.default_rng(67)
        from prodval.risk import RiskMeasureSpec, apply_measure
        from prodval.risk import DiscreteDistribution

        for _ in range(10):
            tree = two_point_tree()
            market = bond_market(tree, {0: 0.02})
            leaves = tree.by_date[2]
            lo, hi = sorted(rng.uniform(1.0, 100.0, size=2))
            ell = {leaves[0]: float(lo), leaves[1]: float(hi)}
            for measure in (
                RiskMeasureSpec("full"),
                RiskMeasureSpec("var", 0.25),
                RiskMeasureSpec("es", 0.25),
            ):
                spec = FulfillmentSpec("risk_measure", measure)
                res = build_one_period(
                    [0],
                    node_values(tree, ell),
                    np.zeros(tree.n_nodes),
                    StrategyFamily.risk_free(),
                    spec,
                    FinanciabilitySpec.cost_of_capital(0.06),
                    market,
                    tree,
                    rates=[0.02],
                )
                payoff = res.scale[0] * 1.02
                dist = DiscreteDistribution.from_atoms(
                    [(payoff - ell[leaves[0]], 0.5), (payoff - ell[leaves[1]], 0.5)]
                )
                assert abs(apply_measure(measure, dist)) <= 1e-9

    def test_fixed_mix_family_matches_risk_free_on_bond_only_market(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        liab = liability(tree, outflows={leaves[0]: 80.0, leaves[1]: 120.0})
        rates = period_rates_from_market(market, tree)
        common = dict(
            fulfillment=FulfillmentSpec.var(0.005),
            financiability=FinanciabilitySpec.cost_of_capital(0.06),
            market=market,
            tree=tree,
            rates=rates,
        )
        rf = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            **common,
        )
        mix = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B", family=StrategyFamily.fixed_mix((0,))),
            **common,
        )
        assert mix.values[0] == pytest.approx(rf.values[0], abs=1e-8)

    def test_state_price_bound_makes_cost_family_independent(self):
        """Under full fulfillment with the state-price bound, the weights
        composed over the year price any self-financed payoff exactly, so
        every feasible mix weight produces the same cost."""
        rng = np.random.default_rng(89)
        from prodval.market import check_consistency

        tree = random_tree(rng, years=1, max_branch=2)
        market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=True)
        cert = check_consistency(market, tree, None)
        fin = FinanciabilitySpec.state_price(cert, tree)
        leaves = tree.by_date[len(tree.grid.dates) - 1]
        liab = liability(
            tree, outflows={n: float(rng.uniform(1, 5)) for n in leaves}
        )
        rates = period_rates_from_market(market, tree)
        values = []
        for indices in ((2,), (0,), (0, 1, 2)):
            res = backward_value(
                liab,
                IlliquidPortfolio.none(tree.n_nodes),
                EngineConfig(mode="A", family=StrategyFamily.fixed_mix(indices)),
                FulfillmentSpec.full(),
                fin,
                market,
                tree,
                rates,
            )
            if res.feasible:
                values.append(res.values[0])
        assert len(values) >= 2
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-7)

    def test_validate_subspan_and_start_set(self):
        # Validation over the second year only, restricted to one of the
        # two date-1 start nodes.
        grid = make_grid(2)
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "m0", "date": grid.dates[1], "parent": "r", "p": 1.0},
            {"id": "a", "date": 1, "parent": "m0", "p": 0.5},
            {"id": "b", "date": 1, "parent": "m0", "p": 0.5},
            {"id": "am", "date": grid.dates[3], "parent": "a", "p": 1.0},
            {"id": "bm", "date": grid.dates[3], "parent": "b", "p": 1.0},
            {"id": "a2", "date": 2, "parent": "am", "p": 1.0},
            {"id": "b2", "date": 2, "parent": "bm", "p": 1.0},
        ]
        from prodval.lattice import build_tree as bt

        tree = bt(grid, nodes)
        market = bond_market(tree, {0: 0.0, 1: 0.0})
        idx = {lab: tree.labels.index(lab) for lab in tree.labels}
        liab = liability(tree, outflows={idx["a2"]: 5.0, idx["b2"]: 5.0})
        rates = period_rates_from_market(market, tree)
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        report = validate_production_strategy(
            res.strategy,
            IlliquidPortfolio.none(tree.n_nodes),
            CapitalSchedule(res.capital),
            liab,
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
            mode="B",
            i_min=1,
            i_max=2,
            start_set=[idx["a"]],
        )
        assert report.ok
        checked_nodes = {c.node for c in report.checks}
        assert checked_nodes == {idx["a"]}
        assert any(reason == "outside start set" for _, _, reason in report.skipped)

    def test_general_strategy_validation_needs_full_and_close_out(self):
        from prodval.errors import CloseOutUnavailable as COU
        from prodval.strategy import Strategy as S

        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        signed = S(
            tree,
            market.n_assets,
            np.zeros((tree.n_nodes, market.n_assets)),
            sign_class="value_nonneg",
        )
        with pytest.raises(COU):
            validate_production_strategy(
                signed,
                IlliquidPortfolio.none(tree.n_nodes),
                CapitalSchedule(np.zeros(tree.n_nodes)),
                liability(tree),
                FulfillmentSpec.var(0.005),
                FinanciabilitySpec.cost_of_capital(0.06),
                market,
                tree,
                period_rates_from_market(market, tree),
            )

    def test_zero_short_position_is_identity(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        liab = liability(tree, outflows={leaves[0]: 80.0, leaves[1]: 120.0})
        rates = period_rates_from_market(market, tree)
        ful = FulfillmentSpec.full()
        fin = FinanciabilitySpec.cost_of_capital(0.06)
        cost = backward_value(
            liab, IlliquidPortfolio.none(tree.n_nodes), EngineConfig(mode="A"), ful, fin,
            market, tree, rates,
        )
        from prodval.engine import add_short_position
        from prodval.strategy import CashflowProcess, Strategy

        phi = Strategy.zero(tree, market.n_assets)
        res = add_short_position(
            liab,
            cost.strategy,
            CapitalSchedule(cost.capital),
            phi,
            set(tree.by_date[2]),
            CashflowProcess(np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)),
            ful,
            fin,
            market,
            tree,
            rates,
        )
        assert res.ok
        assert res.max_abs_diff == 0.0

    def test_bond_unit_short_position_shifts_by_its_price(self):
        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        leaves = tree.by_date[2]
        liab = liability(tree, outflows={leaves[0]: 80.0, leaves[1]: 120.0})
        rates = period_rates_from_market(market, tree)
        ful = FulfillmentSpec.full()
        fin = FinanciabilitySpec.cost_of_capital(0.06)
        cost = backward_value(
            liab, IlliquidPortfolio.none(tree.n_nodes), EngineConfig(mode="A"), ful, fin,
            market, tree, rates,
        )
        from prodval.engine import add_short_position
        from prodval.strategy import CashflowProcess, Strategy

        phi = Strategy(
            tree, 1, np.ones((tree.n_nodes, 1)), initial=by_node(tree, {0: (1.0,)})
        )
        res = add_short_position(
            liab,
            cost.strategy,
            CapitalSchedule(cost.capital),
            phi,
            set(tree.by_date[2]),
            CashflowProcess(np.zeros(tree.n_nodes), np.zeros(tree.n_nodes)),
            ful,
            fin,
            market,
            tree,
            rates,
        )
        assert res.ok
        # Combined cost at the root shifts by the bond price.
        assert res.nodes[0] == 0
        got, want, diff = res.got[0], res.want[0], res.diff[0]
        assert got - (cost.values[0]) == pytest.approx(1 / 1.02, abs=1e-9)

    def test_replica_shift_requires_neutrality(self):
        from prodval.engine import illiquid_replica_shift
        from prodval.errors import NeutralityAuditFailed

        tree = two_point_tree()
        market = bond_market(tree, {0: 0.02})
        rates = period_rates_from_market(market, tree)
        with pytest.raises(NeutralityAuditFailed):
            illiquid_replica_shift(
                liability(tree),
                (0.0,),
                Strategy.zero(tree, market.n_assets),
                CapitalSchedule(np.zeros(tree.n_nodes)),
                FulfillmentSpec.full(),
                FinanciabilitySpec.cost_of_capital(0.06),
                market,
                tree,
                rates,
            )

    def test_failure_rows_recorded_for_all_states(self):
        # Lax fulfillment lets the bad branch fail; the row says so.
        grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "m", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
            {"id": "ok", "date": 1, "parent": "m", "p": 0.9},
            {"id": "bad", "date": 1, "parent": "m", "p": 0.1},
        ]
        tree = build_tree(grid, nodes)
        market = bond_market(tree, {0: 0.0})
        ok_leaf = tree.labels.index("ok")
        bad_leaf = tree.labels.index("bad")
        liab = liability(tree, outflows={ok_leaf: 10.0, bad_leaf: 100.0})
        res = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.probability(0.85),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        assert FAILURE_KINDS[res.sheet.failure[ok_leaf]] == "none"
        assert FAILURE_KINDS[res.sheet.failure[bad_leaf]] == "default"
        assert tree.date_of(bad_leaf) > 0 and math.isfinite(res.values[bad_leaf])
