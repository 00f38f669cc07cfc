from fractions import Fraction

import numpy as np
import pytest

from prodval.errors import (
    CloseOutUnavailable,
    NoBondAvailable,
    NodeOutsideSpan,
    StopNotAntichain,
    UnderlyingHasInflows,
)
from prodval.lattice import DateGrid, build_tree
from prodval.market import TradableSet, check_consistency
from prodval.strategy import (
    CashflowProcess,
    Strategy,
    accumulate_within_years,
    conversion_residual,
    decompose_general,
    short_position_cashflows,
    stop_status,
    stopped,
    strategy_value,
)

from util import (
    by_node,
    random_paying_strategy,
    random_stop,
    random_tree,
    state_price_market,
)


def one_period_tree():
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "u", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "d", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "u1", "date": 1, "parent": "u", "p": 1.0},
        {"id": "d1", "date": 1, "parent": "d", "p": 1.0},
    ]
    return build_tree(grid, nodes)


def constant_market(tree, price, inflow):
    n = tree.n_nodes
    return TradableSet(
        tree=tree, prices=np.full((n, 1), price), inflows=np.full((n, 1), inflow), close_out=True
    )


def same_rows(tree, row):
    """One row per node, each ``row``."""
    return np.tile(np.asarray(row, dtype=float), (tree.n_nodes, 1))


def flows(tree, inflow=None, outflow=None):
    """A CashflowProcess from node -> value mappings."""
    return CashflowProcess(by_node(tree, inflow or {}), by_node(tree, outflow or {}))


def hold_one(tree, n_assets=1):
    one = tuple(1.0 if k == 0 else 0.0 for k in range(n_assets))
    return Strategy(
        tree,
        n_assets,
        same_rows(tree, one),
        initial=by_node(tree, {n: one for n in tree.by_date[0].tolist()}),
    )


class TestConversion:
    def test_buy_and_hold_without_inflows_balances(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 0.0)
        phi = hold_one(tree)
        for node in range(tree.n_nodes):
            assert conversion_residual(phi, market, tree, flows(tree), node) == 0.0

    def test_passive_holding_with_inflow_paid_out(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 5.0)
        phi = hold_one(tree)
        paid = flows(tree, outflow={n: 5.0 for n in range(tree.n_nodes)})
        for node in range(tree.n_nodes):
            assert conversion_residual(phi, market, tree, paid, node) == 0.0

    def test_unpaid_inflow_leaves_residual(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 5.0)
        phi = hold_one(tree)
        assert conversion_residual(phi, market, tree, flows(tree), 1) == -5.0

    def test_outside_span(self):
        tree = one_period_tree()
        market = constant_market(tree, 1.0, 0.0)
        phi = Strategy(tree, 1, same_rows(tree, (1.0,)), t_min=Fraction(1, 2))
        with pytest.raises(NodeOutsideSpan):
            conversion_residual(phi, market, tree, flows(tree), 0)

    def test_held_into_rows_match_single_nodes(self):
        # Span from 1/2: nodes u, d start the span with their initial
        # portfolios, u1 and d1 hold their parents' assignments.
        tree = one_period_tree()
        phi = Strategy(
            tree,
            2,
            by_node(tree, {n: (float(n), 10.0 * n) for n in range(1, tree.n_nodes)}),
            by_node(tree, {1: (7.0, 8.0)}),
            t_min=Fraction(1, 2),
        )
        nodes = np.array([3, 1, 2, 4])
        assert phi.held_into(nodes).tolist() == [
            phi.held_into(int(n)).tolist() for n in nodes
        ]
        assert phi.held_into(nodes).tolist() == [
            [1.0, 10.0], [7.0, 8.0], [0.0, 0.0], [2.0, 20.0]
        ]
        with pytest.raises(NodeOutsideSpan, match=r"^node 0 outside span$"):
            phi.held_into(np.array([1, 0, 2]))
        with pytest.raises(ValueError):
            phi.assignment[1, 0] = 5.0


class TestSelfFinancing:
    def test_reinvesting_inflows_is_self_financing(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 1.0)
        # Units grow by the reinvested inflow: u' = u * (S + Z) / S.
        assignment = {}
        for j, nodes in enumerate(tree.by_date):
            for n in nodes:
                if j == 0:
                    u_in = 1.0
                else:
                    u_in = assignment[tree.parent[n]][0]
                assignment[n] = (u_in * (2.0 + 1.0) / 2.0,) if j > 0 else (1.5,)
        phi = Strategy(
            tree, 1, by_node(tree, assignment), initial=by_node(tree, {0: (1.0,)})
        )
        for node in range(tree.n_nodes):
            assert conversion_residual(phi, market, tree, flows(tree), node) == 0.0


class TestValue:
    def test_zero_portfolio(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        assert strategy_value(Strategy.zero(tree, 1), market, 0) == 0.0

    def test_bond_unit(self):
        tree = one_period_tree()
        market = constant_market(tree, 1 / 1.02, 0.0)
        assert strategy_value(hold_one(tree), market, 0) == pytest.approx(
            0.9803921568627451
        )

    def test_signed_strategy_value_is_difference(self):
        tree = one_period_tree()
        market = TradableSet(
            tree=tree,
            prices=same_rows(tree, (2.0, 3.0)),
            inflows=same_rows(tree, (0.0, 0.0)),
            close_out=True,
        )
        phi = Strategy(tree, 2, same_rows(tree, (2.0, -1.0)), sign_class="unrestricted")
        dec = decompose_general(phi, market, tree)
        assert strategy_value(phi, market, 0) == pytest.approx(
            strategy_value(dec.plus, market, 0) - strategy_value(dec.minus, market, 0)
        )


class TestShortPosition:
    def test_stop_at_horizon(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        stop = set(tree.by_date[2])
        out = short_position_cashflows(phi, stop, market, tree, flows(tree)).outflow
        for leaf in tree.by_date[2].tolist():
            assert out[leaf] == pytest.approx(2.5)
        for node in (0, 1, 2):
            assert out[node] == 0.0

    def test_stop_at_root(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        out = short_position_cashflows(phi, {0}, market, tree, flows(tree)).outflow
        assert out[0] == pytest.approx(2.5)
        assert all(out[n] == 0.0 for n in range(1, tree.n_nodes))

    def test_stop_on_one_branch_only(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        x_flows = flows(tree, outflow={n: 0.5 for n in range(tree.n_nodes)})
        u, d = tree.by_date[1]
        d_leaf = tree.children_of(d)[0]
        stop = {u, d_leaf}
        out = short_position_cashflows(phi, stop, market, tree, x_flows).outflow
        assert out[u] == pytest.approx(2.5)  # liquidation
        assert out[tree.children_of(u)[0]] == 0.0  # extinguished
        assert out[d] == pytest.approx(0.5)  # X continues
        assert out[d_leaf] == pytest.approx(2.5)

    def test_pay_at_horizon_variant(self):
        # The alternative settlement defers the liquidation to t_max on
        # every path, whatever the stop set would have been.
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        x_flows = flows(tree, outflow={n: 0.5 for n in range(tree.n_nodes)})
        out = short_position_cashflows(
            phi, {0}, market, tree, x_flows, pay_at_tmax=True
        ).outflow
        for leaf in tree.by_date[2].tolist():
            assert out[leaf] == pytest.approx(2.5)
        assert out[0] == pytest.approx(0.5)
        for mid in tree.by_date[1].tolist():
            assert out[mid] == pytest.approx(0.5)

    def test_underlying_must_have_no_inflows(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        with pytest.raises(UnderlyingHasInflows):
            short_position_cashflows(
                hold_one(tree),
                set(tree.by_date[2]),
                market,
                tree,
                flows(tree, inflow={0: 1.0}),
            )

    def test_stop_must_be_antichain(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        u = tree.by_date[1][0]
        bad = {u, tree.children_of(u)[0], tree.by_date[1][1]}
        with pytest.raises(StopNotAntichain):
            short_position_cashflows(
                hold_one(tree), bad, market, tree, flows(tree)
            )
        with pytest.raises(StopNotAntichain):
            short_position_cashflows(
                hold_one(tree), {u}, market, tree, flows(tree)
            )

    def test_liability_produced_by_stopped_underlying(self):
        """Running phi' = phi 1{t<=tau} pays exactly the liability flows."""
        rng = np.random.default_rng(31)
        for _ in range(10):
            tree = random_tree(rng, years=2)
            market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=False)
            phi, x_flows = random_paying_strategy(rng, tree, market)
            stop = random_stop(rng, tree)
            liab = short_position_cashflows(phi, stop, market, tree, x_flows)
            phi_p = stopped(phi, tree, stop)
            out = CashflowProcess(np.zeros(tree.n_nodes), liab.outflow)
            for node in range(tree.n_nodes):
                res = conversion_residual(phi_p, market, tree, out, node)
                assert abs(res) <= 1e-9


class TestDecomposeGeneral:
    def test_nonneg_strategy_trivial(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        dec = decompose_general(hold_one(tree), market, tree)
        assert dec.minus.assignment.tolist() == [[0.0]] * tree.n_nodes
        assert not dec.star_outflow.any()
        assert not dec.star_inflow.any()

    def test_constant_short_unit(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = Strategy(
            tree,
            1,
            same_rows(tree, (-1.0,)),
            initial=by_node(tree, {0: (-1.0,)}),
            sign_class="unrestricted",
        )
        dec = decompose_general(phi, market, tree)
        for node in range(tree.n_nodes):
            assert dec.star_outflow[node] == pytest.approx(2.5)
            expected_in = 2.0 if tree.date_of(node) < 1 else 0.0
            assert dec.star_inflow[node] == pytest.approx(expected_in)

    def test_componentwise_split(self):
        tree = one_period_tree()
        market = TradableSet(
            tree=tree,
            prices=same_rows(tree, (1.0, 1.0)),
            inflows=same_rows(tree, (0.0, 0.0)),
            close_out=True,
        )
        phi = Strategy(tree, 2, same_rows(tree, (2.0, -3.0)), sign_class="unrestricted")
        dec = decompose_general(phi, market, tree)
        assert dec.plus.assignment[0].tolist() == [2.0, 0.0]
        assert dec.minus.assignment[0].tolist() == [0.0, 3.0]

    def test_requires_close_out(self):
        tree = one_period_tree()
        market = constant_market(tree, 1.0, 0.0)
        market = TradableSet(tree, market.prices, market.inflows, close_out=False)
        phi = Strategy(tree, 1, same_rows(tree, (-1.0,)), sign_class="unrestricted")
        with pytest.raises(CloseOutUnavailable):
            decompose_general(phi, market, tree)

    def test_star_flows_restore_conversion_identity(self):
        """residual(phi+, flows + L* flows) == residual(phi, flows)."""
        rng = np.random.default_rng(37)
        for _ in range(10):
            tree = random_tree(rng, years=1)
            market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=False)
            J = len(tree.grid.dates) - 1
            # Shorts are closed by the horizon: Z*_{t_max} = 0 presumes it.
            assignment = {
                n: tuple(
                    rng.uniform(0, 1, size=2)
                    if tree.date_idx[n] == J
                    else rng.uniform(-1, 1, size=2)
                )
                for n in range(tree.n_nodes)
            }
            initial = {n: tuple(rng.uniform(-1, 1, size=2)) for n in tree.by_date[0].tolist()}
            phi = Strategy(
                tree,
                2,
                by_node(tree, assignment),
                by_node(tree, initial),
                sign_class="unrestricted",
            )
            own = CashflowProcess(
                rng.uniform(0, 1, size=tree.n_nodes), rng.uniform(0, 1, size=tree.n_nodes)
            )
            dec = decompose_general(phi, market, tree)
            star = dec.star_flows()
            with_star = CashflowProcess(
                own.inflow + star.inflow, own.outflow + star.outflow
            )
            for node in range(tree.n_nodes):
                lhs = conversion_residual(dec.plus, market, tree, with_star, node)
                rhs = conversion_residual(phi, market, tree, own, node)
                assert abs(lhs - rhs) <= 1e-12


class TestAccumulateWithinYears:
    @staticmethod
    def market(tree, price_at_d):
        # Asset 1 is the accumulation asset; its price at "d" varies.
        prices = same_rows(tree, (1.0, 1.0))
        prices[tree.labels.index("d")] = (1.0, price_at_d)
        return TradableSet(tree=tree, prices=prices, inflows=np.zeros_like(prices))

    def test_reinvests_interior_inflows_and_holds_nothing_at_year_ends(self):
        tree = one_period_tree()
        market = self.market(tree, 2.0)
        inflow = by_node(tree, {tree.labels.index("u"): 3.0, tree.labels.index("d"): 4.0})
        got = accumulate_within_years(market, tree, inflow, policy_index=1)
        by_label = dict(zip(tree.labels, got.tolist()))
        assert by_label == {
            "r": [0.0, 0.0],
            "u": [0.0, 3.0],
            "d": [0.0, 2.0],
            "u1": [0.0, 0.0],
            "d1": [0.0, 0.0],
        }

    def test_non_positive_price_at_interior_node_raises(self):
        tree = one_period_tree()
        market = self.market(tree, 0.0)
        with pytest.raises(NoBondAvailable, match=f"node {tree.labels.index('d')}"):
            accumulate_within_years(market, tree, np.ones(tree.n_nodes), policy_index=1)

    def test_missing_period_bond_raises(self):
        tree = one_period_tree()
        with pytest.raises(NoBondAvailable, match="period"):
            accumulate_within_years(self.market(tree, 1.0), tree, np.ones(tree.n_nodes))


def test_consistency_propagation_on_random_trees():
    """On consistent markets, child-wise value dominance with equal net
    flows propagates one step back."""
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(20):
        tree = random_tree(rng, years=1, interior_per_year=2)
        market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=False)
        phi, phi_flows = random_paying_strategy(rng, tree, market)
        # theta follows the same net flows, rebuilt through conversion.
        n = market.n_assets
        theta_assign = {}
        theta_init = {
            node: tuple(np.array(phi.initial[node]) + rng.uniform(0.0, 0.5, size=n))
            for node in tree.by_date[0].tolist()
        }
        ok = True
        for j in range(len(tree.grid.dates)):
            for node in tree.by_date[j].tolist():
                held_in = (
                    np.array(theta_init[node])
                    if j == 0
                    else np.array(theta_assign[tree.parent[node]])
                )
                wealth = float(
                    held_in @ market.price(node) + held_in @ market.inflow(node)
                )
                target = wealth + phi_flows.inflow[node] - phi_flows.outflow[node]
                if target < 0:
                    ok = False
                    break
                direction = rng.uniform(0.1, 1.0, size=n)
                price = float(direction @ market.price(node))
                theta_assign[node] = tuple(direction * (target / price))
            if not ok:
                break
        if not ok:
            continue
        theta = Strategy(tree, n, by_node(tree, theta_assign), by_node(tree, theta_init))
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                continue
            kids = tree.children_of(node)
            v_phi = [strategy_value(phi, market, c) for c in kids]
            v_theta = [strategy_value(theta, market, c) for c in kids]
            if all(a >= b - 1e-12 for a, b in zip(v_theta, v_phi)):
                checked += 1
                assert strategy_value(theta, market, node) >= (
                    strategy_value(phi, market, node) - 1e-9
                )
    assert checked > 0
