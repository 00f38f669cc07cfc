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
from prodval.market import RestrictionSet, TradableSet, check_consistency
from prodval.strategy import (
    CashflowProcess,
    Strategy,
    accumulate_within_years,
    conversion_residual,
    decompose_general,
    is_self_financing,
    restriction_membership,
    short_position_cashflows,
    stop_status,
    stopped,
    strategy_value,
)

from util import random_paying_strategy, random_stop, random_tree, state_price_market


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
        tree=tree,
        prices={k: (price,) for k in range(n)},
        inflows={k: (inflow,) for k in range(n)},
        close_out=True,
    )


def hold_one(tree, n_assets=1):
    one = tuple(1.0 if k == 0 else 0.0 for k in range(n_assets))
    return Strategy(
        tree,
        n_assets,
        {n: one for n in range(tree.n_nodes)},
        initial={n: one for n in tree.by_date[0]},
    )


class TestConversion:
    def test_buy_and_hold_without_inflows_balances(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 0.0)
        phi = hold_one(tree)
        for node in range(tree.n_nodes):
            assert conversion_residual(phi, market, tree, CashflowProcess(), node) == 0.0

    def test_passive_holding_with_inflow_paid_out(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 5.0)
        phi = hold_one(tree)
        flows = CashflowProcess({}, {n: 5.0 for n in range(tree.n_nodes)})
        for node in range(tree.n_nodes):
            assert conversion_residual(phi, market, tree, flows, node) == 0.0

    def test_unpaid_inflow_leaves_residual(self):
        tree = one_period_tree()
        market = constant_market(tree, 3.0, 5.0)
        phi = hold_one(tree)
        assert conversion_residual(phi, market, tree, CashflowProcess(), 1) == -5.0

    def test_outside_span(self):
        tree = one_period_tree()
        market = constant_market(tree, 1.0, 0.0)
        phi = Strategy(
            tree,
            1,
            {n: (1.0,) for n in range(tree.n_nodes)},
            t_min=Fraction(1, 2),
        )
        with pytest.raises(NodeOutsideSpan):
            conversion_residual(phi, market, tree, CashflowProcess(), 0)

    def test_held_into_rows_match_single_nodes(self):
        # Span from 1/2: nodes u, d start the span with their initial
        # portfolios, u1 and d1 hold their parents' assignments.
        tree = one_period_tree()
        phi = Strategy(
            tree,
            2,
            {n: (float(n), 10.0 * n) for n in range(1, tree.n_nodes)},
            {1: (7.0, 8.0)},
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
        units = {0: 1.0}
        assignment = {}
        for j, nodes in enumerate(tree.by_date):
            for n in nodes:
                if j == 0:
                    u_in = 1.0
                else:
                    u_in = assignment[tree.parent[n]][0]
                assignment[n] = (u_in * (2.0 + 1.0) / 2.0,) if j > 0 else (1.5,)
        phi = Strategy(tree, 1, assignment, initial={0: (1.0,)})
        flags = is_self_financing(phi, market, tree, CashflowProcess())
        assert all(flags.values())

    def test_passive_holding_is_not_self_financing(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 1.0)
        phi = hold_one(tree)
        flows = CashflowProcess({}, {n: 1.0 for n in range(tree.n_nodes)})
        flags = is_self_financing(phi, market, tree, flows)
        assert not any(flags.values())

    def test_zero_strategy(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 1.0)
        flags = is_self_financing(
            Strategy.zero(tree, 1), market, tree, CashflowProcess()
        )
        assert all(flags.values())


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
            prices={n: (2.0, 3.0) for n in range(tree.n_nodes)},
            inflows={n: (0.0, 0.0) for n in range(tree.n_nodes)},
            close_out=True,
        )
        phi = Strategy(
            tree,
            2,
            {n: (2.0, -1.0) for n in range(tree.n_nodes)},
            sign_class="unrestricted",
        )
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
        flows = short_position_cashflows(phi, stop, market, tree, CashflowProcess())
        for leaf in tree.by_date[2]:
            assert flows.x(leaf) == pytest.approx(2.5)
        for node in (0, 1, 2):
            assert flows.x(node) == 0.0

    def test_stop_at_root(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        flows = short_position_cashflows(phi, {0}, market, tree, CashflowProcess())
        assert flows.x(0) == pytest.approx(2.5)
        assert all(flows.x(n) == 0.0 for n in range(1, tree.n_nodes))

    def test_stop_on_one_branch_only(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        x_flows = CashflowProcess({}, {n: 0.5 for n in range(tree.n_nodes)})
        u, d = tree.by_date[1]
        d_leaf = tree.children[d][0]
        stop = {u, d_leaf}
        flows = short_position_cashflows(phi, stop, market, tree, x_flows)
        assert flows.x(u) == pytest.approx(2.5)  # liquidation
        assert flows.x(tree.children[u][0]) == 0.0  # extinguished
        assert flows.x(d) == pytest.approx(0.5)  # X continues
        assert flows.x(d_leaf) == pytest.approx(2.5)

    def test_pay_at_horizon_variant(self):
        # The alternative settlement defers the liquidation to t_max on
        # every path, whatever the stop set would have been.
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = hold_one(tree)
        x_flows = CashflowProcess({}, {n: 0.5 for n in range(tree.n_nodes)})
        flows = short_position_cashflows(
            phi, {0}, market, tree, x_flows, pay_at_tmax=True
        )
        for leaf in tree.by_date[2]:
            assert flows.x(leaf) == pytest.approx(2.5)
        assert flows.x(0) == pytest.approx(0.5)
        for mid in tree.by_date[1]:
            assert flows.x(mid) == pytest.approx(0.5)

    def test_underlying_must_have_no_inflows(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        with pytest.raises(UnderlyingHasInflows):
            short_position_cashflows(
                hold_one(tree),
                set(tree.by_date[2]),
                market,
                tree,
                CashflowProcess({0: 1.0}, {}),
            )

    def test_stop_must_be_antichain(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        u = tree.by_date[1][0]
        bad = {u, tree.children[u][0], tree.by_date[1][1]}
        with pytest.raises(StopNotAntichain):
            short_position_cashflows(
                hold_one(tree), bad, market, tree, CashflowProcess()
            )
        with pytest.raises(StopNotAntichain):
            short_position_cashflows(
                hold_one(tree), {u}, market, tree, CashflowProcess()
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
            out = CashflowProcess({}, dict(liab.outflow))
            for node in range(tree.n_nodes):
                res = conversion_residual(phi_p, market, tree, out, node)
                assert abs(res) <= 1e-9


class TestDecomposeGeneral:
    def test_nonneg_strategy_trivial(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.0)
        dec = decompose_general(hold_one(tree), market, tree)
        assert dec.minus.assignment.tolist() == [[0.0]] * tree.n_nodes
        assert all(v == 0.0 for v in dec.star_outflow.values())
        assert all(v == 0.0 for v in dec.star_inflow.values())

    def test_constant_short_unit(self):
        tree = one_period_tree()
        market = constant_market(tree, 2.0, 0.5)
        phi = Strategy(
            tree,
            1,
            {n: (-1.0,) for n in range(tree.n_nodes)},
            initial={0: (-1.0,)},
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
            prices={n: (1.0, 1.0) for n in range(tree.n_nodes)},
            inflows={n: (0.0, 0.0) for n in range(tree.n_nodes)},
            close_out=True,
        )
        phi = Strategy(
            tree,
            2,
            {n: (2.0, -3.0) for n in range(tree.n_nodes)},
            sign_class="unrestricted",
        )
        dec = decompose_general(phi, market, tree)
        assert dec.plus.assignment[0].tolist() == [2.0, 0.0]
        assert dec.minus.assignment[0].tolist() == [0.0, 3.0]

    def test_requires_close_out(self):
        tree = one_period_tree()
        market = TradableSet(
            tree=tree,
            prices={n: (1.0,) for n in range(tree.n_nodes)},
            inflows={n: (0.0,) for n in range(tree.n_nodes)},
            close_out=False,
        )
        phi = Strategy(
            tree, 1, {n: (-1.0,) for n in range(tree.n_nodes)}, sign_class="unrestricted"
        )
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
            initial = {n: tuple(rng.uniform(-1, 1, size=2)) for n in tree.by_date[0]}
            phi = Strategy(tree, 2, assignment, initial, sign_class="unrestricted")
            flows = CashflowProcess(
                {n: float(rng.uniform(0, 1)) for n in range(tree.n_nodes)},
                {n: float(rng.uniform(0, 1)) for n in range(tree.n_nodes)},
            )
            dec = decompose_general(phi, market, tree)
            with_star = flows.plus(dec.star_flows())
            for node in range(tree.n_nodes):
                lhs = conversion_residual(dec.plus, market, tree, with_star, node)
                rhs = conversion_residual(phi, market, tree, flows, node)
                assert abs(lhs - rhs) <= 1e-12


class TestRestrictionMembership:
    def setup_method(self):
        self.tree = one_period_tree()
        self.market = TradableSet(
            tree=self.tree,
            prices={n: (1.0, 2.0, 1.0) for n in range(self.tree.n_nodes)},
            inflows={n: (0.0, 0.0, 0.0) for n in range(self.tree.n_nodes)},
        )

    def membership(self, units, restriction):
        phi = Strategy(
            self.tree,
            3,
            {n: units for n in range(self.tree.n_nodes)},
            sign_class="unrestricted",
        )
        return restriction_membership(phi, restriction, self.market)[0]

    def test_all_positive_full_space(self):
        m = self.membership((1.0, 1.0, 1.0), RestrictionSet.full(3))
        assert m == {"R": True, "R_nonneg": True, "R_prime": True}

    def test_negative_component_positive_value(self):
        m = self.membership((2.0, 0.5, -1.0), RestrictionSet.full(3))
        assert m == {"R": True, "R_nonneg": False, "R_prime": True}

    def test_excluded_coordinate(self):
        m = self.membership((1.0, 1.0, 0.0), RestrictionSet.of_indices(3, [0]))
        assert m == {"R": False, "R_nonneg": False, "R_prime": False}


class TestAccumulateWithinYears:
    @staticmethod
    def market(tree, price_at_d):
        # Asset 1 is the accumulation asset; its price at "d" varies.
        prices = {k: (1.0, 1.0) for k in range(tree.n_nodes)}
        prices[tree.labels.index("d")] = (1.0, price_at_d)
        return TradableSet(
            tree=tree,
            prices=prices,
            inflows={k: (0.0, 0.0) for k in range(tree.n_nodes)},
        )

    def test_reinvests_interior_inflows_and_holds_nothing_at_year_ends(self):
        tree = one_period_tree()
        market = self.market(tree, 2.0)
        inflow = {tree.labels.index("u"): 3.0, tree.labels.index("d"): 4.0}
        got = accumulate_within_years(
            market, tree, lambda m: inflow.get(m, 0.0), policy_index=1
        )
        by_label = {tree.labels[n]: x for n, x in got.items()}
        assert by_label == {
            "r": (0.0, 0.0),
            "u": (0.0, 3.0),
            "d": (0.0, 2.0),
            "u1": (0.0, 0.0),
            "d1": (0.0, 0.0),
        }

    def test_non_positive_price_at_interior_node_raises(self):
        tree = one_period_tree()
        market = self.market(tree, 0.0)
        with pytest.raises(NoBondAvailable, match=f"node {tree.labels.index('d')}"):
            accumulate_within_years(market, tree, lambda m: 1.0, policy_index=1)

    def test_missing_period_bond_raises(self):
        tree = one_period_tree()
        with pytest.raises(NoBondAvailable, match="period"):
            accumulate_within_years(self.market(tree, 1.0), tree, lambda m: 1.0)


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
            for node in tree.by_date[0]
        }
        ok = True
        for j in range(len(tree.grid.dates)):
            for node in tree.by_date[j]:
                held_in = (
                    np.array(theta_init[node])
                    if j == 0
                    else np.array(theta_assign[tree.parent[node]])
                )
                wealth = float(
                    held_in @ market.price(node) + held_in @ market.inflow(node)
                )
                target = wealth + phi_flows.net(node)
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
        theta = Strategy(tree, n, theta_assign, theta_init)
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                continue
            kids = tree.children[node]
            v_phi = [strategy_value(phi, market, c) for c in kids]
            v_theta = [strategy_value(theta, market, c) for c in kids]
            if all(a >= b - 1e-12 for a, b in zip(v_theta, v_phi)):
                checked += 1
                assert strategy_value(theta, market, node) >= (
                    strategy_value(phi, market, node) - 1e-9
                )
    assert checked > 0
