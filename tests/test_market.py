from fractions import Fraction

import numpy as np
import pytest

from prodval.conditions import FinanciabilitySpec, max_capital
from prodval.errors import NoBondAvailable
from prodval.lattice import DateGrid, build_tree
from prodval.market import RestrictionSet, TradableSet, check_consistency
from prodval.risk import DiscreteDistribution

from util import by_node, certificate_mappings, random_tree, state_price_market


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


def flat_market(tree, prices_by_node, inflows_by_node=None, **kw):
    prices = by_node(tree, prices_by_node)
    inflows = np.zeros_like(prices)
    for node, row in (inflows_by_node or {}).items():
        inflows[node] = row
    return TradableSet(tree=tree, prices=prices, inflows=inflows, **kw)


class TestPortfolioAlgebra:
    def test_single_bond_unit(self):
        tree = one_period_tree()
        market = flat_market(
            tree,
            {0: (1 / 1.02,), 1: (1 / 1.01,), 2: (1 / 1.01,), 3: (0.0,), 4: (0.0,)},
            {3: (1.0,), 4: (1.0,)},
            bond_periods={0: 0},
        )
        assert market.price(0) @ [1.0] == pytest.approx(0.9803921568627451)
        assert market.inflow(3) @ [1.0] == 1.0
        assert market.period_rates(0).tolist() == pytest.approx([0.02])
        with pytest.raises(NoBondAvailable):
            market.bond_for_period(5)


class TestCheckConsistency:
    def test_single_bond_consistent(self):
        tree = one_period_tree()
        market = flat_market(
            tree,
            {0: (1 / 1.02,), 1: (1 / 1.01,), 2: (1 / 1.01,), 3: (0.0,), 4: (0.0,)},
            {3: (1.0,), 4: (1.0,)},
            bond_periods={0: 0},
        )
        cert = check_consistency(market, tree)
        assert cert.consistent
        # At an interior node the child pays 1, so the weights sum to the
        # bond price there.
        lam = cert.weights[list(tree.children_of(1))]
        assert lam.sum() == pytest.approx(1 / 1.01, abs=1e-12)

    def test_two_tradable_fixture_refuted(self):
        # Both children pay (1, 2); the price (0.9, 1.0) needs lambda with
        # lambda*1 = 0.9 and lambda*2 = 1.0 at once, which is infeasible.
        tree = one_period_tree()
        market = flat_market(
            tree,
            {
                0: (0.9, 1.0),
                1: (1.0, 2.0),
                2: (1.0, 2.0),
                3: (1.0, 1.0),
                4: (1.0, 1.0),
            },
        )
        cert = check_consistency(market, tree)
        assert not cert.consistent_at[0]
        x = cert.violation[0]
        for child in tree.children_of(0).tolist():
            assert x @ market.payoff(child) >= -1e-12
        assert x @ market.price(0) < -1e-9

    def test_fixture_consistent_on_restricted_subspace(self):
        tree = one_period_tree()
        market = flat_market(
            tree,
            {
                0: (0.9, 1.0),
                1: (1.0, 2.0),
                2: (1.0, 2.0),
                3: (1.0, 1.0),
                4: (1.0, 1.0),
            },
        )
        cert = check_consistency(
            market, tree, RestrictionSet.of_indices(2, [0])
        )
        assert cert.consistent_at[0]

    def test_spanning_payoffs_strictly_positive_weights(self):
        # Oracle: the 2x2 linear system has the unique solution (0.4, 0.3).
        tree = one_period_tree()
        y1, y2 = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        s = 0.4 * y1 + 0.3 * y2
        market = flat_market(
            tree,
            {
                0: tuple(s),
                1: tuple(y1),
                2: tuple(y2),
                3: (1.0, 1.0),
                4: (1.0, 1.0),
            },
        )
        cert = check_consistency(market, tree)
        lam = cert.weights
        oracle = np.linalg.solve(np.column_stack([y1, y2]), s)
        assert lam[1] == pytest.approx(oracle[0], abs=1e-9)
        assert lam[2] == pytest.approx(oracle[1], abs=1e-9)
        assert lam[[1, 2]].min() > 0


def test_certificate_arrays_mark_what_is_undefined():
    """One entry per inner node in ``consistent_at`` and ``violation``
    and one per node in ``weights``: NaN weights at the root and below an
    inconsistent node, NaN violations at consistent nodes."""
    tree = one_period_tree()
    market = flat_market(
        tree, {0: (0.9, 1.0), 1: (1.0, 2.0), 2: (1.0, 2.0), 3: (1.0, 2.0), 4: (1.0, 2.0)}
    )
    cert = check_consistency(market, tree)
    assert cert.consistent_at.tolist() == [False, True, True]
    assert not cert.consistent
    assert np.isfinite(cert.violation[0]).all() and np.isnan(cert.violation[1:]).all()
    assert np.isnan(cert.weights[:3]).all()
    assert cert.weights[3:].tolist() == pytest.approx([1.0, 1.0], abs=1e-12)


class TestRandomMarkets:
    def test_constructed_markets_are_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tree = random_tree(rng, years=2)
            market, weights = state_price_market(rng, tree)
            cert = check_consistency(market, tree)
            assert cert.consistent
            for node, verdict in certificate_mappings(cert, tree).items():
                recon = sum(
                    lam * market.payoff(c)
                    for c, lam in verdict.weights.items()
                )
                s = market.price(node)
                rel = np.abs(recon - s).max() / max(1.0, np.abs(s).max())
                assert rel <= 1e-9

    def test_perturbed_markets_yield_checkable_certificates(self):
        rng = np.random.default_rng(13)
        n_violations = 0
        for _ in range(30):
            tree = random_tree(rng, years=1)
            market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=False)
            # Make both children of the root pay the same and misprice it.
            prices = {n: list(market.prices[n]) for n in range(tree.n_nodes)}
            inflows = {n: list(market.inflows[n]) for n in range(tree.n_nodes)}
            kids = tree.children_of(0)
            for c in kids[1:]:
                prices[c] = list(prices[kids[0]])
                inflows[c] = list(inflows[kids[0]])
            base = np.array(prices[kids[0]]) + np.array(inflows[kids[0]])
            prices[0] = list(base * rng.uniform(0.5, 1.5, size=len(base)))
            market2 = TradableSet(
                tree=tree, prices=by_node(tree, prices), inflows=by_node(tree, inflows)
            )
            cert = check_consistency(market2, tree)
            for node, verdict in certificate_mappings(cert, tree).items():
                if verdict.consistent:
                    recon = sum(
                        lam * market2.payoff(c)
                        for c, lam in verdict.weights.items()
                    )
                    s = market2.price(node)
                    assert np.abs(recon - s).max() <= 1e-9 * max(1.0, np.abs(s).max())
                else:
                    n_violations += 1
                    x = np.array(verdict.violation)
                    for c in tree.children_of(node).tolist():
                        assert x @ market2.payoff(c) >= -1e-12
                    assert x @ market2.price(node) < -1e-9
        assert n_violations > 0

    def test_state_price_recursion_prices_strategies(self):
        """v_t = sum_c lambda_c (v_c + X_c - Z_c) on consistent markets."""
        rng = np.random.default_rng(17)
        tree = random_tree(rng, years=2)
        market, weights = state_price_market(rng, tree)
        cert = check_consistency(market, tree)
        # A static buy-and-hold paying out all inflows: X_c = units . Z_c.
        units = rng.uniform(0, 2, size=market.n_assets)
        for node in range(tree.n_nodes):
            if tree.is_leaf(node):
                continue
            lam = cert.weights
            v_node = units @ market.price(node)
            recon = sum(
                lam[c]
                * (units @ market.price(c) + units @ market.inflow(c))
                for c in tree.children_of(node).tolist()
            )
            assert recon == pytest.approx(v_node, abs=1e-9)

    def test_equal_flows_equal_terminal_implies_equal_values(self):
        # Redundant tradable: asset 1 is two of asset 0, so a rebalanced
        # holding has the same terminal value and the same net flows.
        rng = np.random.default_rng(23)
        tree = random_tree(rng, years=2)
        base, _ = state_price_market(rng, tree, n_risky=1, with_bonds=False)
        prices = {
            n: (base.prices[n][0], 2 * base.prices[n][0])
            for n in range(tree.n_nodes)
        }
        inflows = {
            n: (base.inflows[n][0], 2 * base.inflows[n][0])
            for n in range(tree.n_nodes)
        }
        market = TradableSet(
            tree=tree, prices=by_node(tree, prices), inflows=by_node(tree, inflows)
        )
        assert check_consistency(market, tree).consistent
        # phi holds (1, 1); theta holds (3, 0): same value everywhere, and
        # both pay out their inflows, which coincide.
        phi = np.array([1.0, 1.0])
        theta = np.array([3.0, 0.0])
        for node in range(tree.n_nodes):
            assert phi @ market.price(node) == pytest.approx(
                theta @ market.price(node), abs=1e-9
            )
            assert phi @ market.inflow(node) == pytest.approx(
                theta @ market.inflow(node), abs=1e-9
            )


def test_state_price_capital_prices_the_period_bond():
    rng = np.random.default_rng(29)
    tree = random_tree(rng, years=1, interior_per_year=2)
    market, _ = state_price_market(rng, tree, n_risky=1, with_bonds=True)
    cert = check_consistency(market, tree)
    j_end = len(tree.grid.dates) - 1
    targets = tree.descendants_at(0, j_end)
    unit = DiscreteDistribution(
        tuple(1.0 for _ in targets), tuple(1.0 / len(targets) for _ in targets), tuple(targets)
    )
    spec = FinanciabilitySpec.state_price(cert, tree)
    # The composed weights price the period bond's unit payoff exactly.
    k = market.bond_for_period(0)
    price = market.prices[0][k]
    assert max_capital(spec, unit, 0.0, 0, j_end) == pytest.approx(price, abs=1e-9)


def test_restriction_membership():
    r = RestrictionSet.of_indices(3, [0, 2])
    assert r.contains([1.0, 0.0, -2.0])
    assert not r.contains([1.0, 0.5, 0.0])
    rb = RestrictionSet(3, basis=((1.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert rb.contains([2.0, 2.0, -1.0])
    assert not rb.contains([1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        RestrictionSet(2, basis=((1.0, 0.0), (2.0, 0.0)))
