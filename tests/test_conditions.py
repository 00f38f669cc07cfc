import math
from fractions import Fraction

import numpy as np
import pytest

from prodval.conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    audit_consistency_with_tradables,
    audit_neutrality_to_tradables,
    audit_positive_homogeneity,
    flat_rates,
    fulfillment_satisfied,
    max_capital,
    period_rates_from_market,
)
from prodval.errors import (
    BadRate,
    MissingCertificate,
    NegativePayoffAtom,
    NumericalFailure,
    ProdvalError,
)
from prodval.lattice import DateGrid, build_tree
from prodval.market import TradableSet, check_consistency
from prodval.risk import DiscreteDistribution, DistributionRows

import scalar_reference as ref
from util import by_node, random_tree, state_price_market


def dist(*atoms, labels=None):
    return DiscreteDistribution.from_atoms(atoms, labels=labels)


def two_step_tree(p_up=0.5):
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "u", "date": Fraction(1, 2), "parent": "r", "p": p_up},
        {"id": "d", "date": Fraction(1, 2), "parent": "r", "p": 1 - p_up},
        {"id": "u1", "date": 1, "parent": "u", "p": 1.0},
        {"id": "d1", "date": 1, "parent": "d", "p": 1.0},
    ]
    return build_tree(grid, nodes)


class TestFulfillment:
    def test_full_rejects_any_negative_atom(self):
        spec = FulfillmentSpec.full()
        assert not fulfillment_satisfied(spec, dist((-1, 0.001), (5, 0.999)))
        assert fulfillment_satisfied(spec, dist((0, 0.5), (5, 0.5)))

    def test_probability_threshold(self):
        spec = FulfillmentSpec.probability(0.995)
        assert fulfillment_satisfied(spec, dist((-1, 0.004), (5, 0.996)))
        assert not fulfillment_satisfied(spec, dist((-1, 0.006), (5, 0.994)))

    def test_var_form_equivalent_to_threshold(self):
        var_spec = FulfillmentSpec.var(0.005)
        assert fulfillment_satisfied(var_spec, dist((-1, 0.004), (5, 0.996)))
        assert not fulfillment_satisfied(var_spec, dist((-1, 0.006), (5, 0.994)))

    def test_var_threshold_agreement_random(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            # Values away from zero so the slack cannot flip the verdict.
            values = rng.uniform(0.01, 10, size=n) * rng.choice([-1, 1], size=n)
            w = rng.uniform(0.05, 1, size=n)
            w = w / w.sum()
            d = dist(*zip(values, w))
            alpha = float(rng.uniform(0.01, 0.5))
            a = fulfillment_satisfied(FulfillmentSpec.var(alpha), d)
            b = fulfillment_satisfied(FulfillmentSpec.probability(1 - alpha), d)
            assert a == b

    def test_monotone_under_raised_atoms(self):
        rng = np.random.default_rng(47)
        specs = [
            FulfillmentSpec.full(),
            FulfillmentSpec.var(0.1),
            FulfillmentSpec.es(0.1),
            FulfillmentSpec.probability(0.8),
        ]
        for _ in range(100):
            n = int(rng.integers(2, 6))
            values = rng.uniform(-5, 5, size=n)
            w = rng.uniform(0.05, 1, size=n)
            w = w / w.sum()
            d = dist(*zip(values, w))
            k = int(rng.integers(0, n))
            raised = list(zip(values, w))
            raised[k] = (values[k] + float(rng.uniform(0, 5)), w[k])
            d_up = dist(*raised)
            for spec in specs:
                if fulfillment_satisfied(spec, d):
                    assert fulfillment_satisfied(spec, d_up)


def spb_fixture():
    """Two tradables whose child payoffs make the weights uniquely
    (0.49, 0.49)."""
    tree = two_step_tree()
    y1, y2 = np.array([1.0, 2.0]), np.array([1.0, 0.0])
    s = 0.49 * y1 + 0.49 * y2
    market = TradableSet(
        tree=tree,
        prices=by_node(
            tree, {0: tuple(s), 1: tuple(y1), 2: tuple(y2), 3: (1.0, 1.0), 4: (1.0, 1.0)}
        ),
        inflows=np.zeros((tree.n_nodes, 2)),
    )
    cert = check_consistency(market, tree)
    return tree, market, cert


class TestMaxCapital:
    def test_zero_payoff_needs_zero_capital(self):
        zero = dist((0.0, 1.0))
        assert max_capital(FinanciabilitySpec.cost_of_capital(0.06), zero, 0.02) == 0.0
        assert max_capital(FinanciabilitySpec.zero(), zero, 0.02) == 0.0

    def test_cost_of_capital_inversion(self):
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        payoff = dist((108.0, 1.0))
        assert max_capital(spec, payoff, 0.02) == pytest.approx(100.0, abs=1e-12)

    def test_state_price_weighted_sum(self):
        tree, market, cert = spb_fixture()
        spec = FinanciabilitySpec.state_price(cert, tree)
        lam = cert.weights
        assert lam[1] == pytest.approx(0.49, abs=1e-9)
        assert lam[2] == pytest.approx(0.49, abs=1e-9)
        payoff = dist((10.0, 0.5), (10.0, 0.5), labels=(1, 2))
        got = max_capital(spec, payoff, 0.0, node=0, horizon_index=1)
        assert got == pytest.approx(9.8, abs=1e-9)

    def test_negative_atom_rejected(self):
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        with pytest.raises(NegativePayoffAtom):
            max_capital(spec, dist((-1.0, 1.0)), 0.02)

    def test_state_price_needs_labels(self):
        tree, market, cert = spb_fixture()
        spec = FinanciabilitySpec.state_price(cert, tree)
        with pytest.raises(MissingCertificate):
            max_capital(spec, dist((10.0, 1.0)), 0.0, node=0, horizon_index=1)

    def test_monotone_in_payoff(self):
        rng = np.random.default_rng(53)
        coc = FinanciabilitySpec.cost_of_capital(0.06)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            values = rng.uniform(0, 10, size=n)
            w = rng.uniform(0.05, 1, size=n)
            w = w / w.sum()
            bump = rng.uniform(0, 3, size=n)
            lo = dist(*zip(values, w))
            hi = dist(*zip(values + bump, w))
            assert max_capital(coc, hi, 0.02) >= max_capital(coc, lo, 0.02) - 1e-12


class TestHomogeneityAudit:
    def test_cost_of_capital_exact(self):
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        payoffs = [dist((108.0, 1.0)), dist((10.0, 0.4), (0.0, 0.6))]
        report = audit_positive_homogeneity(spec, payoffs, [0.0, 1.0, 2.5], rate=0.02)
        assert report.passed
        # lam = 2.5 on the constant payoff: 250 vs 2.5 * 100.
        base = max_capital(spec, payoffs[0], 0.02)
        scaled = max_capital(spec, payoffs[0].scaled(2.5), 0.02)
        assert scaled == pytest.approx(2.5 * base, abs=1e-9)

    def test_state_price_exact(self):
        tree, market, cert = spb_fixture()
        spec = FinanciabilitySpec.state_price(cert, tree)
        payoff = dist((10.0, 0.5), (4.0, 0.5), labels=(1, 2))
        report = audit_positive_homogeneity(
            spec, [payoff], [0.0, 3.0], rate=0.0, node=0, horizon_index=1
        )
        assert report.passed


def three_leaf_fixture(u_consistent):
    """One asset on r -> {u -> {u1, u2}, d -> {d1}} (dates 0, 1/2, 1).
    Unless ``u_consistent`` it is worth nothing at u's children, so u has
    no state-price weights."""
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "u", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "d", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "u1", "date": 1, "parent": "u", "p": 0.5},
        {"id": "u2", "date": 1, "parent": "u", "p": 0.5},
        {"id": "d1", "date": 1, "parent": "d", "p": 1.0},
    ]
    tree = build_tree(grid, nodes)
    u_leaf = 1.0 if u_consistent else 0.0
    market = TradableSet(
        tree=tree,
        prices=by_node(
            tree, {0: (1.0,), 1: (1.0,), 2: (1.0,), 3: (u_leaf,), 4: (u_leaf,), 5: (1.0,)}
        ),
        inflows=np.zeros((tree.n_nodes, 1)),
    )
    cert = check_consistency(market, tree)
    assert cert.consistent_at.tolist() == [True, u_consistent, True]
    return tree, cert, FinanciabilitySpec.state_price(cert, tree)


def stacked(dists):
    """The distributions as DistributionRows, padded with NaN values."""
    width = max(len(d.values) for d in dists)
    values = np.full((len(dists), width), np.nan)
    probs = np.zeros(values.shape)
    labels = np.zeros(values.shape, dtype=np.int64)
    for r, d in enumerate(dists):
        values[r, : len(d.values)] = d.values
        probs[r, : len(d.probs)] = d.probs
        if d.labels is not None:
            labels[r, : len(d.labels)] = d.labels
    unlabeled = any(d.labels is None for d in dists)
    counts = np.array([len(d.values) for d in dists])
    return DistributionRows(values, probs, counts, None if unlabeled else labels)


def raised(fn):
    with pytest.raises(ProdvalError) as info:
        fn()
    return type(info.value), str(info.value)


def uniform(labels, value=10.0):
    k = len(labels)
    return DiscreteDistribution((value,) * k, (1.0 / k,) * k, tuple(labels))


class TestStatePriceErrors:
    """max_capital raises the frozen per-distribution function's error, as
    one distribution and for the first offending row of many."""

    def check(self, spec, good, bad, node, bad_node, horizon_index, want):
        """``bad`` alone raises ``want`` (and so does the frozen loop); as
        the second of three rows after a ``good`` one it raises the same,
        ahead of the third row's own error."""
        one = raised(lambda: max_capital(spec, bad, 0.0, bad_node, horizon_index))
        assert one == want
        assert raised(lambda: ref.max_capital(spec, bad, 0.0, bad_node, horizon_index)) == want
        rows = stacked([good, bad, uniform((99,))])
        nodes = np.array([node, bad_node, node])
        got = raised(lambda: max_capital(spec, rows, np.zeros(3), nodes, horizon_index))
        assert got == want

    def test_label_not_a_descendant_at_the_horizon(self):
        tree, cert, spec = three_leaf_fixture(u_consistent=True)
        good = uniform((3, 4, 5))
        # Not at the horizon date, not a node, and below another node.
        # Named by config label, or by the id where it names no node.
        for bad, bad_node, name in (
            (uniform((3, 1)), 0, "'u'"),
            (uniform((3, 7)), 0, "7"),
            (uniform((4, 5)), 1, "'d1'"),
        ):
            want = (MissingCertificate, f"no state price for node {name}")
            self.check(spec, good, bad, 0, bad_node, 2, want)

    def test_path_through_an_inconsistent_node(self):
        tree, cert, spec = three_leaf_fixture(u_consistent=False)
        want = (NumericalFailure, "no weights at inconsistent node 'u'")
        good = uniform((5,))
        for bad in (uniform((3, 4, 5)), uniform((4,)), uniform((5, 3))):
            self.check(spec, good, bad, 0, 0, 2, want)
        # Only the atoms' own paths are priced: d1's path avoids u.
        price = cert.weights[2] * cert.weights[5]
        assert max_capital(spec, good, 0.0, 0, 2) == 10.0 * price

    def test_lowest_node_without_weights_is_named(self):
        # r -> a -> b -> leaf and r -> c -> d -> leaf2 at dates 0, 1/3,
        # 2/3, 1; neither a nor b has weights.
        grid = DateGrid((Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)), 1)
        nodes = [{"id": "r", "date": 0, "parent": None, "p": 1.0}]
        for top, kids in (("a", ("b", "leaf")), ("c", ("d", "leaf2"))):
            nodes.append({"id": top, "date": Fraction(1, 3), "parent": "r", "p": 0.5})
            nodes.append({"id": kids[0], "date": Fraction(2, 3), "parent": top, "p": 1.0})
            nodes.append({"id": kids[1], "date": 1, "parent": kids[0], "p": 1.0})
        tree = build_tree(grid, nodes)
        by_label = {lab: n for n, lab in enumerate(tree.labels)}
        prices = {n: (1.0, 0.0) for n in range(tree.n_nodes)}
        prices[by_label["b"]] = (0.0, 1.0)
        prices[by_label["leaf"]] = (0.0, 0.0)
        market = TradableSet(
            tree=tree, prices=by_node(tree, prices), inflows=np.zeros((tree.n_nodes, 2))
        )
        cert = check_consistency(market, tree)
        consistent = [cert.consistent_at[by_label[lab]] for lab in "rabcd"]
        assert consistent == [True, False, False, True, True]
        spec = FinanciabilitySpec.state_price(cert, tree)
        want = (NumericalFailure, "no weights at inconsistent node 'b'")
        good = uniform((by_label["leaf2"],))
        self.check(spec, good, uniform((by_label["leaf"],)), 0, 0, 3, want)

    def test_unlabeled_atoms(self):
        tree, cert, spec = three_leaf_fixture(u_consistent=True)
        want = (
            MissingCertificate,
            "state-price bound needs labeled payoff atoms and the period location",
        )
        bare = dist((10.0, 0.5), (4.0, 0.5))
        assert raised(lambda: max_capital(spec, bare, 0.0, 0, 2)) == want
        assert raised(lambda: ref.max_capital(spec, bare, 0.0, 0, 2)) == want
        assert raised(lambda: max_capital(spec, uniform((3, 4)), 0.0, None, 2)) == want
        rows = stacked([uniform((3, 4)), bare])
        assert raised(lambda: max_capital(spec, rows, np.zeros(2), np.zeros(2, dtype=int), 2)) == want

    def test_rows_match_one_distribution_each(self):
        tree, cert, spec = three_leaf_fixture(u_consistent=True)
        specs = (
            spec,
            FinanciabilitySpec.cost_of_capital(0.06),
            FinanciabilitySpec.zero(),
        )
        payoffs = [uniform((3, 4, 5), 10.0), dist((0.0, 0.25), (7.5, 0.75), labels=(5, 3))]
        rates = np.array([0.02, -0.01])
        for spec in specs:
            got = max_capital(spec, stacked(payoffs), rates, np.zeros(2, dtype=int), 2)
            want = [ref.max_capital(spec, d, r, 0, 2) for d, r in zip(payoffs, rates.tolist())]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    def test_negative_atom_and_bad_rate_name_the_first_offending_row(self):
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        payoffs = [dist((1.0, 1.0)), dist((-2.0, 0.5), (1.0, 0.5)), dist((-3.0, 1.0))]
        nodes = np.zeros(3, dtype=int)
        got = raised(lambda: max_capital(spec, stacked(payoffs), np.zeros(3), nodes))
        assert got == (NegativePayoffAtom, "capital payoff has atom -2.0")
        rates = np.array([0.0, -1.5, -2.0])
        got = raised(lambda: max_capital(spec, stacked(payoffs[:1] * 3), rates, nodes))
        assert got == raised(lambda: ref.max_capital(spec, payoffs[0], -1.5))
        assert got == (BadRate, "1 + r + eta = -0.44 must be positive")


def bond_only_market(tree, r=0.02):
    # Deterministic compounding split across the two steps of the year.
    half = (1 + r) ** 0.5
    prices = {}
    inflows = {}
    for node in range(tree.n_nodes):
        j = tree.date_idx[node]
        if j == 0:
            prices[node] = (1 / (1 + r),)
        elif j == 1:
            prices[node] = (1 / half,)
        else:
            prices[node] = (0.0,)
        inflows[node] = (1.0,) if j == 2 else (0.0,)
    return TradableSet(
        tree=tree,
        prices=by_node(tree, prices),
        inflows=by_node(tree, inflows),
        bond_periods={0: 0},
    )


class TestTradableAudits:
    def test_bond_market_consistent_for_coc(self):
        tree = two_step_tree()
        market = bond_only_market(tree)
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        report = audit_consistency_with_tradables(
            spec, market, tree, None, flat_rates(tree, 0.02)
        )
        assert not report.any_flagged
        # Max step return is the bond's, strictly below the hurdle.
        assert report.optimum[0] < report.hurdle[0]

    def test_rich_tradable_flagged(self):
        # Expected step return 12% beats the 8% hurdle.
        tree = two_step_tree()
        prices = {0: (1.0,), 1: (1.3,), 2: (0.94,), 3: (1.0,), 4: (1.0,)}
        market = TradableSet(
            tree=tree,
            prices=by_node(tree, prices),
            inflows=np.zeros((tree.n_nodes, 1)),
        )
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        report = audit_consistency_with_tradables(
            spec, market, tree, None, flat_rates(tree, 0.02)
        )
        assert report.flagged[0]
        assert report.optimum[0] == pytest.approx(1.12, abs=1e-9)

    def test_zero_capital_consistent_everywhere(self):
        tree = two_step_tree()
        market = bond_only_market(tree)
        report = audit_consistency_with_tradables(
            FinanciabilitySpec.zero(), market, tree, None, flat_rates(tree, 0.02)
        )
        assert not report.any_flagged

    def test_state_price_passes_both_audits(self):
        rng = np.random.default_rng(59)
        tree = random_tree(rng, years=2)
        market, _ = state_price_market(rng, tree)
        cert = check_consistency(market, tree)
        spec = FinanciabilitySpec.state_price(cert, tree)
        rates = flat_rates(tree, 0.02)
        assert not audit_consistency_with_tradables(
            spec, market, tree, None, rates
        ).any_flagged
        assert not audit_neutrality_to_tradables(
            spec, market, tree, None, rates
        ).any_flagged

    def test_coc_with_bond_fails_neutrality(self):
        tree = two_step_tree()
        market = bond_only_market(tree)
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        report = audit_neutrality_to_tradables(
            spec, market, tree, None, flat_rates(tree, 0.02)
        )
        assert report.any_flagged

    def test_tuned_single_tradable_is_neutral(self):
        # Every step's expected return equals the hurdle exactly.
        hurdle = 1.08
        tree = two_step_tree(p_up=0.5)
        up, down = hurdle + 0.3, hurdle - 0.3
        prices = {
            0: (1.0,),
            1: (up,),
            2: (down,),
            3: (up * hurdle,),
            4: (down * hurdle,),
        }
        market = TradableSet(
            tree=tree,
            prices=by_node(tree, prices),
            inflows=np.zeros((tree.n_nodes, 1)),
        )
        spec = FinanciabilitySpec.cost_of_capital(0.06)
        rates = flat_rates(tree, 0.02)
        assert not audit_neutrality_to_tradables(spec, market, tree, None, rates).any_flagged
        assert not audit_consistency_with_tradables(
            spec, market, tree, None, rates
        ).any_flagged


def test_capital_schedule_rejects_negative():
    with pytest.raises(ValueError, match=r"^negative capital -1\.0 at node 1$"):
        CapitalSchedule([2.0, -1.0, -3.0])
    with pytest.raises(ValueError, match="^capital at node 2 must be finite$"):
        CapitalSchedule([2.0, 0.0, math.nan])
    capital = CapitalSchedule([2.0, 0.0])
    assert capital.values.tolist() == [2.0, 0.0]
    with pytest.raises(ValueError):
        capital.values[1] = 5.0


def test_period_rates_match_each_nodes_annual_anchor():
    rng = np.random.default_rng(67)
    tree = random_tree(rng, years=3, interior_per_year=2)
    market, _ = state_price_market(rng, tree, n_risky=1)
    rates = period_rates_from_market(market, tree)
    expected = []
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        i = int(tree.date_of(node) // 1)
        anchor = tree.ancestor_at(node, tree.grid.index(i))
        expected.append(1.0 / float(market.prices[anchor, market.bond_for_period(i)]) - 1.0)
    # The inner nodes are the ids before the horizon's.
    assert rates.tolist() == expected
    assert flat_rates(tree, 0.02).tolist() == [0.02] * len(expected)
