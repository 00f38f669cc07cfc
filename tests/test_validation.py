"""Validation errors of the market and of config ingestion.

Each defect must raise its own error class with a message that names
the first offending node (its tree label where the tree knows one),
whatever form the market data is given in: one row per node id, as a
tuple of tuples, a list of arrays, or one (n_nodes, n_assets) array.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prodval.config import problem_from_dict
from prodval.errors import CrossRefError, DimensionMismatch, SchemaViolation
from prodval.lattice import DateGrid, build_tree
from prodval.market import RestrictionSet, TradableSet
from prodval.strategy import Strategy

CONFIGS = Path(__file__).parent.parent / "configs"


def one_period_tree():
    """Ids: r=0 at 0, u=1 and d=2 at 1/2, u1=3 and d1=4 at 1."""
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "u", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "d", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "u1", "date": 1, "parent": "u", "p": 1.0},
        {"id": "d1", "date": 1, "parent": "d", "p": 1.0},
    ]
    return build_tree(grid, nodes)


def bond_and_stock():
    """Asset 0 is the period-0 bond, asset 1 a stock."""
    prices = [
        [0.98, 10.0],
        [0.99, 11.0],
        [0.99, 9.0],
        [0.0, 12.0],
        [0.0, 8.0],
    ]
    inflows = [
        [0.0, 0.0],
        [0.0, 0.5],
        [0.0, 0.5],
        [1.0, 0.0],
        [1.0, 0.0],
    ]
    return prices, inflows


def as_tuples(rows):
    return tuple(map(tuple, rows))


def as_array_rows(rows):
    return [np.asarray(v, dtype=float) for v in rows]


def as_array(rows):
    return np.array(rows, dtype=float)


FORMS = {"tuples": as_tuples, "array_rows": as_array_rows, "array": as_array}


def make_market(form, prices, inflows, **kw):
    convert = FORMS[form]
    return TradableSet(
        tree=one_period_tree(), prices=convert(prices), inflows=convert(inflows), **kw
    )


@pytest.fixture(params=sorted(FORMS))
def form(request):
    return request.param


class TestMarketValidation:
    def test_valid_market_builds(self, form):
        prices, inflows = bond_and_stock()
        market = make_market(form, prices, inflows, bond_periods={0: 0})
        assert market.n_assets == 2
        assert list(market.price(1)) == [0.99, 11.0]
        assert list(market.payoff(1)) == [0.99, 11.5]

    def test_negative_price_names_first_node(self, form):
        prices, inflows = bond_and_stock()
        prices[4][1] = -1.0
        prices[2][1] = -0.5
        with pytest.raises(ValueError, match=r"negative price or inflow at node 'd'$"):
            make_market(form, prices, inflows)

    def test_negative_inflow_names_first_node(self, form):
        prices, inflows = bond_and_stock()
        inflows[3][1] = -0.25
        inflows[4][1] = -0.25
        with pytest.raises(ValueError, match=r"negative price or inflow at node 'u1'$"):
            make_market(form, prices, inflows)

    def test_all_zero_prices_at_non_leaf(self, form):
        prices, inflows = bond_and_stock()
        prices[2] = [0.0, 0.0]
        prices[1] = [0.0, 0.0]
        with pytest.raises(
            ValueError, match=r"price vector is identically zero at node 'u'$"
        ):
            make_market(form, prices, inflows)

    def test_all_zero_prices_allowed_at_leaves(self, form):
        prices, inflows = bond_and_stock()
        prices[3] = [0.0, 0.0]
        prices[4] = [0.0, 0.0]
        market = make_market(form, prices, inflows)
        assert not market.price(3).any()

    def test_vector_length_mismatch_in_arrays(self):
        prices, inflows = bond_and_stock()
        inflows = [row + [0.0] for row in inflows]
        with pytest.raises(DimensionMismatch, match=r"vector length mismatch at node 0$"):
            make_market("array", prices, inflows)

    def test_missing_rows_in_price_array(self):
        prices, inflows = bond_and_stock()
        with pytest.raises(CrossRefError, match=r"missing price vector at node 3$"):
            make_market("array", prices[:3], inflows)

    def test_bond_must_pay_one_at_year_end(self, form):
        prices, inflows = bond_and_stock()
        inflows[4][0] = 0.5
        with pytest.raises(
            ValueError,
            match=r"tradable 0 flagged as period-0 bond must have price 0 "
            r"and inflow 1 at date 1, not at node 'd1'$",
        ):
            make_market(form, prices, inflows, bond_periods={0: 0})

    def test_bond_must_have_zero_price_at_year_end(self, form):
        prices, inflows = bond_and_stock()
        prices[4][0] = 0.02
        prices[3][0] = 0.01
        with pytest.raises(
            ValueError, match=r"must have price 0 and inflow 1 at date 1, not at node 'u1'$"
        ):
            make_market(form, prices, inflows, bond_periods={0: 0})

    def test_bond_needs_positive_price_at_period_start(self, form):
        prices, inflows = bond_and_stock()
        prices[0][0] = 0.0
        with pytest.raises(
            ValueError,
            match=r"period-0 bond must have positive price at date 0, not at node 'r'$",
        ):
            make_market(form, prices, inflows, bond_periods={0: 0})

    def test_arrays_are_read_only_and_rows_are_views(self, form):
        prices, inflows = bond_and_stock()
        market = make_market(form, prices, inflows, bond_periods={0: 0})
        assert market.prices.shape == market.inflows.shape == (5, 2)
        assert market.payoff(3).base is market.payoffs
        with pytest.raises(ValueError):
            market.prices[0, 0] = 1.0


def two_point_doc():
    """Labels: root at 0, mid at 1/2, lo and hi at 1."""
    return json.loads((CONFIGS / "two_point.json").read_text())


class TestConfigValidation:
    def test_negative_price(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["prices"]["mid"] = -0.5
        with pytest.raises(
            SchemaViolation, match=r"^invalid config: negative price or inflow at node 'mid'$"
        ) as err:
            problem_from_dict(doc)
        assert type(err.value.__cause__) is ValueError

    def test_negative_inflow(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["inflows"]["hi"] = -1.0
        doc["market"]["tradables"][0]["inflows"]["lo"] = -1.0
        with pytest.raises(
            SchemaViolation, match=r"^invalid config: negative price or inflow at node 'lo'$"
        ):
            problem_from_dict(doc)

    def test_all_zero_price_vector_at_non_leaf(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["prices"]["mid"] = 0.0
        with pytest.raises(
            SchemaViolation,
            match=r"^invalid config: price vector is identically zero at node 'mid'$",
        ):
            problem_from_dict(doc)

    def test_non_numeric_price(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["prices"]["lo"] = None
        with pytest.raises(
            SchemaViolation,
            match=r"^market\.tradables\[0\]\.prices has non-numeric value None at node 'lo'$",
        ):
            problem_from_dict(doc)

    def test_missing_node_in_prices_names_first_label(self):
        doc = two_point_doc()
        del doc["market"]["tradables"][0]["prices"]["hi"]
        del doc["market"]["tradables"][0]["prices"]["mid"]
        with pytest.raises(
            CrossRefError,
            match=r"^market\.tradables\[0\]\.prices is missing node 'mid'$",
        ):
            problem_from_dict(doc)

    def test_unknown_label_in_prices(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["prices"]["ghost"] = 1.0
        with pytest.raises(
            CrossRefError,
            match=r"^market\.tradables\[0\]\.prices references unknown node 'ghost'$",
        ):
            problem_from_dict(doc)

    def test_unknown_label_in_inflows_names_first_label(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["inflows"] = {
            "lo": 1.0,
            "ghost": 1.0,
            "hi": 1.0,
            "phantom": 2.0,
        }
        with pytest.raises(
            CrossRefError,
            match=r"^market\.tradables\[0\]\.inflows references unknown node 'ghost'$",
        ):
            problem_from_dict(doc)

    def test_unknown_label_in_second_tradable(self):
        doc = two_point_doc()
        stock = {
            "prices": {"root": 1.0, "mid": 1.0, "lo": 1.0, "hi": 1.0},
            "inflows": {"spectre": 1.0},
        }
        doc["market"]["tradables"].append(stock)
        with pytest.raises(
            CrossRefError,
            match=r"^market\.tradables\[1\]\.inflows references unknown node 'spectre'$",
        ):
            problem_from_dict(doc)

    def test_unknown_label_in_liability_and_illiquid(self):
        doc = two_point_doc()
        doc["illiquid"] = {"inflows": {"lo": 1.0, "wraith": 1.0}}
        with pytest.raises(
            CrossRefError,
            match=r"^illiquid\.inflows references unknown node 'wraith'$",
        ):
            problem_from_dict(doc)
        doc = two_point_doc()
        doc["liability"]["terminal"] = {"shade": 1.0}
        with pytest.raises(
            CrossRefError,
            match=r"^liability\.terminal references unknown node 'shade'$",
        ):
            problem_from_dict(doc)

    def test_bond_that_does_not_pay_one(self):
        doc = two_point_doc()
        doc["market"]["tradables"][0]["inflows"]["hi"] = 0.5
        with pytest.raises(
            SchemaViolation,
            match=r"^invalid config: tradable 0 flagged as period-0 bond must have price 0 "
            r"and inflow 1 at date 1, not at node 'hi'$",
        ):
            problem_from_dict(doc)

    def test_negative_initial_unit_of_an_explicit_strategy(self):
        doc = two_point_doc()
        units = {"root": [1.0], "mid": [1.0], "lo": [0.0], "hi": [0.0]}
        strategy = {"assignments": units, "initial": {"root": [-5.0]}}
        doc["engine"] = {"mode": "B", "family": {"type": "explicit", "strategy": strategy}}
        with pytest.raises(
            SchemaViolation,
            match=r"^engine\.family\.strategy\.initial has a negative unit at node 'root'$",
        ):
            problem_from_dict(doc)

    def test_non_negative_strategy_rejects_a_negative_initial_unit(self):
        tree = one_period_tree()
        initial = np.zeros((tree.n_nodes, 1))
        initial[3] = -1.0
        with pytest.raises(
            ValueError, match=r"^non-negative strategy has a negative initial unit at node 3$"
        ):
            Strategy(tree, 1, np.zeros((tree.n_nodes, 1)), initial)
        signed = Strategy(tree, 1, np.zeros((tree.n_nodes, 1)), initial, sign_class="unrestricted")
        assert signed.initial[3, 0] == -1.0


# The two-point config has one tradable.
BAD_RESTRICTIONS = [
    ({"indices": [7]}, "index 7 is not a tradable index (0 to 0)"),
    ({"indices": [-1]}, "index -1 is not a tradable index (0 to 0)"),
    ({"indices": []}, "indices must name at least one tradable"),
    ({"indices": [0.5]}, "index 0.5 is not an integer"),
    ({"indices": [True]}, "index True is not an integer"),
    ({"indices": [0, 0]}, "index 0 is given twice"),
    ({"indices": 0}, "indices must be a list"),
    ({"basis": [[1.0, 2.0]]}, "basis vector 0 has 2 entries, not one per tradable (1)"),
    ({"basis": [[float("nan")]]}, "basis vector 0 has a non-finite entry"),
    ({"basis": []}, "basis must hold at least one vector"),
    ({"basis": [[0.0]]}, "basis vectors must be linearly independent"),
    ({"basis": [1.0]}, "basis must be a list of vectors"),
    ({"basis": [["a"]]}, "could not convert string to float: 'a'"),
    ({}, "give an object with exactly one of indices or basis"),
    ({"indices": [0], "basis": [[1.0]]}, "give an object with exactly one of indices or basis"),
    ([0], "give an object with exactly one of indices or basis"),
]


class TestRestrictionValidation:
    @pytest.mark.parametrize("restriction, message", BAD_RESTRICTIONS)
    def test_bad_restriction_is_a_schema_violation(self, restriction, message):
        doc = dict(two_point_doc(), restriction=restriction)
        with pytest.raises(SchemaViolation) as raised:
            problem_from_dict(doc)
        assert str(raised.value) == f"restriction: {message}"

    @pytest.mark.parametrize(
        "restriction", [{"indices": [0]}, {"basis": [[2.0]]}]
    )
    def test_valid_restriction_loads(self, restriction):
        problem = problem_from_dict(dict(two_point_doc(), restriction=restriction))
        assert problem.restriction.dim == 1

    def test_restriction_set_checks_its_own_arguments(self):
        with pytest.raises(ValueError, match="^index 3 is not a tradable index"):
            RestrictionSet.of_indices(3, [2, 3])
        with pytest.raises(ValueError, match="^index 'a' is not an integer$"):
            RestrictionSet.of_indices(3, [0, "a"])
        with pytest.raises(ValueError, match="^basis vector 1 has 2 entries"):
            RestrictionSet(3, basis=((1.0, 0.0, 0.0), (0.0, 1.0)))
        assert RestrictionSet.of_indices(3, [2, 0]).indices == (0, 2)
