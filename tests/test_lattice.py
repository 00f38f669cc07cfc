import math
from fractions import Fraction

import numpy as np
import pytest

from prodval.errors import (
    DateNotInGrid,
    LeafNotAtHorizon,
    MissingInteriorDate,
    OrphanNode,
    DimensionMismatch,
    ProbabilityMass,
)
from prodval.lattice import DateGrid, build_tree, conditional_distribution

from util import by_node, make_grid, random_tree


def half_grid():
    return DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)


def smallest_tree():
    grid = half_grid()
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "a", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "b", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "a1", "date": 1, "parent": "a", "p": 1.0},
        {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
    ]
    return build_tree(grid, nodes)


class TestDateGrid:
    def test_missing_interior_date(self):
        with pytest.raises(MissingInteriorDate):
            DateGrid((Fraction(0), Fraction(1)), 1)

    def test_date_not_in_grid(self):
        with pytest.raises(DateNotInGrid):
            half_grid().index(0.25)

    def test_exact_rational_dates(self):
        grid = DateGrid.build([0, 0.1, "1/2", 1], 1)
        assert Fraction(1, 10) in grid.dates
        assert Fraction(1, 2) in grid.dates


class TestBuildTree:
    def test_smallest_legal_tree(self):
        tree = smallest_tree()
        assert tree.n_nodes == 5
        assert tree.date_of(0) == 0
        assert [tree.labels[n] for n in tree.by_date[0].tolist()] == ["r"]
        assert len(tree.by_date[1]) == 2
        assert len(tree.by_date[2]) == 2

    def test_probability_mass_violation(self):
        grid = half_grid()
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": Fraction(1, 2), "parent": "r", "p": 0.6},
            {"id": "b", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
            {"id": "a1", "date": 1, "parent": "a", "p": 1.0},
            {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
        ]
        with pytest.raises(ProbabilityMass):
            build_tree(grid, nodes)

    def test_orphan_node(self):
        grid = half_grid()
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": Fraction(1, 2), "parent": "missing", "p": 1.0},
        ]
        with pytest.raises(OrphanNode):
            build_tree(grid, nodes)

    def test_leaf_not_at_horizon(self):
        grid = half_grid()
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
        ]
        with pytest.raises(LeafNotAtHorizon):
            build_tree(grid, nodes)

    def test_zero_probability_branch_rejected(self):
        grid = half_grid()
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": Fraction(1, 2), "parent": "r", "p": 1.0},
            {"id": "b", "date": Fraction(1, 2), "parent": "r", "p": 0.0},
            {"id": "a1", "date": 1, "parent": "a", "p": 1.0},
            {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
        ]
        with pytest.raises(ProbabilityMass):
            build_tree(grid, nodes)

    def test_missing_annual_date_rejected(self):
        from prodval.errors import InvalidDateGrid

        with pytest.raises(InvalidDateGrid):
            DateGrid((Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(2)), 2)

    def test_breadth_first_ids_contiguous_by_date(self):
        tree = random_tree(np.random.default_rng(1), years=2)
        for j, nodes in enumerate(tree.by_date):
            assert list(nodes) == list(range(nodes[0], nodes[0] + len(nodes)))


    def test_layers_match_date_slices(self):
        tree = random_tree(np.random.default_rng(2), years=2)
        layers = tree.layers(tree.by_date[1], len(tree.grid.dates) - 2)
        assert [sorted(layer.tolist()) for layer in layers] == [
            nodes.tolist() for nodes in tree.by_date[1:]
        ]
        assert [layer.tolist() for layer in tree.layers([0], 0)] == [[0]]

    def test_descendants_at_rejects_earlier_date(self):
        tree = random_tree(np.random.default_rng(3), years=1)
        node = tree.by_date[1][0]
        assert tree.descendants_at(node, 1).tolist() == [node]
        with pytest.raises(ValueError, match="precedes"):
            tree.descendants_at(node, 0)

class TestConditionalDistribution:
    def test_single_layer(self):
        tree = smallest_tree()
        leaves = tree.by_date[2]
        process = by_node(tree, {leaves[0]: 80.0, leaves[1]: 120.0})
        d = conditional_distribution(tree, 0, process, 1)
        assert sorted(zip(d.values, d.probs)) == [(80.0, 0.5), (120.0, 0.5)]

    def test_point_mass_at_own_date(self):
        tree = smallest_tree()
        leaf = tree.by_date[2][0]
        d = conditional_distribution(tree, leaf, by_node(tree, {leaf: 42.0}), 1)
        assert d.values == (42.0,) and d.probs == (1.0,)

    def test_three_level_binary_path_products(self):
        # Hand enumeration: leaf probabilities are products p1*p2.
        grid = DateGrid((Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)), 1)
        nodes = [{"id": "r", "date": 0, "parent": None, "p": 1.0}]
        for a, pa in (("u", 0.3), ("d", 0.7)):
            nodes.append({"id": a, "date": Fraction(1, 3), "parent": "r", "p": pa})
            for b, pb in (("u", 0.4), ("d", 0.6)):
                nodes.append(
                    {"id": a + b, "date": Fraction(2, 3), "parent": a, "p": pb}
                )
                nodes.append(
                    {"id": a + b + "!", "date": 1, "parent": a + b, "p": 1.0}
                )
        tree = build_tree(grid, nodes)
        values = {n: float(i) for i, n in enumerate(tree.by_date[3])}
        d = conditional_distribution(tree, 0, by_node(tree, values), 1)
        expected = {}
        for leaf in tree.by_date[3].tolist():
            mid = tree.parent[leaf]
            top = tree.parent[mid]
            expected[values[leaf]] = tree.prob[top] * tree.prob[mid]
        got = dict(zip(d.values, d.probs))
        assert got.keys() == expected.keys()
        for v in expected:
            assert got[v] == pytest.approx(expected[v], abs=1e-15)

    def test_process_needs_one_value_per_node(self):
        tree = smallest_tree()
        with pytest.raises(DimensionMismatch, match="^process has 3 entries for 5 nodes$"):
            conditional_distribution(tree, 0, np.ones(3), 1)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tree = random_tree(rng, years=2)
            j = len(tree.grid.dates) - 1
            values = by_node(tree, {n: float(rng.normal()) for n in tree.by_date[j].tolist()})
            for node in tree.by_date[1].tolist():
                d = conditional_distribution(tree, node, values, tree.grid.dates[j])
                assert abs(math.fsum(d.probs) - 1.0) <= 1e-12


def test_tower_property():
    """Iterated conditional expectations match the unconditional one."""
    rng = np.random.default_rng(99)
    for _ in range(30):
        tree = random_tree(rng, years=1, interior_per_year=2, max_branch=3)
        j = len(tree.grid.dates) - 1
        horizon = tree.grid.dates[j]
        values = by_node(tree, {n: float(rng.uniform(-10, 10)) for n in tree.by_date[j].tolist()})
        for mid_j in (1, 2):
            total = 0.0
            for node in tree.by_date[mid_j].tolist():
                inner = conditional_distribution(tree, node, values, horizon).mean()
                total += tree.path_probability(0, node) * inner
            direct = conditional_distribution(tree, 0, values, horizon).mean()
            assert abs(total - direct) <= 1e-12


class TestArrayLayout:
    def test_per_node_arrays_are_read_only(self):
        tree = build_tree(
            DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1),
            [
                {"id": "r", "date": 0, "parent": None, "p": 1.0},
                {"id": "a", "date": "1/2", "parent": "r", "p": 0.25},
                {"id": "b", "date": 0.5, "parent": "r", "p": 0.75},
                {"id": "a1", "date": "1", "parent": "a", "p": 1.0},
                {"id": "b1", "date": 1.0, "parent": "b", "p": 1.0},
            ],
        )
        assert tree.parent.tolist() == [-1, 0, 0, 1, 2]
        assert tree.date_idx.tolist() == [0, 1, 1, 2, 2]
        assert tree.prob.tolist() == [1.0, 0.25, 0.75, 1.0, 1.0]
        assert tree.child_start.tolist() == [1, 3, 4, 5, 5, 5]
        assert tree.label_order.tolist() == [1, 3, 2, 4, 0]  # a, a1, b, b1, r
        for arr in (tree.parent, tree.date_idx, tree.prob, tree.label_order):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equal_dates_of_different_types_parse_separately(self):
        # The float 0.1 reads as 1/10; the Fraction equal to that float is
        # its exact binary value, which is not a grid date.
        grid = DateGrid((Fraction(0), Fraction(1, 10), Fraction(1)), 1)
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": 0.1, "parent": "r", "p": 0.5},
            {"id": "b", "date": Fraction(0.1), "parent": "r", "p": 0.5},
            {"id": "a1", "date": 1, "parent": "a", "p": 1.0},
            {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
        ]
        with pytest.raises(DateNotInGrid):
            build_tree(grid, nodes)

    def test_structural_errors_name_the_first_node(self):
        grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
        nodes = [
            {"id": "r", "date": 0, "parent": None, "p": 1.0},
            {"id": "a", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
            {"id": "b", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
            {"id": "a1", "date": 1, "parent": "a", "p": 0.5},
            {"id": "b1", "date": 1, "parent": "b", "p": 0.5},
        ]
        with pytest.raises(ProbabilityMass, match=r"^children of 'a' have probability mass 0\.5$"):
            build_tree(grid, nodes)
        nodes[3]["p"] = 1.0
        nodes[4] = {"id": "b1", "date": 0, "parent": "b", "p": 1.0}
        with pytest.raises(OrphanNode, match=r"^node 'b1' does not sit one grid step"):
            build_tree(grid, nodes)
        del nodes[4]
        with pytest.raises(LeafNotAtHorizon, match=r"^leaf 'b' sits at date 1/2"):
            build_tree(grid, nodes)
