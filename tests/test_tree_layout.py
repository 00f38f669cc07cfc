"""Differential test of the scenario tree's id layout.

The frozen functions below are copies of the tuple-based tree code that
the id layout replaced: ids grouped by date and by parent into tuples,
sibling groups built from those tuples, the list-based layer walk, and
the backward pass's year walker, which filtered each date's ids by their
root. On random trees given in shuffled order, with one to three
children per node, the arrays must give the same ids in the same order
(the sibling groups per child count, across dates) and the walker the
same arrays bit for bit. ``ScenarioTree`` must reject arrays in any
other layout, or without one entry per node, or off the grid.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from test_build_tree import _random_grid, _random_nodes
from util import make_grid

from prodval import lattice
from prodval.lattice import ScenarioTree, build_tree

GROUP = lattice._GROUP

# --- frozen: the tuple-based tree code ----------------------------------------------


def _frozen_group_ids(keys: np.ndarray, n_groups: int) -> Tuple[Tuple[int, ...], ...]:
    ids = np.flatnonzero(keys >= 0)
    ids = ids[np.argsort(keys[ids], kind="stable")]
    flat = tuple(ids.tolist())
    ends = np.cumsum(np.bincount(keys[ids], minlength=n_groups)).tolist()
    return tuple(map(flat.__getitem__, map(slice, [0] + ends[:-1], ends)))


class _Frozen:
    def __init__(self, tree: ScenarioTree):
        self.tree = tree
        self.by_date = _frozen_group_ids(tree.date_idx, len(tree.grid.dates))
        self.children = _frozen_group_ids(tree.parent, tree.n_nodes)

    def sibling_groups(self):
        for nodes in self.by_date:
            groups: Dict[int, List[int]] = {}
            for node in nodes:
                if self.children[node]:
                    groups.setdefault(len(self.children[node]), []).append(node)
            for group in groups.values():
                yield group, np.array([self.children[node] for node in group])

    def layers(self, nodes, steps: int) -> List[List[int]]:
        out = [list(nodes)]
        for _ in range(steps):
            out.append([c for m in out[-1] for c in self.children[m]])
        return out

    def descendants_at(self, node: int, j: int) -> List[int]:
        return self.layers([node], j - self.tree.date_idx[node])[-1]

    def year_layers(self, roots: np.ndarray, steps: int):
        tree = self.tree
        root_pos = np.full(tree.n_nodes, -1)
        root_pos[roots] = np.arange(len(roots))
        slot = np.empty(tree.n_nodes, dtype=np.int64)
        layers, pos, up = [roots], [root_pos[roots]], [None]
        j = int(tree.date_idx[roots[0]])
        for d in range(1, steps + 1):
            slot[layers[-1]] = np.arange(len(layers[-1]))
            nodes = np.asarray(self.by_date[j + d], dtype=np.int64)
            parents = tree.parent[nodes]
            keep = root_pos[parents] >= 0
            nodes, parents = nodes[keep], parents[keep]
            root_pos[nodes] = root_pos[parents]
            layers.append(nodes)
            pos.append(root_pos[nodes])
            up.append(slot[parents])
        return layers, pos, up


# --- random trees, shuffled input ------------------------------------------------------


def _trees(seed: int, count: int = 10):
    rng = np.random.default_rng([seed, 26])
    for _ in range(count):
        grid = _random_grid(rng)
        yield rng, build_tree(grid, _random_nodes(rng, grid))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_id_runs_match_the_tuples(seed, monkeypatch):
    """Dates, children and sibling groups: the same ids in the same
    order as the tuples. The groups hold per child count the nodes the
    tuples' groups of that count hold, date after date, in runs of at
    most ``_GROUP`` (here also 2), in ascending child count."""
    for _, tree in _trees(seed):
        frozen = _Frozen(tree)
        n = tree.n_nodes
        assert (np.diff(tree.parent[1:]) >= 0).all()
        assert tree.child_start.tolist() == (
            1 + np.concatenate(([0], np.cumsum(np.bincount(tree.parent[1:], minlength=n))))
        ).tolist()
        assert [nodes.tolist() for nodes in tree.by_date] == list(map(list, frozen.by_date))
        for j, d in enumerate(tree.grid.dates):
            assert tree.nodes_at(d).tolist() == list(frozen.by_date[j])
            assert list(range(n))[tree.slice_at(d)] == list(frozen.by_date[j])
        assert [tree.children_of(k).tolist() for k in range(n)] == list(map(list, frozen.children))
        assert [tree.is_leaf(k) for k in range(n)] == [not kids for kids in frozen.children]
        assert tree.n_inner == n - len(frozen.by_date[-1])
        for view in (*tree.by_date, tree.children_of(0), tree.date_start, tree.child_start):
            assert not view.flags.writeable

        def keyed(groups):
            # By child count: each count's nodes and children, run after run.
            out = {}
            for nodes, kids in groups:
                nodes = np.asarray(nodes)
                runs = out.setdefault(kids.shape[1], ([], []))
                runs[0].extend(nodes.tolist())
                runs[1].append(kids)
            return {k: (nodes, np.concatenate(kids)) for k, (nodes, kids) in out.items()}

        want = keyed(frozen.sibling_groups())
        for group in (GROUP, 2):
            monkeypatch.setattr(lattice, "_GROUP", group)
            assert all(0 < len(nodes) <= group for nodes, _ in tree.sibling_groups())
            got = keyed(tree.sibling_groups())
            assert list(got) == sorted(want)
            for key in want:
                assert got[key][0] == want[key][0]
                assert _same_bits(got[key][1], want[key][1])


@pytest.mark.parametrize("seed", range(30))
def test_walker_matches_the_year_walker(seed):
    """(layers, pos, up) bit for bit on random ascending root subsets;
    layers and descendants_at as the lists gave them."""
    for rng, tree in _trees(seed):
        frozen = _Frozen(tree)
        J = len(tree.grid.dates) - 1
        for _ in range(4):
            j = int(rng.integers(J))
            at = tree.by_date[j]
            roots = np.sort(rng.choice(at, size=int(rng.integers(1, len(at) + 1)), replace=False))
            steps = int(rng.integers(J - j + 1))
            got, want = tree.walk(roots, steps), frozen.year_layers(roots, steps)
            assert got[0][0] is roots and got[2][0] is None
            for got_part, want_part in zip(got, want):
                assert len(got_part) == steps + 1 == len(want_part)
                for g, w in zip(got_part[1:], want_part[1:]):
                    assert _same_bits(g, w)
            assert _same_bits(got[1][0], want[1][0])
            nodes = rng.permutation(at)[: int(rng.integers(1, len(at) + 1))].tolist()
            assert [layer.tolist() for layer in tree.layers(nodes, steps)] == frozen.layers(
                nodes, steps
            )
        for node in range(tree.n_nodes):
            for j in range(int(tree.date_idx[node]), J + 1):
                assert tree.descendants_at(node, j).tolist() == frozen.descendants_at(node, j)


def _tree_arrays():
    _, tree = next(_trees(0, count=1))
    return dict(
        grid=tree.grid, parent=tree.parent.copy(), date_idx=tree.date_idx.copy(),
        prob=tree.prob.copy(), labels=tree.labels,
    )


def _swap(arr, a, b):
    arr[[a, b]] = arr[[b, a]]


def _set(key, value):
    return lambda args: args.__setitem__(key, value(args[key]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda args: args["parent"].__setitem__(0, 0), "node 0 must be the root"),
        (lambda args: _swap(args["parent"], 1, -1), "parent ids must be node ids"),
        (lambda args: _swap(args["date_idx"], 0, -1), "date indices must never decrease"),
        (_set("date_idx", lambda d: d[:-1]), "date_idx must hold one entry per node"),
        (_set("prob", lambda p: p[1:]), "prob must hold one entry per node"),
        (_set("labels", lambda labels: labels + ("extra",)), "labels must hold one entry per node"),
        (_set("date_idx", lambda d: d - 1), "date indices must be indices of grid dates"),
        (
            _set("date_idx", lambda d: np.where(d == d[-1], d + 1, d)),
            "date indices must be indices of grid dates",
        ),
    ],
    ids=[
        "root_not_first", "parents_decrease", "dates_decrease", "dates_short", "probs_short",
        "labels_long", "date_below_grid", "date_beyond_grid",
    ],
)
def test_other_layouts_are_rejected(edit, message):
    args = _tree_arrays()
    ScenarioTree(**args)
    edit(args)
    with pytest.raises(ValueError, match=f"^{message}"):
        ScenarioTree(**args)


def test_a_node_outside_every_date_is_rejected():
    """Three nodes with two probabilities and labels, one of them at a
    date index past the grid's last: node 2 would be in no date's run."""
    grid = make_grid(1)
    with pytest.raises(ValueError, match="^prob must hold one entry per node: 2 for 3 nodes"):
        ScenarioTree(grid, [-1, 0, 1], [0, 1, 7], [1.0, 1.0], ("r", "m"))
    with pytest.raises(ValueError, match="^date indices must be indices of grid dates"):
        ScenarioTree(grid, [-1, 0, 1], [0, 1, 7], [1.0, 1.0, 1.0], ("r", "m", "l"))
