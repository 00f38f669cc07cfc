"""Differential test of the level-by-level ``build_tree``.

The oracle below is a frozen copy of the breadth-first ``build_tree``
it replaced: one Python pass per node over dicts, with a per-node date
memo. On random trees given in shuffled order, with dates written as
strings, floats, integers and Fractions, the two must agree on the
parent, date index, probability and label of every node; on trees
broken in every way the builder checks, they must raise the same error
class with the same message.
"""

import copy
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
import pytest

from prodval.errors import (
    LeafNotAtHorizon,
    OrphanNode,
    ProbabilityMass,
    SchemaViolation,
)
from prodval.config import problem_from_dict
from prodval.lattice import DateGrid, ScenarioTree, build_tree

_MASS_TOL = 1e-12


# --- oracle: the breadth-first build, frozen ------------------------------------


def _oracle_build_tree(grid: DateGrid, nodes: Sequence[Mapping]) -> ScenarioTree:
    if not nodes:
        raise OrphanNode("empty node list")

    raw_by_id: Dict[object, Mapping] = {}
    for spec in nodes:
        nid = spec["id"]
        if nid in raw_by_id:
            raise OrphanNode(f"duplicate node id {nid!r}")
        raw_by_id[nid] = spec

    parsed: Dict[Tuple[type, object], int] = {}

    def date_index(spec) -> int:
        d = spec["date"]
        key = (type(d), d)
        j = parsed.get(key)
        if j is None:
            j = parsed[key] = grid.index(d)
        return j

    roots = [nid for nid, spec in raw_by_id.items() if spec.get("parent") is None]
    if len(roots) != 1:
        raise OrphanNode(f"expected exactly one root, found {len(roots)}")
    root_id = roots[0]
    if date_index(raw_by_id[root_id]) != 0:
        raise OrphanNode("root must sit at date 0")

    children_of: Dict[object, List[object]] = {nid: [] for nid in raw_by_id}
    for nid, spec in raw_by_id.items():
        par = spec.get("parent")
        if par is None:
            continue
        if par not in raw_by_id:
            raise OrphanNode(f"node {nid!r} references unknown parent {par!r}")
        children_of[par].append(nid)

    order: List[object] = []
    frontier = [root_id]
    visited = {root_id}
    while frontier:
        order.extend(frontier)
        nxt = []
        for nid in frontier:
            for c in children_of[nid]:
                if c in visited:
                    raise OrphanNode(f"cycle detected at node {c!r}")
                visited.add(c)
                nxt.append(c)
        frontier = nxt
    if len(order) != len(raw_by_id):
        raise OrphanNode("some nodes are unreachable from the root")
    specs = [raw_by_id[nid] for nid in order]
    date_idx = np.array([date_index(spec) for spec in specs], dtype=np.int64)
    if (np.diff(date_idx) < 0).any():
        by_date = np.argsort(date_idx, kind="stable")
        order = [order[k] for k in by_date]
        specs = [specs[k] for k in by_date]
        date_idx = date_idx[by_date]

    norm = {nid: k for k, nid in enumerate(order)}
    parent = np.array(
        [-1 if spec.get("parent") is None else norm[spec["parent"]] for spec in specs],
        dtype=np.int64,
    )
    prob = np.array([float(spec.get("p", 1.0)) for spec in specs])
    labels = tuple(str(nid) for nid in order)
    bad = np.flatnonzero(prob <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise ProbabilityMass(
            f"node {order[k]!r} has non-positive probability {float(prob[k])}"
        )

    J = len(grid.dates) - 1
    child = np.flatnonzero(parent >= 0)
    bad = child[date_idx[child] != date_idx[parent[child]] + 1]
    if bad.size:
        raise OrphanNode(
            f"node {labels[bad[0]]!r} does not sit one grid step after its parent"
        )
    n_kids = np.bincount(parent[child], minlength=len(order))
    mass = np.bincount(parent[child], weights=prob[child], minlength=len(order))
    bad_leaf = (n_kids == 0) & (date_idx != J)
    bad_mass = (n_kids > 0) & (np.abs(mass - 1.0) > _MASS_TOL)
    bad = np.flatnonzero(bad_leaf | bad_mass)
    if bad.size:
        node = int(bad[0])
        if bad_leaf[node]:
            raise LeafNotAtHorizon(
                f"leaf {labels[node]!r} sits at date {grid.dates[date_idx[node]]}, "
                f"not at the horizon {grid.horizon}"
            )
        raise ProbabilityMass(
            f"children of {labels[node]!r} have probability mass {float(mass[node])!r}"
        )

    return ScenarioTree(grid, parent, date_idx, prob, labels)


# --- random trees -------------------------------------------------------------------


def _random_grid(rng) -> DateGrid:
    """1-3 years with 1-3 interior dates each, at quarters, fifths or
    eighths, so that every date also has a short decimal form."""
    years = int(rng.integers(1, 4))
    dates = []
    for i in range(years):
        dates.append(Fraction(i))
        den = int(rng.choice([4, 5, 8]))
        picks = rng.choice(np.arange(1, den), size=int(rng.integers(1, 4)), replace=False)
        dates += [Fraction(i) + Fraction(int(k), den) for k in sorted(picks)]
    dates.append(Fraction(years))
    return DateGrid(tuple(dates), years)


def _date_text(rng, d: Fraction):
    """One of the forms a config may give a date in."""
    form = int(rng.integers(4))
    if form == 0:
        return str(d)
    if form == 1:
        return float(d)
    if form == 2:
        return d
    return int(d) if d.denominator == 1 else str(float(d))


def _random_nodes(rng, grid: DateGrid, ids=None, dates="any", shuffle=True) -> List[dict]:
    """A tree with 1-3 children per node, with ``ids`` "int", "str" or
    "mixed" (by default int or str at random) and ``dates`` "str" or in
    any form. With ``shuffle`` the nodes come in shuffled order (the root
    not necessarily first), else level by level, in breadth-first order."""
    if ids is None:
        ids = "int" if rng.uniform() < 0.3 else "str"
    nodes = []
    frontier = [None]
    for j, d in enumerate(grid.dates):
        nxt = []
        for par in frontier:
            k = 1 if par is None else int(rng.integers(1, 4))
            raw = rng.uniform(0.2, 1.0, size=k)
            probs = (raw / raw.sum()).tolist()
            for b in range(k):
                as_int = ids == "int" or (ids == "mixed" and rng.uniform() < 0.5)
                nid = len(nodes) if as_int else f"n{len(nodes)}"
                date = str(d) if dates == "str" else _date_text(rng, d)
                spec = {"id": nid, "date": date, "parent": par}
                if par is not None or rng.uniform() < 0.5:
                    spec["p"] = 1.0 if par is None else probs[b]
                nodes.append(spec)
                nxt.append(nid)
        frontier = nxt
    if not shuffle:
        return nodes
    order = rng.permutation(len(nodes))
    return [nodes[k] for k in order]


def _descendants(nodes, nid) -> List[object]:
    kids = {}
    for spec in nodes:
        kids.setdefault(spec["parent"], []).append(spec["id"])
    out, stack = [], [nid]
    while stack:
        m = stack.pop()
        out.append(m)
        stack += kids.get(m, [])
    return out


def _pick(rng, nodes, *, root=None):
    """A random node spec; with ``root`` False, never the root (unless
    every node is a root)."""
    pool = [s for s in nodes if root is None or (s["parent"] is None) == root] or nodes
    return pool[int(rng.integers(len(pool)))]


def _break(rng, grid, nodes, kind):
    """Break the tree in place so that the builder must reject it."""
    if kind == "duplicate_id":
        _pick(rng, nodes, root=False)["id"] = _pick(rng, nodes)["id"]
    elif kind == "two_roots":
        _pick(rng, nodes, root=False)["parent"] = None
    elif kind == "no_root":
        _pick(rng, nodes, root=True)["parent"] = "ghost"
    elif kind == "unknown_parent":
        _pick(rng, nodes, root=False)["parent"] = "ghost"
    elif kind == "cycle":
        spec = _pick(rng, nodes, root=False)
        below = _descendants(nodes, spec["id"])
        spec["parent"] = below[int(rng.integers(len(below)))]
    elif kind == "non_positive_p":
        _pick(rng, nodes, root=False)["p"] = float(rng.choice([0.0, -0.25]))
    elif kind == "skips_a_date":
        spec = _pick(rng, nodes, root=False)
        j = grid.index(spec["date"])
        others = [d for k, d in enumerate(grid.dates) if k != j]
        spec["date"] = _date_text(rng, others[int(rng.integers(len(others)))])
    elif kind == "bad_mass":
        spec = _pick(rng, nodes, root=False)
        spec["p"] = spec["p"] * float(rng.choice([0.5, 1.5]))
    elif kind == "leaf_before_horizon":
        spec = _pick(rng, nodes)
        if grid.index(spec["date"]) == len(grid.dates) - 1:
            spec = next(s for s in nodes if s["id"] == spec["parent"])
        doomed = set(_descendants(nodes, spec["id"])) - {spec["id"]}
        nodes[:] = [s for s in nodes if s["id"] not in doomed]
    elif kind == "date_not_in_grid":
        _pick(rng, nodes)["date"] = "1/7"
    elif kind == "root_not_at_zero":
        root = _pick(rng, nodes, root=True)
        root["date"] = _date_text(rng, grid.dates[1])
    elif kind == "several":
        for other in rng.choice(BREAKS[:-1], size=3):
            try:
                _break(rng, grid, nodes, other)
            except Exception:
                pass  # an earlier break left nothing for this one to break
    else:
        raise AssertionError(kind)


BREAKS = (
    "duplicate_id",
    "two_roots",
    "no_root",
    "unknown_parent",
    "cycle",
    "non_positive_p",
    "skips_a_date",
    "bad_mass",
    "leaf_before_horizon",
    "date_not_in_grid",
    "root_not_at_zero",
    "several",
)


def _outcome(build, grid, nodes):
    try:
        tree = build(grid, copy.deepcopy(nodes))
    except Exception as e:
        return type(e), str(e)
    return (
        tree.parent.tolist(),
        tree.date_idx.tolist(),
        tree.prob.tolist(),
        tree.labels,
    )


@pytest.mark.parametrize("seed", range(30))
def test_matches_breadth_first_build(seed):
    rng = np.random.default_rng(seed)
    grid = _random_grid(rng)
    nodes = _random_nodes(rng, grid)
    got = _outcome(build_tree, grid, nodes)
    assert not isinstance(got[0], type)
    assert got == _outcome(_oracle_build_tree, grid, nodes)


@pytest.mark.parametrize("kind", BREAKS)
@pytest.mark.parametrize("seed", range(10))
def test_same_error_as_breadth_first_build(kind, seed):
    rng = np.random.default_rng([seed, BREAKS.index(kind)])
    grid = _random_grid(rng)
    nodes = _random_nodes(rng, grid)
    _break(rng, grid, nodes, kind)
    got = _outcome(build_tree, grid, nodes)
    assert got == _outcome(_oracle_build_tree, grid, nodes)
    if kind not in ("duplicate_id", "several"):
        # A node may be given its own id; every other break is an error.
        assert isinstance(got[0], type)


# Node lists written level by level, as problem_to_dict and the benchmark's
# generator write them, take build_tree's shortcuts: no gathers when the
# input order is already breadth-first, ids as labels when all are strings,
# and plain date keys when all dates are strings.
ID_KINDS = ("str", "int", "mixed")


@pytest.mark.parametrize("dates", ["str", "any"])
@pytest.mark.parametrize("ids", ID_KINDS)
@pytest.mark.parametrize("seed", range(8))
def test_breadth_first_input_matches(seed, ids, dates):
    rng = np.random.default_rng([seed, ID_KINDS.index(ids), dates == "str"])
    grid = _random_grid(rng)
    nodes = _random_nodes(rng, grid, ids=ids, dates=dates, shuffle=False)
    got = _outcome(build_tree, grid, nodes)
    assert not isinstance(got[0], type)
    assert got == _outcome(_oracle_build_tree, grid, nodes)
    tree = build_tree(grid, nodes)
    assert tree.label_ids == {label: k for k, label in enumerate(tree.labels)}
    assert [
        list(range(tree.child_start[k], tree.child_start[k + 1])) for k in range(tree.n_nodes)
    ] == [np.flatnonzero(tree.parent == k).tolist() for k in range(tree.n_nodes)]


@pytest.mark.parametrize("kind", BREAKS)
@pytest.mark.parametrize("ids", ID_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_same_error_on_breadth_first_input(kind, ids, seed):
    rng = np.random.default_rng([seed, BREAKS.index(kind), ID_KINDS.index(ids), 1])
    grid = _random_grid(rng)
    nodes = _random_nodes(rng, grid, ids=ids, dates="str", shuffle=False)
    _break(rng, grid, nodes, kind)
    got = _outcome(build_tree, grid, nodes)
    assert got == _outcome(_oracle_build_tree, grid, nodes)
    if kind not in ("duplicate_id", "several"):
        assert isinstance(got[0], type)


@pytest.mark.parametrize(
    "edit",
    [
        lambda nodes: nodes.clear(),
        lambda nodes: nodes[2].update(id="a"),
        lambda nodes: nodes[2].update(parent="ghost"),
        lambda nodes: nodes[0].update(date="1/2"),
        lambda nodes: nodes[3].update(date="1/3"),
        lambda nodes: (nodes[1].update(parent="ghost"), nodes[3].update(parent=[1])),
        lambda nodes: (nodes[1].update(date="1/7"), nodes[4].update(date=[1])),
        lambda nodes: nodes[3].update(parent="b1"),
        lambda nodes: nodes[2].update(date="1"),
        lambda nodes: nodes[3].update(p=-1.0),
        lambda nodes: nodes[3].update(p=0.5),
        lambda nodes: nodes[3].update(date="1/2"),
    ],
)
def test_malformed_specs_raise_as_before(edit):
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "a", "date": "1/2", "parent": "r", "p": 0.5},
        {"id": "b", "date": 0.5, "parent": "r", "p": 0.5},
        {"id": "a1", "date": "1", "parent": "a", "p": 1.0},
        {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
    ]
    edit(nodes)
    got = _outcome(build_tree, grid, nodes)
    assert isinstance(got[0], type)
    assert got == _outcome(_oracle_build_tree, grid, nodes)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda nodes: nodes[3].pop("id"), "tree.nodes[3] has no 'id'"),
        (lambda nodes: nodes[3].pop("date"), "tree.nodes[3] has no 'date'"),
        (lambda nodes: nodes.__setitem__(1, "a"), "tree.nodes[1] must be an object, not str"),
        (lambda nodes: nodes.__setitem__(4, [1]), "tree.nodes[4] must be an object, not list"),
        (lambda nodes: nodes[2].update(id=["unhashable"]),
         "tree.nodes[2].id must be a string or a number, not ['unhashable']"),
        (lambda nodes: nodes[2].update(parent=["unhashable"]),
         "tree.nodes[2].parent must be a node id, not ['unhashable']"),
        (lambda nodes: nodes[0].update(date=["unhashable"]),
         "tree.nodes[0].date must be a date, not ['unhashable']"),
        (lambda nodes: nodes[3].update(date=["unhashable"]),
         "tree.nodes[3].date must be a date, not ['unhashable']"),
        (lambda nodes: nodes[3].update(p="x"), "tree.nodes[3].p must be a number, not 'x'"),
        (lambda nodes: nodes[3].update(p=None), "tree.nodes[3].p must be a number, not None"),
        (lambda nodes: nodes[3].update(date="x"), "tree.nodes[3].date must be a date, not 'x'"),
    ],
)
def test_malformed_nodes_are_schema_violations(edit, message):
    """A known difference: the frozen build_tree raises KeyError for a
    node without id or date, and TypeError or ValueError for a node that
    is not an object or whose id, parent, date or p is of the wrong kind.
    All are now SchemaViolations naming the node's position."""
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "a", "date": "1/2", "parent": "r", "p": 0.5},
        {"id": "b", "date": 0.5, "parent": "r", "p": 0.5},
        {"id": "a1", "date": "1", "parent": "a", "p": 1.0},
        {"id": "b1", "date": 1, "parent": "b", "p": 1.0},
    ]
    edit(nodes)
    with pytest.raises(SchemaViolation) as err:
        build_tree(grid, copy.deepcopy(nodes))
    assert str(err.value) == message
    assert _outcome(_oracle_build_tree, grid, nodes)[0] in (KeyError, TypeError, ValueError)


def test_a_cycle_off_the_root_is_unreachable():
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None},
        {"id": "a", "date": "1/2", "parent": "b", "p": 1.0},
        {"id": "b", "date": "1", "parent": "a", "p": 1.0},
    ]
    with pytest.raises(OrphanNode, match="^some nodes are unreachable from the root$"):
        build_tree(grid, nodes)


# --- known differences from the frozen build_tree ------------------------------------


def _two_point_nodes():
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "m", "date": "1/2", "parent": "r", "p": 1.0},
        {"id": "lo", "date": 1, "parent": "m", "p": 0.5},
        {"id": "hi", "date": 1, "parent": "m", "p": 0.5},
    ]
    return grid, nodes


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_is_rejected(p):
    """A known difference: the frozen build_tree accepts a NaN branch
    probability, because both its sign check and the children-mass
    check are false for NaN. A non-finite probability is now rejected,
    naming the node."""
    grid, nodes = _two_point_nodes()
    nodes[2]["p"] = p
    kind = "non-positive" if p < 0 else "non-finite"
    with pytest.raises(ProbabilityMass, match=f"^node 'lo' has {kind} probability {p}$"):
        build_tree(grid, copy.deepcopy(nodes))
    if math.isnan(p):
        assert math.isnan(_oracle_build_tree(grid, nodes).prob[2])


def test_ids_with_the_same_label_are_rejected():
    """A known difference: the frozen build_tree gives the distinct ids 1
    and "1" the same label '1'. They are now a duplicate, as equal ids
    are."""
    grid, nodes = _two_point_nodes()
    nodes[2]["id"], nodes[3]["id"] = 1, "1"
    with pytest.raises(OrphanNode, match="^duplicate node label '1'$"):
        build_tree(grid, copy.deepcopy(nodes))
    assert _oracle_build_tree(grid, nodes).labels[2:] == ("1", "1")


CONFIGS = Path(__file__).parent.parent / "configs"


def _two_point_config(**ids):
    """configs/two_point.json with nodes renamed (label -> new id), its
    label-keyed sections following the new labels."""
    doc = json.loads((CONFIGS / "two_point.json").read_text())
    for spec in doc["tree"]["nodes"]:
        spec["id"] = ids.get(spec["id"], spec["id"])
        spec["parent"] = ids.get(spec["parent"], spec["parent"])

    def rekey(section):
        return {str(ids.get(k, k)): v for k, v in section.items()}

    doc["liability"]["outflows"] = rekey(doc["liability"]["outflows"])
    for tradable in doc["market"]["tradables"]:
        for key in ("prices", "inflows"):
            if key in tradable:
                tradable[key] = rekey(tradable[key])
    return doc


def test_config_with_a_nan_probability_is_rejected():
    doc = _two_point_config()
    next(s for s in doc["tree"]["nodes"] if s["id"] == "lo")["p"] = math.nan
    with pytest.raises(ProbabilityMass, match="^node 'lo' has non-finite probability nan$"):
        problem_from_dict(doc)


def test_config_with_ids_sharing_a_label_names_the_label():
    """Before, the sections keyed "1" resolved to one of the two nodes
    and the config failed on a period-bond check at node '1'."""
    doc = _two_point_config(lo=1, hi="1")
    with pytest.raises(OrphanNode, match="^duplicate node label '1'$"):
        problem_from_dict(doc)
