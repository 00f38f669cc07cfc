"""Finite discrete-time filtered probability space.

A DateGrid holds the trading dates as exact rationals: every integer
0..T plus at least one interior date inside each calendar year. A
ScenarioTree is a rooted tree over the grid whose nodes carry the
filtration; branch probabilities are strictly positive and sum to one
over each node's children, so "almost surely" statements become exact
assertions at every node.

Both structures are immutable after construction; the tree's per-node
parent, date index and branch probability are read-only arrays. Tree
node ids are numbered level by level (see ScenarioTree), and only this
module relies on that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DateNotInGrid,
    DimensionMismatch,
    InvalidDateGrid,
    LeafNotAtHorizon,
    MissingInteriorDate,
    OrphanNode,
    ProbabilityMass,
    SchemaViolation,
)
from .risk import DiscreteDistribution, sum_left_to_right

DateLike = Union[int, float, str, Fraction]

_MASS_TOL = 1e-12
_GROUP = 1 << 15  # inner nodes per sibling group at most


def as_date(x: DateLike) -> Fraction:
    """Convert a config date to an exact rational.

    Floats go through their decimal string so 0.5 -> 1/2 and 0.1 -> 1/10.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(str(x))


@dataclass(frozen=True)
class DateGrid:
    """Strictly increasing rational dates spanning [0, T].

    Invariants: contains every integer 0..T, and at least one date
    strictly inside each calendar year.
    """

    dates: Tuple[Fraction, ...]
    horizon: int

    def __post_init__(self):
        T = self.horizon
        if T < 1:
            raise InvalidDateGrid(f"horizon must be a positive integer, got {T}")
        ds = self.dates
        if any(ds[j] >= ds[j + 1] for j in range(len(ds) - 1)):
            raise InvalidDateGrid("dates must be strictly increasing")
        if ds[0] != 0 or ds[-1] != T:
            raise InvalidDateGrid("grid must start at 0 and end at T")
        present = set(ds)
        for i in range(T + 1):
            if Fraction(i) not in present:
                raise InvalidDateGrid(f"grid is missing the annual date {i}")
        for i in range(T):
            if not any(Fraction(i) < d < Fraction(i + 1) for d in ds):
                raise MissingInteriorDate(
                    f"no date strictly inside calendar year ({i}, {i + 1})"
                )
        object.__setattr__(self, "_index", {d: j for j, d in enumerate(ds)})

    @staticmethod
    def build(dates: Iterable[DateLike], horizon: int) -> "DateGrid":
        return DateGrid(tuple(sorted({as_date(d) for d in dates})), horizon)

    def __len__(self) -> int:
        return len(self.dates)

    def index(self, t: DateLike) -> int:
        t = as_date(t)
        try:
            return self._index[t]
        except KeyError:
            raise DateNotInGrid(f"date {t} is not a grid point") from None

    def is_annual(self, j: int) -> bool:
        return self.dates[j].denominator == 1


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Rooted scenario tree over a DateGrid.

    ``parent`` (-1 at the root), ``date_idx`` and ``prob`` are read-only
    arrays indexed by node id; ``labels`` keeps the caller's original node
    names for reporting.

    Node ids are numbered level by level: node 0 is the root, and neither
    ``parent[1:]`` nor ``date_idx`` decreases. The constructor rejects any
    other layout, and only this module relies on it; it also rejects a
    ``date_idx``, ``prob`` or ``labels`` without one entry per node, and a
    date index that names no grid date. The
    nodes of date index j are the ids ``date_start[j]`` up to
    ``date_start[j + 1]``, the children of node n the ids
    ``child_start[n]`` up to ``child_start[n + 1]``, and the descendants of
    a node at any later date one run of ids too. ``by_date``, ``nodes_at``
    and ``children_of`` give these runs as read-only views of one id array.
    ``label_ids`` (the node id of each label) and ``label_order`` (the node
    ids in ``sorted(labels)`` order, a read-only array) are built on first
    use, unless build_tree already holds them.
    """

    grid: DateGrid
    parent: np.ndarray
    date_idx: np.ndarray
    prob: np.ndarray
    labels: Tuple[str, ...]
    date_start: np.ndarray = field(init=False)
    child_start: np.ndarray = field(init=False)
    by_date: Tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        for name, dtype in (("parent", np.int64), ("date_idx", np.int64), ("prob", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n, up = self.n_nodes, self.parent[1:]
        for name in ("date_idx", "prob", "labels"):
            size = len(getattr(self, name))
            if size != n:
                raise ValueError(f"{name} must hold one entry per node: {size} for {n} nodes")
        if not n or self.parent[0] != -1:
            raise ValueError("node 0 must be the root, with parent -1")
        if (up[:1] < 0).any() or (up[-1:] >= n).any() or (np.diff(up) < 0).any():
            raise ValueError("parent ids must be node ids that never decrease after the root's")
        if (np.diff(self.date_idx) < 0).any():
            raise ValueError("date indices must never decrease")
        if self.date_idx[0] < 0 or self.date_idx[-1] >= len(self.grid.dates):
            raise ValueError("date indices must be indices of grid dates")
        ids = np.arange(n)
        date_start = np.searchsorted(self.date_idx, np.arange(len(self.grid.dates) + 1))
        child_start = 1 + np.concatenate(([0], np.cumsum(np.bincount(up, minlength=n))))
        for name, arr in (("_ids", ids), ("date_start", date_start), ("child_start", child_start)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        starts = date_start.tolist()
        object.__setattr__(
            self, "by_date", tuple(map(ids.__getitem__, map(slice, starts, starts[1:])))
        )

    def __getattr__(self, name: str):
        # Only reached while an attribute is missing: the two below are
        # built on first use and then held as plain attributes.
        if name == "label_ids":
            value = dict(zip(self.labels, range(self.n_nodes)))
        elif name == "label_order":
            value = np.array(
                sorted(range(self.n_nodes), key=self.labels.__getitem__), dtype=np.int64
            )
            value.flags.writeable = False
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_inner(self) -> int:
        """The number of inner nodes: the ids before the horizon's."""
        return int(self.date_start[-2])

    @property
    def root(self) -> int:
        return 0

    def date_of(self, node: int) -> Fraction:
        return self.grid.dates[self.date_idx[node]]

    def nodes_at(self, t: DateLike) -> np.ndarray:
        return self.by_date[self.grid.index(t)]

    def slice_at(self, t: DateLike) -> slice:
        """The ids of the nodes at date ``t``, as a slice."""
        j = self.grid.index(t)
        return slice(int(self.date_start[j]), int(self.date_start[j + 1]))

    def children_of(self, node: int) -> np.ndarray:
        return self._ids[self.child_start[node] : self.child_start[node + 1]]

    def is_leaf(self, node: int) -> bool:
        return bool(self.child_start[node] == self.child_start[node + 1])

    def sibling_groups(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The inner nodes grouped by child count, in ascending child
        count, each count's nodes in ascending id order and in runs of at
        most ``_GROUP`` nodes: per run its node ids and an array holding
        each one's children as a row, shape (len(nodes), child count)."""
        # bincount, not np.unique: that pages in code nothing else in a
        # check runs, about 1 MB of peak memory on a 341-node check.
        count = np.diff(self.child_start[: self.n_inner + 1])
        for k in np.flatnonzero(np.bincount(count)[1:]).tolist():
            ids = np.flatnonzero(count == k + 1)
            for lo in range(0, len(ids), _GROUP):
                nodes = ids[lo : lo + _GROUP]
                yield nodes, self.child_start[nodes, None] + np.arange(k + 1)

    def require_per_node(self, *sections: Tuple[str, np.ndarray]) -> None:
        """DimensionMismatch naming the first (name, array) section that
        does not hold one entry per node."""
        for name, values in sections:
            if len(values) != self.n_nodes:
                raise DimensionMismatch(
                    f"{name} has {len(values)} entries for {self.n_nodes} nodes"
                )

    def path_probability(self, ancestor: int, descendant: int) -> float:
        """Product of branch probabilities from ancestor down to descendant."""
        p = 1.0
        node = descendant
        while node != ancestor:
            p *= float(self.prob[node])
            node = int(self.parent[node])
            if node < 0:
                raise OrphanNode(f"{descendant} is not a descendant of {ancestor}")
        return p

    def walk(self, roots: np.ndarray, steps: int):
        """The walk ``steps`` grid steps down from ``roots``, ascending ids
        of one date: per step the ascending ids reached, per node the
        position of its root in ``roots``, and per node below the first
        layer the index of its parent in the layer above."""
        layers, pos, up = [roots], [np.arange(len(roots))], [None]
        for _ in range(steps):
            above = layers[-1]
            first = self.child_start[above]
            count = self.child_start[above + 1] - first
            layers.append(_runs(first, count))
            up.append(np.repeat(np.arange(len(above)), count))
            pos.append(pos[-1][up[-1]])
        return layers, pos, up

    def layers(self, nodes: Sequence[int], steps: int) -> List[np.ndarray]:
        """``nodes`` and their descendants 1..``steps`` grid steps later,
        one array per step, in breadth-first order."""
        return self.walk(np.asarray(nodes, dtype=np.int64), steps)[0]

    def descendants_at(self, node: int, j: int) -> np.ndarray:
        """Descendants of ``node`` living at date index ``j``."""
        if j < self.date_idx[node]:
            raise ValueError("target date precedes the node's date")
        lo, hi = node, node + 1
        for _ in range(j - self.date_idx[node]):
            lo, hi = self.child_start[lo], self.child_start[hi]
        return self._ids[lo:hi]

    def ancestor_at(self, node: int, j: int) -> int:
        """The unique ancestor of ``node`` at date index ``j``."""
        m = node
        while self.date_idx[m] > j:
            m = int(self.parent[m])
        if self.date_idx[m] != j:
            raise ValueError("no ancestor at the requested date")
        return m


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ids ``first[k]`` up to ``first[k] + count[k]``, run after run."""
    offsets = np.cumsum(count) - count
    return np.repeat(first - offsets, count) + np.arange(int(count.sum()))


def node_array(values, what: str, nonnegative: bool = True) -> np.ndarray:
    """``values`` as a read-only 1-D float array indexed by node id.
    ValueError naming the first node whose value is not finite or, with
    ``nonnegative``, negative."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{what} must be a 1-D array indexed by node id")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{what} at node {bad[0]} must be finite")
    if nonnegative:
        bad = np.flatnonzero(arr < 0)
        if bad.size:
            raise ValueError(f"negative {what} {arr[bad[0]]} at node {bad[0]}")
    arr.flags.writeable = False
    return arr


def build_tree(
    grid: DateGrid,
    nodes: Sequence[Mapping],
) -> ScenarioTree:
    """Validate a raw node list and normalize it into a ScenarioTree.

    Each raw node is a mapping with keys ``id``, ``date`` (grid date or
    date index), ``parent`` (id or None for the root), and ``p`` (branch
    probability, 1.0 for the root).

    Node ids are assigned one tree level at a time: the root, then its
    children, then theirs, siblings in input order. Errors are checked
    in a fixed order and name the first offending node of that order.

    Raises SchemaViolation (a node that is not a mapping, lacks ``id``
    or ``date``, or has an ``id``, ``parent``, ``date`` or ``p`` of the
    wrong kind, named by its position in ``tree.nodes``),
    ProbabilityMass (also for a non-finite probability), OrphanNode
    (also for two ids with the same label, such as 1 and "1"),
    LeafNotAtHorizon, or grid errors.
    """
    if not nodes:
        raise OrphanNode("empty node list")
    n = len(nodes)

    # Each field is read in one pass over the list, in input order.
    try:
        ids = list(map(itemgetter("id"), nodes))
        dates_in = list(map(itemgetter("date"), nodes))
    except (KeyError, TypeError):
        _raise_malformed(nodes)
        raise
    parents = _field(nodes, "parent", None)
    probs_in = _field(nodes, "p", 1.0)

    try:
        position: Dict[object, int] = dict(zip(ids, range(n)))
    except TypeError:
        _raise_bad_field(nodes, "id", None, hash, "a string or a number")
        raise
    if len(position) != n:
        seen = set()
        for nid in ids:
            if nid in seen:
                raise OrphanNode(f"duplicate node id {nid!r}")
            seen.add(nid)
    # Labels name nodes in reports and label-keyed config sections, so
    # distinct ids such as 1 and "1" must not share one. Distinct str ids
    # are their own distinct labels.
    if set(map(type, ids)) == {str}:
        labels_in = ids
    else:
        labels_in = list(map(str, ids))
        if len(set(labels_in)) != n:
            seen = set()
            for label in labels_in:
                if label in seen:
                    raise OrphanNode(f"duplicate node label {label!r}")
                seen.add(label)

    n_roots = parents.count(None)
    if n_roots != 1:
        raise OrphanNode(f"expected exactly one root, found {n_roots}")
    root = parents.index(None)
    try:
        root_date = _date_indices(grid, [dates_in[root]])[0]
    except (TypeError, ValueError):
        _raise_bad_field(nodes, "date", None, as_date, "a date")
        raise
    if root_date != 0:
        raise OrphanNode("root must sit at date 0")

    # Input position of each node's parent, -1 at the root.
    try:
        up = np.fromiter(map(position.get, parents, repeat(-1)), dtype=np.int64, count=n)
    except TypeError:  # an unhashable parent: the scan below meets it in input order
        up = np.full(n, -1, dtype=np.int64)
    up[root] = -1
    try:
        for k in np.flatnonzero(up < 0).tolist():
            if k != root and parents[k] not in position:
                raise OrphanNode(f"node {ids[k]!r} references unknown parent {parents[k]!r}")
    except TypeError:
        _raise_bad_field(nodes, "parent", None, hash, "a node id")
        raise

    # Children grouped by parent, in input order within each group; each
    # level is the children of the previous one, in its order. A node on
    # a cycle has no path up to the root, so it is never reached.
    kids = np.argsort(up, kind="stable")[1:]
    n_kids = np.bincount(up[kids], minlength=n)
    first = np.cumsum(n_kids) - n_kids
    level = np.array([root], dtype=np.int64)
    levels = [level]
    while level.size:
        level = kids[_runs(first[level], n_kids[level])]
        levels.append(level)
    order = np.concatenate(levels)
    if len(order) != n:
        raise OrphanNode("some nodes are unreachable from the root")

    # Node lists written level by level (as problem_to_dict writes them)
    # are already in this order, and their columns need no gather.
    identity = bool((order == np.arange(n)).all())
    try:
        date_idx = _date_indices(grid, dates_in if identity else _gather(dates_in, order))
    except (TypeError, ValueError):
        _raise_bad_field(nodes, "date", None, as_date, "a date")
        raise
    if (np.diff(date_idx) < 0).any():
        by_date = np.argsort(date_idx, kind="stable")
        order = order[by_date]
        date_idx = date_idx[by_date]
        identity = False

    if identity:
        parent = up
        ordered = range(n)
    else:
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        up = up[order]
        parent = np.where(up >= 0, rank[up], -1)
        ordered = order.tolist()
        probs_in = _gather(probs_in, ordered)
        labels_in = _gather(labels_in, ordered)
    try:
        prob = np.fromiter(map(float, probs_in), dtype=float, count=n)
    except (TypeError, ValueError):
        _raise_bad_field(nodes, "p", 1.0, float, "a number")
        raise
    labels = tuple(labels_in)
    # NaN passes both a sign check and the children-mass check below.
    bad = np.flatnonzero(~(np.isfinite(prob) & (prob > 0.0)))
    if bad.size:
        k = int(bad[0])
        kind = "non-positive" if prob[k] <= 0.0 else "non-finite"
        raise ProbabilityMass(
            f"node {ids[ordered[k]]!r} has {kind} probability {float(prob[k])}"
        )

    # Structural checks: edges advance exactly one grid step, children mass 1,
    # leaves at the horizon.
    J = len(grid.dates) - 1
    child = np.flatnonzero(parent >= 0)
    bad = child[date_idx[child] != date_idx[parent[child]] + 1]
    if bad.size:
        raise OrphanNode(
            f"node {labels[bad[0]]!r} does not sit one grid step after its parent"
        )
    n_kids = np.bincount(parent[child], minlength=n)
    mass = np.bincount(parent[child], weights=prob[child], minlength=n)
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

    tree = ScenarioTree(grid, parent, date_idx, prob, labels)
    if identity and labels_in is ids:
        # The id -> position dict is the tree's label -> node id dict.
        object.__setattr__(tree, "label_ids", position)
    return tree


def _field(nodes: Sequence[Mapping], key: str, default) -> list:
    """``spec.get(key, default)`` of each node spec."""
    try:
        return list(map(itemgetter(key), nodes))
    except KeyError:
        return list(map(methodcaller("get", key, default), nodes))


def _gather(column: list, order) -> list:
    return list(map(column.__getitem__, order))


def _raise_malformed(nodes: Sequence) -> None:
    """SchemaViolation naming the first node, by its position in
    ``tree.nodes``, that is not a mapping or lacks ``id`` or ``date``."""
    for k, spec in enumerate(nodes):
        if not isinstance(spec, Mapping):
            raise SchemaViolation(
                f"tree.nodes[{k}] must be an object, not {type(spec).__name__}"
            )
        for key in ("id", "date"):
            if key not in spec:
                raise SchemaViolation(f"tree.nodes[{k}] has no {key!r}")


def _raise_bad_field(nodes: Sequence[Mapping], key: str, default, parse, what: str) -> None:
    """SchemaViolation naming the first node, by its position in
    ``tree.nodes``, whose ``key`` (``default`` where it has none) makes
    ``parse`` raise TypeError or ValueError."""
    for k, spec in enumerate(nodes):
        value = spec.get(key, default)
        try:
            parse(value)
        except (TypeError, ValueError):
            raise SchemaViolation(f"tree.nodes[{k}].{key} must be {what}, not {value!r}") from None


def _date_indices(grid: DateGrid, dates: Sequence[DateLike]) -> np.ndarray:
    """Grid index of each date. Each distinct date is parsed once, in
    order of first appearance, so the first date that fails raises;
    unless all dates are strings, dates are told apart by type as well,
    because equal values of different types (0.1 and its exact binary
    fraction) may name different grid dates."""
    plain = set(map(type, dates)) == {str}
    keys = dates if plain else list(zip(map(type, dates), dates))
    try:
        parsed = dict.fromkeys(keys)
    except TypeError:  # an unhashable date: parse in order up to it, where `in` raises
        parsed = {}
        for key in keys:
            if key not in parsed:
                parsed[key] = grid.index(key[1])
    for key in parsed:
        parsed[key] = grid.index(key if plain else key[1])
    return np.fromiter(map(parsed.__getitem__, keys), dtype=np.int64, count=len(keys))


def conditional_distribution(
    tree: ScenarioTree,
    node: int,
    values: np.ndarray,
    horizon: DateLike,
) -> DiscreteDistribution:
    """Distribution at ``horizon`` seen from ``node`` of a process given
    by ``values``, an array indexed by node id (only the entries at the
    ``horizon`` descendants are read).

    Probabilities are products of branch probabilities along each path,
    renormalized to sum to one. Atoms are labeled with their node ids.
    """
    j = tree.grid.index(horizon)
    if j < tree.date_idx[node]:
        raise ValueError("horizon precedes the node's date")
    tree.require_per_node(("process", values))
    targets = tree.descendants_at(node, j).tolist()
    atoms = [(float(values[m]), tree.path_probability(node, m)) for m in targets]
    total = float(sum_left_to_right(np.array([[p for _, p in atoms]]))[0])
    return DiscreteDistribution.from_atoms(
        [(v, p / total) for v, p in atoms], labels=targets
    )
