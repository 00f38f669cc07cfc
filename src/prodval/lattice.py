"""Finite discrete-time filtered probability space.

A DateGrid holds the trading dates as exact rationals: every integer
0..T plus at least one interior date inside each calendar year. A
ScenarioTree is a rooted tree over the grid whose nodes carry the
filtration; branch probabilities are strictly positive and sum to one
over each node's children, so "almost surely" statements become exact
assertions at every node.

Both structures are immutable after construction; the tree's per-node
parent, date index and branch probability are read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DateNotInGrid,
    InvalidDateGrid,
    LeafNotAtHorizon,
    MissingInteriorDate,
    OrphanNode,
    ProbabilityMass,
    ProcessUndefinedAtDate,
)
from .risk import DiscreteDistribution

DateLike = Union[int, float, str, Fraction]

_MASS_TOL = 1e-12


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
    strictly inside each calendar year. The successor of the horizon is
    the sentinel T+1.
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

    def annual_indices(self) -> List[int]:
        return [j for j in range(len(self.dates)) if self.is_annual(j)]


def successor_date(grid: DateGrid, t: DateLike) -> Fraction:
    """The next grid date gamma(t); gamma(T) is the sentinel T+1."""
    j = grid.index(t)
    if j + 1 < len(grid.dates):
        return grid.dates[j + 1]
    return Fraction(grid.horizon + 1)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Rooted scenario tree over a DateGrid.

    Node ids are normalized breadth-first by date so that the nodes of
    one date form a contiguous id range. ``parent`` (-1 at the root),
    ``date_idx`` and ``prob`` are read-only arrays indexed by node id.
    ``labels`` keeps the caller's original node names for reporting.
    """

    grid: DateGrid
    parent: np.ndarray
    date_idx: np.ndarray
    prob: np.ndarray
    labels: Tuple[str, ...]
    children: Tuple[Tuple[int, ...], ...] = field(init=False)
    by_date: Tuple[Tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        for name, dtype in (("parent", np.int64), ("date_idx", np.int64), ("prob", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "children", _group_ids(self.parent, len(self.parent)))
        object.__setattr__(self, "by_date", _group_ids(self.date_idx, len(self.grid.dates)))

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return 0

    def date_of(self, node: int) -> Fraction:
        return self.grid.dates[self.date_idx[node]]

    def nodes_at(self, t: DateLike) -> Tuple[int, ...]:
        return self.by_date[self.grid.index(t)]

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

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

    def layers(self, nodes: Sequence[int], steps: int) -> List[List[int]]:
        """``nodes`` and their descendants 1..``steps`` grid steps later,
        one list per step, in breadth-first order."""
        out = [list(nodes)]
        for _ in range(steps):
            out.append([c for m in out[-1] for c in self.children[m]])
        return out

    def descendants_at(self, node: int, j: int) -> List[int]:
        """Descendants of ``node`` living at date index ``j``."""
        if j < self.date_idx[node]:
            raise ValueError("target date precedes the node's date")
        return self.layers([node], j - self.date_idx[node])[-1]

    def ancestor_at(self, node: int, j: int) -> int:
        """The unique ancestor of ``node`` at date index ``j``."""
        m = node
        while self.date_idx[m] > j:
            m = int(self.parent[m])
        if self.date_idx[m] != j:
            raise ValueError("no ancestor at the requested date")
        return m


def _group_ids(keys: np.ndarray, n_groups: int) -> Tuple[Tuple[int, ...], ...]:
    """Ids 0..len(keys)-1 grouped by their key in 0..n_groups-1, ascending
    within each group; ids with a negative key belong to no group."""
    ids = np.flatnonzero(keys >= 0)
    ids = ids[np.argsort(keys[ids], kind="stable")]
    flat = tuple(ids.tolist())
    ends = np.cumsum(np.bincount(keys[ids], minlength=n_groups)).tolist()
    return tuple(flat[a:b] for a, b in zip([0] + ends[:-1], ends))


def build_tree(
    grid: DateGrid,
    nodes: Sequence[Mapping],
) -> ScenarioTree:
    """Validate a raw node list and normalize it into a ScenarioTree.

    Each raw node is a mapping with keys ``id``, ``date`` (grid date or
    date index), ``parent`` (id or None for the root), and ``p`` (branch
    probability, 1.0 for the root).

    Raises ProbabilityMass, OrphanNode, LeafNotAtHorizon, or grid errors.
    """
    if not nodes:
        raise OrphanNode("empty node list")

    raw_by_id: Dict[object, Mapping] = {}
    for spec in nodes:
        nid = spec["id"]
        if nid in raw_by_id:
            raise OrphanNode(f"duplicate node id {nid!r}")
        raw_by_id[nid] = spec

    # Parse each distinct date value once; keyed by type as well, because
    # equal values of different types (0.1 and its exact binary fraction)
    # may name different grid dates.
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

    # Breadth-first ordering by date, preserving input order among siblings.
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

    # Structural checks: edges advance exactly one grid step, children mass 1,
    # leaves at the horizon.
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


@dataclass(frozen=True)
class AdaptedProcess:
    """Node-indexed values defined on every node of the dates it covers."""

    tree: ScenarioTree
    values: Mapping[int, float]

    def __post_init__(self):
        covered = {self.tree.date_idx[n] for n in self.values}
        for j in covered:
            for node in self.tree.by_date[j]:
                if node not in self.values:
                    raise ProcessUndefinedAtDate(
                        f"process covers date index {j} but misses node {node}"
                    )

    def __getitem__(self, node: int) -> float:
        return self.values[node]

    def covers(self, j: int) -> bool:
        return all(node in self.values for node in self.tree.by_date[j])


def conditional_distribution(
    tree: ScenarioTree,
    node: int,
    process,
    horizon: DateLike,
) -> DiscreteDistribution:
    """Distribution of an adapted process at ``horizon`` seen from ``node``.

    Probabilities are products of branch probabilities along each path,
    renormalized to sum to one. Atoms are labeled with their node ids.
    """
    j = tree.grid.index(horizon)
    if j < tree.date_idx[node]:
        raise ValueError("horizon precedes the node's date")
    values = process.values if isinstance(process, AdaptedProcess) else process
    targets = tree.descendants_at(node, j)
    atoms = []
    for target in targets:
        if target not in values:
            raise ProcessUndefinedAtDate(f"process undefined at node {target}")
        atoms.append((float(values[target]), tree.path_probability(node, target)))
    total = sum(p for _, p in atoms)
    return DiscreteDistribution.from_atoms(
        [(v, p / total) for v, p in atoms], labels=targets
    )
