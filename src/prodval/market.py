"""Tradables with per-node prices and cash inflows, plus consistency
checking via non-negative state-price certificates.

The consistency condition quantifies over pairs of strategies; per
period it reduces to a cone-membership problem at each non-terminal
node: the node's price vector must lie in the convex cone generated by
the children's payoff vectors S_c + Z_c (restricted to the admissible
subspace). Membership produces non-negative weights that reconstruct
the price vector; non-membership produces a Farkas certificate, a
portfolio with non-negative payoffs at every child and strictly
negative price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CrossRefError,
    DimensionMismatch,
    NoBondAvailable,
    NumericalFailure,
)
from .lattice import ScenarioTree
from . import lp

_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TradableSet:
    """d+1 tradables with per-node price and inflow vectors.

    ``prices`` and ``inflows`` are read-only (n_nodes, d+1) arrays, one
    row per node id; ``payoffs`` holds their sum. Prices are quoted
    immediately after the node's cash inflow. A tradable flagged in
    ``bond_periods`` as {asset index: period i} is
    the one-period risk-free zero-coupon bond for (i, i+1): it pays 1 at
    every date-(i+1) node and its date-i price is 1/(1+R).
    """

    tree: ScenarioTree
    prices: np.ndarray
    inflows: np.ndarray
    bond_periods: Mapping[int, int] = field(default_factory=dict)
    close_out: bool = False
    payoffs: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.tree.n_nodes
        prices = _node_rows(self.prices, n, "price", None)
        inflows = _node_rows(self.inflows, n, "inflow", prices.shape[1])
        payoffs = prices + inflows
        for name, arr in (("prices", prices), ("inflows", inflows), ("payoffs", payoffs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        labels = self.tree.labels
        bad = np.flatnonzero(~(np.isfinite(prices) & np.isfinite(inflows)).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite price or inflow at node {labels[bad[0]]!r}")
        bad = np.flatnonzero((prices < 0).any(axis=1) | (inflows < 0).any(axis=1))
        if bad.size:
            raise ValueError(f"negative price or inflow at node {labels[bad[0]]!r}")
        # S != 0 wherever trading still happens; at the horizon the
        # whole market may have matured (for example a single bond).
        horizon = len(self.tree.grid.dates) - 1
        bad = np.flatnonzero(~prices.any(axis=1) & (self.tree.date_idx < horizon))
        if bad.size:
            raise ValueError(
                f"price vector is identically zero at node {labels[bad[0]]!r}"
            )
        self._check_bonds()

    def _check_bonds(self):
        labels = self.tree.labels
        for k, i in self.bond_periods.items():
            end = np.asarray(self.tree.nodes_at(i + 1), dtype=np.int64)
            bad = end[
                (np.abs(self.prices[end, k]) > 1e-12)
                | (np.abs(self.inflows[end, k] - 1.0) > 1e-12)
            ]
            if bad.size:
                raise ValueError(
                    f"tradable {k} flagged as period-{i} bond must have price 0 "
                    f"and inflow 1 at date {i + 1}, not at node {labels[bad[0]]!r}"
                )
            start = np.asarray(self.tree.nodes_at(i), dtype=np.int64)
            bad = start[self.prices[start, k] <= 0]
            if bad.size:
                raise ValueError(
                    f"period-{i} bond must have positive price at date {i}, "
                    f"not at node {labels[bad[0]]!r}"
                )

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]

    def price(self, node: int) -> np.ndarray:
        return self.prices[node]

    def inflow(self, node: int) -> np.ndarray:
        return self.inflows[node]

    def payoff(self, node: int) -> np.ndarray:
        """S + Z at the node: what one unit bought before pays here."""
        return self.payoffs[node]

    def bond_for_period(self, i: int) -> int:
        for k, period in self.bond_periods.items():
            if period == i:
                return k
        raise NoBondAvailable(f"no flagged risk-free bond for period ({i}, {i + 1})")

    def period_rates(self, i: int) -> np.ndarray:
        """R_{i,i+1} implied by the flagged bond's price at each date-i
        node, in node id order."""
        k = self.bond_for_period(i)
        nodes = np.asarray(self.tree.nodes_at(i), dtype=np.int64)
        return 1.0 / self.prices[nodes, k] - 1.0


def _node_rows(values, n_nodes: int, what: str, width: Optional[int]) -> np.ndarray:
    """(n_nodes, width) float array from an array with one row per node;
    ``width`` None takes the array's."""
    rows = np.array(values, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch(f"{what} array must have one row per node")
    if len(rows) < n_nodes:
        raise CrossRefError(f"missing {what} vector at node {len(rows)}")
    if len(rows) > n_nodes:
        raise DimensionMismatch(f"{what} array has {len(rows)} rows for {n_nodes} nodes")
    if width is not None and rows.shape[1] != width:
        raise DimensionMismatch("vector length mismatch at node 0")
    return rows


def check_tradable_indices(indices: Sequence, n_assets: int) -> None:
    """ValueError unless ``indices`` names at least one tradable, each
    by a distinct integer in 0..n_assets-1."""
    if not indices:
        raise ValueError("indices must name at least one tradable")
    for k in indices:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"index {k!r} is not an integer")
        if not 0 <= k < n_assets:
            raise ValueError(f"index {k} is not a tradable index (0 to {n_assets - 1})")
    if len(set(indices)) != len(indices):
        dup = next(k for k in indices if indices.count(k) > 1)
        raise ValueError(f"index {dup} is given twice")


@dataclass(frozen=True)
class RestrictionSet:
    """Admissible portfolio subspace: a coordinate subset or an explicit
    basis of column vectors."""

    dim_full: int
    indices: Optional[Tuple[int, ...]] = None
    basis: Optional[Tuple[Tuple[float, ...], ...]] = None  # rows are basis vectors

    def __post_init__(self):
        if (self.indices is None) == (self.basis is None):
            raise ValueError("give exactly one of indices or basis")
        if self.indices is not None:
            check_tradable_indices(self.indices, self.dim_full)
        else:
            self._check_basis()

    def _check_basis(self):
        if not self.basis:
            raise ValueError("basis must hold at least one vector")
        for i, row in enumerate(self.basis):
            if len(row) != self.dim_full:
                raise ValueError(
                    f"basis vector {i} has {len(row)} entries, "
                    f"not one per tradable ({self.dim_full})"
                )
        B = np.asarray(self.basis, dtype=float)
        bad = np.flatnonzero(~np.isfinite(B).all(axis=1))
        if bad.size:
            raise ValueError(f"basis vector {bad[0]} has a non-finite entry")
        if np.linalg.matrix_rank(B) != B.shape[0]:
            raise ValueError("basis vectors must be linearly independent")

    @staticmethod
    def full(dim: int) -> "RestrictionSet":
        return RestrictionSet(dim, indices=tuple(range(dim)))

    @staticmethod
    def of_indices(dim: int, indices: Sequence[int]) -> "RestrictionSet":
        # Checked before sorting, which mixed types would break.
        checked = RestrictionSet(dim, indices=tuple(indices))
        return RestrictionSet(dim, indices=tuple(sorted(checked.indices)))

    def matrix(self) -> np.ndarray:
        """Basis matrix with one column per basis vector, shape (d+1, m)."""
        if self.indices is not None:
            B = np.zeros((self.dim_full, len(self.indices)))
            for col, k in enumerate(self.indices):
                B[k, col] = 1.0
            return B
        return np.asarray(self.basis, dtype=float).T

    def restrict(self, rows: np.ndarray) -> np.ndarray:
        """Each row of ``rows`` in the basis coordinates, B.T @ row with B
        = ``matrix()``: a stacked product gives every row those bits."""
        return np.matmul(self.matrix().T, rows[..., None])[..., 0]

    @property
    def dim(self) -> int:
        return len(self.indices) if self.indices is not None else len(self.basis)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.indices is not None:
            outside = [k for k in range(self.dim_full) if k not in self.indices]
            return all(abs(x[k]) <= tol for k in outside)
        B = self.matrix()
        coef, *_ = np.linalg.lstsq(B, x, rcond=None)
        return float(np.abs(B @ coef - x).max(initial=0.0)) <= tol


@dataclass(frozen=True, eq=False)
class ConsistencyCertificate:
    """Per inner node (the ids before the horizon's), whether its price
    lies in the cone of its child payoffs (``consistent_at``) and
    otherwise a violating full-space portfolio (a row of ``violation``,
    NaN at consistent nodes); per node id its weight λ in its parent's
    certificate (``weights``, NaN at the root and below an inconsistent
    parent)."""

    consistent_at: np.ndarray
    violation: np.ndarray
    weights: np.ndarray

    @property
    def consistent(self) -> bool:
        return bool(self.consistent_at.all())


def check_consistency(
    market: TradableSet,
    tree: ScenarioTree,
    restriction: Optional[RestrictionSet] = None,
) -> ConsistencyCertificate:
    """Decide per node whether non-negative child payoffs force a
    non-negative price on the restriction subspace.

    Returns weights lambda_c >= 0 with sum_c lambda_c (S_c + Z_c) = S_node
    (in restricted coordinates) where the implication holds, otherwise a
    violating portfolio x with x.(S_c + Z_c) >= 0 for all children and
    x.S_node < 0.

    The weights are the vertex ``lp.solve_standard(Y, s)`` finds over the
    restricted child payoffs Y, bit for bit. The LPs of every inner
    node, complete or not, are decided together per date and child count
    by ``lp.cone_vertices``, one stacked vertex enumeration each. Only a
    node whose LP is infeasible (its price lies outside the cone of its
    child payoffs) solves an LP of its own: the Farkas LP, for its
    violating portfolio. A NumericalFailure of the membership LPs is
    raised before any Farkas LP is solved, for the first failing node in
    date and child-count order.
    """
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    B = restriction.matrix()
    pay = restriction.restrict(market.payoffs)
    price = restriction.restrict(market.prices)
    consistent_at = np.zeros(tree.n_inner, dtype=bool)
    weights = np.full(tree.n_nodes, np.nan)
    for group, kids in tree.sibling_groups():
        # Y[k] = pay[kids[k]].T, one column per child.
        feasible, lam = lp.cone_vertices(pay[kids].transpose(0, 2, 1), price[group])
        consistent_at[group] = feasible
        weights[kids[feasible]] = lam[feasible]
    violation = np.full((tree.n_inner, market.n_assets), np.nan)
    for node in np.flatnonzero(~consistent_at).tolist():
        children = tree.children[node]
        Y = pay[list(children)].T
        s = price[node]
        # Farkas alternative: u with u.y_c >= 0 for all c and u.s = -1.
        alt = lp.solve_lp(
            A_eq=s.reshape(1, -1),
            b_eq=np.array([-1.0]),
            A_ub=-Y.T,
            b_ub=np.zeros(len(children)),
            nonneg=False,
        )
        if alt.status != "optimal":
            raise NumericalFailure(
                f"neither cone membership nor a violation certified at node {node}"
            )
        # x.S_node = u.s = -1 exactly, so the breach margin is unit sized.
        violation[node] = B @ alt.x
    return ConsistencyCertificate(consistent_at, violation, weights)
