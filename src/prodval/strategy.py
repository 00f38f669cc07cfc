"""Investment strategies as predictable portfolio processes on the tree.

The portfolio chosen at a node is the holding over the following grid
interval, so the assignment at node n at date t is phi_{gamma(t)} on the
paths through n; nodes at t_max carry the extra assignment required by
the gamma(t_max) convention. Cash-flow accounting follows the portfolio
conversion equation

    phi_{gamma(t)} . S_t = phi_t . S_t + Z^phi_t + Z_t - X_t

whose left-minus-right residual is the basic bookkeeping check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Set

import numpy as np

from .errors import (
    CloseOutUnavailable,
    NoBondAvailable,
    NodeOutsideSpan,
    StopNotAntichain,
    UnderlyingHasInflows,
)
from .lattice import ScenarioTree, node_array
from .market import TradableSet, _node_rows

SIGN_CLASSES = ("nonneg", "value_nonneg", "unrestricted")


@dataclass(frozen=True, eq=False)
class CashflowProcess:
    """Non-negative inflows and outflows, read-only arrays indexed by node
    id."""

    inflow: np.ndarray
    outflow: np.ndarray

    def __post_init__(self):
        for name in ("inflow", "outflow"):
            object.__setattr__(self, name, node_array(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class Strategy:
    """Predictable portfolio process over a date span.

    ``assignment[n]`` is the portfolio chosen at node n (held over the
    next interval); ``initial[n]`` at t_min nodes is the portfolio held
    into the span start, zero unless given. Both are read-only
    (n_nodes, n_assets) arrays, one row per node id.
    """

    tree: ScenarioTree
    n_assets: int
    assignment: np.ndarray
    initial: Optional[np.ndarray] = None
    sign_class: str = "nonneg"
    t_min: Fraction = Fraction(0)
    t_max: Optional[Fraction] = None

    def __post_init__(self):
        if self.sign_class not in SIGN_CLASSES:
            raise ValueError(f"unknown sign class {self.sign_class!r}")
        if self.t_max is None:
            object.__setattr__(self, "t_max", Fraction(self.tree.grid.horizon))
        # Span and span-start flags per date index.
        dates = self.tree.grid.dates
        span = np.array([self.t_min <= d <= self.t_max for d in dates])
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_start", np.array([d == self.t_min for d in dates]))
        if self.initial is None:
            object.__setattr__(self, "initial", np.zeros((self.tree.n_nodes, self.n_assets)))
        for name in ("assignment", "initial"):
            arr = _node_rows(getattr(self, name), self.tree.n_nodes, name, self.n_assets)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.sign_class == "nonneg":
            for name, what in (("assignment", "unit"), ("initial", "initial unit")):
                bad = np.flatnonzero((getattr(self, name) < -1e-12).any(axis=1))
                if bad.size:
                    raise ValueError(
                        f"non-negative strategy has a negative {what} at node {bad[0]}"
                    )

    @staticmethod
    def zero(tree: ScenarioTree, n_assets: int, sign_class: str = "nonneg") -> "Strategy":
        return Strategy(
            tree, n_assets, np.zeros((tree.n_nodes, n_assets)), sign_class=sign_class
        )

    def span_nodes(self) -> Iterable[int]:
        for j, nodes in enumerate(self.tree.by_date):
            if self._span[j]:
                yield from nodes.tolist()

    def in_span(self, node: int) -> bool:
        return bool(self._span[self.tree.date_idx[node]])

    def held_out(self, node: int) -> np.ndarray:
        if not self.in_span(node):
            raise NodeOutsideSpan(f"node {node} outside span")
        return self.assignment[node]

    def held_into(self, node) -> np.ndarray:
        """Portfolio held into ``node``: the parent's assignment, or the
        initial portfolio at span-start nodes. An array of node ids gives
        one row per node."""
        j = self.tree.date_idx[node]
        if np.ndim(node) == 0:
            if not self._span[j]:
                raise NodeOutsideSpan(f"node {node} outside span")
            if self._start[j]:
                return self.initial[node]
            return self.assignment[self.tree.parent[node]]
        outside = np.asarray(node)[~self._span[j]]
        if outside.size:
            raise NodeOutsideSpan(f"node {outside[0]} outside span")
        return np.where(
            self._start[j][:, None],
            self.initial[node],
            self.assignment[self.tree.parent[node]],
        )

    def scaled(self, a: float) -> "Strategy":
        return Strategy(
            self.tree,
            self.n_assets,
            a * self.assignment,
            a * self.initial,
            self.sign_class if a >= 0 else "unrestricted",
            self.t_min,
            self.t_max,
        )

    def plus(self, other: "Strategy", sign_class: Optional[str] = None) -> "Strategy":
        if (self.t_min, self.t_max) != (other.t_min, other.t_max):
            raise NodeOutsideSpan("cannot add strategies with different spans")
        if sign_class is None:
            sign_class = (
                "nonneg"
                if self.sign_class == other.sign_class == "nonneg"
                else "unrestricted"
            )
        return Strategy(
            self.tree,
            self.n_assets,
            self.assignment + other.assignment,
            self.initial + other.initial,
            sign_class,
            self.t_min,
            self.t_max,
        )


def strategy_value(strategy: Strategy, market: TradableSet, node: int) -> float:
    """Market price of the portfolio held out of the node, after its flows."""
    return float(strategy.held_out(node) @ market.price(node))


def conversion_residual(
    strategy: Strategy,
    market: TradableSet,
    tree: ScenarioTree,
    flows: CashflowProcess,
    node: int,
) -> float:
    """Left minus right side of the conversion equation at the node."""
    tree.require_per_node(("inflow", flows.inflow), ("outflow", flows.outflow))
    held_in = strategy.held_into(node)
    held_out = strategy.held_out(node)
    s = market.price(node)
    lhs = float(held_out @ s)
    rhs = (
        float(held_in @ s)
        + float(held_in @ market.inflow(node))
        + float(flows.inflow[node] - flows.outflow[node])
    )
    return lhs - rhs


def _validate_stop(tree: ScenarioTree, stop: Set[int]) -> None:
    stop = set(stop)
    if not stop:
        raise StopNotAntichain("stop set is empty")
    for node in stop:
        m = int(tree.parent[node])
        while m >= 0:
            if m in stop:
                raise StopNotAntichain(
                    f"stop node {node} is a descendant of stop node {m}"
                )
            m = int(tree.parent[m])
    # A stopping time must trigger on every path.
    for leaf in tree.by_date[-1].tolist():
        m = leaf
        hit = False
        while m >= 0:
            if m in stop:
                hit = True
                break
            m = int(tree.parent[m])
        if not hit:
            raise StopNotAntichain(f"no stop node on the path to leaf {leaf}")


def stop_status(tree: ScenarioTree, stop: Set[int], node: int) -> str:
    """'before', 'at', or 'after' the stopping time along this node's path."""
    if node in stop:
        return "at"
    m = int(tree.parent[node])
    while m >= 0:
        if m in stop:
            return "after"
        m = int(tree.parent[m])
    return "before"


def stopped(strategy: Strategy, tree: ScenarioTree, stop: Set[int]) -> Strategy:
    """phi' with phi'_t = phi_t for t <= tau and zero afterwards.

    The assignment at a stop node is zeroed: it is the portfolio held out
    of tau, and the liability is extinguished there.
    """
    _validate_stop(tree, stop)
    before = [
        node for node in strategy.span_nodes() if stop_status(tree, stop, node) == "before"
    ]
    assignment = np.zeros_like(strategy.assignment)
    assignment[before] = strategy.assignment[before]
    return Strategy(
        strategy.tree,
        strategy.n_assets,
        assignment,
        strategy.initial,
        strategy.sign_class,
        strategy.t_min,
        strategy.t_max,
    )


def short_position_cashflows(
    underlying: Strategy,
    stop: Set[int],
    market: TradableSet,
    tree: ScenarioTree,
    flows: CashflowProcess,
    pay_at_tmax: bool = False,
) -> CashflowProcess:
    """Cash flows of the short-position liability L(phi).

    Outflows are the underlying's X_t before the stop, the liquidation
    value phi_tau.S_tau + Z^phi_tau at the stop, and zero afterwards.
    With ``pay_at_tmax`` the liquidation is deferred to the span end
    instead (the close-out argument makes the two interchangeable).
    """
    tree.require_per_node(("inflow", flows.inflow), ("outflow", flows.outflow))
    bad = np.flatnonzero(flows.inflow > 0)
    if bad.size:
        raise UnderlyingHasInflows(
            f"underlying has inflow {flows.inflow[bad[0]]} at node {bad[0]}"
        )
    if pay_at_tmax:
        stop = set(tree.nodes_at(underlying.t_max).tolist())
    _validate_stop(tree, stop)
    outflow = np.zeros(tree.n_nodes)
    for node in underlying.span_nodes():
        status = stop_status(tree, stop, node)
        if status == "before":
            outflow[node] = flows.outflow[node]
        elif status == "at":
            held = underlying.held_into(node)
            outflow[node] = float(held @ market.payoff(node))
    return CashflowProcess(np.zeros(tree.n_nodes), outflow)


@dataclass(frozen=True)
class GeneralStrategyDecomposition:
    """phi = phi+ - phi- with the star liability of the short side."""

    plus: Strategy
    minus: Strategy
    star_outflow: np.ndarray  # indexed by node id, zero outside the span
    star_inflow: np.ndarray

    def star_flows(self) -> CashflowProcess:
        return CashflowProcess(self.star_inflow, self.star_outflow)


def decompose_general(
    strategy: Strategy, market: TradableSet, tree: ScenarioTree
) -> GeneralStrategyDecomposition:
    """Split a signed strategy into phi+ plus the liability L*(phi-).

    X*_t prices closing out the short portfolio held into t (price plus
    inflows); Z*_t prices taking on the new short portfolio held out of
    t, zero at the span end.
    """
    if not market.close_out:
        raise CloseOutUnavailable(
            "general strategies need short positions available with close out"
        )
    pos = np.maximum(strategy.assignment, 0.0)
    neg = np.maximum(-strategy.assignment, 0.0)
    pos_init = np.maximum(strategy.initial, 0.0)
    neg_init = np.maximum(-strategy.initial, 0.0)
    plus = Strategy(
        tree, strategy.n_assets, pos, pos_init, "nonneg", strategy.t_min, strategy.t_max
    )
    minus = Strategy(
        tree, strategy.n_assets, neg, neg_init, "nonneg", strategy.t_min, strategy.t_max
    )
    star_out = np.zeros(tree.n_nodes)
    star_in = np.zeros(tree.n_nodes)
    for node in strategy.span_nodes():
        held_in = minus.held_into(node)
        star_out[node] = float(
            held_in @ market.price(node) + held_in @ market.inflow(node)
        )
        if tree.date_of(node) < strategy.t_max:
            star_in[node] = float(minus.held_out(node) @ market.price(node))
    return GeneralStrategyDecomposition(plus, minus, star_out, star_in)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    Stacked matmul computes each through the same BLAS dot as
    ``a[i] @ b[i]``, so the results match per-node dot products bit for
    bit, which a multiply-and-sum does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def accumulate_year(
    market: TradableSet,
    tree: ScenarioTree,
    i: int,
    inflow: np.ndarray,
    assignment: np.ndarray,
    policy_index: Optional[int] = None,
) -> None:
    """Reinvest ``inflow`` (indexed by node id) within year i.

    At every interior node of the year the position bought one step
    earlier pays out and, together with the node's inflow, is reinvested
    in the period's risk-free bond, or in tradable ``policy_index`` when
    given; the year's annual nodes hold nothing. Writes the interior
    nodes' rows of ``assignment``, an (n_nodes, n_assets) array that is
    zero there and at the year's start. Raises NoBondAvailable when that
    asset has no positive price at an interior node, naming the first in
    date order.
    """
    k = policy_index if policy_index is not None else market.bond_for_period(i)
    for nodes in tree.by_date[tree.grid.index(i) + 1 : tree.grid.index(i + 1)]:
        price = market.prices[nodes, k]
        bad = np.flatnonzero(price <= 0.0)
        if bad.size:
            raise NoBondAvailable(
                f"accumulation asset {k} has no positive price at node {nodes[bad[0]]}"
            )
        held = assignment[tree.parent[nodes]]
        assignment[nodes, k] = (row_dots(held, market.payoffs[nodes]) + inflow[nodes]) / price


def accumulate_within_years(
    market: TradableSet,
    tree: ScenarioTree,
    inflow: np.ndarray,
    policy_index: Optional[int] = None,
) -> np.ndarray:
    """The (n_nodes, n_assets) portfolios that reinvest ``inflow``
    (indexed by node id) within each year and hold nothing out of annual
    nodes (``accumulate_year`` for every year)."""
    tree.require_per_node(("inflow", inflow))
    assignment = np.zeros((tree.n_nodes, market.n_assets))
    for i in range(tree.grid.horizon):
        accumulate_year(market, tree, i, inflow, assignment, policy_index)
    return assignment
