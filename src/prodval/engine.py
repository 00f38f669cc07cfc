"""Core production machinery.

Valuation runs backward over one-year periods. At each annual node the
one-period builder does two steps: (1) find the smallest scale of the
configured strategy family whose year-end assets satisfy the fulfillment
condition, funding interior outflows along the way; (2) solve the
financiability condition with equality for the largest capital the
year-end excess (A' - L)_+ can raise. The production cost at the node is
the strategy value minus that capital; mode B clamps it at zero by
reducing the capital, mode A allows negative cost (which requires short
positions with close out on the market).

Cost is computed and stored at every node, including nodes reachable
only through failure, because the failure-resolution machinery scales
liabilities state by state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    audit_neutrality_to_tradables,
    fulfillment_satisfied,
    fulfillment_satisfied_rows,
    max_capital,
    max_capital_rows,
)
from .errors import (
    CloseOutUnavailable,
    MissingCost,
    NeutralityAuditFailed,
    NoBondAvailable,
    SpanMismatch,
    ValidationFailed,
)
from .lattice import ScenarioTree
from .market import RestrictionSet, TradableSet
from .risk import DiscreteDistribution, DistributionRows
from .strategy import (
    CashflowProcess,
    Strategy,
    accumulate_within_years,
    conversion_residual,
    short_position_cashflows,
    stopped,
    strategy_value,
)

TOL = 1e-9
INF = math.inf


# --- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class LiabilitySpec:
    """Contractual outflows, actual inflows, and terminal values per leaf."""

    outflows: Mapping[int, float] = field(default_factory=dict)
    inflows: Mapping[int, float] = field(default_factory=dict)
    terminal: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, flows in (("outflow", self.outflows), ("inflow", self.inflows)):
            for node, v in flows.items():
                if v < 0:
                    raise ValueError(f"negative liability {name} {v} at node {node}")
        for node, v in self.terminal.items():
            if not math.isfinite(v):
                raise ValueError(f"terminal value at node {node} must be finite")

    def x(self, node: int) -> float:
        return float(self.outflows.get(node, 0.0))

    def z(self, node: int) -> float:
        return float(self.inflows.get(node, 0.0))

    def y(self, node: int) -> float:
        return float(self.terminal.get(node, 0.0))

    def plus(self, other: "LiabilitySpec") -> "LiabilitySpec":
        out = dict(self.outflows)
        for n, v in other.outflows.items():
            out[n] = out.get(n, 0.0) + v
        inf_ = dict(self.inflows)
        for n, v in other.inflows.items():
            inf_[n] = inf_.get(n, 0.0) + v
        term = dict(self.terminal)
        for n, v in other.terminal.items():
            term[n] = term.get(n, 0.0) + v
        return LiabilitySpec(out, inf_, term)


@dataclass(frozen=True)
class IlliquidPortfolio:
    """Held-to-maturity assets, reduced to their aggregate inflow stream."""

    inflows: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for node, v in self.inflows.items():
            if v < 0:
                raise ValueError(f"negative illiquid inflow {v} at node {node}")

    def z(self, node: int) -> float:
        return float(self.inflows.get(node, 0.0))

    @staticmethod
    def none() -> "IlliquidPortfolio":
        return IlliquidPortfolio({})


@dataclass(frozen=True)
class StrategyFamily:
    """risk_free | fixed_mix over coordinate weights | explicit base."""

    variant: str
    mix_indices: Optional[Tuple[int, ...]] = None
    base: Optional[Strategy] = None

    def __post_init__(self):
        if self.variant not in ("risk_free", "fixed_mix", "explicit"):
            raise ValueError(f"unknown family variant {self.variant!r}")
        if self.variant == "explicit" and self.base is None:
            raise ValueError("explicit family needs a base strategy")
        if self.variant == "fixed_mix" and not self.mix_indices:
            raise ValueError("fixed_mix family needs asset indices to mix over")

    @staticmethod
    def risk_free() -> "StrategyFamily":
        return StrategyFamily("risk_free")

    @staticmethod
    def fixed_mix(indices: Sequence[int]) -> "StrategyFamily":
        return StrategyFamily("fixed_mix", mix_indices=tuple(indices))

    @staticmethod
    def explicit(base: Strategy) -> "StrategyFamily":
        return StrategyFamily("explicit", base=base)


@dataclass(frozen=True)
class EngineConfig:
    """Mode A allows negative production cost (needs close out); mode B
    clamps it at zero. ``grid_depth`` sets the fixed-mix simplex
    resolution 2**depth; ``bisection_tol`` is absolute on the scale."""

    mode: str = "B"
    family: StrategyFamily = field(default_factory=StrategyFamily.risk_free)
    bisection_tol: float = 1e-10
    grid_depth: int = 3

    def __post_init__(self):
        if self.mode not in ("A", "B"):
            raise ValueError(f"mode must be 'A' or 'B', got {self.mode!r}")


# --- outputs -----------------------------------------------------------------


class BalanceSheetRow(NamedTuple):
    node: int
    assets: float
    liabilities: float
    capital_payoff: float
    failure: str  # "none" | "default" | "cannot_continue"


@dataclass
class ProductionCostProcess:
    values: Dict[int, float]
    capital: Dict[int, float]
    params: Dict[int, tuple]
    strategy: Strategy
    rows: Dict[int, BalanceSheetRow]
    mode: str
    infeasible_nodes: List[int]

    @property
    def feasible(self) -> bool:
        return not self.infeasible_nodes

    def value_at(self, node: int) -> float:
        try:
            return self.values[node]
        except KeyError:
            raise MissingCost(f"no production cost stored at node {node}") from None


# --- balance sheet and failure -------------------------------------------------


def liability_flows(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    extra_inflows: Optional[Mapping[int, float]] = None,
) -> CashflowProcess:
    """Company-level flows for the conversion equation: liability and
    illiquid inflows in, contractual outflows out."""
    inflow: Dict[int, float] = {}
    for n, v in liab.inflows.items():
        inflow[n] = inflow.get(n, 0.0) + v
    for n, v in psi.inflows.items():
        inflow[n] = inflow.get(n, 0.0) + v
    for n, v in (extra_inflows or {}).items():
        inflow[n] = inflow.get(n, 0.0) + v
    return CashflowProcess(inflow, dict(liab.outflows))


def balance_sheet(
    node: Union[int, Sequence[int]],
    liab: LiabilitySpec,
    strategy: Strategy,
    psi: IlliquidPortfolio,
    cost: Union[float, Sequence[float]],
    market: TradableSet,
    mode: str = "B",
    extra_inflow: Union[float, Sequence[float]] = 0.0,
) -> Union[BalanceSheetRow, List[BalanceSheetRow]]:
    """Assets and liabilities between the cash inflows and the liability
    payment at an annual date: A' = phi.S + inflows + (-vbar)_+ and
    L = X + (vbar)_+.

    In mode A the borrowed tradables worth (-vbar)_+ count as liquid
    resources when classifying a failure as default versus
    cannot-continue; in mode B they do not exist.

    ``node`` is one node id, giving one row, or a sequence of node ids,
    giving one row per node computed as array operations; ``cost`` and
    ``extra_inflow`` are then scalars or sequences of the same length.
    """
    ids = np.atleast_1d(node)
    tradables = _row_dots(strategy.held_into(ids), market.payoffs[ids])
    nodes = ids.tolist()
    inflows = np.array([liab.z(n) + psi.z(n) for n in nodes]) + extra_inflow
    outflow = np.array([liab.x(n) for n in nodes])
    cost = np.asarray(cost, dtype=float)
    borrowed = _positive_part(-cost)
    assets = tradables + inflows + borrowed
    liabilities = outflow + _positive_part(cost)
    payoff = _positive_part(assets - liabilities)
    resources = tradables + inflows + (borrowed if mode == "A" else 0.0)
    kinds = classify_failure(assets, liabilities, resources, outflow)
    rows = list(
        map(
            BalanceSheetRow._make,
            zip(nodes, assets.tolist(), liabilities.tolist(), payoff.tolist(), kinds),
        )
    )
    return rows[0] if np.ndim(node) == 0 else rows


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    Stacked matmul computes each through the same BLAS dot as
    ``a[i] @ b[i]``, so the results match per-node dot products bit for
    bit, which a multiply-and-sum does not.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _positive_part(x: np.ndarray) -> np.ndarray:
    """max(0, x) elementwise, zero where x is not positive (NaN included)."""
    return np.where(x > 0.0, x, 0.0)


def classify_failure(assets, liabilities, tradable_resources, outflow):
    """No failure when A' >= L; otherwise default if the tradable
    resources cannot pay the liability outflow, else cannot-continue.

    Scalars give one kind; arrays give a list of kinds, elementwise.
    """
    kind = np.where(
        np.asarray(assets) >= np.asarray(liabilities) - TOL,
        "none",
        np.where(
            np.asarray(tradable_resources) < np.asarray(outflow) - TOL,
            "default",
            "cannot_continue",
        ),
    )
    return kind.tolist()


# --- one-period construction ----------------------------------------------------


@dataclass
class OnePeriodResult:
    feasible: bool
    scale: float = INF
    capital: float = 0.0
    vbar: float = INF
    value: float = INF
    params: tuple = ()
    portfolios: Dict[int, Tuple[float, ...]] = field(default_factory=dict)


def _roll_mix_linear(
    tree: ScenarioTree,
    market: TradableSet,
    node_i: int,
    j0: int,
    j1: int,
    weights: Mapping[int, float],
    scale: float,
    interior_net: Callable[[int], float],
):
    """Value-rebalanced mix without feasibility clamping.

    Pots and payoffs are affine in the scale (``_roll_bond`` rolls the
    all-bond mix of the risk-free step as arrays); the result only has
    physical meaning where the pots are non-negative. Returns None if a
    weighted asset has no positive price somewhere in the year.
    """
    n = market.n_assets
    layers = tree.layers([node_i], j1 - j0)
    pot = {node_i: scale}
    portfolios: Dict[int, np.ndarray] = {}
    payoff: Dict[int, float] = {}
    for depth, layer in enumerate(layers[:-1]):
        last_step = depth + 1 == len(layers) - 1
        for m in layer:
            p = pot[m]
            x = np.zeros(n)
            for k, w in weights.items():
                if w == 0.0:
                    continue
                price = market.prices[m, k]
                if price <= 0.0:
                    return None
                x[k] = p * w / price
            portfolios[m] = x
            for c in tree.children[m]:
                res = float(x @ market.payoff(c))
                if last_step:
                    payoff[c] = res
                else:
                    pot[c] = res + interior_net(c)
    return pot, payoff, portfolios


def _mix_interior_feasible(pot: Mapping[int, float], node_i: int) -> bool:
    return all(v >= -TOL for m, v in pot.items() if m != node_i)


def _bisect_scale(
    tree, market, node_i, j0, j1, weights, ell, interior_net, fulfillment, tol
):
    """Smallest scale satisfying interior feasibility and fulfillment.

    Both are monotone in the scale (pots and payoffs are non-decreasing),
    so the feasible set is an upper half line; bracket by doubling, then
    bisect to ``tol`` and return the feasible endpoint.
    """

    def ok(s: float) -> bool:
        lin = _roll_mix_linear(tree, market, node_i, j0, j1, weights, s, interior_net)
        if lin is None:
            return False
        pot, payoff, _ = lin
        if not _mix_interior_feasible(pot, node_i):
            return False
        return fulfillment_satisfied(
            fulfillment, _surplus_dist(tree, node_i, payoff, ell)
        )

    if any(math.isinf(v) for v in ell.values()) and fulfillment.variant == "full":
        return None
    if ok(0.0):
        return 0.0
    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 2.0**60:
            return None
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _explicit_with_addon(
    tree, market, node_i, j0, j1, base: Strategy, ell, interior_net, fulfillment
):
    """The base strategy's own year slice, topped up by s units of value
    in the period bond when its surplus misses the fulfillment condition.

    The base must already fund interior dates exactly (residual zero);
    the bond add-on is held through the year, so it leaves the interior
    conversion untouched and shifts every year-end payoff by s(1+R).
    """
    if not base.in_span(node_i):
        return None
    layers = tree.layers([node_i], j1 - j0)
    portfolios: Dict[int, np.ndarray] = {}
    payoff: Dict[int, float] = {}
    for depth, layer in enumerate(layers[:-1]):
        last_step = depth + 1 == len(layers) - 1
        for m in layer:
            x = base.held_out(m)
            if float(x @ market.price(m)) < -TOL:
                return None
            if m != node_i:
                held_in = base.held_out(tree.parent[m])
                resources = float(held_in @ market.payoff(m)) + interior_net(m)
                if abs(float(x @ market.price(m)) - resources) > 1e-7:
                    return None
            portfolios[m] = x
            for c in tree.children[m]:
                if last_step:
                    payoff[c] = float(x @ market.payoff(c))
    surplus0 = _surplus_dist(tree, node_i, payoff, ell)
    buffer = fulfillment.required_buffer(surplus0)
    base_value = float(base.held_out(node_i) @ market.price(node_i))
    if buffer <= 0.0:
        return 0.0, base_value, payoff, {m: x.copy() for m, x in portfolios.items()}
    if math.isinf(buffer):
        return None
    i = int(tree.date_of(node_i))
    try:
        k = market.bond_for_period(i)
    except NoBondAvailable:
        return None
    price_i = float(market.prices[node_i, k])
    g = 1.0 / price_i
    s_star = buffer / g
    units = s_star / price_i
    out_portfolios = {}
    for m, x in portfolios.items():
        x2 = x.copy()
        x2[k] += units
        out_portfolios[m] = x2
    payoff2 = {nu: v + units for nu, v in payoff.items()}
    return s_star, base_value + s_star, payoff2, out_portfolios


def _surplus_dist(
    tree: ScenarioTree,
    node_i: int,
    payoff: Mapping[int, float],
    ell: Mapping[int, float],
) -> DiscreteDistribution:
    targets = sorted(payoff)
    atoms = []
    for nu in targets:
        p = tree.path_probability(node_i, nu)
        atoms.append((payoff[nu] - ell[nu], p))
    total = sum(p for _, p in atoms)
    return DiscreteDistribution.from_atoms(
        [(v, p / total) for v, p in atoms], labels=targets
    )


def _year_layers(tree: ScenarioTree, roots: np.ndarray, steps: int):
    """The nodes ``0..steps`` grid steps below ``roots``, one ascending id
    array per step; per node the position of its root in ``roots``; and
    per node below the first layer the index of its parent in the layer
    above."""
    root_pos = np.full(tree.n_nodes, -1)
    root_pos[roots] = np.arange(len(roots))
    slot = np.empty(tree.n_nodes, dtype=np.int64)
    layers, pos, up = [roots], [root_pos[roots]], [None]
    j = int(tree.date_idx[roots[0]])
    for d in range(1, steps + 1):
        slot[layers[-1]] = np.arange(len(layers[-1]))
        nodes = np.asarray(tree.by_date[j + d], dtype=np.int64)
        parents = tree.parent[nodes]
        keep = root_pos[parents] >= 0
        nodes, parents = nodes[keep], parents[keep]
        root_pos[nodes] = root_pos[parents]
        layers.append(nodes)
        pos.append(root_pos[nodes])
        up.append(slot[parents])
    return layers, pos, up


def _roll_bond(scale, up, price, payoff, net):
    """Roll ``scale`` per root through the year fully in the bond: the
    pots and bond units at the nodes of every layer but the last, and
    the year-end payoffs.

    The operations are those of ``_roll_mix_linear`` with the weight 1 on
    the bond, whose dot product with a one-hot portfolio is the single
    product units * payoff.
    """
    pots, units = [scale], []
    for d in range(len(price)):
        units.append(pots[-1] / price[d])
        res = units[-1][up[d + 1]] * payoff[d]
        if d + 1 == len(price):
            return pots, units, res
        pots.append(res + net[d])


def _risk_free_step(
    roots: np.ndarray,
    ell: Union[Mapping[int, float], np.ndarray],
    interior_net: Union[Callable[[int], float], np.ndarray],
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: np.ndarray,
    mode: str,
):
    """Closed-form step 1 and step 2 of the risk-free family at date-i
    nodes, all rows at once.

    pot(s) and payoff(s) are affine in s; the bond's year payoff slope is
    the same constant g = 1 + R on every path, so translation solvability
    of the fulfillment condition gives s directly. Interior feasibility
    adds a lower bound from the zero-scale flow roll. Returns one result
    per root, the bond index, and per layer of the year the nodes of the
    feasible roots with their bond units.
    """
    n = len(roots)
    i = int(tree.date_of(roots[0]))
    j1 = tree.grid.index(i + 1)
    if (tree.date_idx[roots] != tree.date_idx[roots[0]]).any():
        raise ValueError("a batch of one-period steps must share one date")
    try:
        k = market.bond_for_period(i)
    except NoBondAvailable:
        return [OnePeriodResult(False, params=("risk_free", INF)) for _ in range(n)], 0, []
    steps = j1 - tree.grid.index(i)
    layers, pos, up = _year_layers(tree, roots, steps)
    atoms = layers[-1]
    price = [market.prices[nodes, k] for nodes in layers[:-1]]
    payoff = [market.payoffs[nodes, k] for nodes in layers[1:]]
    if callable(interior_net):
        net = [np.array([interior_net(m) for m in nodes.tolist()]) for nodes in layers[1:-1]]
    else:
        net = [interior_net[nodes] for nodes in layers[1:-1]]
    if isinstance(ell, np.ndarray):
        ell_atoms = ell[atoms]
    else:
        ell_atoms = np.array([ell[m] for m in atoms.tolist()], dtype=float)
    pad, rows = _atom_rows(tree, atoms, pos[-1], n, steps)

    solved = np.ones(n, dtype=bool)
    for d, p in enumerate(price):
        solved[pos[d][p <= 0.0]] = False
    # Rows already unsolved may divide by zero below; they are discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        pots0, _, end0 = _roll_bond(np.zeros(n), up, price, payoff, net)
        pots1, _, end1 = _roll_bond(np.ones(n), up, price, payoff, net)
        s_feas = np.zeros(n)
        for d in range(1, steps):
            b = pots0[d]
            a = pots1[d] - b
            neg = b < -TOL
            solved[pos[d][neg & (a <= TOL * np.maximum(1.0, np.abs(b)))]] = False
            np.maximum.at(s_feas, pos[d][neg], -b[neg] / a[neg])

        slopes = pad(end1 - end0)
        # The first atom in node order, which breadth-first ids make the
        # first in layer order.
        g = slopes[:, 0]
        spread = np.abs(slopes - g[:, None]) > 1e-9 * np.where(g > 1.0, g, 1.0)[:, None]
        solved &= ~((g <= 0) | (spread & rows.mask).any(axis=1))
        buffer = fulfillment.required_buffer_rows(rows.with_values(pad(end0 - ell_atoms)))
        solved &= ~(np.isinf(buffer) & (buffer > 0))
        # max(0, s_feas, buffer / g); s_feas is already at least 0.
        translation = buffer / g
        s_star = np.where(translation > s_feas, translation, s_feas)

        pots, units, end = _roll_bond(s_star, up, price, payoff, net)
        for d in range(1, steps):
            solved[pos[d][~(pots[d] >= -TOL)]] = False
        surplus = rows.with_values(pad(end - ell_atoms))
        feasible = solved & fulfillment_satisfied_rows(fulfillment, surplus)

    f = np.flatnonzero(feasible)
    plus = DistributionRows(
        np.where(surplus.values > 0.0, surplus.values, 0.0)[f],
        rows.probs[f],
        rows.counts[f],
        rows.labels[f],
    )
    capital = max_capital_rows(financiability, plus, rates[f], roots[f], j1)
    value = s_star[f]
    vbar = value - capital
    if mode == "B":
        # Zero-cost variant of the same strategy: reduce the capital to
        # the strategy value; monotonicity keeps financiability intact.
        clamp = vbar < 0.0
        capital = np.where(clamp, value, capital)
        vbar = np.where(clamp, 0.0, vbar)

    results = [
        OnePeriodResult(False, params=("risk_free", s if ok else INF))
        for s, ok in zip(s_star.tolist(), solved.tolist())
    ]
    for r, s, c, v in zip(f.tolist(), value.tolist(), capital.tolist(), vbar.tolist()):
        results[r] = OnePeriodResult(
            True, scale=s, capital=c, vbar=v, value=s, params=("risk_free", s)
        )
    held = [(nodes[feasible[p]], u[feasible[p]]) for nodes, p, u in zip(layers, pos, units)]
    return results, k, held


def _atom_rows(tree, atoms, row, n_rows, steps):
    """Padded rows of the year-end atoms, ascending node ids in each row:
    a function placing per-atom values in them, and the rows with the
    conditional probabilities ``_surplus_dist`` gives the atoms (path
    products from the atom upward, normalised by their left-to-right
    sum in node order)."""
    counts = np.bincount(row, minlength=n_rows)
    order = np.argsort(row, kind="stable")
    col = np.empty(len(atoms), dtype=np.int64)
    col[order] = np.arange(len(atoms)) - (np.cumsum(counts) - counts)[row[order]]
    shape = (n_rows, int(counts.max(initial=1)))

    def pad(per_atom: np.ndarray) -> np.ndarray:
        out = np.zeros(shape, dtype=per_atom.dtype)
        out[row, col] = per_atom
        return out

    p = tree.prob[atoms]
    up = tree.parent[atoms]
    for _ in range(steps - 1):
        p = p * tree.prob[up]
        up = tree.parent[up]
    paths = pad(p)
    # Python's sum, as _surplus_dist normalises (np.sum adds pairwise).
    total = [sum(r[:c]) for r, c in zip(paths.tolist(), counts.tolist())]
    probs = paths / np.array(total)[:, None]
    return pad, DistributionRows(np.zeros(shape), probs, counts, pad(atoms))


def build_one_period(
    node_i: Union[int, Sequence[int]],
    ell: Union[Mapping[int, float], np.ndarray],
    interior_net: Union[Callable[[int], float], np.ndarray],
    family: StrategyFamily,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rate: Union[float, Sequence[float]],
    mode: str = "B",
    bisection_tol: float = 1e-10,
    mix_weights: Optional[Mapping[int, float]] = None,
    assignment: Optional[np.ndarray] = None,
) -> Union[OnePeriodResult, List[OnePeriodResult]]:
    """Two-step construction over one year from a date-i node.

    ``ell`` maps each date-(i+1) descendant to the effective liability
    X + vbar_next - inflows there; ``interior_net`` gives net flows at
    interior nodes of the year. Step 1 finds the smallest admissible
    scale: closed form for translation families (risk-free; explicit
    base plus bond add-on), monotone bisection for fixed mixes. Step 2
    solves the financiability condition with equality on the capital
    payoff (A' - L)_+. Returns the infeasible sentinel (vbar = +inf)
    when no scale works.

    For the risk-free family ``node_i`` may also be a sequence of nodes
    of one date, solved together as array operations; ``ell`` and
    ``interior_net`` may then be arrays indexed by node id and ``rate``
    a sequence with one rate per node. The call returns one result per
    node and writes the bond units of the feasible nodes' years into
    ``assignment``, an (n_nodes, n_assets) array, instead of returning
    portfolios.
    """
    if family.variant == "risk_free":
        roots = np.atleast_1d(np.asarray(node_i, dtype=np.int64))
        rates = np.broadcast_to(np.asarray(rate, dtype=float), roots.shape)
        results, k, held = _risk_free_step(
            roots, ell, interior_net, fulfillment, financiability, market, tree,
            rates, mode,
        )
        if np.ndim(node_i) > 0:
            if assignment is not None:
                for nodes, units in held:
                    assignment[nodes, k] = units
            return results
        res = results[0]
        for nodes, units in held:
            for m, u in zip(nodes.tolist(), units.tolist()):
                x = [0.0] * market.n_assets
                x[k] = u
                res.portfolios[m] = tuple(x)
        return res

    if np.ndim(node_i) > 0:
        raise ValueError("only the risk_free family solves a batch of nodes")
    i = int(tree.date_of(node_i))
    j0 = tree.grid.index(i)
    j1 = tree.grid.index(i + 1)
    if family.variant == "fixed_mix":
        weights = dict(mix_weights or {})
        s_star = _bisect_scale(
            tree, market, node_i, j0, j1, weights, ell, interior_net,
            fulfillment, bisection_tol,
        )
        if s_star is None:
            return OnePeriodResult(False, params=("fixed_mix", _wkey(weights), INF))
        lin = _roll_mix_linear(
            tree, market, node_i, j0, j1, weights, s_star, interior_net
        )
        _, payoff, portfolios = lin
        value = s_star
        params = ("fixed_mix", _wkey(weights), s_star)
    else:
        solved = _explicit_with_addon(
            tree, market, node_i, j0, j1, family.base, ell, interior_net, fulfillment
        )
        if solved is None:
            return OnePeriodResult(False, params=("explicit", INF))
        s_star, value, payoff, portfolios = solved
        params = ("explicit", s_star)

    surplus = _surplus_dist(tree, node_i, payoff, ell)
    if not fulfillment_satisfied(fulfillment, surplus):
        return OnePeriodResult(False, params=params)
    plus_part = DiscreteDistribution(
        tuple(max(0.0, v) for v in surplus.values), surplus.probs, surplus.labels
    )
    capital = max_capital(financiability, plus_part, rate, node_i, j1)
    vbar = value - capital
    if mode == "B" and vbar < 0.0:
        # Zero-cost variant of the same strategy: reduce the capital to
        # the strategy value; monotonicity keeps financiability intact.
        capital = value
        vbar = 0.0
    return OnePeriodResult(
        True,
        scale=s_star,
        capital=capital,
        vbar=vbar,
        value=value,
        params=params,
        portfolios={m: tuple(float(v) for v in x) for m, x in portfolios.items()},
    )


def _wkey(weights: Mapping[int, float]) -> tuple:
    return tuple(sorted(weights.items()))


def _simplex_grid(indices: Tuple[int, ...], depth: int) -> List[Dict[int, float]]:
    """All weight vectors with denominators 2**depth over the indices."""
    n = 2**depth
    m = len(indices)
    if m == 1:
        return [{indices[0]: 1.0}]
    out = []
    def rec(prefix, remaining, pos):
        if pos == m - 1:
            out.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)
    rec([], n, 0)
    return [
        {k: num / n for k, num in zip(indices, combo) if num}
        for combo in out
    ]


def backward_value(
    liab: LiabilitySpec,
    psi: IlliquidPortfolio,
    config: EngineConfig,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Mapping[int, float],
) -> ProductionCostProcess:
    """Backward-recursive production cost over the whole horizon.

    Initializes vbar at the leaves with the liability's terminal values,
    then for i = T-1 .. 0 sets the next liability value X + vbar at every
    date-(i+1) node (for all states, failed ones included) and runs the
    one-period builder at every date-i node, minimizing vbar over the
    family's parameter grid. Ties pick the lexicographically smallest
    parameter vector. Infeasible nodes carry +inf and propagate.
    """
    if config.mode == "A" and not market.close_out:
        raise CloseOutUnavailable("mode A requires short positions with close out")
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1
    values: Dict[int, float] = {}
    capital: Dict[int, float] = {}
    params: Dict[int, tuple] = {}
    portfolios: Dict[int, Tuple[float, ...]] = {}
    infeasible: List[int] = []
    assignment = np.zeros((tree.n_nodes, market.n_assets))

    for leaf in tree.by_date[J]:
        values[leaf] = liab.y(leaf)

    candidates = _family_candidates(config)
    outflow = _node_array(liab.outflows, tree.n_nodes)
    inflow = _node_array(liab.inflows, tree.n_nodes)
    psi_inflow = _node_array(psi.inflows, tree.n_nodes)
    net = inflow + psi_inflow - outflow
    vbar = np.zeros(tree.n_nodes)
    vbar[list(values)] = list(values.values())
    ell = np.zeros(tree.n_nodes)

    def interior_net(m: int) -> float:
        return liab.z(m) + psi.z(m) - liab.x(m)

    for i in range(T - 1, -1, -1):
        ends = np.asarray(tree.nodes_at(i + 1), dtype=np.int64)
        ell[ends] = outflow[ends] + vbar[ends] - inflow[ends] - psi_inflow[ends]
        nodes = tree.nodes_at(i)
        if config.family.variant == "risk_free":
            results = build_one_period(
                nodes, ell, net, config.family, fulfillment, financiability,
                market, tree, [rates[n] for n in nodes], config.mode,
                assignment=assignment,
            )
            best_of = [res if res.feasible else None for res in results]
        else:
            ell_all = dict(zip(ends.tolist(), ell[ends].tolist()))
            best_of = [
                _best_candidate(
                    node_i, ell_all, interior_net, candidates, config,
                    fulfillment, financiability, market, tree, rates[node_i],
                )
                for node_i in nodes
            ]
        for node_i, best in zip(nodes, best_of):
            if best is None:
                values[node_i] = INF
                infeasible.append(node_i)
                params[node_i] = ("infeasible",)
                continue
            values[node_i] = best.vbar
            capital[node_i] = best.capital
            params[node_i] = best.params
            portfolios.update(best.portfolios)
        vbar[list(nodes)] = [values[n] for n in nodes]

    if portfolios:
        assignment[list(portfolios)] = list(portfolios.values())
    # Scales from the bisection endpoint can leave pots, and hence units,
    # a hair below zero; snap those while keeping genuinely signed
    # explicit bases intact.
    assignment[(assignment > -TOL) & (assignment < 0.0)] = 0.0
    strategy = Strategy(
        tree,
        market.n_assets,
        assignment,
        sign_class="unrestricted" if (assignment < 0.0).any() else "nonneg",
    )
    rows: Dict[int, BalanceSheetRow] = {}
    for i in range(1, T + 1):
        nodes = tree.nodes_at(i)
        for row in balance_sheet(
            nodes, liab, strategy, psi, [values[n] for n in nodes], market, config.mode
        ):
            rows[row.node] = row
    return ProductionCostProcess(
        values, capital, params, strategy, rows, config.mode, sorted(infeasible)
    )


def _best_candidate(
    node_i, ell, interior_net, candidates, config, fulfillment, financiability,
    market, tree, rate,
) -> Optional[OnePeriodResult]:
    """The feasible candidate with the least vbar; ties pick the
    lexicographically smallest parameters. None if none is feasible."""
    best: Optional[OnePeriodResult] = None
    for fam, weights in candidates:
        res = build_one_period(
            node_i,
            ell,
            interior_net,
            fam,
            fulfillment,
            financiability,
            market,
            tree,
            rate,
            config.mode,
            config.bisection_tol,
            weights,
        )
        if not res.feasible:
            continue
        if (
            best is None
            or res.vbar < best.vbar - 1e-12
            or (abs(res.vbar - best.vbar) <= 1e-12 and res.params < best.params)
        ):
            best = res
    return best


def _node_array(flows: Mapping[int, float], n_nodes: int) -> np.ndarray:
    """Per-node values of a node -> value mapping, zero where absent."""
    out = np.zeros(n_nodes)
    out[list(flows)] = [float(v) for v in flows.values()]
    return out


def _family_candidates(config: EngineConfig):
    fam = config.family
    if fam.variant == "fixed_mix":
        grids = _simplex_grid(fam.mix_indices, config.grid_depth)
        return [(fam, w) for w in grids]
    return [(fam, None)]


# --- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class PeriodCheck:
    node: int
    period: int
    interior_max_residual: float
    interior_min_value: float
    fulfillment_ok: bool
    capital: float
    capital_bound: float
    financiability_ok: bool
    cost_sign_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.interior_max_residual <= 1e-9
            and self.interior_min_value >= -TOL
            and self.fulfillment_ok
            and self.financiability_ok
            and self.cost_sign_ok
        )


@dataclass
class ValidationReport:
    checks: List[PeriodCheck]
    skipped: List[Tuple[int, int, str]]  # (node, period, reason)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[PeriodCheck]:
        return [c for c in self.checks if not c.ok]


def validate_production_strategy(
    strategy: Strategy,
    psi: IlliquidPortfolio,
    capital: CapitalSchedule,
    liab: LiabilitySpec,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Mapping[int, float],
    mode: str = "B",
    start_set: Optional[Sequence[int]] = None,
    i_min: int = 0,
    i_max: Optional[int] = None,
    terminal: Optional[Mapping[int, float]] = None,
    extra_annual_inflows: Optional[Mapping[int, float]] = None,
) -> ValidationReport:
    """Check conditions (a) interior funding, (b) financiability, and
    (c) fulfillment per one-year period, on the start set and wherever no
    failure has occurred; mode B additionally checks vbar >= 0.

    The cost process is derived from the strategy and capital schedule:
    vbar_i = v_i(phi) - C_i, with terminal values at i_max. Periods after
    a balance-sheet failure are skipped (the strategy stops there).
    """
    if i_max is None:
        i_max = tree.grid.horizon
    if not (0 <= i_min < i_max <= tree.grid.horizon):
        raise SpanMismatch(f"bad period range [{i_min}, {i_max}]")
    if strategy.sign_class == "value_nonneg" and not (
        fulfillment.variant == "full" and market.close_out
    ):
        raise CloseOutUnavailable(
            "general (value non-negative) production strategies need the full "
            "fulfillment condition and close out"
        )
    extra = dict(extra_annual_inflows or {})

    vbar: Dict[int, float] = {}
    for node in tree.nodes_at(i_max):
        if terminal is not None:
            vbar[node] = float(terminal.get(node, 0.0))
        else:
            vbar[node] = liab.y(node)
    for i in range(i_min, i_max):
        for node in tree.nodes_at(i):
            vbar[node] = strategy_value(strategy, market, node) - capital.at(node)

    flows = liability_flows(liab, psi, extra)

    live: Dict[int, bool] = {}
    start = set(start_set) if start_set is not None else set(tree.nodes_at(i_min))
    for node in tree.nodes_at(i_min):
        live[node] = node in start

    checks: List[PeriodCheck] = []
    skipped: List[Tuple[int, int, str]] = []
    for i in range(i_min, i_max):
        j0 = tree.grid.index(i)
        j1 = tree.grid.index(i + 1)
        for node_i in tree.nodes_at(i):
            if not live[node_i]:
                reason = "outside start set" if i == i_min else "prior failure"
                skipped.append((node_i, i, reason))
                for nu in tree.descendants_at(node_i, j1):
                    live[nu] = False
                continue
            layers = tree.layers([node_i], j1 - j0)
            max_res = 0.0
            min_val = INF
            for layer in layers[1:-1]:
                for m in layer:
                    res = conversion_residual(strategy, market, tree, flows, m)
                    max_res = max(max_res, abs(res))
                    min_val = min(min_val, strategy_value(strategy, market, m))
            if min_val is INF:
                min_val = 0.0
            surplus_atoms = {}
            for nu in layers[-1]:
                held = strategy.held_into(nu)
                a_trad = float(held @ market.payoff(nu))
                a = a_trad + liab.z(nu) + psi.z(nu) + extra.get(nu, 0.0)
                l_eff = liab.x(nu) + vbar[nu]
                surplus_atoms[nu] = a - l_eff
            dist = _surplus_dist(
                tree, node_i, surplus_atoms, {nu: 0.0 for nu in surplus_atoms}
            )
            ful_ok = fulfillment_satisfied(fulfillment, dist)
            plus_part = DiscreteDistribution(
                tuple(max(0.0, v) for v in dist.values), dist.probs, dist.labels
            )
            c_i = capital.at(node_i)
            bound = max_capital(financiability, plus_part, rates[node_i], node_i, j1)
            fin_ok = c_i <= bound + TOL
            cost_ok = mode == "A" or vbar[node_i] >= -TOL
            checks.append(
                PeriodCheck(
                    node_i, i, max_res, min_val, ful_ok, c_i, bound, fin_ok, cost_ok
                )
            )
            for nu, surplus in surplus_atoms.items():
                live[nu] = surplus >= -TOL
    return ValidationReport(checks, skipped)


# --- illiquid replica shift ------------------------------------------------------


@dataclass
class ShiftReport:
    per_node: Dict[int, Tuple[float, float, float]]  # (vbar*, vbar - v(psi), diff)
    validation: ValidationReport

    @property
    def max_abs_diff(self) -> float:
        return max((abs(d) for _, _, d in self.per_node.values()), default=0.0)

    @property
    def ok(self) -> bool:
        return self.validation.ok and self.max_abs_diff <= TOL


def illiquid_replica_shift(
    liab: LiabilitySpec,
    psi_units: Sequence[float],
    base_strategy: Strategy,
    base_capital: CapitalSchedule,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Mapping[int, float],
    restriction: Optional[RestrictionSet] = None,
    policy_index: Optional[int] = None,
) -> ShiftReport:
    """Treat a static tradable position as illiquid and verify that the
    production cost drops by exactly its market value.

    ``psi_units`` is the static portfolio (held unchanged, paying out its
    inflows, worthless at the horizon). The financiability condition must
    pass the neutrality audit on the restriction used. The augmented
    strategy adds the within-year accumulation of the illiquid inflows
    and raises capital C_i + v_i(psi); the report compares its cost to
    the base cost minus v_i(psi) at every annual node.
    """
    neutrality = audit_neutrality_to_tradables(
        financiability, market, tree, restriction, rates
    )
    if neutrality.flagged:
        raise NeutralityAuditFailed("financiability fails the neutrality audit")
    units = np.asarray(psi_units, dtype=float)
    if units.min(initial=0.0) < 0:
        raise ValueError("static illiquid position must be non-negative")
    J = len(tree.grid.dates) - 1
    for leaf in tree.by_date[J]:
        if abs(float(units @ market.price(leaf))) > TOL:
            raise ValueError("static position must be worthless at the horizon")

    psi = IlliquidPortfolio(
        {
            n: float(units @ market.inflow(n))
            for n in range(tree.n_nodes)
            if float(units @ market.inflow(n)) != 0.0
        }
    )

    # xi accumulates the illiquid inflows within each year and is flat at
    # annual nodes; it never owns anything across year ends.
    T = tree.grid.horizon
    xi = Strategy(
        tree,
        market.n_assets,
        accumulate_within_years(market, tree, psi.z, policy_index),
    )

    augmented = base_strategy.plus(xi)
    cap_star = {
        node: base_capital.at(node) + float(units @ market.price(node))
        for i in range(T)
        for node in tree.nodes_at(i)
    }
    validation = validate_production_strategy(
        augmented,
        psi,
        CapitalSchedule(cap_star),
        liab,
        fulfillment,
        financiability,
        market,
        tree,
        rates,
        mode="A" if market.close_out else "B",
    )
    per_node: Dict[int, Tuple[float, float, float]] = {}
    for i in range(T):
        for node in tree.nodes_at(i):
            v_star = strategy_value(augmented, market, node) - cap_star[node]
            v_base = strategy_value(base_strategy, market, node) - base_capital.at(node)
            v_psi = float(units @ market.price(node))
            per_node[node] = (v_star, v_base - v_psi, v_star - (v_base - v_psi))
    return ShiftReport(per_node, validation)


# --- short position additivity ----------------------------------------------------


@dataclass
class AdditivityReport:
    per_node: Dict[int, Tuple[float, float, float]]  # (combined, base + v(phi'), diff)
    validation: ValidationReport

    @property
    def max_abs_diff(self) -> float:
        return max((abs(d) for _, _, d in self.per_node.values()), default=0.0)

    @property
    def ok(self) -> bool:
        return self.validation.ok and self.max_abs_diff <= TOL


def add_short_position(
    liab: LiabilitySpec,
    base_strategy: Strategy,
    base_capital: CapitalSchedule,
    phi: Strategy,
    stop: set,
    phi_outflows: CashflowProcess,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Mapping[int, float],
    psi: Optional[IlliquidPortfolio] = None,
) -> AdditivityReport:
    """Add the short-position liability L(phi) on top of a produced
    liability and verify cost additivity.

    Runs theta + phi' (phi stopped at tau) with the unchanged capital
    schedule against the combined liability; the production cost must
    shift by v_i(phi) 1{i < tau} at every annual node. Requires the full
    fulfillment condition and close out.
    """
    if fulfillment.variant != "full":
        raise ValidationFailed("short-position additivity needs full fulfillment")
    if not market.close_out:
        raise CloseOutUnavailable("short positions need close out availability")
    psi = psi or IlliquidPortfolio.none()
    l_phi = short_position_cashflows(phi, stop, market, tree, phi_outflows)
    combined_liab = liab.plus(LiabilitySpec(outflows=dict(l_phi.outflow)))
    phi_p = stopped(phi, tree, stop)
    combined = base_strategy.plus(phi_p)
    validation = validate_production_strategy(
        combined,
        psi,
        base_capital,
        combined_liab,
        fulfillment,
        financiability,
        market,
        tree,
        rates,
        mode="A" if market.close_out else "B",
    )
    per_node: Dict[int, Tuple[float, float, float]] = {}
    for i in range(tree.grid.horizon):
        for node in tree.nodes_at(i):
            v_comb = strategy_value(combined, market, node) - base_capital.at(node)
            v_base = strategy_value(base_strategy, market, node) - base_capital.at(node)
            shift = strategy_value(phi_p, market, node)
            per_node[node] = (v_comb, v_base + shift, v_comb - (v_base + shift))
    return AdditivityReport(per_node, validation)
