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
from itertools import repeat
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .conditions import (
    SLACK,
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    audit_neutrality_to_tradables,
    fulfillment_satisfied,
    max_capital,
)
from .errors import (
    CloseOutUnavailable,
    NeutralityAuditFailed,
    NoBondAvailable,
    NodeOutsideSpan,
    SpanMismatch,
    ValidationFailed,
)
from .lattice import ScenarioTree, node_array
from .market import RestrictionSet, TradableSet
from .risk import DistributionRows, lower_quantile, sum_left_to_right
from .strategy import (
    CashflowProcess,
    Strategy,
    accumulate_within_years,
    row_dots,
    short_position_cashflows,
    stopped,
)

TOL = 1e-9
INF = math.inf


# --- inputs ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LiabilitySpec:
    """Contractual outflows, actual inflows, and terminal values (read at
    the leaves): read-only arrays indexed by node id."""

    outflows: np.ndarray
    inflows: np.ndarray
    terminal: np.ndarray

    def __post_init__(self):
        for name, what, nonnegative in (
            ("outflows", "liability outflow", True),
            ("inflows", "liability inflow", True),
            ("terminal", "terminal value", False),
        ):
            object.__setattr__(self, name, node_array(getattr(self, name), what, nonnegative))

    def sections(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        """(config section, array) pairs, for ``tree.require_per_node``."""
        return (
            ("liability.outflows", self.outflows),
            ("liability.inflows", self.inflows),
            ("liability.terminal", self.terminal),
        )


@dataclass(frozen=True, eq=False)
class IlliquidPortfolio:
    """Held-to-maturity assets, reduced to their aggregate inflow stream:
    a read-only array indexed by node id."""

    inflows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inflows", node_array(self.inflows, "illiquid inflow"))

    @staticmethod
    def none(n_nodes: int) -> "IlliquidPortfolio":
        return IlliquidPortfolio(np.zeros(n_nodes))


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


FAILURE_KINDS = ("none", "default", "cannot_continue")
"""The balance-sheet failure kinds, indexed by their int8 codes."""

NO_STEP, INFEASIBLE = 0, 1
"""``ProductionCostProcess.head`` at a node where no one-period step runs
(a leaf, or a node between the annual dates) and at one where no member
of the family is feasible."""


class BalanceSheet(NamedTuple):
    """Balance-sheet rows as parallel arrays: A', L, the capital payoff
    (A' - L)_+, and the failure kind as an int8 code into
    ``FAILURE_KINDS``."""

    assets: np.ndarray
    liabilities: np.ndarray
    capital_payoff: np.ndarray
    failure: np.ndarray


@dataclass(eq=False)
class ProductionCostProcess:
    """The production cost process and how it was produced, as arrays
    indexed by node id.

    ``values`` holds vbar at the annual nodes, +inf at infeasible ones
    and 0.0 between the annual dates. ``head`` holds each node's
    parameters but the scale as an index into ``heads``, which lists
    ``()`` (``NO_STEP``), ``("infeasible",)`` (``INFEASIBLE``) and then
    the family's candidates (``candidate_heads``). ``funded`` marks the
    nodes where a feasible one-period step ran, and only there do
    ``capital`` (the capital raised, 0.0 elsewhere) and ``scale`` mean
    anything. ``sheet`` holds the balance sheet at the annual nodes after
    the root and zeros elsewhere.
    """

    values: np.ndarray
    capital: np.ndarray
    head: np.ndarray
    heads: Tuple[tuple, ...]
    scale: np.ndarray
    strategy: Strategy
    sheet: BalanceSheet
    mode: str
    infeasible_nodes: List[int]

    @property
    def feasible(self) -> bool:
        return not self.infeasible_nodes

    @property
    def funded(self) -> np.ndarray:
        return self.head > INFEASIBLE


# --- balance sheet and failure -------------------------------------------------


def balance_sheet(
    nodes: Sequence[int],
    outflow: np.ndarray,
    inflow: np.ndarray,
    strategy: Strategy,
    cost: Sequence[float],
    market: TradableSet,
    mode: str = "B",
) -> BalanceSheet:
    """Assets and liabilities between the cash inflows and the liability
    payment at an annual date: A' = phi.S + inflows + (-vbar)_+ and
    L = X + (vbar)_+.

    In mode A the borrowed tradables worth (-vbar)_+ count as liquid
    resources when classifying a failure as default versus
    cannot-continue; in mode B they do not exist.

    ``outflow`` (the liability outflow X) and ``inflow`` (every cash
    inflow but the tradables') are arrays indexed by node id. Gives one
    row per node id of ``nodes``, at ``cost`` of the same length (a
    single id and cost give one row), computed as array operations.
    """
    ids = np.atleast_1d(nodes)
    tradables = row_dots(strategy.held_into(ids), market.payoffs[ids])
    inflows = inflow[ids]
    outflow = outflow[ids]
    cost = np.atleast_1d(np.asarray(cost, dtype=float))
    borrowed = _positive_part(-cost)
    assets = tradables + inflows + borrowed
    liabilities = outflow + _positive_part(cost)
    payoff = _positive_part(assets - liabilities)
    resources = tradables + inflows + (borrowed if mode == "A" else 0.0)
    kinds = classify_failure(assets, liabilities, resources, outflow)
    return BalanceSheet(assets, liabilities, payoff, kinds)


def _positive_part(x: np.ndarray) -> np.ndarray:
    """max(0, x) elementwise, zero where x is not positive (NaN included)."""
    return np.where(x > 0.0, x, 0.0)


def classify_failure(assets, liabilities, tradable_resources, outflow) -> np.ndarray:
    """No failure when A' >= L; otherwise default if the tradable
    resources cannot pay the liability outflow, else cannot-continue.

    Gives the kinds elementwise as int8 codes into ``FAILURE_KINDS`` (a
    0-d array for scalars).
    """
    return np.where(
        np.asarray(assets) >= np.asarray(liabilities) - TOL,
        np.int8(0),
        np.where(
            np.asarray(tradable_resources) < np.asarray(outflow) - TOL,
            np.int8(1),
            np.int8(2),
        ),
    )


# --- one-period construction ----------------------------------------------------


class OnePeriodStep(NamedTuple):
    """The one-period steps of a date's nodes, one entry per node: vbar,
    the capital raised, the scale and the index of the winning candidate
    in ``candidate_heads``; where no candidate is feasible, +inf, 0.0,
    +inf and -1."""

    vbar: np.ndarray
    capital: np.ndarray
    scale: np.ndarray
    candidate: np.ndarray


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


class _Year(NamedTuple):
    """The year below one date's nodes, with one row per node and
    candidate: row ``r * n_cand + c`` is candidate c at the node in
    position r.

    Per layer, from the date's nodes (layer 0) to the year-end atoms, an
    entry per node and candidate: ``nodes`` its node, ``rows`` its row,
    ``up`` the index of its parent's entry in the layer above. ``price``
    holds the price rows of every layer but the last, ``payoff`` the
    payoff rows of every layer but the first, and ``net`` the net flows
    of the interior layers. ``pad`` and ``dist`` place per-atom values in
    the padded rows of the atoms' conditional distribution, and ``ell``
    is the effective liability at each atom entry.
    """

    nodes: List[np.ndarray]
    rows: List[np.ndarray]
    up: List[Optional[np.ndarray]]
    price: List[np.ndarray]
    payoff: List[np.ndarray]
    net: List[Optional[np.ndarray]]
    pad: Callable[[np.ndarray], np.ndarray]
    dist: DistributionRows
    ell: np.ndarray


def _year(tree, market, roots, n_cand, steps, ell, net) -> _Year:
    layers, pos, up = _year_layers(tree, roots, steps)
    cand = np.arange(n_cand)

    def expand(index: np.ndarray) -> np.ndarray:
        return (index[:, None] * n_cand + cand).ravel()

    nodes = [np.repeat(layer, n_cand) for layer in layers]
    rows = [expand(p) for p in pos]
    pad, dist = _atom_rows(tree, nodes[-1], rows[-1], len(roots) * n_cand, steps)
    return _Year(
        nodes,
        rows,
        [None] + [expand(u) for u in up[1:]],
        [market.prices[m] for m in nodes[:-1]],
        [market.payoffs[m] for m in nodes[1:]],
        [None] + [net[m] for m in nodes[1:-1]],
        pad,
        dist,
        ell[nodes[-1]],
    )


def _atom_rows(tree, atoms, row, n_rows, steps):
    """Padded rows of the year-end atoms, ascending node ids in each row:
    a function placing per-atom values in them, and the rows with the
    conditional probabilities of the atoms (path products from the atom
    upward, normalised by their left-to-right sum in node order, as
    ``lattice.conditional_distribution`` gives them)."""
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
    # Left to right, as the per-node distributions normalise (np.sum adds
    # pairwise); the padding adds 0.0.
    probs = paths / sum_left_to_right(paths)[:, None]
    return pad, DistributionRows(np.zeros(shape), probs, counts, pad(atoms))


def _roll(year: _Year, portfolio, scale: np.ndarray):
    """Roll ``scale`` per row through the year: the pots at the entries
    of every layer but the last, the portfolios held there, and the
    year-end payoffs. ``portfolio(d, pots)`` gives the portfolios of
    layer d from its pots."""
    pots, held = [scale], []
    for d, payoff in enumerate(year.payoff):
        held.append(portfolio(d, pots[-1]))
        res = row_dots(held[-1][year.up[d + 1]], payoff)
        if d + 1 == len(year.payoff):
            return pots, held, res
        pots.append(res + year.net[d + 1])


def _interior_ok(year: _Year, pots, ok: np.ndarray) -> np.ndarray:
    """``ok`` cleared at the rows with a pot below -TOL inside the year."""
    for rows, pot in zip(year.rows[1:], pots[1:]):
        ok[rows[~(pot >= -TOL)]] = False
    return ok


def _interior_bound(year: _Year, pots0, pots1, slack: float = 0.0):
    """Per row the smallest scale at which the affine roll through the
    pots at scale 0 and 1 lifts every interior pot that is below -TOL at
    scale 0 to -``slack``; and the rows where such a pot grows by at most
    TOL relative to itself per unit of scale, so that no scale works."""
    bound = np.zeros(len(pots0[0]))
    flat = np.zeros(len(bound), dtype=bool)
    for rows, b, b1 in zip(year.rows[1:], pots0[1:], pots1[1:]):
        a = b1 - b
        neg = b < -TOL
        flat[rows[neg & (a <= TOL * np.maximum(1.0, np.abs(b)))]] = True
        np.maximum.at(bound, rows[neg], (-slack - b[neg]) / a[neg])
    return bound, flat


def _affine_scale(year: _Year, portfolio, fulfillment, solved):
    """Closed-form scale of a mix whose year payoff has the same slope g
    on every path (the period bond's 1 + R).

    pot(s) and payoff(s) are affine in s, so two rolls give them, and
    translation solvability of the fulfillment condition gives s
    directly; interior feasibility adds a lower bound from the
    zero-scale flow roll. Clears ``solved`` where no scale works.
    """
    n = len(solved)
    pots0, _, end0 = _roll(year, portfolio, np.zeros(n))
    pots1, _, end1 = _roll(year, portfolio, np.ones(n))
    s_feas, flat = _interior_bound(year, pots0, pots1)
    solved &= ~flat

    slopes = year.pad(end1 - end0)
    # The first atom in node order, which breadth-first ids make the
    # first in layer order.
    g = slopes[:, 0]
    spread = np.abs(slopes - g[:, None]) > 1e-9 * np.where(g > 1.0, g, 1.0)[:, None]
    solved &= ~((g <= 0) | (spread & year.dist.mask).any(axis=1))
    buffer = fulfillment.required_buffer(year.dist.with_values(year.pad(end0 - year.ell)))
    solved &= ~(np.isinf(buffer) & (buffer > 0))
    # max(0, s_feas, buffer / g); s_feas is already at least 0.
    translation = buffer / g
    return np.where(translation > s_feas, translation, s_feas)


def _passes(year: _Year, fulfillment, pots, end, rows: np.ndarray) -> np.ndarray:
    """Per row whether a roll keeps its pots inside the year at least
    -TOL and its year-end surplus meets the fulfillment condition; False
    outside ``rows``."""
    good = np.flatnonzero(_interior_ok(year, pots, rows.copy()))
    surplus = year.dist.with_values(year.pad(end - year.ell)).take(good)
    out = np.zeros(len(rows), dtype=bool)
    out[good] = fulfillment_satisfied(fulfillment, surplus)
    return out


def _bisect_scales(year: _Year, portfolio, fulfillment, solved, tol):
    """Smallest scale per row satisfying interior feasibility and
    fulfillment, to the bits of the doubling bracket and bisection
    (``_bisection``) run on the real check: 0 where scale 0 passes, and
    not solved where 2**60 still fails.

    Both conditions are monotone in the scale (pots and payoffs are
    non-decreasing), so the passing scales form an upper half line. The
    search estimates each row's threshold from the rolls at scale 0 and
    1 (``_scale_estimate``), replays the bisection's loops against the
    estimate without a roll, and certifies each row with two real checks,
    retrying the rows that fail (``_certified_replay``): about 5 rolls
    per date instead of one per loop step. Clears ``solved`` where no
    scale works.
    """

    def ok(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pots, _, end = _roll(year, portfolio, s)
        return _passes(year, fulfillment, pots, end, rows)

    if fulfillment.variant == "full":
        # An infinite liability atom can never be covered.
        solved &= ~year.pad(np.isinf(year.ell)).any(axis=1)
    pending, t = _scale_estimate(year, portfolio, fulfillment, solved)
    hi, found = _certified_replay(ok, t, pending, tol)
    solved &= found | ~pending
    return np.where(found, hi, 0.0)


def _scale_estimate(year: _Year, portfolio, fulfillment, solved):
    """The rows of ``solved`` that fail at scale 0, and for each of them
    a guess at its smallest passing scale (+inf where it sees none).

    The roll is affine in the scale, so the rolls at scale 0 and 1 give
    every pot and year-end surplus as a line. The guess is the larger of
    the scale that lifts the interior pots to -TOL and the scale at
    which the surplus lines meet the condition with its SLACK: for full,
    VaR and probability conditions a lower quantile of the scales at
    which the atoms reach -SLACK, for ES the root of the buffer by secant
    steps (``_secant_root``). Only the cost of the search depends on the
    guess.
    """
    n = len(solved)
    pots0, _, end0 = _roll(year, portfolio, np.zeros(n))
    pending = solved & ~_passes(year, fulfillment, pots0, end0, solved)
    pots1, _, end1 = _roll(year, portfolio, np.ones(n))
    interior, flat = _interior_bound(year, pots0, pots1, TOL)
    idx = np.flatnonzero(pending)
    base = year.pad(end0 - year.ell)[idx]
    slope = year.pad(end1 - end0)[idx]
    # The rolls are not needed past here, and the secant steps below are
    # the peak of a date's memory.
    del pots0, pots1, end0, end1, _
    probs, counts = year.dist.probs[idx], year.dist.counts[idx]
    measure = fulfillment.measure
    if measure is not None and measure.variant == "es":

        def excess(x: np.ndarray, k: np.ndarray) -> np.ndarray:
            rows = DistributionRows(base[k] + x[:, None] * slope[k], probs[k], counts[k])
            return fulfillment.required_buffer(rows) - SLACK

        root = _secant_root(excess, len(idx))
    else:
        if measure is not None and measure.variant == "var":
            level = 1.0 - measure.alpha
        else:
            level = fulfillment.p or 1.0
        lift = -SLACK - base
        reach = np.where(slope > 0.0, lift / slope, np.where(lift > 0.0, INF, -INF))
        root = lower_quantile(DistributionRows(reach, probs, counts), level)
    t = np.full(n, INF)
    t[idx] = np.where(flat[idx], INF, np.maximum(interior[idx], root))
    return pending, t


def _secant_root(excess, n: int) -> np.ndarray:
    """Per row a root of ``excess(x, rows)``, a decreasing function of x
    with ``excess(0) > 0`` unless the row has passed already, from up to
    6 secant steps from -1 and 0, both left of the root; +inf where it
    does not fall from -1 to 0. ES is convex in the scale (Acerbi &
    Tasche 2002), so the steps approach the root from the left."""
    every = np.arange(n)
    x0, x1 = np.full(n, -1.0), np.zeros(n)
    b0, b1 = excess(x0, every), excess(x1, every)
    root = np.where((b1 <= 0.0) | (b1 < b0), 0.0, INF)
    for _ in range(6):
        go = np.flatnonzero((b1 > 0.0) & (b1 < b0))
        if not len(go):
            break
        x2 = x1[go] - b1[go] * (x1[go] - x0[go]) / (b1[go] - b0[go])
        x0[go], b0[go] = x1[go], b1[go]
        x1[go], b1[go] = x2, excess(x2, go)
    return root + x1


def _bisection(ok, pending, tol):
    """The bracket and bisection of the rows in ``pending``: double hi
    from 1 while ``ok`` fails, up to 2**60, then bisect (0, hi] to
    ``tol`` and keep the passing end. A row also stops once its bracket
    spans two adjacent floats, where the midpoint rounds onto an end:
    above about 2**19 that comes before the default ``tol``. Each row
    takes the steps it would take alone. ``ok(s, rows)`` checks scale s
    per row, and is False outside ``rows``; a pending row is taken to
    fail at 0.

    Returns per row the final hi, whether it was found below 2**60, and
    the largest scale that failed (0.0 where none did).
    """
    n = len(pending)
    found = pending.copy()
    failed_at = np.zeros(n)
    hi = np.ones(n)
    bracketing = pending
    while bracketing.any():
        failed = bracketing & ~ok(hi, bracketing)
        failed_at = np.where(failed, hi, failed_at)
        hi = np.where(failed, hi * 2.0, hi)
        found &= ~(hi > 2.0**60)
        bracketing = failed & found
    lo = np.zeros(n)
    active = found & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        good = ok(mid, active)
        stuck = (mid == lo) | (mid == hi)
        hi = np.where(good, mid, hi)
        lo = np.where(active & ~good, mid, lo)
        active &= (hi - lo > tol) & ~stuck
    return hi, found, np.maximum(failed_at, lo)


def _certified_replay(ok, t, pending, tol):
    """``_bisection(ok, pending, tol)``'s final hi and found bits, from
    replays of its loops against the thresholds ``t`` and two real checks
    per row and replay.

    The replay decides scale s by ``s >= t``, with no roll. It is
    certified where ``ok`` passes at the replay's final hi (if it found
    one) and fails at the largest scale the replay failed (if any). The
    bisection assumes ``ok`` monotone in the scale; then ``ok`` agrees
    with every replayed step, which therefore are the bisection's own:
    a replayed pass lies at or above the final hi, a replayed failure at
    or below the largest one. A row whose certificate fails is replayed
    once more, with its threshold in the final bracket next to the failed
    end: at that end where ``ok`` passed there, at the next float above
    it where ``ok`` failed. Rows whose second certificate fails, and rows
    whose checks contradict each other, run the bisection on ``ok``
    itself, so the search calls ``ok`` at most 4 times more than the
    bisection does.
    """
    n = len(pending)
    hi, found = np.ones(n), np.zeros(n, dtype=bool)
    fallback = np.zeros(n, dtype=bool)
    todo = pending
    for _ in range(2):
        if not todo.any():
            break
        h, f, failed_at = _bisection(lambda s, rows: rows & (s >= t), todo, tol)
        up = todo & f & ~ok(h, todo & f)
        down = ok(failed_at, todo & (failed_at > 0.0))
        done = todo & ~up & ~down
        hi[done], found[done] = h[done], f[done]
        fallback |= up & down
        todo = (up | down) & ~fallback
        t = np.where(up, np.nextafter(h, INF), failed_at)
    fallback |= todo
    if fallback.any():
        h, f, _ = _bisection(ok, fallback, tol)
        hi[fallback], found[fallback] = h[fallback], f[fallback]
    return hi, found


def _explicit_step(year: _Year, base: Strategy, roots, bond, market, fulfillment):
    """The base strategy's own year slice, topped up by s units of value
    in the period bond where its surplus misses the fulfillment
    condition.

    The base must already fund interior dates exactly (residual zero);
    the bond top-up is held through the year, so it leaves the interior
    conversion untouched and shifts every year-end payoff by s(1+R).
    Returns per row the top-up s, whether it is solved, the strategy
    value, and the portfolios and year-end payoffs with the top-up.
    """
    n = len(roots)
    steps = len(year.payoff)
    pots, held, end = _roll(year, lambda d, _: base.assignment[year.nodes[d]], np.zeros(n))
    values = [row_dots(x, price) for x, price in zip(held, year.price)]
    # Per row the first layer whose value or funding check fails.
    first_bad = np.full(n, steps)
    for d, (rows, value) in enumerate(zip(year.rows, values)):
        bad = value < -TOL
        if d:
            bad |= np.abs(value - pots[d]) > 1e-7
        np.minimum.at(first_bad, rows[bad], d)
    span = [base.in_span(int(nodes[0])) for nodes in year.nodes[:-1]]
    solved = (first_bad == steps) & span[0]
    if span[0] and not all(span):
        # The year outlives the base: a row that passes every check
        # before the span ends reads the base outside it.
        out = span.index(False)
        reaches = first_bad >= out
        if reaches.any():
            m = year.nodes[out][year.rows[out] == reaches.argmax()][0]
            raise NodeOutsideSpan(f"node {m} outside span")

    buffer = fulfillment.required_buffer(year.dist.with_values(year.pad(end - year.ell)))
    top = ~(buffer <= 0.0)
    solved &= ~(top & np.isinf(buffer))
    base_value = values[0]
    if bond is None:
        solved &= ~top
        return np.zeros(n), solved, base_value, held, end
    price = market.prices[roots, bond]
    s = np.where(top, buffer / (1.0 / price), 0.0)
    units = s / price
    for rows, x in zip(year.rows, held):
        x[:, bond] = np.where(top[rows], x[:, bond] + units[rows], x[:, bond])
    atoms = year.rows[-1]
    end = np.where(top[atoms], end + units[atoms], end)
    return s, solved, np.where(top, base_value + s, base_value), held, end


def build_one_period(
    nodes: Sequence[int],
    ell: np.ndarray,
    interior_net: np.ndarray,
    family: StrategyFamily,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: Sequence[float],
    mode: str = "B",
    bisection_tol: float = 1e-10,
    grid_depth: int = 3,
    assignment: Optional[np.ndarray] = None,
) -> OnePeriodStep:
    """Two-step construction over one year from each of a date's nodes,
    solved together as array operations.

    ``ell`` gives, indexed by node id, the effective liability
    X + vbar_next - inflows at the date-(i+1) descendants; ``interior_net``
    the net flows at interior nodes of the year; ``rates`` the period
    rate of each node. Step 1 finds the smallest admissible scale of the
    family: closed form for the risk-free bond; for each fixed mix on the
    simplex grid of ``grid_depth`` the scale of the doubling bracket and
    bisection to ``bisection_tol``, whose loops are replayed against an
    estimate and certified by two real checks per row, so that they give
    the bisection's bits from a few rolls per date; the base plus a bond
    top-up for an explicit base. Step 2 solves the financiability
    condition with equality on the capital payoff (A' - L)_+. Among the
    feasible fixed mixes a node takes the least vbar; ties within 1e-12
    take the lexicographically smallest parameters, folded in grid order.

    Returns the steps of the nodes, and writes the portfolios of the
    feasible nodes' years into ``assignment``, an (n_nodes, n_assets)
    array.
    """
    roots = np.asarray(nodes, dtype=np.int64)
    if (tree.date_idx[roots] != tree.date_idx[roots[0]]).any():
        raise ValueError("a batch of one-period steps must share one date")
    i = int(tree.date_of(roots[0]))
    j1 = tree.grid.index(i + 1)
    try:
        bond = market.bond_for_period(i)
    except NoBondAvailable:
        bond = None
    variant = family.variant
    heads = candidate_heads(family, grid_depth)
    if variant == "risk_free":
        if bond is None:
            n = len(roots)
            return OnePeriodStep(np.full(n, INF), np.zeros(n), np.full(n, INF), np.full(n, -1))
        weights = [{bond: 1.0}]
    elif variant == "fixed_mix":
        weights = [dict(head[1]) for head in heads]
    n_cand = len(heads)
    year = _year(tree, market, roots, n_cand, j1 - tree.grid.index(i), ell, interior_net)
    solved = np.ones(len(roots) * n_cand, dtype=bool)

    # Rows already unsolved may divide by zero or overflow below; they
    # are discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if variant == "explicit":
            s, solved, value, held, end = _explicit_step(
                year, family.base, roots, bond, market, fulfillment
            )
        else:
            mix = np.zeros((n_cand, market.n_assets))
            for c, w in enumerate(weights):
                mix[c, list(w)] = list(w.values())
            layer_mix = [mix[rows % n_cand] for rows in year.rows[:-1]]
            for rows, w, price in zip(year.rows, layer_mix, year.price):
                solved[rows[((w != 0.0) & (price <= 0.0)).any(axis=1)]] = False

            def portfolio(d, pots):
                w = layer_mix[d]
                return np.where(w != 0.0, pots[:, None] * w / year.price[d], 0.0)

            if variant == "risk_free":
                s = _affine_scale(year, portfolio, fulfillment, solved)
            else:
                s = _bisect_scales(year, portfolio, fulfillment, solved, bisection_tol)
            pots, held, end = _roll(year, portfolio, s)
            _interior_ok(year, pots, solved)
            value = s
        surplus = year.dist.with_values(year.pad(end - year.ell))
        feasible = solved & fulfillment_satisfied(fulfillment, surplus)

    f = np.flatnonzero(feasible)
    plus = surplus.with_values(np.where(surplus.values > 0.0, surplus.values, 0.0))
    capital = np.zeros(len(feasible))
    capital[f] = max_capital(
        financiability,
        plus.take(f),
        np.repeat(np.asarray(rates, dtype=float), n_cand)[f],
        np.repeat(roots, n_cand)[f],
        j1,
    )
    vbar = np.where(feasible, value - capital, INF)
    if mode == "B":
        # Zero-cost variant of the same strategy: reduce the capital to
        # the strategy value; monotonicity keeps financiability intact.
        clamp = vbar < 0.0
        capital = np.where(clamp, value, capital)
        vbar = np.where(clamp, 0.0, vbar)

    best = _cheapest(feasible, vbar, heads)
    if assignment is not None:
        won = np.zeros(len(feasible), dtype=bool)
        won[best[best >= 0]] = True
        for m, rows, x in zip(year.nodes, year.rows, held):
            assignment[m[won[rows]]] = x[won[rows]]
    found = best >= 0
    row = np.where(found, best, 0)
    return OnePeriodStep(
        np.where(found, vbar[row], INF),
        np.where(found, capital[row], 0.0),
        np.where(found, s[row], INF),
        np.where(found, row % n_cand, -1),
    )


def _cheapest(feasible: np.ndarray, vbar: np.ndarray, heads: List[tuple]) -> np.ndarray:
    """Per node the row of its feasible candidate with the least vbar, -1
    where none is. Ties within 1e-12 pick the smaller parameters (the
    candidates' ``heads`` differ, so the scale never decides); the fold
    is sequential in candidate order, because such ties are not
    transitive."""
    n_cand = len(heads)
    first = np.arange(len(feasible) // n_cand) * n_cand
    rank = np.empty(n_cand, dtype=np.int64)
    rank[sorted(range(n_cand), key=heads.__getitem__)] = np.arange(n_cand)
    best = np.full(len(first), -1)
    for c in range(n_cand):
        row = first + c
        held = np.where(best >= 0, best, row)
        lead = vbar[held]
        # Infeasible rows carry vbar = inf; inf - inf is discarded.
        with np.errstate(invalid="ignore"):
            tie = (np.abs(vbar[row] - lead) <= 1e-12) & (rank[c] < rank[held - first])
        better = feasible[row] & ((best < 0) | (vbar[row] < lead - 1e-12) | tie)
        best = np.where(better, row, best)
    return best


def candidate_heads(family: StrategyFamily, grid_depth: int) -> List[tuple]:
    """Each candidate's parameters but the scale, in the order
    ``build_one_period`` tries them: the variant, and for a fixed mix its
    nonzero weights as (asset index, weight) pairs in asset order, one
    candidate per point of the simplex grid of ``grid_depth``."""
    if family.variant != "fixed_mix":
        return [(family.variant,)]
    return [
        (family.variant, tuple(sorted(w.items())))
        for w in _simplex_grid(family.mix_indices, grid_depth)
    ]


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
    rates: np.ndarray,
) -> ProductionCostProcess:
    """Backward-recursive production cost over the whole horizon.

    Initializes vbar at the leaves with the liability's terminal values,
    then for i = T-1 .. 0 sets the next liability value X + vbar at every
    date-(i+1) node (for all states, failed ones included) and runs the
    one-period builder on the date-i nodes, minimizing vbar over the
    family's parameter grid. Ties pick the lexicographically smallest
    parameter vector. Infeasible nodes carry +inf and propagate.
    ``rates`` holds the period rate of every inner node, by node id.
    """
    if config.mode == "A" and not market.close_out:
        raise CloseOutUnavailable("mode A requires short positions with close out")
    tree.require_per_node(*liab.sections(), ("illiquid.inflows", psi.inflows))
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1
    n = tree.n_nodes
    family = config.family
    heads = ((), ("infeasible",), *candidate_heads(family, config.grid_depth))
    first = INFEASIBLE + 1  # the index of the first candidate in heads
    head = np.full(n, NO_STEP)
    capital = np.zeros(n)
    scale = np.zeros(n)
    assignment = np.zeros((n, market.n_assets))

    leaves = list(tree.by_date[J])
    vbar = np.zeros(n)
    vbar[leaves] = liab.terminal[leaves]

    outflow, inflow, psi_inflow = liab.outflows, liab.inflows, psi.inflows
    net = inflow + psi_inflow - outflow
    ell = np.zeros(n)

    for i in range(T - 1, -1, -1):
        ends = np.asarray(tree.nodes_at(i + 1), dtype=np.int64)
        ell[ends] = outflow[ends] + vbar[ends] - inflow[ends] - psi_inflow[ends]
        nodes = tree.nodes_at(i)
        # A date's node ids are contiguous.
        ids = slice(nodes[0], nodes[-1] + 1)
        step = build_one_period(
            nodes, ell, net, family, fulfillment, financiability, market, tree,
            rates[ids], config.mode, config.bisection_tol,
            config.grid_depth, assignment,
        )
        vbar[ids], capital[ids], scale[ids] = step.vbar, step.capital, step.scale
        head[ids] = np.where(step.candidate >= 0, first + step.candidate, INFEASIBLE)

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
    sheet = BalanceSheet(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int8))
    cash_in = inflow + psi_inflow
    for i in range(1, T + 1):
        nodes = tree.nodes_at(i)
        ids = slice(nodes[0], nodes[-1] + 1)
        rows = balance_sheet(nodes, outflow, cash_in, strategy, vbar[ids], market, config.mode)
        for column, part in zip(sheet, rows):
            column[ids] = part
    return ProductionCostProcess(
        vbar, capital, head, heads, scale, strategy, sheet,
        config.mode, np.flatnonzero(head == INFEASIBLE).tolist(),
    )


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


def validate_production_strategy(
    strategy: Strategy,
    psi: IlliquidPortfolio,
    capital: CapitalSchedule,
    liab: LiabilitySpec,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: np.ndarray,
    mode: str = "B",
    start_set: Optional[Sequence[int]] = None,
    i_min: int = 0,
    i_max: Optional[int] = None,
    terminal: Optional[np.ndarray] = None,
    extra_annual_inflows: Optional[np.ndarray] = None,
) -> ValidationReport:
    """Check conditions (a) interior funding, (b) financiability, and
    (c) fulfillment per one-year period, on the start set and wherever no
    failure has occurred; mode B additionally checks vbar >= 0.

    The cost process is derived from the strategy and capital schedule:
    vbar_i = v_i(phi) - C_i, with terminal values at i_max. Periods after
    a balance-sheet failure are skipped (the strategy stops there).

    ``terminal`` replaces the liability's terminal values at i_max, and
    ``extra_annual_inflows`` adds cash inflows; both, like every flow,
    are arrays indexed by node id. Each date's live nodes are checked
    together as array operations, the fulfillment and financiability
    conditions with one call each on the rows of the year-end surplus
    distributions.
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
    n = tree.n_nodes
    if terminal is None:
        terminal = liab.terminal
    extra = np.zeros(n) if extra_annual_inflows is None else extra_annual_inflows
    tree.require_per_node(
        *liab.sections(),
        ("illiquid.inflows", psi.inflows),
        ("capital", capital.values),
        ("terminal", terminal),
        ("extra_annual_inflows", extra),
    )
    outflow, liab_in, psi_in = liab.outflows, liab.inflows, psi.inflows
    # The conversion equation's cash inflows, summed in this order from 0.0.
    cash_in = 0.0 + liab_in + psi_in + extra
    bad = np.flatnonzero(cash_in < 0)
    if bad.size:
        raise ValueError(f"negative inflow {cash_in[bad[0]]} at node {bad[0]}")
    net = cash_in - outflow

    vbar = np.zeros(n)
    ends = list(tree.nodes_at(i_max))
    vbar[ends] = terminal[ends]
    cap = capital.values
    for i in range(i_min, i_max):
        nodes = np.asarray(tree.nodes_at(i))
        _require_span(strategy, nodes)
        vbar[nodes] = row_dots(strategy.assignment[nodes], market.prices[nodes]) - cap[nodes]

    live = np.zeros(n, dtype=bool)
    first = list(tree.nodes_at(i_min))
    start = set(first if start_set is None else start_set)
    live[first] = [m in start for m in first]

    checks: List[PeriodCheck] = []
    skipped: List[Tuple[int, int, str]] = []
    for i in range(i_min, i_max):
        j0 = tree.grid.index(i)
        j1 = tree.grid.index(i + 1)
        nodes = np.asarray(tree.nodes_at(i))
        reason = "outside start set" if i == i_min else "prior failure"
        skipped.extend((m, i, reason) for m in nodes[~live[nodes]].tolist())
        roots = nodes[live[nodes]]
        live[list(tree.by_date[j1])] = False
        if not roots.size:
            continue
        layers, pos, _ = _year_layers(tree, roots, j1 - j0)
        for layer in layers[1:]:
            _require_span(strategy, layer)

        # (a) the conversion residual and the strategy value inside the year.
        max_res = np.zeros(len(roots))
        inner_pos, inner_val = [], []
        for m, p in zip(layers[1:-1], pos[1:-1]):
            held = strategy.held_into(m)
            value = row_dots(strategy.assignment[m], market.prices[m])
            before = row_dots(held, market.prices[m]) + row_dots(held, market.inflows[m])
            res = np.abs(value - (before + net[m]))
            np.maximum.at(max_res, p, np.where(res > 0.0, res, 0.0))
            inner_pos.append(p)
            inner_val.append(value)
        min_val = _first_min(np.concatenate(inner_pos), np.concatenate(inner_val), len(roots))

        # (b), (c) the year-end surplus A' - (X + vbar) seen from each root.
        atoms = layers[-1]
        assets = row_dots(strategy.held_into(atoms), market.payoffs[atoms])
        assets = assets + liab_in[atoms] + psi_in[atoms] + extra[atoms]
        surplus = assets - (outflow[atoms] + vbar[atoms])
        live[atoms] = surplus >= -TOL
        pad, dist = _atom_rows(tree, atoms, pos[-1], len(roots), j1 - j0)
        ful_ok = fulfillment_satisfied(fulfillment, dist.with_values(pad(surplus)))
        bound = max_capital(
            financiability,
            dist.with_values(pad(_positive_part(surplus))),
            rates[roots],
            roots,
            j1,
        )
        c = cap[roots]
        fin_ok = c <= bound + TOL
        cost_ok = (vbar[roots] >= -TOL) | (mode == "A")
        checks.extend(map(
            PeriodCheck,
            roots.tolist(),
            repeat(i),
            max_res.tolist(),
            min_val.tolist(),
            ful_ok.tolist(),
            c.tolist(),
            bound.tolist(),
            fin_ok.tolist(),
            cost_ok.tolist(),
        ))
    return ValidationReport(checks, skipped)


def _require_span(strategy: Strategy, nodes: np.ndarray) -> None:
    """NodeOutsideSpan for the first of one date's nodes when the date
    lies outside the strategy's span."""
    if not strategy.in_span(int(nodes[0])):
        raise NodeOutsideSpan(f"node {nodes[0]} outside span")


def _first_min(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group the first of its smallest values below +inf, in the
    order given, as a running ``min`` from +inf keeps it (NaN never
    wins); 0.0 for a group without one."""
    keep = values < INF
    group, values = group[keep], values[keep]
    order = np.lexsort((np.arange(len(values)), values, group))
    group, values = group[order], values[order]
    head = np.ones(len(group), dtype=bool)
    head[1:] = group[1:] != group[:-1]
    out = np.zeros(n_groups)
    out[group[head]] = values[head]
    return out


# --- illiquid replica shift ------------------------------------------------------


@dataclass(eq=False)
class ShiftReport:
    """A cost identity checked at the annual nodes before the horizon
    (``nodes``, in id order): the cost found, the cost the identity
    predicts and their difference, one array each, and the re-validation
    of the strategy found."""

    nodes: np.ndarray
    got: np.ndarray
    want: np.ndarray
    diff: np.ndarray
    validation: ValidationReport

    @property
    def max_abs_diff(self) -> float:
        return float(np.abs(self.diff).max(initial=0.0))

    @property
    def ok(self) -> bool:
        return self.validation.ok and self.max_abs_diff <= TOL


# ``add_short_position`` checks its identity in the same form.
AdditivityReport = ShiftReport


def _annual_values(strategy: Strategy, market: TradableSet, nodes: np.ndarray) -> np.ndarray:
    """The strategy's value out of each of ``nodes``, with the bits of
    ``strategy.strategy_value``; the validation before has checked that
    the strategy spans their dates."""
    return row_dots(strategy.assignment[nodes], market.prices[nodes])


def illiquid_replica_shift(
    liab: LiabilitySpec,
    psi_units: Sequence[float],
    base_strategy: Strategy,
    base_capital: CapitalSchedule,
    fulfillment: FulfillmentSpec,
    financiability: FinanciabilitySpec,
    market: TradableSet,
    tree: ScenarioTree,
    rates: np.ndarray,
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
    if neutrality.any_flagged:
        raise NeutralityAuditFailed("financiability fails the neutrality audit")
    units = np.asarray(psi_units, dtype=float)
    if units.min(initial=0.0) < 0:
        raise ValueError("static illiquid position must be non-negative")
    tree.require_per_node(("capital", base_capital.values))
    # Per node units @ inflow and units @ price, each with the bits of
    # that dot product.
    held = np.broadcast_to(units, market.prices.shape)
    v_psi = row_dots(held, market.prices)
    if (np.abs(v_psi[list(tree.by_date[-1])]) > TOL).any():
        raise ValueError("static position must be worthless at the horizon")
    psi = IlliquidPortfolio(row_dots(held, market.inflows))

    # xi accumulates the illiquid inflows within each year and is flat at
    # annual nodes; it never owns anything across year ends.
    xi = Strategy(
        tree,
        market.n_assets,
        accumulate_within_years(market, tree, psi.inflows, policy_index),
    )

    augmented = base_strategy.plus(xi)
    cap_star = CapitalSchedule(base_capital.values + v_psi)
    validation = validate_production_strategy(
        augmented,
        psi,
        cap_star,
        liab,
        fulfillment,
        financiability,
        market,
        tree,
        rates,
        mode="A" if market.close_out else "B",
    )
    nodes = np.concatenate([tree.nodes_at(i) for i in range(tree.grid.horizon)])
    got = _annual_values(augmented, market, nodes) - cap_star.values[nodes]
    base = _annual_values(base_strategy, market, nodes) - base_capital.values[nodes]
    want = base - v_psi[nodes]
    return ShiftReport(nodes, got, want, got - want, validation)


# --- short position additivity ----------------------------------------------------


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
    rates: np.ndarray,
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
    psi = psi or IlliquidPortfolio.none(tree.n_nodes)
    tree.require_per_node(*liab.sections())
    l_phi = short_position_cashflows(phi, stop, market, tree, phi_outflows)
    combined_liab = LiabilitySpec(liab.outflows + l_phi.outflow, liab.inflows, liab.terminal)
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
    nodes = np.concatenate([tree.nodes_at(i) for i in range(tree.grid.horizon)])
    c = base_capital.values[nodes]
    got = _annual_values(combined, market, nodes) - c
    shift = _annual_values(phi_p, market, nodes)
    want = (_annual_values(base_strategy, market, nodes) - c) + shift
    return AdditivityReport(nodes, got, want, got - want, validation)
