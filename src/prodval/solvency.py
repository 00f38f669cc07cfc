"""Regulatory special cases: one-period SCR and the three-stage
decomposition of production cost into best estimate and risk margin.

All three stages assume annual-only cash flows and a one-year risk
measure rho that is translation-invariant and positively homogeneous
(worst case, value-at-risk, or expected shortfall). Stage 1 values the
liability as a whole: invest A_0 risk-free so the fulfillment condition
binds, then solve the expected-excess-return condition for the capital
SCR_0. Stage 2 splits A_0 = BEL_0 + RM_0 + SCR_0, defining the best
estimate by a conditional-expectation separation on the fulfillment set
M_1. Stage 3 drops the positive part from the financiability condition,
which lowers SCR_0 and raises the reported cost; with deterministic
SCRs and flat rates its risk-margin recursion unrolls to the familiar
summation formula RM_0 = CoC * sum_i SCR_i / (1+r)^(i+1).

Each stage function takes one node's period-end states, or the padded
rows of many period starts (one row each); ``multi_period_solvency``
evaluates all nodes of an annual date in one call, and one node is
evaluated as one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .engine import LiabilitySpec
from .errors import (
    BadRate,
    FixedPointDivergence,
    InteriorFlowsPresent,
    MassOutsideM1,
)
from .lattice import ScenarioTree, atom_rows
from .market import TradableSet
from .risk import (
    DiscreteDistribution,
    DistributionRows,
    RiskMeasureSpec,
    apply_measure,
    rows_of,
    sum_left_to_right,
)

TOL = 1e-9


@dataclass(frozen=True)
class RateCurve:
    """One-period risk-free rate per annual node (dates 0 .. T-1)."""

    values: Mapping[int, float]

    def __post_init__(self):
        for node, r in self.values.items():
            if 1.0 + r <= 0.0:
                raise BadRate(f"1 + r must be positive, got r = {r} at node {node}")

    def at(self, node: int) -> float:
        return float(self.values[node])

    @staticmethod
    def flat(tree: ScenarioTree, r: float) -> "RateCurve":
        nodes = [n for i in range(tree.grid.horizon) for n in tree.nodes_at(i).tolist()]
        return RateCurve(dict.fromkeys(nodes, r))

    @staticmethod
    def from_market(market: TradableSet, tree: ScenarioTree) -> "RateCurve":
        values = {}
        for i in range(tree.grid.horizon):
            values.update(zip(tree.nodes_at(i).tolist(), market.period_rates(i).tolist()))
        return RateCurve(values)

    def is_flat(self) -> bool:
        vs = list(self.values.values())
        return all(abs(v - vs[0]) <= 1e-12 for v in vs)


@dataclass(frozen=True)
class PeriodState:
    """Per child state at the period end: probability, net liability
    outflow, and the continuation values."""

    prob: float
    x: float
    bel: float
    rm: float

    @property
    def liability(self) -> float:
        return self.x + self.bel + self.rm


class _States(NamedTuple):
    """The period-end states of many period starts, one padded row per
    start: the probabilities (``dist``, whose values are unused), the net
    outflows x and the continuation values bel and rm, 0 at padding."""

    dist: DistributionRows
    x: np.ndarray
    bel: np.ndarray
    rm: np.ndarray

    @property
    def prob(self) -> np.ndarray:
        return self.dist.probs

    @property
    def liability(self) -> np.ndarray:
        return self.x + self.bel + self.rm

    def measure(self, rho: RiskMeasureSpec, values: np.ndarray) -> np.ndarray:
        """rho of each row's distribution with the given atom values."""
        return apply_measure(rho, self.dist.with_values(values))

    def total(self, member, terms: np.ndarray) -> np.ndarray:
        """Per row the sum of ``terms`` over the member states, added left
        to right in state order."""
        return sum_left_to_right(np.where(member & self.dist.mask, terms, 0.0))


def _check_rates(r: np.ndarray, eta: float) -> None:
    """BadRate for the first period start whose rate fails."""
    bad = np.flatnonzero((1.0 + r <= 0.0) | (1.0 + r + eta <= 0.0))
    if bad.size:
        rate = float(r[bad[0]])
        if 1.0 + rate <= 0.0:
            raise BadRate(f"1 + r must be positive, got r = {rate}")
        raise BadRate(f"1 + r + eta must be positive, got {1.0 + rate + eta}")


def _states_of(states, r, eta):
    """The states as _States with their rates as an array, after checking
    the rates; one node's sequence of PeriodState (and float rate) becomes
    one row, whose probabilities must form a distribution. Also returns
    the function turning a per-row result back into what the caller
    passed: the array, or the one row's float."""
    if isinstance(states, _States):
        _check_rates(r, eta)
        return states, r, lambda out: out
    rates = np.array([r], dtype=float)
    _check_rates(rates, eta)
    dist, back = rows_of(DiscreteDistribution.from_atoms([(s.liability, s.prob) for s in states]))

    def row(field: str) -> np.ndarray:
        return np.array([[getattr(s, field) for s in states]], dtype=float)

    return _States(dist, row("x"), row("bel"), row("rm")), rates, back


# Rows of infinite liabilities give 0 * inf and inf - inf at padding or
# in unused terms; Python floats give those NaNs without a warning.
@np.errstate(invalid="ignore", over="ignore")
def stage1_value(states, r, eta: float, rho: RiskMeasureSpec) -> tuple:
    """First stage: value as a whole with risk-free investment.

    A_0 = rho(-L_1)/(1+r) makes the fulfillment condition bind; on
    M_1 = {L_1 <= rho(-L_1)} the capital payoff is (1+r)A_0 - L_1 and
    SCR_0 solves the expected-excess-return condition with equality.
    Returns (A_0, SCR_0, vbar_0, P[M_1]): floats for one node's states
    (a sequence of PeriodState, with a float rate), arrays for the rows
    of many (with an array of rates), as for every stage function.
    """
    st, r, back = _states_of(states, r, eta)
    liability = st.liability
    threshold = st.measure(rho, -liability)
    a0 = threshold / (1.0 + r)
    member = liability <= (threshold + TOL)[:, None]
    p_m1 = st.total(member, st.prob)
    excess = st.total(member, st.prob * (threshold[:, None] - liability))
    scr = excess / (1.0 + r + eta)
    return tuple(map(back, (a0, scr, a0 - scr, p_m1)))


@np.errstate(invalid="ignore", over="ignore")
def stage1_closed_form(states, r, eta: float, rho: RiskMeasureSpec):
    """The introductory closed form, valid only when P[M_1] = 1:

    vbar_0 = E[L_1]/(1+r) + eta/(1+r+eta) * rho((E[L_1] - L_1)/(1+r)).
    """
    st, r, back = _states_of(states, r, eta)
    liability = st.liability
    threshold = st.measure(rho, -liability)
    outside = st.total(liability > (threshold + TOL)[:, None], st.prob)
    bad = np.flatnonzero(outside > 1e-12)
    if bad.size:
        raise MassOutsideM1(
            f"closed form needs P[M_1] = 1; mass {float(outside[bad[0]])} lies above rho(-L)"
        )
    mean = st.dist.with_values(liability).mean()
    deviation = st.measure(rho, (mean[:, None] - liability) / (1.0 + r)[:, None])
    return back(mean / (1.0 + r) + eta / (1.0 + r + eta) * deviation)


@np.errstate(invalid="ignore", over="ignore")
def stage2_decompose(
    states,
    r,
    eta: float,
    rho: RiskMeasureSpec,
    bel_shape=None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple:
    """Second stage: split the value into BEL_0 + RM_0 with SCR_0.

    The best estimate solves E[1_M (A_1^BEL - X_1 - BEL_1)] = 0. With the
    default risk-free BEL investment, M_1 = {L_1 <= rho(-L_1)} does not
    depend on BEL_0 and everything is explicit. A non-risk-free shape
    (per-state gross return of one unit invested for BEL, padded like
    the states for rows) couples M_1 to BEL_0 and is resolved by damped
    fixed-point iteration, each row iterating until its own step is
    within ``tol``. Returns (BEL_0, RM_0, SCR_0, P[M_1]).
    """
    st, r, back = _states_of(states, r, eta)
    if bel_shape is None:
        g = (1.0 + r)[:, None]
    else:
        g = np.array(bel_shape, dtype=float, ndmin=2)
        if g.shape != st.x.shape:
            raise ValueError("bel_shape must give one gross return per state")
    liability = st.liability

    def split(bel0: np.ndarray):
        gap = bel0[:, None] * g - liability
        mismatch = st.measure(rho, gap)
        member = gap >= (-mismatch - TOL)[:, None]
        p_m1 = st.total(member, st.prob)
        num = st.total(member, st.prob * (st.x + st.bel))
        den = st.total(member, st.prob * g)
        with np.errstate(divide="ignore"):
            new_bel0 = np.where(den > 0, num / den, 0.0)
        return new_bel0, mismatch, member, p_m1

    bel0, mismatch, member, p_m1 = split(np.zeros(len(r)))
    if bel_shape is None:
        # Risk-free: M_1 is independent of BEL_0, one more pass is exact.
        bel0, mismatch, member, p_m1 = split(bel0)
    else:
        active = np.ones(len(r), dtype=bool)
        for _ in range(max_iter):
            new_bel0 = split(bel0)[0]
            done = active & (np.abs(new_bel0 - bel0) <= tol)
            damped = (1.0 - damping) * bel0 + damping * new_bel0
            bel0 = np.where(done, new_bel0, np.where(active, damped, bel0))
            active &= ~done
            if not active.any():
                break
        else:
            raise FixedPointDivergence("stage-2 BEL fixed point did not converge")
        _, mismatch, member, p_m1 = split(bel0)

    e_rm1 = st.total(member, st.prob * st.rm)
    rm0 = ((1.0 + r + eta) - p_m1 * (1.0 + r)) * mismatch / (
        (1.0 + r + eta) * (1.0 + r)
    ) + e_rm1 / (1.0 + r + eta)
    scr0 = mismatch / (1.0 + r) - rm0
    return tuple(map(back, (bel0, rm0, scr0, p_m1)))


@np.errstate(invalid="ignore", over="ignore")
def stage3_decompose(states, r, eta: float, rho: RiskMeasureSpec) -> tuple:
    """Third stage: drop the positive part from the financiability
    condition and invest everything risk-free.

    BEL_0 = (E[X_1] + E[BEL_1])/(1+r); the risk margin picks up the
    discounted capital cost plus the discounted expected future margin;
    SCR_0 comes from the mismatch equation and is floored at zero.
    Returns (BEL_0, RM_0, SCR_0, P[M_1]).
    """
    st, r, back = _states_of(states, r, eta)
    bel0 = st.total(True, st.prob * (st.x + st.bel)) / (1.0 + r)
    gap = ((1.0 + r) * bel0)[:, None] - st.liability
    mismatch = st.measure(rho, gap)
    e_rm1 = st.total(True, st.prob * st.rm)
    rm0 = eta * mismatch / ((1.0 + r + eta) * (1.0 + r)) + e_rm1 / (1.0 + r + eta)
    scr0 = mismatch / (1.0 + r) - rm0
    floor = scr0 < 0.0
    scr0 = np.where(floor, 0.0, scr0)
    rm0 = np.where(floor, mismatch / (1.0 + r), rm0)
    p_m1 = st.total(gap >= (-mismatch - TOL)[:, None], st.prob)
    return tuple(map(back, (bel0, rm0, scr0, p_m1)))


@dataclass(eq=False)
class SolvencyReport:
    """The stage's BEL_0, RM_0, SCR_0 and P[M_1] as arrays indexed by node
    id, read at the annual nodes before the horizon. Elsewhere bel and rm
    hold the terminal value and 0 at the leaves and 0 between the annual
    dates, and scr and p_m1 hold 0."""

    stage: int
    bel: np.ndarray
    rm: np.ndarray
    scr: np.ndarray
    p_m1: np.ndarray
    sii_formula_rm0: Optional[float] = None  # set in the deterministic case


def solvency_ii_risk_margin(
    scr_path: Sequence[float], r: float, eta: float
) -> float:
    """RM_0 = CoC * sum_i SCR_i / (1+r)^(i+1) for a deterministic SCR
    path under flat rates."""
    terms = [scr / (1.0 + r) ** (i + 1) for i, scr in enumerate(scr_path)]
    return eta * float(sum_left_to_right(np.array([terms], dtype=float))[0])


def multi_period_solvency(
    liab: LiabilitySpec,
    rates: RateCurve,
    eta: float,
    rho: RiskMeasureSpec,
    stage: int,
    tree: ScenarioTree,
) -> SolvencyReport:
    """Backward recursion applying the chosen stage at every annual node.

    Liability flows must sit on annual dates only (inflows are netted
    against outflows). Leaves start from BEL = terminal value, RM = 0.
    In the stage-3 case with per-date deterministic SCRs and flat rates
    the report also carries the Solvency II summation formula value for
    cross-checking. Each annual date's nodes are one call of the stage
    function, on the padded rows of their period-end states.
    """
    if stage not in (1, 2, 3):
        raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
    tree.require_per_node(*liab.sections())
    annual = np.array([tree.grid.is_annual(j) for j in range(len(tree.grid.dates))])
    interior = ~annual[tree.date_idx]
    bad = np.flatnonzero(interior & ((liab.outflows != 0.0) | (liab.inflows != 0.0)))
    if bad.size:
        node = int(bad[0])
        raise InteriorFlowsPresent(
            f"cash flow at interior date {tree.date_of(node)} (node {node})"
        )
    T = tree.grid.horizon
    n = tree.n_nodes
    x = liab.outflows - liab.inflows
    bel = np.zeros(n)
    rm = np.zeros(n)
    leaves = tree.slice_at(T)
    bel[leaves] = liab.terminal[leaves]
    scr = np.zeros(n)
    p_m1 = np.zeros(n)
    step = {1: stage1_value, 2: stage2_decompose, 3: stage3_decompose}[stage]

    for i in range(T - 1, -1, -1):
        j0, j1 = tree.grid.index(i), tree.grid.index(i + 1)
        nodes = tree.nodes_at(i)
        layers, pos, _ = tree.walk(nodes, j1 - j0)
        pad, dist = atom_rows(tree, layers[-1], pos[-1], len(nodes), j1 - j0)
        kids = layers[-1]
        states = _States(dist, pad(x[kids]), pad(bel[kids]), pad(rm[kids]))
        r = np.array([rates.at(m) for m in nodes.tolist()], dtype=float)
        out = step(states, r, eta, rho)
        if stage == 1:
            # Stage 1 values the liability as a whole: BEL_0 is vbar_0.
            _, scr[nodes], bel[nodes], p_m1[nodes] = out
        else:
            bel[nodes], rm[nodes], scr[nodes], p_m1[nodes] = out

    report = SolvencyReport(stage, bel, rm, scr, p_m1)
    if stage == 3 and rates.is_flat():
        per_date = []
        deterministic = True
        for i in range(T):
            scrs = scr[tree.slice_at(i)].tolist()
            if max(scrs) - min(scrs) > 1e-9:
                deterministic = False
                break
            per_date.append(scrs[0])
        if deterministic:
            r0 = rates.at(tree.root)
            report.sii_formula_rm0 = solvency_ii_risk_margin(per_date, r0, eta)
    return report
