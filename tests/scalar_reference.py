"""Frozen per-distribution references for the risk measures, the
fulfillment and financiability conditions, and the solvency recursion.

The program has one implementation of each, on padded rows of
distributions (``prodval.risk.DistributionRows``); a single distribution
is evaluated as one row. These are the loops over one distribution at a
time, and the node-by-node solvency recursion, that the row kernels
replaced. The differential tests compare the program with them bit for
bit, so they must not call the program's risk or condition functions.

Sums over states, and the normalising total of a node's path
probabilities, are explicit loops from 0.0, as ``sum`` added floats
before Python 3.12 (which compensates) and as ``risk.sum_left_to_right``
adds them on every version.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict

from prodval.errors import (
    BadLevel,
    BadRate,
    FixedPointDivergence,
    InteriorFlowsPresent,
    MassOutsideM1,
    MissingCertificate,
    NegativePayoffAtom,
    NumericalFailure,
)
from prodval.risk import DiscreteDistribution
from prodval.solvency import PeriodState, solvency_ii_risk_margin

from util import certificate_mappings

PROB_TOL = 1e-12
SLACK = 1e-9
TOL = 1e-9


def loop_sum(terms) -> float:
    total = 0.0
    for t in terms:
        total += t
    return total


# --- risk measures ---------------------------------------------------------------


def sorted_atoms(dist):
    return sorted(zip(dist.values, dist.probs))


def dist_min(dist) -> float:
    return min(dist.values)


def dist_mean(dist) -> float:
    return math.fsum(v * p for v, p in zip(dist.values, dist.probs))


def prob_at_least(dist, threshold: float) -> float:
    return math.fsum(p for v, p in zip(dist.values, dist.probs) if v >= threshold)


def lower_quantile(dist, u: float) -> float:
    if not (0.0 < u <= 1.0):
        raise BadLevel(f"quantile level must lie in (0,1], got {u}")
    cum = 0.0
    atoms = sorted_atoms(dist)
    for value, p in atoms:
        cum += p
        if cum >= u - PROB_TOL:
            return value
    return atoms[-1][0]


def value_at_risk(dist, alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise BadLevel(f"alpha must lie in (0,1), got {alpha}")
    return lower_quantile(dist.negated(), 1.0 - alpha)


def expected_shortfall(dist, alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise BadLevel(f"alpha must lie in (0,1), got {alpha}")
    integral = 0.0
    cum = 0.0
    for value, p in sorted_atoms(dist):
        lo = min(cum, alpha)
        cum += p
        hi = min(cum, alpha)
        if hi > lo:
            integral += value * (hi - lo)
        if cum >= alpha:
            break
    return -integral / alpha


def apply_measure(spec, dist) -> float:
    if spec.variant == "full":
        return -dist_min(dist)
    if spec.variant == "var":
        return value_at_risk(dist, spec.alpha)
    return expected_shortfall(dist, spec.alpha)


# --- conditions ------------------------------------------------------------------


def required_buffer(spec, surplus) -> float:
    if spec.variant == "full":
        return -dist_min(surplus)
    if spec.variant == "risk_measure":
        return apply_measure(spec.measure, surplus)
    if spec.p == 1.0:
        return -dist_min(surplus)
    return lower_quantile(surplus.negated(), spec.p)


def fulfillment_satisfied(spec, surplus) -> bool:
    if spec.variant == "probability":
        return prob_at_least(surplus, -SLACK) >= spec.p - 1e-12
    return required_buffer(spec, surplus) <= SLACK


def compose_state_prices(cert, tree, node: int, j_end: int) -> Dict[int, float]:
    """Price of one unit of cash at each date-j_end descendant: the
    per-step certificate weights multiplied along the path."""
    out: Dict[int, float] = {}
    verdicts = certificate_mappings(cert, tree)
    for target in tree.descendants_at(node, j_end).tolist():
        q = 1.0
        m = target
        while m != node:
            par = int(tree.parent[m])
            verdict = verdicts[par]
            if not verdict.consistent:
                raise NumericalFailure(
                    f"no weights at inconsistent node {tree.labels[par]!r}"
                )
            q *= verdict.weights[m]
            m = par
        out[target] = q
    return out


def max_capital(spec, payoff, rate, node=None, horizon_index=None) -> float:
    if min(payoff.values) < -SLACK:
        raise NegativePayoffAtom(f"capital payoff has atom {min(payoff.values)}")
    if spec.variant == "zero":
        return 0.0
    if spec.variant == "cost_of_capital":
        denom = 1.0 + rate + spec.eta
        if denom <= 0:
            raise BadRate(f"1 + r + eta = {denom} must be positive")
        return max(0.0, dist_mean(payoff) / denom)
    if payoff.labels is None or node is None or horizon_index is None:
        raise MissingCertificate(
            "state-price bound needs labeled payoff atoms and the period location"
        )
    q = compose_state_prices(spec.certificate, spec.tree, node, horizon_index)
    total = 0.0
    for value, label in zip(payoff.values, payoff.labels):
        if label not in q:
            name = repr(spec.tree.labels[label]) if 0 <= label < spec.tree.n_nodes else label
            raise MissingCertificate(f"no state price for node {name}")
        total += q[label] * value
    return max(0.0, total)


# --- solvency, node by node --------------------------------------------------------


def _check_rates(r: float, eta: float) -> None:
    if 1.0 + r <= 0.0:
        raise BadRate(f"1 + r must be positive, got r = {r}")
    if 1.0 + r + eta <= 0.0:
        raise BadRate(f"1 + r + eta must be positive, got {1.0 + r + eta}")


def _liability_dist(states):
    return DiscreteDistribution.from_atoms([(s.liability, s.prob) for s in states])


def stage1_value(states, r, eta, rho):
    _check_rates(r, eta)
    threshold = apply_measure(rho, _liability_dist(states).negated())
    a0 = threshold / (1.0 + r)
    p_m1 = 0.0
    excess = 0.0
    for s in states:
        if s.liability <= threshold + TOL:
            p_m1 += s.prob
            excess += s.prob * (threshold - s.liability)
    scr = excess / (1.0 + r + eta)
    return a0, scr, a0 - scr, p_m1


def stage1_closed_form(states, r, eta, rho):
    _check_rates(r, eta)
    l_dist = _liability_dist(states)
    threshold = apply_measure(rho, l_dist.negated())
    outside = loop_sum(s.prob for s in states if s.liability > threshold + TOL)
    if outside > 1e-12:
        raise MassOutsideM1(
            f"closed form needs P[M_1] = 1; mass {outside} lies above rho(-L)"
        )
    mean = dist_mean(l_dist)
    deviation = DiscreteDistribution.from_atoms(
        [((mean - s.liability) / (1.0 + r), s.prob) for s in states]
    )
    return mean / (1.0 + r) + eta / (1.0 + r + eta) * apply_measure(rho, deviation)


def stage2_decompose(
    states, r, eta, rho, bel_shape=None, damping=0.5, tol=1e-10, max_iter=200
):
    _check_rates(r, eta)
    if bel_shape is None:
        shape = [1.0 + r] * len(states)
    else:
        shape = list(bel_shape)
        if len(shape) != len(states):
            raise ValueError("bel_shape must give one gross return per state")

    def split(bel0):
        a1 = [bel0 * g for g in shape]
        mismatch_dist = DiscreteDistribution.from_atoms(
            [(a - s.liability, s.prob) for a, s in zip(a1, states)]
        )
        mismatch = apply_measure(rho, mismatch_dist)
        member = [a - s.liability >= -mismatch - TOL for a, s in zip(a1, states)]
        p_m1 = loop_sum(s.prob for s, m in zip(states, member) if m)
        num = loop_sum(s.prob * (s.x + s.bel) for s, m in zip(states, member) if m)
        den = loop_sum(s.prob * g for s, g, m in zip(states, shape, member) if m)
        new_bel0 = num / den if den > 0 else 0.0
        return new_bel0, mismatch, member, p_m1

    bel0, mismatch, member, p_m1 = split(0.0)
    if bel_shape is None:
        bel0, mismatch, member, p_m1 = split(bel0)
    else:
        for _ in range(max_iter):
            new_bel0, mismatch, member, p_m1 = split(bel0)
            if abs(new_bel0 - bel0) <= tol:
                bel0 = new_bel0
                break
            bel0 = (1.0 - damping) * bel0 + damping * new_bel0
        else:
            raise FixedPointDivergence("stage-2 BEL fixed point did not converge")
        _, mismatch, member, p_m1 = split(bel0)

    e_rm1 = loop_sum(s.prob * s.rm for s, m in zip(states, member) if m)
    rm0 = ((1.0 + r + eta) - p_m1 * (1.0 + r)) * mismatch / (
        (1.0 + r + eta) * (1.0 + r)
    ) + e_rm1 / (1.0 + r + eta)
    scr0 = mismatch / (1.0 + r) - rm0
    return bel0, rm0, scr0, p_m1


def stage3_decompose(states, r, eta, rho):
    _check_rates(r, eta)
    bel0 = loop_sum(s.prob * (s.x + s.bel) for s in states) / (1.0 + r)
    a1 = (1.0 + r) * bel0
    mismatch_dist = DiscreteDistribution.from_atoms(
        [(a1 - s.liability, s.prob) for s in states]
    )
    mismatch = apply_measure(rho, mismatch_dist)
    e_rm1 = loop_sum(s.prob * s.rm for s in states)
    rm0 = eta * mismatch / ((1.0 + r + eta) * (1.0 + r)) + e_rm1 / (1.0 + r + eta)
    scr0 = mismatch / (1.0 + r) - rm0
    if scr0 < 0.0:
        scr0 = 0.0
        rm0 = mismatch / (1.0 + r)
    p_m1 = loop_sum(s.prob for s in states if a1 - s.liability >= -mismatch - TOL)
    return bel0, rm0, scr0, p_m1


def multi_period_solvency(liab, rates, eta, rho, stage, tree) -> SimpleNamespace:
    """The recursion node by node: the report's ``stage``, its rows as a
    node -> row mapping (the fields of ``util.solvency_mappings``) and
    ``sii_formula_rm0``."""
    if stage not in (1, 2, 3):
        raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
    for node in range(tree.n_nodes):
        flows = (liab.outflows[node], liab.inflows[node])
        if flows != (0.0, 0.0) and tree.date_of(node).denominator != 1:
            raise InteriorFlowsPresent(
                f"cash flow at interior date {tree.date_of(node)} (node {node})"
            )
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1
    bel: Dict[int, float] = {}
    rm: Dict[int, float] = {}
    rows: Dict[int, SimpleNamespace] = {}
    for leaf in tree.by_date[J].tolist():
        bel[leaf] = float(liab.terminal[leaf])
        rm[leaf] = 0.0

    for i in range(T - 1, -1, -1):
        j1 = tree.grid.index(i + 1)
        for node in tree.nodes_at(i).tolist():
            kids = tree.descendants_at(node, j1)
            total_p = loop_sum(tree.path_probability(node, c) for c in kids)
            states = [
                PeriodState(
                    tree.path_probability(node, c) / total_p,
                    float(liab.outflows[c]) - float(liab.inflows[c]),
                    bel[c],
                    rm[c],
                )
                for c in kids
            ]
            r = rates.at(node)
            if stage == 1:
                a0, scr, vbar, p_m1 = stage1_value(states, r, eta, rho)
                b, m = vbar, 0.0
            elif stage == 2:
                b, m, scr, p_m1 = stage2_decompose(states, r, eta, rho)
            else:
                b, m, scr, p_m1 = stage3_decompose(states, r, eta, rho)
            bel[node], rm[node] = b, m
            rows[node] = SimpleNamespace(
                node=node, date=i, bel=b, rm=m, scr=scr, p_m1=p_m1, stage=stage, total=b + m
            )

    report = SimpleNamespace(stage=stage, rows=rows, sii_formula_rm0=None)
    if stage == 3 and rates.is_flat():
        per_date = []
        deterministic = True
        for i in range(T):
            scrs = [rows[n].scr for n in tree.nodes_at(i).tolist()]
            if max(scrs) - min(scrs) > 1e-9:
                deterministic = False
                break
            per_date.append(scrs[0])
        if deterministic:
            r0 = rates.at(tree.root)
            report.sii_formula_rm0 = solvency_ii_risk_margin(per_date, r0, eta)
    return report
