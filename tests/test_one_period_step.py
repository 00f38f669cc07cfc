"""Differential test of the date-batched one-period step for the
fixed-mix and explicit families.

The oracle below is a frozen copy of the per-node paths the batched step
replaced: for fixed mixes, one doubling bracket and bisection per node
and grid weight, rolled through Python dicts, and the sequential choice
of the cheapest candidate; for explicit bases, the base's own year plus
a bond top-up. It carries one fix: the shortcut that declares a fixed
mix infeasible under full fulfillment looks at the node's own year-end
atoms only, where the per-node path looked at every atom of the date.
On random ragged trees ``backward_value`` must reproduce the oracle's
values, capital, parameters, infeasible nodes and strategy bit for bit,
and raise the same errors.
"""

import math
from fractions import Fraction
from typing import Dict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval.conditions import (
    FinanciabilitySpec,
    FulfillmentSpec,
    flat_rates,
)
from prodval.engine import (
    TOL,
    EngineConfig,
    StrategyFamily,
    backward_value,
)
from prodval.errors import NoBondAvailable
from prodval.market import TradableSet
from prodval.risk import DiscreteDistribution
from prodval.strategy import Strategy

import scalar_reference as ref
from util import cost_mappings
from test_risk_free_step import (
    FULFILLMENTS,
    SHAPES,
    StepRecord,
    _bits,
    _financiability,
    _outcome,
    _surplus_dist,
    make_problem,
)

INF = math.inf


# --- oracle: the per-node fixed-mix and explicit paths, frozen ----------------


def _roll_mix_linear(tree, market, node_i, j0, j1, weights, scale, interior_net):
    n = market.n_assets
    layers = tree.layers([node_i], j1 - j0)
    pot = {node_i: scale}
    portfolios = {}
    payoff = {}
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
            for c in tree.children_of(m).tolist():
                res = float(x @ market.payoff(c))
                if last_step:
                    payoff[c] = res
                else:
                    pot[c] = res + interior_net(c)
    return pot, payoff, portfolios


def _mix_interior_feasible(pot, node_i):
    return all(v >= -TOL for m, v in pot.items() if m != node_i)


def _bisect_scale(tree, market, node_i, j0, j1, weights, ell, interior_net, fulfillment, tol):
    def ok(s):
        lin = _roll_mix_linear(tree, market, node_i, j0, j1, weights, s, interior_net)
        if lin is None:
            return False
        pot, payoff, _ = lin
        if not _mix_interior_feasible(pot, node_i):
            return False
        return ref.fulfillment_satisfied(fulfillment, _surplus_dist(tree, node_i, payoff, ell))

    # The one fix: the node's own year-end atoms, not every atom of the date.
    own = tree.descendants_at(node_i, j1)
    if any(math.isinf(ell[nu]) for nu in own) and fulfillment.variant == "full":
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


def _explicit_with_addon(tree, market, node_i, j0, j1, base, ell, interior_net, fulfillment):
    if not base.in_span(node_i):
        return None
    layers = tree.layers([node_i], j1 - j0)
    portfolios = {}
    payoff = {}
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
            for c in tree.children_of(m).tolist():
                if last_step:
                    payoff[c] = float(x @ market.payoff(c))
    surplus0 = _surplus_dist(tree, node_i, payoff, ell)
    buffer = ref.required_buffer(fulfillment, surplus0)
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


def _wkey(weights):
    return tuple(sorted(weights.items()))


def oracle_one_period(
    node_i, ell, interior_net, family, fulfillment, financiability, market, tree,
    rate, mode, bisection_tol, mix_weights,
) -> StepRecord:
    i = int(tree.date_of(node_i))
    j0 = tree.grid.index(i)
    j1 = tree.grid.index(i + 1)
    if family.variant == "fixed_mix":
        weights = dict(mix_weights)
        s_star = _bisect_scale(
            tree, market, node_i, j0, j1, weights, ell, interior_net,
            fulfillment, bisection_tol,
        )
        if s_star is None:
            return StepRecord(False)
        _, payoff, portfolios = _roll_mix_linear(
            tree, market, node_i, j0, j1, weights, s_star, interior_net
        )
        value = s_star
        params = ("fixed_mix", _wkey(weights), s_star)
    else:
        solved = _explicit_with_addon(
            tree, market, node_i, j0, j1, family.base, ell, interior_net, fulfillment
        )
        if solved is None:
            return StepRecord(False)
        s_star, value, payoff, portfolios = solved
        params = ("explicit", s_star)
    surplus = _surplus_dist(tree, node_i, payoff, ell)
    if not ref.fulfillment_satisfied(fulfillment, surplus):
        return StepRecord(False)
    plus_part = DiscreteDistribution(
        tuple(max(0.0, v) for v in surplus.values), surplus.probs, surplus.labels
    )
    capital = ref.max_capital(financiability, plus_part, rate, node_i, j1)
    vbar = value - capital
    if mode == "B" and vbar < 0.0:
        capital = value
        vbar = 0.0
    result = StepRecord(
        True, scale=s_star, capital=capital, vbar=vbar, value=value, params=params
    )
    result.portfolios = {m: tuple(float(v) for v in x) for m, x in portfolios.items()}
    return result


def _simplex_grid(indices, depth):
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
    return [{k: num / n for k, num in zip(indices, combo) if num} for combo in out]


def _best_candidate(node_i, ell, interior_net, candidates, config, fulfillment,
                    financiability, market, tree, rate):
    best = None
    for fam, weights in candidates:
        res = oracle_one_period(
            node_i, ell, interior_net, fam, fulfillment, financiability, market,
            tree, rate, config.mode, config.bisection_tol, weights,
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


def oracle_backward(liab, psi, config, fulfillment, financiability, market, tree, rates):
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1
    values: Dict[int, float] = {}
    capital: Dict[int, float] = {}
    params: Dict[int, tuple] = {}
    portfolios = {}
    infeasible = []
    for leaf in tree.by_date[J].tolist():
        values[leaf] = float(liab.terminal[leaf])
    fam = config.family
    if fam.variant == "fixed_mix":
        candidates = [(fam, w) for w in _simplex_grid(fam.mix_indices, config.grid_depth)]
    else:
        candidates = [(fam, None)]

    def interior_net(m):
        return float(liab.inflows[m]) + float(psi.inflows[m]) - float(liab.outflows[m])

    for i in range(T - 1, -1, -1):
        j1 = tree.grid.index(i + 1)
        ell_all = {
            nu: float(liab.outflows[nu]) + values[nu] - float(liab.inflows[nu])
            - float(psi.inflows[nu])
            for nu in tree.by_date[j1].tolist()
        }
        for node_i in tree.nodes_at(i).tolist():
            best = _best_candidate(
                node_i, ell_all, interior_net, candidates, config, fulfillment,
                financiability, market, tree, rates[node_i],
            )
            if best is None:
                values[node_i] = INF
                infeasible.append(node_i)
                params[node_i] = ("infeasible",)
                continue
            values[node_i] = best.vbar
            capital[node_i] = best.capital
            params[node_i] = best.params
            portfolios.update(best.portfolios)
    assignment = np.zeros((tree.n_nodes, market.n_assets))
    if portfolios:
        assignment[list(portfolios)] = list(portfolios.values())
    assignment[(assignment > -TOL) & (assignment < 0.0)] = 0.0
    return values, capital, params, sorted(infeasible), assignment


# --- random problems -------------------------------------------------------------


def zero_price_inside_a_year(rng, tree, market, k):
    """The market with asset ``k`` priced 0 at one random interior node."""
    inside = [n for n in range(tree.n_nodes) if not tree.grid.is_annual(tree.date_idx[n])]
    m = inside[int(rng.integers(len(inside)))]
    prices = market.prices.copy()
    prices[m, k] = 0.0
    return TradableSet(tree, prices, market.inflows, market.bond_periods, close_out=True)


def explicit_base(rng, tree, market, liab, psi, kind):
    """A base that buys 0 to 300 units of the period bond (a risky asset
    where the period has no bond) and some risky units at each annual
    node, and from each interior node holds its resources in the same
    asset where it has a positive price, so it funds its interior dates
    elsewhere; ``kind`` breaks it: an extra
    unit at one interior node (not self-financing), a negative position
    at one annual node, or a span that starts at date 1 or ends at date
    1."""
    n = market.n_assets
    x = np.zeros((tree.n_nodes, n))
    J = len(tree.grid.dates) - 1
    for j in range(J):
        i = math.floor(tree.grid.dates[j])
        k = next((a for a, p in market.bond_periods.items() if p == i), 0)
        for m in tree.by_date[j].tolist():
            if tree.grid.is_annual(j):
                x[m, k] = rng.uniform(0.0, 300.0)
                x[m, 1] += rng.uniform(0.0, 20.0)
            else:
                resources = float(x[tree.parent[m]] @ market.payoff(m))
                resources += (
                    float(liab.inflows[m]) + float(psi.inflows[m]) - float(liab.outflows[m])
                )
                if market.prices[m, k] > 0.0:
                    x[m, k] = resources / market.prices[m, k]
    span = {}
    if kind == "not_self_financing":
        inside = [m for m in range(tree.n_nodes) if not tree.grid.is_annual(tree.date_idx[m])]
        x[inside[int(rng.integers(len(inside)))], 0] += 1.0
    elif kind == "negative":
        annual = [m for i in range(tree.grid.horizon) for m in tree.nodes_at(i).tolist()]
        x[annual[int(rng.integers(len(annual)))]] *= -1.0
    elif kind == "starts_late":
        span = {"t_min": Fraction(1)}
    elif kind == "ends_early":
        span = {"t_max": Fraction(1)}
    return Strategy(tree, n, x, sign_class="unrestricted", **span)


# Index tuples into 2 risky assets and the bonds; asset 2 is the period-0
# bond, which has matured (price 0) after year 1.
MIX_INDICES = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2), (0, 1, 3)]


def assert_matches_oracle(tree, market, liab, psi, config, fulfillment, financiability, rate):
    fin = _financiability(financiability, market, tree)
    rates = flat_rates(tree, rate)
    args = (liab, psi, config, fulfillment, fin, market, tree, rates)
    want, want_error = _outcome(lambda: oracle_backward(*args))
    got, got_error = _outcome(lambda: backward_value(*args))
    assert got_error == want_error
    if want_error is not None:
        return
    values, capital, params, infeasible, assignment = want
    got = cost_mappings(got, tree)
    assert _bits(got.values) == _bits(values)
    assert _bits(got.capital) == _bits(capital)
    assert _bits(got.params) == _bits(params)
    assert got.infeasible_nodes == infeasible
    assert got.strategy.assignment.tobytes() == assignment.tobytes()


COMMON = dict(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(SHAPES),
    interior_flows=st.booleans(),
    fulfillment=st.sampled_from(FULFILLMENTS),
    financiability=st.sampled_from(["coc", "zero", "state_price"]),
    mode=st.sampled_from(["A", "B"]),
    rate=st.sampled_from([0.0, 0.03, -1.2]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    indices=st.sampled_from(MIX_INDICES),
    depth=st.integers(1, 3),
    zero_price=st.sampled_from([None, None, 0, 1]),
    # Flows stay small: once a scale's float spacing exceeds the
    # bisection tolerance (above about 2**19 at 1e-10) this per-node
    # oracle's bisection never ends, where the batched loops stop at
    # adjacent floats. Larger magnitudes are held to a frozen copy of the
    # batched bisection in test_scale_search.py.
    magnitude=st.sampled_from([1.0, 1.0, 100.0]),
    **COMMON,
)
def test_fixed_mix_step_matches_per_node_oracle(
    indices, depth, zero_price, magnitude, seed, shape, interior_flows,
    fulfillment, financiability, mode, rate,
):
    tree, market, liab, psi = make_problem(seed, shape, None, interior_flows, magnitude, 2)
    indices = tuple(k for k in indices if k < market.n_assets)
    if zero_price is not None:
        market = zero_price_inside_a_year(np.random.default_rng(seed), tree, market, zero_price)
    config = EngineConfig(
        mode=mode, family=StrategyFamily.fixed_mix(indices), grid_depth=depth
    )
    assert_matches_oracle(tree, market, liab, psi, config, fulfillment, financiability, rate)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(
        [None, None, "not_self_financing", "negative", "starts_late", "ends_early"]
    ),
    defect=st.sampled_from([None, None, "no_bond", "zero_price"]),
    **COMMON,
)
def test_explicit_step_matches_per_node_oracle(
    kind, defect, seed, shape, interior_flows, fulfillment, financiability, mode, rate
):
    tree, market, liab, psi = make_problem(seed, shape, defect, interior_flows)
    base = explicit_base(np.random.default_rng(seed), tree, market, liab, psi, kind)
    config = EngineConfig(mode=mode, family=StrategyFamily.explicit(base))
    assert_matches_oracle(tree, market, liab, psi, config, fulfillment, financiability, rate)


def test_full_fulfillment_reads_only_the_nodes_own_atoms():
    """One infeasible node at the next annual date makes only its own
    ancestor infeasible, not every node of the current date."""
    tree, market, liab, psi = make_problem(3, (3, 1), None, False, max_branch=2)
    a, b = tree.nodes_at(1)[:2]
    a1 = tree.descendants_at(a, tree.grid.index(2))[0]
    prices = market.prices.copy()
    prices[tree.children_of(a1)[0], 0] = 0.0
    market = TradableSet(tree, prices, market.inflows, market.bond_periods, close_out=True)
    config = EngineConfig(family=StrategyFamily.fixed_mix((0,)))
    for fulfillment in (FulfillmentSpec.full(), FulfillmentSpec.var(0.2)):
        cost = backward_value(
            liab, psi, config, fulfillment, FinanciabilitySpec.cost_of_capital(0.06),
            market, tree, flat_rates(tree, 0.02),
        )
        assert cost.values[a1] == INF and cost.values[a] == INF
        assert math.isfinite(cost.values[b])
        assert b not in cost.infeasible_nodes


def test_bisection_ends_when_the_bracket_spans_adjacent_floats():
    """At a scale above 2**19 the float spacing exceeds the default
    bisection tolerance, so the bracket stops shrinking before it is
    that narrow; the search must still end, at a feasible scale."""
    tree, market, liab, psi = make_problem(1, (1, 1), None, False, 1e4, max_branch=2)
    config = EngineConfig(family=StrategyFamily.fixed_mix((0,)))
    cost = backward_value(
        liab, psi, config, FulfillmentSpec.var(0.2), FinanciabilitySpec.cost_of_capital(0.06),
        market, tree, flat_rates(tree, 0.02),
    )
    assert cost.heads[cost.head[tree.root]] == ("fixed_mix", ((0, 1.0),))
    assert 2.0**19 < cost.scale[tree.root] < INF
    assert cost.feasible
