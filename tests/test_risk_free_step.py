"""Differential test of the batched risk-free one-period step.

The oracle below is a frozen copy of the per-node risk-free path the
batched step replaced: one closed-form solve per annual node, rolled
through Python dicts. On random ragged trees, under every fulfillment
and financiability variant, in both modes and with infeasible nodes,
``backward_value`` must reproduce its values, capital, parameters,
infeasible nodes and strategy bit for bit, and raise the same errors;
``build_one_period`` on one node must reproduce its per-node results.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np
import pytest
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
    IlliquidPortfolio,
    LiabilitySpec,
    StrategyFamily,
    backward_value,
    build_one_period,
)
from prodval.errors import NoBondAvailable, ProdvalError
from prodval.market import TradableSet, check_consistency
from prodval.risk import DiscreteDistribution, RiskMeasureSpec

import scalar_reference as ref
from util import by_node, cost_mappings, random_tree, state_price_market

INF = math.inf


@dataclass
class StepRecord:
    """One node's result of the frozen per-node step: the record the
    one-period step returned per node before it returned arrays."""

    feasible: bool
    scale: float = INF
    capital: float = 0.0
    vbar: float = INF
    value: float = INF
    params: tuple = ()


# --- oracle: the per-node risk-free path, frozen ------------------------------


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


def _surplus_dist(tree, node_i, payoff, ell):
    targets = sorted(payoff)
    atoms = []
    for nu in targets:
        p = tree.path_probability(node_i, nu)
        atoms.append((payoff[nu] - ell[nu], p))
    total = ref.loop_sum(p for _, p in atoms)
    return DiscreteDistribution.from_atoms(
        [(v, p / total) for v, p in atoms], labels=targets
    )


def _solve_affine_scale(tree, market, node_i, j0, j1, weights, ell, interior_net, fulfillment):
    lin0 = _roll_mix_linear(tree, market, node_i, j0, j1, weights, 0.0, interior_net)
    lin1 = _roll_mix_linear(tree, market, node_i, j0, j1, weights, 1.0, interior_net)
    if lin0 is None or lin1 is None:
        return None
    pot0, payoff0, _ = lin0
    pot1, payoff1, _ = lin1

    s_feas = 0.0
    for m, b in pot0.items():
        if m == node_i:
            continue
        a = pot1[m] - b
        if b < -TOL:
            if a <= TOL * max(1.0, abs(b)):
                return None
            s_feas = max(s_feas, -b / a)

    gs = [payoff1[nu] - payoff0[nu] for nu in payoff1]
    g = gs[0]
    if g <= 0 or any(abs(x - g) > 1e-9 * max(1.0, g) for x in gs):
        return None
    surplus0 = _surplus_dist(tree, node_i, payoff0, ell)
    buffer = ref.required_buffer(fulfillment, surplus0)
    if math.isinf(buffer) and buffer > 0:
        return None
    s_star = max(0.0, s_feas, buffer / g)

    pot, payoff, portfolios = _roll_mix_linear(
        tree, market, node_i, j0, j1, weights, s_star, interior_net
    )
    if not all(v >= -TOL for m, v in pot.items() if m != node_i):
        return None
    return s_star, payoff, portfolios


def oracle_one_period(
    node_i: int,
    ell: Mapping[int, float],
    interior_net: Callable[[int], float],
    fulfillment,
    financiability,
    market,
    tree,
    rate: float,
    mode: str,
) -> StepRecord:
    i = int(tree.date_of(node_i))
    j0 = tree.grid.index(i)
    j1 = tree.grid.index(i + 1)
    try:
        k = market.bond_for_period(i)
    except NoBondAvailable:
        return StepRecord(False)
    solved = _solve_affine_scale(
        tree, market, node_i, j0, j1, {k: 1.0}, ell, interior_net, fulfillment
    )
    if solved is None:
        return StepRecord(False)
    s_star, payoff, portfolios = solved
    value = s_star
    params = ("risk_free", s_star)
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


def oracle_backward(liab, psi, mode, fulfillment, financiability, market, tree, rates):
    """The per-node backward pass of the risk-free family; also returns
    each date's effective liabilities for the single-node checks."""
    T = tree.grid.horizon
    J = len(tree.grid.dates) - 1
    values: Dict[int, float] = {}
    capital: Dict[int, float] = {}
    params: Dict[int, tuple] = {}
    portfolios = {}
    infeasible = []
    ells = {}
    for leaf in tree.by_date[J].tolist():
        values[leaf] = float(liab.terminal[leaf])

    def interior_net(m):
        return float(liab.inflows[m]) + float(psi.inflows[m]) - float(liab.outflows[m])

    for i in range(T - 1, -1, -1):
        j1 = tree.grid.index(i + 1)
        ell_all = {
            nu: float(liab.outflows[nu]) + values[nu] - float(liab.inflows[nu])
            - float(psi.inflows[nu])
            for nu in tree.by_date[j1].tolist()
        }
        ells[i] = ell_all
        for node_i in tree.nodes_at(i).tolist():
            res = oracle_one_period(
                node_i, ell_all, interior_net, fulfillment, financiability,
                market, tree, rates[node_i], mode,
            )
            if not res.feasible:
                values[node_i] = INF
                infeasible.append(node_i)
                params[node_i] = ("infeasible",)
                continue
            values[node_i] = res.vbar
            capital[node_i] = res.capital
            params[node_i] = res.params
            portfolios.update(res.portfolios)
    assignment = np.zeros((tree.n_nodes, market.n_assets))
    if portfolios:
        assignment[list(portfolios)] = list(portfolios.values())
    assignment[(assignment > -TOL) & (assignment < 0.0)] = 0.0
    return values, capital, params, sorted(infeasible), assignment, ells, interior_net


# --- random problems -------------------------------------------------------------


def _bits(x):
    """Exact identity of floats (signed zeros and infinities included),
    inside tuples and dicts."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


FULFILLMENTS = [
    FulfillmentSpec.full(),
    FulfillmentSpec("risk_measure", RiskMeasureSpec("full")),
    FulfillmentSpec.var(0.005),
    FulfillmentSpec.var(0.2),
    FulfillmentSpec.var(0.5),
    FulfillmentSpec.es(0.05),
    FulfillmentSpec.es(0.3),
    FulfillmentSpec.probability(0.5),
    FulfillmentSpec.probability(0.9),
    FulfillmentSpec.probability(1.0),
]

# (years, interior dates per year); at most six grid steps.
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]


def make_problem(seed, shape, defect, interior_flows, magnitude=1.0, max_branch=3):
    """A ragged tree (1 to ``max_branch`` children per node) with a
    consistent market and random liability flows times ``magnitude``;
    ``defect`` breaks the risk-free step on purpose: no period bond, a
    zero bond price inside a year, or a bond inflow inside a year (a
    path-dependent slope).

    From a magnitude of about 1e4 the rounding of the pots at the solved
    scale can exceed the absolute tolerance, so the interior re-check
    fails at some nodes; at 1e6 the slope constancy check fails at most.
    """
    rng = np.random.default_rng(seed)
    years, interior = shape
    tree = random_tree(rng, years=years, interior_per_year=interior, max_branch=max_branch)
    market, _ = state_price_market(rng, tree, n_risky=2)
    prices = market.prices.copy()
    inflows = market.inflows.copy()
    bonds = dict(market.bond_periods)
    period = int(rng.integers(years))
    k = 2 + period
    inside = [
        n
        for j in range(tree.grid.index(period) + 1, tree.grid.index(period + 1))
        for n in tree.by_date[j].tolist()
    ]
    m = inside[int(rng.integers(len(inside)))]
    if defect == "no_bond":
        del bonds[k]
    elif defect == "zero_price":
        prices[m, k] = 0.0
    elif defect == "bond_inflow":
        inflows[m, k] += 0.25
    market = TradableSet(tree, prices, inflows, bonds, close_out=True)

    annual = {n for i in range(1, years + 1) for n in tree.nodes_at(i).tolist()}
    outflows, liab_inflows, psi_inflows, terminal = {}, {}, {}, {}
    for n in range(1, tree.n_nodes):
        if n in annual:
            outflows[n] = float(rng.uniform(0.0, 150.0))
            if rng.uniform() < 0.4:
                liab_inflows[n] = float(rng.uniform(0.0, 120.0))
        elif interior_flows and rng.uniform() < 0.4:
            # Interior claims make the zero-scale pots negative.
            outflows[n] = float(rng.uniform(0.0, 60.0))
        if rng.uniform() < 0.2:
            psi_inflows[n] = float(rng.uniform(0.0, 20.0))
    for leaf in tree.by_date[-1].tolist():
        if rng.uniform() < 0.3:
            terminal[leaf] = float(rng.uniform(-20.0, 40.0))

    def scaled(flows):
        return by_node(tree, {n: v * magnitude for n, v in flows.items()})

    liab = LiabilitySpec(scaled(outflows), scaled(liab_inflows), scaled(terminal))
    return tree, market, liab, IlliquidPortfolio(scaled(psi_inflows))


def _financiability(kind, market, tree):
    if kind == "coc":
        return FinanciabilitySpec.cost_of_capital(0.06)
    if kind == "zero":
        return FinanciabilitySpec.zero()
    return FinanciabilitySpec.state_price(check_consistency(market, tree), tree)


def _outcome(fn):
    try:
        return fn(), None
    except ProdvalError as e:
        return None, (type(e), str(e))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(SHAPES),
    defect=st.sampled_from([None, None, "no_bond", "zero_price", "bond_inflow"]),
    interior_flows=st.booleans(),
    magnitude=st.sampled_from([1.0, 1.0, 1e4, 1e6]),
    fulfillment=st.sampled_from(FULFILLMENTS),
    financiability=st.sampled_from(["coc", "zero", "state_price"]),
    mode=st.sampled_from(["A", "B"]),
    rate=st.sampled_from([0.0, 0.03, -1.2]),
)
def test_batched_step_matches_per_node_oracle(
    seed, shape, defect, interior_flows, magnitude, fulfillment, financiability, mode, rate
):
    problem = make_problem(seed, shape, defect, interior_flows, magnitude)
    # A rate of -1.2 makes 1 + r + eta negative: BadRate under coc.
    assert_matches_oracle(*problem, fulfillment, financiability, mode, rate)


def test_interior_recheck_matches_oracle():
    """At this magnitude the pots at the solved scale round below the
    absolute tolerance, so the interior re-check rejects the root."""
    problem = make_problem(0, (1, 2), None, True, 1e4)
    values = assert_matches_oracle(*problem, FulfillmentSpec.var(0.5), "zero", "B", 0.0)
    assert values[0] == INF


def assert_matches_oracle(tree, market, liab, psi, fulfillment, financiability, mode, rate):
    """``backward_value`` and the single-node ``build_one_period`` give
    the oracle's results bit for bit, or raise its error; returns the
    values."""
    fin = _financiability(financiability, market, tree)
    rates = flat_rates(tree, rate)
    want, want_error = _outcome(
        lambda: oracle_backward(liab, psi, mode, fulfillment, fin, market, tree, rates)
    )
    got, got_error = _outcome(
        lambda: backward_value(
            liab, psi, EngineConfig(mode=mode), fulfillment, fin, market, tree, rates
        )
    )
    assert got_error == want_error
    if want_error is not None:
        return None
    values, capital, params, infeasible, assignment, ells, interior_net = want
    got = cost_mappings(got, tree)
    assert _bits(got.values) == _bits(values)
    assert _bits(got.capital) == _bits(capital)
    assert _bits(got.params) == _bits(params)
    assert got.infeasible_nodes == infeasible
    assert got.strategy.assignment.tobytes() == assignment.tobytes()

    net = np.array([interior_net(m) for m in range(tree.n_nodes)])
    for i, ell in ells.items():
        ell_array = np.zeros(tree.n_nodes)
        ell_array[list(ell)] = list(ell.values())
        for node in tree.nodes_at(i).tolist():
            common = (fulfillment, fin, market, tree)
            ref = oracle_one_period(node, ell, interior_net, *common, rates[node], mode)
            held = np.zeros((tree.n_nodes, market.n_assets))
            step = build_one_period(
                [node], ell_array, net, StrategyFamily.risk_free(), *common,
                [rates[node]], mode, assignment=held,
            )
            portfolios = getattr(ref, "portfolios", {})
            got = tuple(column[0].item() for column in step)
            if ref.feasible:
                assert _bits(got) == _bits((ref.vbar, ref.capital, ref.scale, 0))
            else:
                assert _bits(got) == _bits((INF, 0.0, INF, -1))
            assert {m: tuple(held[m].tolist()) for m in portfolios} == portfolios
            held[list(portfolios)] = 0.0
            assert not held.any()
    return values


def test_defects_reach_every_infeasibility_check():
    """The random problems above do produce each kind of infeasible
    node, and feasible ones, so the comparison covers them."""
    seen = set()
    for seed in range(40):
        for defect in (None, "no_bond", "zero_price", "bond_inflow"):
            tree, market, liab, psi = make_problem(seed, (2, 1), defect, True)
            cost = backward_value(
                liab,
                psi,
                EngineConfig(mode="B"),
                FulfillmentSpec.full(),
                FinanciabilitySpec.zero(),
                market,
                tree,
                flat_rates(tree, 0.0),
            )
            seen.add((defect, cost.feasible))
    assert {(d, False) for d in ("no_bond", "zero_price", "bond_inflow")} <= seen
    assert (None, True) in seen


def test_batch_returns_one_result_per_node_and_fills_assignment():
    tree, market, liab, psi = make_problem(5, (2, 1), None, True)
    nodes = tree.nodes_at(1)
    ell = np.zeros(tree.n_nodes)
    ell[list(tree.nodes_at(2))] = 100.0
    args = (
        StrategyFamily.risk_free(),
        FulfillmentSpec.var(0.2),
        FinanciabilitySpec.cost_of_capital(0.06),
        market,
        tree,
    )
    assignment = np.zeros((tree.n_nodes, market.n_assets))
    step = build_one_period(
        nodes, ell, np.zeros(tree.n_nodes), *args, [0.02] * len(nodes),
        assignment=assignment,
    )
    assert [len(column) for column in step] == [len(nodes)] * 4
    assert (step.candidate == 0).all()
    alone = np.zeros_like(assignment)
    for k, node in enumerate(nodes):
        one = build_one_period(
            [node], ell, np.zeros(tree.n_nodes), *args, [0.02], assignment=alone
        )
        assert [c.tobytes() for c in one] == [c[k:k + 1].tobytes() for c in step]
    assert alone.tobytes() == assignment.tobytes()


def test_batch_rejects_mixed_dates():
    tree, market, _, _ = make_problem(1, (2, 1), None, False)
    with pytest.raises(ValueError, match="one date"):
        build_one_period(
            [0, tree.nodes_at(1)[0]],
            np.zeros(tree.n_nodes),
            np.zeros(tree.n_nodes),
            StrategyFamily.risk_free(),
            FulfillmentSpec.full(),
            FinanciabilitySpec.zero(),
            market,
            tree,
            [0.0, 0.0],
        )
