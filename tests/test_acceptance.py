"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Every expected value is either computed by an independent oracle inside
the test (hand arithmetic, exhaustive enumeration, direct summation,
state-price pricing) or is a structural identity checked at its stated
tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from prodval.conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    flat_rates,
    period_rates_from_market,
)
from prodval.engine import (
    EngineConfig,
    IlliquidPortfolio,
    LiabilitySpec,
    StrategyFamily,
    add_short_position,
    backward_value,
    illiquid_replica_shift,
    validate_production_strategy,
)
from prodval.lattice import DateGrid, build_tree
from prodval.market import TradableSet, check_consistency
from prodval.resolution import extend_to_full_fulfillment
from prodval.risk import (
    DiscreteDistribution,
    RiskMeasureSpec,
    apply_measure,
    expected_shortfall,
    value_at_risk,
)
from prodval.solvency import (
    PeriodState,
    RateCurve,
    multi_period_solvency,
    solvency_ii_risk_margin,
    stage1_closed_form,
    stage1_value,
    stage2_decompose,
    stage3_decompose,
)
from prodval.strategy import (
    CashflowProcess,
    Strategy,
    short_position_cashflows,
    stopped,
    strategy_value,
)

from test_engine import bond_market, two_point_tree
from util import (
    by_node,
    certificate_mappings,
    liability,
    pathwise_tree,
    random_paying_strategy,
    random_stop,
    random_tree,
    self_financing_addon,
    state_price_market,
    year_state_prices,
)


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_intro_closed_form():
    """Two-point instance: engine, solvency stage 1, and the closed form
    agree with the hand arithmetic 120/1.02 - 20/1.08."""
    oracle = 120.0 / 1.02 - 20.0 / 1.08
    tree = two_point_tree()
    market = bond_market(tree, {0: 0.02})
    leaves = tree.by_date[2]
    liab = liability(tree, outflows={leaves[0]: 80.0, leaves[1]: 120.0})
    engine_value = backward_value(
        liab,
        IlliquidPortfolio.none(tree.n_nodes),
        EngineConfig(mode="B"),
        FulfillmentSpec.var(0.005),
        FinanciabilitySpec.cost_of_capital(0.06),
        market,
        tree,
        period_rates_from_market(market, tree),
    ).values[0]
    states = [PeriodState(0.5, 80.0, 0.0, 0.0), PeriodState(0.5, 120.0, 0.0, 0.0)]
    var = RiskMeasureSpec("var", 0.005)
    stage1 = stage1_value(states, 0.02, 0.06, var)[2]
    closed = stage1_closed_form(states, 0.02, 0.06, var)
    worst = max(abs(v - oracle) for v in (engine_value, stage1, closed))
    ok = worst <= 1e-8 and round(engine_value, 6) == 99.128540
    report(1, ok, f"intro closed form, max |error| = {worst:.2e}")


def test_criterion_02_premium_pullback_example():
    """Premiums (0,100), claims (10,0), r = 0: mode B gives exactly 10;
    mode A gives 10/1.06 - 100/1.06^2. Oracle: exhaustive enumeration of
    the deterministic two-period program."""
    tree = pathwise_tree(years=2)
    market = bond_market(tree, {0: 0.0, 1: 0.0})
    n1 = tree.nodes_at(1)[0]
    n2 = tree.nodes_at(2)[0]
    liab = liability(tree, outflows={n1: 10.0}, inflows={n2: 100.0})
    rates = period_rates_from_market(market, tree)

    values = {}
    for mode in ("B", "A"):
        values[mode] = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode=mode),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        ).values[0]

    # Enumeration oracle for mode A: scan the two scales (year-2 and
    # year-1 investment, r = 0) on a grid; capital is maximal (the cost
    # is decreasing in C and C <= E[C']/1.06).
    eta = 0.06
    best = math.inf
    for s1 in np.linspace(0.0, 5.0, 501):
        surplus1 = s1 + 100.0  # year 2 pays the 100 premium at its end
        if surplus1 < 0:
            continue
        c1 = surplus1 / (1 + eta)
        vbar1 = s1 - c1
        ell0 = 10.0 + vbar1
        for s0 in np.linspace(0.0, 15.0, 1501):
            surplus0 = s0 - ell0
            if surplus0 < -1e-12:
                continue
            c0 = surplus0 / (1 + eta)
            best = min(best, s0 - c0)
    formula = 10.0 / 1.06 - 100.0 / 1.06**2
    ok = (
        values["B"] == 10.0
        and abs(values["A"] - formula) <= 1e-9
        and abs(best - values["A"]) <= 2e-2  # grid resolution
        and round(values["A"], 6) == -79.565682
    )
    report(2, ok, f"mode B = {values['B']}, mode A = {values['A']:.9f}")


def _theorem_instance(rng, years):
    tree = random_tree(rng, years=years, max_branch=3 if years == 2 else 2)
    market, weights = state_price_market(
        rng, tree, n_risky=int(rng.integers(1, 4)), with_bonds=True
    )
    phi, x_flows = random_paying_strategy(rng, tree, market)
    stop = random_stop(rng, tree)
    l_phi = short_position_cashflows(phi, stop, market, tree, x_flows)
    liab = LiabilitySpec(l_phi.outflow, np.zeros(tree.n_nodes), np.zeros(tree.n_nodes))
    cert = check_consistency(market, tree, None)
    fin = FinanciabilitySpec.state_price(cert, tree)
    phi_p = stopped(phi, tree, stop)
    return tree, market, weights, liab, fin, phi, phi_p, stop


def test_criterion_03_market_price_recovery():
    """Theorem: under full fulfillment and state-price financiability the
    engine recovers v_i(phi) 1{i < tau}; admissible perturbations never
    beat it."""
    rng = np.random.default_rng(20250301)
    worst_recovery = 0.0
    worst_beat = -math.inf
    n_instances = 200
    for k in range(n_instances):
        years = 2 if k % 2 == 0 else 3
        tree, market, weights, liab, fin, phi, phi_p, stop = _theorem_instance(
            rng, years
        )
        rates = period_rates_from_market(market, tree)
        cost = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="A", family=StrategyFamily.explicit(phi_p)),
            FulfillmentSpec.full(),
            fin,
            market,
            tree,
            rates,
        )
        for i in range(tree.grid.horizon):
            for node in tree.nodes_at(i).tolist():
                expected = strategy_value(phi_p, market, node)
                worst_recovery = max(
                    worst_recovery, abs(cost.values[node] - expected)
                )

        # Lemma lower bound: theta = phi' + xi with randomized capital up
        # to the state-price bound never undercuts v(phi').
        xi = self_financing_addon(rng, tree, market, scale=0.5)
        theta = phi_p.plus(xi)
        T = tree.grid.horizon
        J = len(tree.grid.dates) - 1
        cprime = {
            leaf: strategy_value(xi, market, leaf) for leaf in tree.by_date[J].tolist()
        }
        capital = {}
        for i in range(T - 1, -1, -1):
            j1 = tree.grid.index(i + 1)
            for node in tree.nodes_at(i).tolist():
                q = year_state_prices(tree, weights, node, j1)
                bound = sum(q[nu] * cprime[nu] for nu in q)
                # Hit the boundary C = max capital on a third of the
                # nodes; there the lower bound binds with equality.
                u = 1.0 if rng.uniform() < 0.33 else float(rng.uniform(0.0, 1.0))
                capital[node] = u * bound
            cprime = dict(capital)
        for i in range(T):
            for node in tree.nodes_at(i).tolist():
                vbar_theta = strategy_value(theta, market, node) - capital[node]
                beat = strategy_value(phi_p, market, node) - vbar_theta
                worst_beat = max(worst_beat, beat)
        if k % 50 == 0:
            reportable = validate_production_strategy(
                theta,
                IlliquidPortfolio.none(tree.n_nodes),
                CapitalSchedule(by_node(tree, capital)),
                liab,
                FulfillmentSpec.full(),
                fin,
                market,
                tree,
                rates,
                mode="A",
            )
            assert reportable.ok
    ok = worst_recovery <= 1e-8 and worst_beat <= 1e-9
    report(
        3,
        ok,
        f"recovery max |error| = {worst_recovery:.2e}, "
        f"max undercut = {worst_beat:.2e} over {n_instances} instances",
    )


def _failure_instance(rng, with_psi):
    years = int(rng.integers(1, 3))
    tree = random_tree(rng, years=years, max_branch=3)
    market = bond_market(tree, {i: float(rng.uniform(0.0, 0.05)) for i in range(years)})
    outflows = {}
    for i in range(1, years + 1):
        for node in tree.nodes_at(i).tolist():
            base = float(rng.uniform(1.0, 10.0))
            if rng.uniform() < 0.35:
                base *= float(rng.uniform(5.0, 20.0))  # a branch that will fail
            outflows[node] = base
    inflows = {}
    psi_inflows = {}
    if with_psi:
        for node in range(tree.n_nodes):
            if node != 0 and rng.uniform() < 0.4:
                psi_inflows[node] = float(rng.uniform(0.0, 2.0))
    liab = liability(tree, outflows=outflows, inflows=inflows)
    psi = IlliquidPortfolio(by_node(tree, psi_inflows))
    return tree, market, liab, psi


def test_criterion_04_failure_extension():
    """Appendix proposition: the scaled strategy validates under full
    fulfillment with cost lam * vbar, and lam never increases."""
    rng = np.random.default_rng(20250402)
    collected = 0
    attempts = 0
    worst_identity = 0.0
    while collected < 100 and attempts < 500:
        attempts += 1
        tree, market, liab, psi = _failure_instance(rng, with_psi=attempts % 2 == 0)
        rates = period_rates_from_market(market, tree)
        p = float(rng.uniform(0.6, 0.9))
        cost = backward_value(
            liab,
            psi,
            EngineConfig(mode="B"),
            FulfillmentSpec.probability(p),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        if not cost.feasible:
            continue
        if not cost.sheet.failure.any():  # no balance sheet fails
            continue
        collected += 1
        res = extend_to_full_fulfillment(
            liab,
            psi,
            cost,
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            rates,
        )
        assert res.validation.ok, f"re-validation failed on instance {attempts}"
        worst_identity = max(worst_identity, res.cost_identity_max_diff)
        for i in range(1, tree.grid.horizon + 1):
            for node in tree.nodes_at(i).tolist():
                prev = res.lam[tree.ancestor_at(node, tree.grid.index(i - 1))]
                assert res.lam[node] <= prev + 1e-12
                assert -1e-12 <= res.xi[node] <= 1.0 + 1e-12
    ok = collected == 100 and worst_identity <= 1e-9
    report(
        4,
        ok,
        f"{collected} forced-failure instances, scaled-cost max |diff| = "
        f"{worst_identity:.2e}",
    )


def test_criterion_05_short_position_additivity():
    """Adding L(phi) shifts the production cost by v(phi) 1{i < tau}."""
    rng = np.random.default_rng(20250503)
    worst = 0.0
    n_instances = 100
    for k in range(n_instances):
        tree = random_tree(rng, years=2, max_branch=2)
        market, weights = state_price_market(rng, tree, n_risky=2, with_bonds=True)
        outflows = {}
        inflows = {}
        for i in (1, 2):
            for node in tree.nodes_at(i).tolist():
                outflows[node] = float(rng.uniform(0.0, 5.0))
                if rng.uniform() < 0.3:
                    inflows[node] = float(rng.uniform(0.0, 2.0))
        liab = liability(tree, outflows=outflows, inflows=inflows)
        rates = period_rates_from_market(market, tree)
        if k % 2 == 0:
            fin = FinanciabilitySpec.state_price(
                check_consistency(market, tree, None), tree
            )
        else:
            fin = FinanciabilitySpec.cost_of_capital(0.06)
        cost = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="A"),
            FulfillmentSpec.full(),
            fin,
            market,
            tree,
            rates,
        )
        assert cost.feasible
        phi, x_flows = random_paying_strategy(rng, tree, market, scale=0.5)
        stop = random_stop(rng, tree)
        res = add_short_position(
            liab,
            cost.strategy,
            CapitalSchedule(cost.capital),
            phi,
            stop,
            x_flows,
            FulfillmentSpec.full(),
            fin,
            market,
            tree,
            rates,
        )
        assert res.validation.ok, f"combined strategy failed validation ({k})"
        worst = max(worst, res.max_abs_diff)
    ok = worst <= 1e-9
    report(5, ok, f"additivity max |diff| = {worst:.2e} over {n_instances} instances")


def _tuned_market(rng, years, hurdle):
    """Single tradable with every one-step conditional expected payoff
    equal to hurdle * price; worthless at the horizon (final payoff is
    all inflow)."""
    tree = random_tree(rng, years=years, max_branch=2)
    J = len(tree.grid.dates) - 1
    prices = {}
    inflows = {}
    for node in tree.by_date[J].tolist():
        prices[node] = 0.0
        inflows[node] = float(rng.uniform(0.5, 1.5))
    for j in range(J - 1, -1, -1):
        for node in tree.by_date[j].tolist():
            kids = tree.children_of(node)
            expected = sum(
                tree.prob[c] * (prices[c] + inflows[c]) for c in kids
            )
            prices[node] = expected / hurdle
            inflows[node] = 0.0 if j == 0 else float(rng.uniform(0.0, 0.2))
    # Re-tune after adding interior inflows: price excludes the node's own
    # inflow, so only the backward pass above must see the final values.
    for j in range(J - 1, -1, -1):
        for node in tree.by_date[j].tolist():
            kids = tree.children_of(node)
            expected = sum(
                tree.prob[c] * (prices[c] + inflows[c]) for c in kids
            )
            prices[node] = expected / hurdle
    market = TradableSet(
        tree=tree,
        prices=by_node(tree, {n: (prices[n],) for n in range(tree.n_nodes)}),
        inflows=by_node(tree, {n: (inflows[n],) for n in range(tree.n_nodes)}),
        close_out=True,
    )
    return tree, market


def test_criterion_06_illiquid_replica_shift():
    """On markets tuned to E[return] = r + eta, holding a static position
    to maturity shifts the cost by exactly its market value."""
    rng = np.random.default_rng(20250604)
    r, eta = 0.02, 0.06
    worst = 0.0
    n_instances = 25
    for k in range(n_instances):
        years = 1 + k % 2
        tree, market = _tuned_market(rng, years, 1 + r + eta)
        rates = flat_rates(tree, r)
        # Liability replicable by u_liab units held to maturity.
        u_liab = float(rng.uniform(0.5, 2.0))
        outflows = {
            n: u_liab * market.inflows[n][0]
            for n in range(tree.n_nodes)
            if market.inflows[n][0] > 0.0
        }
        liab = liability(tree, outflows=outflows)
        # Base strategy: u_liab units plus a self-financing extra layer.
        extra0 = float(rng.uniform(0.0, 0.5))
        assignment = {}
        extra = {0: extra0}
        for j in range(len(tree.grid.dates)):
            for node in tree.by_date[j].tolist():
                if j > 0:
                    parent_units = assignment[tree.parent[node]][0] - u_liab
                    grown = (
                        parent_units
                        * (market.prices[node][0] + market.inflows[node][0])
                    )
                    extra[node] = (
                        grown / market.prices[node][0]
                        if market.prices[node][0] > 0
                        else 0.0
                    )
                assignment[node] = (u_liab + extra[node],)
        base = Strategy(
            tree,
            1,
            by_node(tree, assignment),
            initial=by_node(tree, {0: (u_liab + extra0,)}),
        )
        # Capital: the cost-of-capital bound on each year's excess.
        capital = {}
        for i in range(tree.grid.horizon):
            j1 = tree.grid.index(i + 1)
            for node in tree.nodes_at(i).tolist():
                kids = tree.descendants_at(node, j1)
                total_p = sum(tree.path_probability(node, c) for c in kids)
                expected_sur = 0.0
                for c in kids:
                    held = base.held_out(tree.parent[c])
                    a = float(
                        held[0]
                        * (market.prices[c][0] + market.inflows[c][0])
                    )
                    ell = float(liab.outflows[c]) + (
                        strategy_value(base, market, c) - 0.0
                        if int(tree.date_of(c)) < tree.grid.horizon
                        else 0.0
                    )
                    expected_sur += tree.path_probability(node, c) / total_p * (
                        a - ell
                    )
                capital[node] = max(0.0, expected_sur) / (1 + r + eta)
        psi_units = (float(rng.uniform(0.1, 0.9)) * u_liab,)
        res = illiquid_replica_shift(
            liab,
            psi_units,
            base,
            CapitalSchedule(by_node(tree, capital)),
            FulfillmentSpec.full(),
            FinanciabilitySpec.cost_of_capital(eta),
            market,
            tree,
            rates,
            policy_index=0,
        )
        assert res.validation.ok, f"augmented strategy failed validation ({k})"
        worst = max(worst, res.max_abs_diff)
    ok = worst <= 1e-9
    report(6, ok, f"replica shift max |diff| = {worst:.2e} over {n_instances} markets")


def test_criterion_07_risk_measure_axioms():
    """Translation invariance and positive homogeneity at 1e-12, ES >=
    VaR, ES non-increasing in alpha, and the SST safety-level property."""
    rng = np.random.default_rng(20250705)
    measures = [
        RiskMeasureSpec("full"),
        RiskMeasureSpec("var", 0.005),
        RiskMeasureSpec("es", 0.01),
    ]
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        values = rng.uniform(-50, 50, size=n)
        w = rng.uniform(0.05, 1.0, size=n)
        w = w / w.sum()
        d = DiscreteDistribution(tuple(values), tuple(w))
        a = float(rng.uniform(-50, 50))
        lam = float(rng.uniform(0, 5))
        for spec in measures:
            base = apply_measure(spec, d)
            worst = max(worst, abs(apply_measure(spec, d.shifted(a)) - (base - a)))
            worst = max(
                worst, abs(apply_measure(spec, d.scaled(lam)) - lam * base)
            )
        alpha = float(rng.uniform(0.01, 0.9))
        assert expected_shortfall(d, alpha) >= value_at_risk(d, alpha) - 1e-12
        alpha2 = alpha + float(rng.uniform(0.01, 0.09))
        assert expected_shortfall(d, alpha2) <= expected_shortfall(d, alpha) + 1e-12

    safety_checked = 0
    alpha = 0.01
    while safety_checked < 200:
        p_neg = float(rng.uniform(0.0005, 0.0095))
        v_neg = float(rng.uniform(-100.0, -1.0))
        v_pos = -v_neg * p_neg / (alpha - p_neg) + float(rng.uniform(0.1, 5.0))
        d = DiscreteDistribution(
            (v_neg, v_pos, v_pos + 10.0), (p_neg, 0.02, 0.98 - p_neg)
        )
        if expected_shortfall(d, alpha) > 0:
            continue
        safety_checked += 1
        beta = sum(p for v, p in zip(d.values, d.probs) if v < 0)
        assert beta < alpha
        assert value_at_risk(d, (beta + alpha) / 2) <= 1e-12
    ok = worst <= 1e-12 and safety_checked == 200
    report(7, ok, f"axioms max |error| = {worst:.2e} on 1000 distributions")


def test_criterion_08_solvency_ii_formula():
    """Stage-3 recursion equals CoC * sum SCR_i/(1+r)^(i+1) at 1e-12.

    For SCR = (10, 8, 5), r = 2%, CoC = 6% the direct summation gives
    1.332293009..., frozen here as the fixture value.
    """
    r, eta = 0.02, 0.06
    scr_path = [10.0, 8.0, 5.0]
    rm = 0.0
    for scr in reversed(scr_path):
        rm = (eta * scr + rm) / (1 + r)
    formula = solvency_ii_risk_margin(scr_path, r, eta)
    fixture_ok = abs(rm - formula) <= 1e-12 and abs(formula - 1.3322930094759933) <= 1e-12

    # Engine-level cross-check on a symmetric instance with per-date
    # deterministic SCRs.
    from test_solvency import symmetric_tree

    tree, _ = symmetric_tree(3)
    outflows = {}
    for i, (lo, hi) in {1: (40.0, 80.0), 2: (30.0, 60.0), 3: (20.0, 40.0)}.items():
        for node in tree.nodes_at(i).tolist():
            rank = tree.children_of(tree.parent[node]).tolist().index(node)
            outflows[node] = hi if rank == 0 else lo
    report_obj = multi_period_solvency(
        liability(tree, outflows=outflows),
        RateCurve.flat(tree, r),
        eta,
        RiskMeasureSpec("var", 0.005),
        3,
        tree,
    )
    engine_ok = (
        report_obj.sii_formula_rm0 is not None
        and abs(report_obj.rm[0] - report_obj.sii_formula_rm0) <= 1e-12
    )
    ok = fixture_ok and engine_ok
    report(8, ok, f"risk-margin recursion == summation, fixture RM_0 = {formula:.9f}")


def test_criterion_09_stage_ordering_and_coherence():
    """Stage 3 >= stage 2 totals on 200 random instances; all stages
    agree at 1e-9 whenever P[M_1] = 1 with risk-free investment."""
    rng = np.random.default_rng(20250906)
    worst_order = math.inf
    worst_agree = 0.0
    for k in range(200):
        n = int(rng.integers(2, 6))
        states = [
            PeriodState(
                float(w),
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 50)),
                float(rng.uniform(0, 5)),
            )
            for w in _norm_weights(rng, n)
        ]
        rho = (
            RiskMeasureSpec("var", 0.005)
            if k % 2 == 0
            else RiskMeasureSpec("es", 0.01)
        )
        s2 = stage2_decompose(states, 0.02, 0.06, rho)
        s3 = stage3_decompose(states, 0.02, 0.06, rho)
        worst_order = min(worst_order, (s3[0] + s3[1]) - (s2[0] + s2[1]))
        # Atom probabilities dwarf alpha here, so P[M_1] = 1 and the
        # three stages coincide.
        s1 = stage1_value(states, 0.02, 0.06, rho)
        if s1[3] >= 1.0 - 1e-12:
            worst_agree = max(
                worst_agree,
                abs(s1[2] - (s2[0] + s2[1])),
                abs(s1[2] - (s3[0] + s3[1])),
            )
    ok = worst_order >= -1e-12 and worst_agree <= 1e-9
    report(
        9,
        ok,
        f"stage-3 minus stage-2 total >= {worst_order:.2e}, "
        f"coherence max |diff| = {worst_agree:.2e}",
    )


def _norm_weights(rng, n):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def test_criterion_10_consistency_certificates():
    """Certificates on 200 random markets: weights rebuild the price at
    1e-9 relative, violations satisfy the breach inequalities, and the
    bundled fixture is refuted."""
    rng = np.random.default_rng(20251007)
    n_markets = 0
    n_violations = 0
    while n_markets < 200:
        n_markets += 1
        tree = random_tree(rng, years=1, max_branch=3)
        market, _ = state_price_market(
            rng, tree, n_risky=int(rng.integers(1, 4)), with_bonds=False
        )
        if n_markets % 2 == 0:
            # Misprice one non-terminal node after making its children
            # collinear, which guarantees a certified breach.
            prices = {n: list(market.prices[n]) for n in range(tree.n_nodes)}
            inflows = {n: list(market.inflows[n]) for n in range(tree.n_nodes)}
            node = int(rng.integers(0, len(tree.by_date[0]) + len(tree.by_date[1])))
            node = min(node, tree.n_nodes - 1)
            if tree.is_leaf(node):
                node = 0
            kids = tree.children_of(node)
            for c in kids[1:]:
                prices[c] = list(prices[kids[0]])
                inflows[c] = list(inflows[kids[0]])
            base = np.array(prices[kids[0]]) + np.array(inflows[kids[0]])
            perturbed = base * rng.uniform(0.6, 1.4, size=len(base))
            prices[node] = list(perturbed)
            market = TradableSet(
                tree=tree,
                prices=by_node(tree, {n: tuple(v) for n, v in prices.items()}),
                inflows=by_node(tree, {n: tuple(v) for n, v in inflows.items()}),
            )
        cert = check_consistency(market, tree, None)
        for node, verdict in certificate_mappings(cert, tree).items():
            if verdict.consistent:
                recon = sum(
                    w * market.payoff(c) for c, w in verdict.weights.items()
                )
                s = market.price(node)
                assert np.abs(recon - s).max() <= 1e-9 * max(1.0, np.abs(s).max())
                assert min(verdict.weights.values()) >= -1e-12
            else:
                n_violations += 1
                x = np.array(verdict.violation)
                for c in tree.children_of(node).tolist():
                    assert float(x @ market.payoff(c)) >= -1e-12
                assert float(x @ market.price(node)) < -1e-9

    # Bundled fixture: both children pay (1, 2), price (0.9, 1.0).
    grid = DateGrid((Fraction(0), Fraction(1, 2), Fraction(1)), 1)
    nodes = [
        {"id": "r", "date": 0, "parent": None, "p": 1.0},
        {"id": "u", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "d", "date": Fraction(1, 2), "parent": "r", "p": 0.5},
        {"id": "u1", "date": 1, "parent": "u", "p": 1.0},
        {"id": "d1", "date": 1, "parent": "d", "p": 1.0},
    ]
    ftree = build_tree(grid, nodes)
    fixture = TradableSet(
        tree=ftree,
        prices=np.array([(0.9, 1.0), (1.0, 2.0), (1.0, 2.0), (1.0, 1.0), (1.0, 1.0)]),
        inflows=np.zeros((5, 2)),
    )
    refuted = not check_consistency(fixture, ftree, None).consistent_at[0]
    ok = refuted and n_violations > 0
    report(
        10,
        ok,
        f"{n_markets} markets, {n_violations} certified violations, fixture refuted",
    )


def test_criterion_11_nonnegative_cashflows_corollary():
    """X - Z >= 0 nodewise implies non-negative value under the
    theorem's hypotheses."""
    rng = np.random.default_rng(20251108)
    worst = math.inf
    n_instances = 100
    for k in range(n_instances):
        tree = random_tree(rng, years=int(rng.integers(1, 3)), max_branch=3)
        market, _ = state_price_market(rng, tree, n_risky=2, with_bonds=True)
        outflows = {}
        inflows = {}
        for node in range(1, tree.n_nodes):
            x = float(rng.uniform(0.0, 5.0))
            z = float(rng.uniform(0.0, x))  # never exceeds the outflow
            outflows[node] = x
            inflows[node] = z
        liab = liability(tree, outflows=outflows, inflows=inflows)
        fin = FinanciabilitySpec.state_price(
            check_consistency(market, tree, None), tree
        )
        cost = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="A"),
            FulfillmentSpec.full(),
            fin,
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        assert cost.feasible
        annual = [n for i in range(tree.grid.horizon + 1) for n in tree.nodes_at(i).tolist()]
        worst = min(worst, cost.values[annual].min())
    ok = worst >= -1e-9
    report(
        11,
        ok,
        f"minimum value over {n_instances} non-negative-flow instances = {worst:.2e}",
    )
