import math
from fractions import Fraction

import numpy as np
import pytest

from prodval.errors import InteriorFlowsPresent, MassOutsideM1
from prodval.lattice import DateGrid, build_tree
from prodval.risk import (
    DiscreteDistribution,
    RiskMeasureSpec,
    expected_shortfall,
    lower_quantile,
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

from util import liability, solvency_mappings

VAR = RiskMeasureSpec("var", 0.005)


def two_point_states(lo=80.0, hi=120.0):
    return [PeriodState(0.5, lo, 0.0, 0.0), PeriodState(0.5, hi, 0.0, 0.0)]


class TestStage1:
    def test_two_point_example(self):
        a0, scr, vbar, p = stage1_value(two_point_states(), 0.02, 0.06, VAR)
        assert a0 == pytest.approx(120.0 / 1.02, abs=1e-9)
        assert scr == pytest.approx(20.0 / 1.08, abs=1e-9)
        assert vbar == pytest.approx(120.0 / 1.02 - 20.0 / 1.08, abs=1e-9)
        assert p == 1.0
        assert round(a0, 6) == 117.647059
        assert round(scr, 6) == 18.518519
        assert round(vbar, 6) == 99.128540

    def test_deterministic_liability(self):
        states = [PeriodState(1.0, 50.0, 0.0, 0.0)]
        a0, scr, vbar, p = stage1_value(states, 0.02, 0.06, VAR)
        assert a0 == pytest.approx(50.0 / 1.02, abs=1e-12)
        assert scr == 0.0
        assert vbar == pytest.approx(50.0 / 1.02, abs=1e-12)

    def test_zero_liability(self):
        states = [PeriodState(1.0, 0.0, 0.0, 0.0)]
        a0, scr, vbar, p = stage1_value(states, 0.02, 0.06, VAR)
        assert (a0, scr, vbar) == (0.0, 0.0, 0.0)


class TestStage1ClosedForm:
    def test_matches_stage1_on_two_point(self):
        states = two_point_states()
        direct = stage1_value(states, 0.02, 0.06, VAR)[2]
        closed = stage1_closed_form(states, 0.02, 0.06, VAR)
        # Independent arithmetic: E[L]/(1+r) + eta/(1+r+eta) rho((E-L)/(1+r)).
        oracle = 100.0 / 1.02 + (0.06 / 1.08) * (20.0 / 1.02)
        assert closed == pytest.approx(oracle, abs=1e-12)
        assert closed == pytest.approx(direct, abs=1e-12)

    def test_deterministic(self):
        states = [PeriodState(1.0, 50.0, 0.0, 0.0)]
        assert stage1_closed_form(states, 0.02, 0.06, VAR) == pytest.approx(
            50.0 / 1.02, abs=1e-12
        )

    def test_mass_outside_m1(self):
        states = [PeriodState(0.95, 10.0, 0.0, 0.0), PeriodState(0.05, 100.0, 0.0, 0.0)]
        with pytest.raises(MassOutsideM1):
            stage1_closed_form(states, 0.02, 0.06, RiskMeasureSpec("var", 0.1))


class TestStage2:
    def test_two_point_decomposition(self):
        bel, rm, scr, p = stage2_decompose(two_point_states(), 0.02, 0.06, VAR)
        assert bel == pytest.approx(100.0 / 1.02, abs=1e-9)
        assert rm == pytest.approx(1.2 / 1.1016, abs=1e-9)
        assert scr == pytest.approx(20.0 / 1.08, abs=1e-9)
        assert round(bel, 6) == 98.039216
        assert round(rm, 6) == 1.089325
        total = bel + rm
        stage1_total = stage1_value(two_point_states(), 0.02, 0.06, VAR)[2]
        assert total == pytest.approx(stage1_total, abs=1e-9)

    def test_deterministic(self):
        states = [PeriodState(1.0, 50.0, 0.0, 0.0)]
        bel, rm, scr, _ = stage2_decompose(states, 0.02, 0.06, VAR)
        assert bel == pytest.approx(50.0 / 1.02, abs=1e-12)
        assert rm == pytest.approx(0.0, abs=1e-12)
        assert scr == pytest.approx(0.0, abs=1e-12)

    def test_future_risk_margin_pickup(self):
        # Deterministic RM_1 enters through E[1_M RM_1]/(1+r+eta).
        states = [
            PeriodState(0.5, 80.0, 0.0, 3.0),
            PeriodState(0.5, 120.0, 0.0, 3.0),
        ]
        base = stage2_decompose(two_point_states(), 0.02, 0.06, VAR)
        got = stage2_decompose(states, 0.02, 0.06, VAR)
        # L shifts by 3, so rho(-L) shifts by 3; BEL is unchanged (X+BEL
        # unchanged), and the RM pickup splits into the mismatch part and
        # the direct E[RM_1] part.
        assert got[0] == pytest.approx(base[0], abs=1e-12)
        extra = got[1] - base[1]
        p, r, eta = 1.0, 0.02, 0.06
        expected_extra = ((1 + r + eta) - p * (1 + r)) * 3.0 / (
            (1 + r + eta) * (1 + r)
        ) + 3.0 / (1 + r + eta)
        assert extra == pytest.approx(expected_extra, abs=1e-12)

    def test_non_risk_free_shape_fixed_point(self):
        states = two_point_states()
        shape = [1.10, 0.96]
        bel, rm, scr, p = stage2_decompose(states, 0.02, 0.06, VAR, bel_shape=shape)
        # Separation condition holds at the fixed point.
        a1 = [bel * g for g in shape]
        l1 = [s.liability for s in states]
        mismatch_dist = DiscreteDistribution.from_atoms(
            [(a - l, s.prob) for a, l, s in zip(a1, l1, states)]
        )
        from prodval.risk import apply_measure

        rho_val = apply_measure(VAR, mismatch_dist)
        members = [a - l >= -rho_val - 1e-9 for a, l in zip(a1, l1)]
        resid = sum(
            s.prob * (a - s.x - s.bel)
            for s, a, m in zip(states, a1, members)
            if m
        )
        assert abs(resid) <= 1e-8


class TestStage3:
    def test_simple_sum(self):
        states = [PeriodState(1.0, 50.0, 30.0, 0.0)]
        bel, rm, scr, _ = stage3_decompose(states, 0.0, 0.06, VAR)
        assert bel == 80.0

    def test_equals_stage2_when_m1_full(self):
        s2 = stage2_decompose(two_point_states(), 0.02, 0.06, VAR)
        s3 = stage3_decompose(two_point_states(), 0.02, 0.06, VAR)
        for a, b in zip(s2, s3):
            assert a == pytest.approx(b, abs=1e-9)

    def test_stage3_total_dominates_stage2(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            xs = rng.uniform(0, 100, size=n)
            bels = rng.uniform(0, 50, size=n)
            rms = rng.uniform(0, 5, size=n)
            w = rng.uniform(0.05, 1, size=n)
            w = w / w.sum()
            states = [
                PeriodState(float(w[k]), float(xs[k]), float(bels[k]), float(rms[k]))
                for k in range(n)
            ]
            rho = RiskMeasureSpec("var", 0.005) if rng.uniform() < 0.5 else RiskMeasureSpec("es", 0.01)
            s2 = stage2_decompose(states, 0.02, 0.06, rho)
            s3 = stage3_decompose(states, 0.02, 0.06, rho)
            assert s3[0] + s3[1] >= s2[0] + s2[1] - 1e-12


def symmetric_tree(years):
    dates = []
    for i in range(years):
        dates.append(Fraction(i))
        dates.append(Fraction(i) + Fraction(1, 2))
    dates.append(Fraction(years))
    grid = DateGrid(tuple(dates), years)
    nodes = [{"id": "n0", "date": 0, "parent": None, "p": 1.0}]
    frontier = ["n0"]
    counter = 1
    for j in range(1, len(grid.dates)):
        date = grid.dates[j]
        nxt = []
        for parent in frontier:
            if date.denominator == 1:
                for tag, p in (("u", 0.5), ("d", 0.5)):
                    nid = f"n{counter}"
                    counter += 1
                    nodes.append({"id": nid, "date": date, "parent": parent, "p": p})
                    nxt.append(nid)
            else:
                nid = f"n{counter}"
                counter += 1
                nodes.append({"id": nid, "date": date, "parent": parent, "p": 1.0})
                nxt.append(nid)
        frontier = nxt
    return build_tree(grid, nodes), grid


class TestMultiPeriod:
    def test_sii_formula_cross_check(self):
        """Stage-3 recursion equals the summation formula when SCRs are
        deterministic per date and rates are flat."""
        years = 3
        tree, grid = symmetric_tree(years)
        outflows = {}
        spreads = {1: (40.0, 80.0), 2: (30.0, 60.0), 3: (20.0, 40.0)}
        for i, (lo, hi) in spreads.items():
            for node in tree.nodes_at(i).tolist():
                # Symmetric: the up child gets hi, the down child lo.
                sibling_rank = tree.children_of(tree.parent[node]).tolist().index(node)
                outflows[node] = hi if sibling_rank == 0 else lo
        liab = liability(tree, outflows=outflows)
        rates = RateCurve.flat(tree, 0.02)
        report = multi_period_solvency(
            liab, rates, 0.06, RiskMeasureSpec("var", 0.005), 3, tree
        )
        assert report.sii_formula_rm0 is not None
        assert report.rm[0] == pytest.approx(report.sii_formula_rm0, abs=1e-12)

    def test_sii_fixture_path(self):
        # Direct unroll of the stage-3 recursion on the (10, 8, 5) path.
        r, eta = 0.02, 0.06
        scr_path = [10.0, 8.0, 5.0]
        rm = 0.0
        for scr in reversed(scr_path):
            rm = (eta * scr + rm) / (1 + r)
        formula = solvency_ii_risk_margin(scr_path, r, eta)
        assert rm == pytest.approx(formula, abs=1e-12)
        # Frozen from the direct summation:
        # 0.06 * (10/1.02 + 8/1.02^2 + 5/1.02^3).
        assert formula == pytest.approx(1.3322930094759933, abs=1e-12)

    def test_zero_liability_reports_zero(self):
        tree, _ = symmetric_tree(2)
        rates = RateCurve.flat(tree, 0.02)
        report = multi_period_solvency(
            liability(tree), rates, 0.06, VAR, 3, tree
        )
        assert not (report.bel.any() or report.rm.any() or report.scr.any())

    def test_single_period_is_the_stage_operation(self):
        tree, _ = symmetric_tree(1)
        leaves = tree.by_date[2]
        liab = liability(tree, outflows={leaves[0]: 120.0, leaves[1]: 80.0})
        rates = RateCurve.flat(tree, 0.02)
        report = multi_period_solvency(liab, rates, 0.06, VAR, 2, tree)
        bel, rm, scr, p = stage2_decompose(two_point_states(), 0.02, 0.06, VAR)
        assert report.bel[0] == pytest.approx(bel, abs=1e-12)
        assert report.rm[0] == pytest.approx(rm, abs=1e-12)
        assert report.scr[0] == pytest.approx(scr, abs=1e-12)

    def test_interior_flows_rejected(self):
        tree, _ = symmetric_tree(1)
        mid = tree.by_date[1][0]
        liab = liability(tree, outflows={mid: 5.0})
        with pytest.raises(InteriorFlowsPresent):
            multi_period_solvency(
                liab, RateCurve.flat(tree, 0.02), 0.06, VAR, 3, tree
            )

    def test_stage_coherence_when_m1_full(self):
        rng = np.random.default_rng(73)
        tree, _ = symmetric_tree(2)
        outflows = {}
        for i in (1, 2):
            for node in tree.nodes_at(i).tolist():
                outflows[node] = float(rng.uniform(10, 100))
        liab = liability(tree, outflows=outflows)
        rates = RateCurve.flat(tree, 0.02)
        # VaR at 0.5% with branch mass 0.5 puts every state inside M_1.
        reports = {
            s: multi_period_solvency(liab, rates, 0.06, VAR, s, tree)
            for s in (1, 2, 3)
        }
        for node in list(tree.nodes_at(0)) + list(tree.nodes_at(1)):
            t1, t2, t3 = (reports[s].bel[node] + reports[s].rm[node] for s in (1, 2, 3))
            assert t1 == pytest.approx(t2, abs=1e-9)
            assert t2 == pytest.approx(t3, abs=1e-9)

    def test_sst_safety_level_at_stage1_boundary(self):
        # With rho = ES(1%), the built boundary satisfies the safety-level
        # property at every node: beta < alpha and VaR at the midpoint <= 0.
        rng = np.random.default_rng(79)
        tree, _ = symmetric_tree(2)
        es = RiskMeasureSpec("es", 0.01)
        outflows = {}
        for i in (1, 2):
            for node in tree.nodes_at(i).tolist():
                outflows[node] = float(rng.uniform(10, 100))
        liab = liability(tree, outflows=outflows)
        rates = RateCurve.flat(tree, 0.02)
        report = multi_period_solvency(liab, rates, 0.06, es, 1, tree)
        bel = {n: r.total for n, r in solvency_mappings(report, tree).rows.items()}
        for i in (0, 1):
            for node in tree.nodes_at(i).tolist():
                j1 = tree.grid.index(i + 1)
                kids = tree.descendants_at(node, j1)
                l1 = {
                    c: float(liab.outflows[c])
                    + (bel[c] if c in bel else float(liab.terminal[c]))
                    for c in kids
                }
                l_dist = DiscreteDistribution.from_atoms(
                    [(l1[c], tree.path_probability(node, c)) for c in kids]
                )
                threshold = expected_shortfall(l_dist.negated(), 0.01)
                surplus = DiscreteDistribution.from_atoms(
                    [(threshold - l1[c], tree.path_probability(node, c)) for c in kids]
                )
                assert expected_shortfall(surplus, 0.01) <= 1e-9
                beta = sum(
                    p for v, p in zip(surplus.values, surplus.probs) if v < 0
                )
                assert beta < 0.01
                mid = (beta + 0.01) / 2
                assert value_at_risk(surplus, mid) <= 1e-9


def test_engine_totals_match_stage2_with_risk_free_investment():
    """The engine's backward value and the stage-2 BEL + RM agree node by
    node whenever everything is invested risk-free, failure mass or not."""
    from prodval.conditions import (
        FinanciabilitySpec,
        FulfillmentSpec,
        period_rates_from_market,
    )
    from prodval.engine import EngineConfig, IlliquidPortfolio, backward_value
    from test_engine import bond_market

    rng = np.random.default_rng(83)
    for trial in range(5):
        tree, _ = symmetric_tree(2)
        market = bond_market(tree, {0: 0.02, 1: 0.02})
        outflows = {}
        for i in (1, 2):
            for node in tree.nodes_at(i).tolist():
                outflows[node] = float(rng.uniform(10, 100))
        liab = liability(tree, outflows=outflows)
        alpha = 0.005 if trial % 2 == 0 else 0.4  # the latter leaves mass outside M_1
        cost = backward_value(
            liab,
            IlliquidPortfolio.none(tree.n_nodes),
            EngineConfig(mode="B"),
            FulfillmentSpec.var(alpha),
            FinanciabilitySpec.cost_of_capital(0.06),
            market,
            tree,
            period_rates_from_market(market, tree),
        )
        report = multi_period_solvency(
            liab,
            RateCurve.flat(tree, 0.02),
            0.06,
            RiskMeasureSpec("var", alpha),
            2,
            tree,
        )
        for node, row in solvency_mappings(report, tree).rows.items():
            assert cost.values[node] == pytest.approx(row.total, abs=1e-9)


def test_rate_curve_validation():
    from prodval.errors import BadRate

    tree, _ = symmetric_tree(1)
    with pytest.raises(BadRate):
        RateCurve({0: -1.5})
    assert RateCurve.flat(tree, 0.02).is_flat()
