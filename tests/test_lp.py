import json
import time

import numpy as np
import pytest

from prodval import cli, lp
from prodval.cli import main
from prodval.errors import NumericalFailure
from prodval.lattice import build_tree
from prodval.lp import solve_lp, solve_standard

from util import config_doc, make_grid, state_price_market


class TestStandardForm:
    def test_textbook_optimum(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2, x,y >= 0 -> (2,2), value 10.
        res = solve_lp(
            c=np.array([-3.0, -2.0]),
            A_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
            b_ub=np.array([4.0, 2.0]),
            nonneg=True,
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-10.0, abs=1e-9)
        assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_infeasible_equality(self):
        res = solve_lp(
            c=np.zeros(1),
            A_eq=np.array([[1.0]]),
            b_eq=np.array([-1.0]),
            nonneg=True,
        )
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp(c=np.array([-1.0]), nonneg=True)
        assert res.status == "unbounded"

    def test_free_variable(self):
        # min x s.t. x >= -3 (as -x <= 3), x free -> -3.
        res = solve_lp(
            c=np.array([1.0]),
            A_ub=np.array([[-1.0]]),
            b_ub=np.array([3.0]),
            nonneg=False,
        )
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(-3.0, abs=1e-9)

    def test_redundant_consistent_rows(self):
        # Duplicated equality row is fine; contradictory one is infeasible.
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        ok = solve_lp(np.zeros(2), A_eq=A, b_eq=np.array([1.0, 2.0]), nonneg=True)
        assert ok.status == "optimal"
        bad = solve_lp(np.zeros(2), A_eq=A, b_eq=np.array([1.0, 3.0]), nonneg=True)
        assert bad.status == "infeasible"

    def test_degenerate_zero_rows(self):
        A = np.zeros((2, 2))
        ok = solve_lp(np.ones(2), A_eq=A, b_eq=np.zeros(2), nonneg=True)
        assert ok.status == "optimal" and ok.objective == pytest.approx(0.0)
        bad = solve_lp(np.ones(2), A_eq=A, b_eq=np.array([0.0, 1.0]), nonneg=True)
        assert bad.status == "infeasible"


def test_optimum_beats_random_feasible_points():
    """Monte-Carlo oracle: no sampled feasible point does better."""
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        A_ub = rng.normal(size=(m, n))
        x0 = rng.uniform(0.1, 1.0, size=n)  # keep the region nonempty
        b_ub = A_ub @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        # Boxed so the problem is bounded.
        A_box = np.vstack([A_ub, np.eye(n)])
        b_box = np.concatenate([b_ub, np.full(n, 5.0)])
        res = solve_lp(c, A_ub=A_box, b_ub=b_box, nonneg=True)
        assert res.status == "optimal"
        assert np.all(A_box @ res.x <= b_box + 1e-8)
        assert np.all(res.x >= -1e-9)
        for _ in range(300):
            x = rng.uniform(0, 5.0, size=n)
            if np.all(A_box @ x <= b_box):
                assert c @ x >= res.objective - 1e-8


def test_cone_membership_forms():
    # s inside the cone of columns.
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    inside = solve_lp(np.zeros(2), A_eq=Y, b_eq=np.array([0.3, 0.7]), nonneg=True)
    assert inside.status == "optimal"
    outside = solve_lp(np.zeros(2), A_eq=Y, b_eq=np.array([-0.3, 0.7]), nonneg=True)
    assert outside.status == "infeasible"


def test_near_singular_bases_are_not_vertices():
    """The neutrality audit LP of node n46 in the generated tree217 case
    with restriction [0, 2, 3]: the child's restricted payoff is the
    price times 1.0279 up to rounding, so bases pairing the halves of
    different free weights are singular but for the last bits. They
    solve to |x| of about 1.2e16 with a residual under FEAS_TOL and an
    objective of 0.0, which the kernel must not report. The optimum is
    the child's return, as scipy's HiGHS also finds."""
    res = solve_lp(
        c=np.array([0.7271014153834542, 0.0, 1.0]),
        A_eq=np.array([[0.7073836800450722, 0.0, 0.9728817260959624]]),
        b_eq=np.array([1.0]),
        A_ub=np.array([[-0.7271014153834542, -0.0, -1.0]]),
        b_ub=np.array([0.0]),
        nonneg=False,
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.027874173372399, rel=1e-12)
    assert np.abs(res.x).max() < 1e6


def test_too_many_bases_raise_before_enumerating():
    # The neutrality ray check of a node with 6 children and 9 tradables:
    # 8 independent rows over 24 columns.
    A = np.random.default_rng(0).normal(size=(8, 24))
    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match=r"C\(24,8\)"):
        solve_standard(np.ones(24), A, A @ np.ones(24))
    assert time.perf_counter() - start < 1.0


def _full_tree(branch: int, years: int, interior_per_year: int):
    grid = make_grid(years, interior_per_year)
    nodes = [{"id": "n0", "date": grid.dates[0], "parent": None, "p": 1.0}]
    frontier = ["n0"]
    for j in range(1, len(grid.dates)):
        nxt = []
        for parent in frontier:
            for _ in range(branch):
                nid = f"n{len(nodes)}"
                nodes.append({"id": nid, "date": grid.dates[j], "parent": parent, "p": 1 / branch})
                nxt.append(nid)
        frontier = nxt
    return build_tree(grid, nodes)


def _check_state_price_market(tmp_path, monkeypatch, branch: int):
    """Run `check` on a one-year tree (one interior date) with ``branch``
    children per node, 8 risky assets and a bond. Every certificate must
    hold by its defining property: weights >= 0 whose combination of the
    children's price-plus-inflow vectors reconstructs the node's price
    (up to the reports' 9 decimals).

    The market prices by state prices mu * p_c, so every unit-price
    portfolio has the expected one-step return 1/mu: both audit optima
    are 1/mu at every node. The audits are read off the rays of each
    node's child-payoff cone, so neither calls ``lp.solve_lp``."""
    rng = np.random.default_rng(0)
    tree = _full_tree(branch, 1, 1)
    market, state_prices = state_price_market(rng, tree, n_risky=8)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc(rng, tree, market)))

    solves = []
    solve_lp = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: solves.append(1) or solve_lp(*a, **k))
    audit_solves = {}
    for name in ("audit_consistency_with_tradables", "audit_neutrality_to_tradables"):

        def counted(*args, _audit=getattr(cli, name), _name=name):
            before = len(solves)
            report = _audit(*args)
            audit_solves[_name] = len(solves) - before
            return report

        monkeypatch.setattr(cli, name, counted)

    assert main(["check", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    assert audit_solves == {
        "audit_consistency_with_tradables": 0,
        "audit_neutrality_to_tradables": 0,
    }
    report = json.loads((tmp_path / "check.json").read_text())
    certs = report["consistency"]["used_subspace"]
    index = {label: n for n, label in enumerate(tree.labels)}
    assert len(certs) == 1 + branch
    for label, entry in certs.items():
        assert entry["consistent"]
        node = index[label]
        weights = entry["weights"]
        assert sorted(index[c] for c in weights) == sorted(tree.children[node])
        assert min(weights.values()) >= 0.0
        rebuilt = sum(w * market.payoff(index[c]) for c, w in weights.items())
        np.testing.assert_allclose(rebuilt, market.price(node), rtol=0, atol=1e-8)
    for kind in ("consistency_with_tradables", "neutrality_to_tradables"):
        audits = report["audits"][kind]["per_node"]
        assert len(audits) == 1 + branch
        for label, audit in audits.items():
            node = index[label]
            child = tree.children[node][0]
            mu = state_prices[node][child] / tree.prob[child]
            assert audit["status"] == "optimal"
            assert audit["optimum"] == pytest.approx(1.0 / mu, abs=1e-8)


def test_check_on_four_children_and_eight_risky_assets(tmp_path, monkeypatch):
    _check_state_price_market(tmp_path, monkeypatch, 4)


def test_check_on_six_children_and_eight_risky_assets(tmp_path, monkeypatch):
    """With 6 children and 9 tradables an audit LP enumerates C(24,7)
    bases at each of the 7 inner nodes: about 9 s for both audits on a
    2-vCPU VM."""
    _check_state_price_market(tmp_path, monkeypatch, 6)
