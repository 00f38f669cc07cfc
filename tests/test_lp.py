import json
import math
import time

import numpy as np
import pytest

from prodval import cli, lp
from prodval.cli import main
from prodval.errors import NumericalFailure
from prodval.lattice import build_tree
from prodval.lp import cone_vertices, solve_lp

from util import config_doc, make_grid, state_price_market


def stacked(*arrays):
    """Each array with a leading axis of one: an LP as a stack of one."""
    return [np.asarray(a, dtype=float)[None] for a in arrays]


def farkas_form(s, Y, b):
    """The standard form of the LP over free u with the first row s.u =
    b[k] (the Farkas LP has b = -1) and Y u >= 0 for a stack: columns
    (u+_0, u-_0, u+_1, ...), then one slack per row of Y."""
    s, Y = np.asarray(s, dtype=float), np.asarray(Y, dtype=float)
    N, K, d = Y.shape
    A = np.zeros((N, 1 + K, 2 * d + K))
    A[:, 0, 0 : 2 * d : 2], A[:, 0, 1 : 2 * d : 2] = s, -s
    A[:, 1:, 0 : 2 * d : 2], A[:, 1:, 1 : 2 * d : 2] = -Y, Y
    A[:, 1:, 2 * d :] = np.eye(K)
    rhs = np.zeros((N, 1 + K))
    rhs[:, 0] = b
    return A, rhs


class TestStandardForm:
    def test_first_vertex(self):
        # x + y + s1 = 4, x + s2 = 2, all >= 0: the first basis in
        # combinations order is {x, y}, the vertex (2, 2, 0, 0).
        A, b = stacked([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]], [4.0, 2.0])
        feasible, x = cone_vertices(A, b)
        assert feasible.tolist() == [True]
        assert x[0] == pytest.approx([2.0, 2.0, 0.0, 0.0], abs=1e-9)

    def test_infeasible_equality(self):
        A, b = stacked([[1.0]], [-1.0])
        feasible, x = cone_vertices(A, b)
        assert feasible.tolist() == [False]
        assert x.tolist() == [[0.0]]

    def test_a_price_outside_a_ray(self):
        # s = 1 and one child paying y = -1: the cone is (-inf, 0], the
        # projection is 0 with lam = 0 and r = 1, so u = -r / |r|^2 = -1.
        inside, lam, u = solve_lp(*stacked([[-1.0]], [1.0]))
        assert inside.tolist() == [False]
        assert lam.tolist() == [[0.0]] and u.tolist() == [[-1.0]]

    def test_redundant_consistent_rows(self):
        # Duplicated equality row is fine; contradictory one is infeasible.
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        feasible, _ = cone_vertices(np.stack([A, A]), np.array([[1.0, 2.0], [1.0, 3.0]]))
        assert feasible.tolist() == [True, False]

    def test_degenerate_zero_rows(self):
        A = np.zeros((2, 2, 2))
        feasible, x = cone_vertices(A, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert feasible.tolist() == [True, False]
        assert x.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_an_empty_stack(self):
        inside, lam, u = solve_lp(np.zeros((0, 1, 2)), np.zeros((0, 2)))
        assert inside.shape == (0,) and lam.shape == (0, 1) and u.shape == (0, 2)


def test_cone_membership_forms():
    # s inside the cone of the children's payoffs, then outside it: the
    # membership LP has a vertex exactly where the projection is inside.
    # Outside, the projection of (-0.3, 0.7) onto the quadrant is
    # (0, 0.7): r = (-0.3, 0) and u = -r / |r|^2 = (10/3, 0).
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = np.array([[0.3, 0.7], [-0.3, 0.7]])
    feasible, _ = cone_vertices(np.stack([Y, Y]), s)
    assert feasible.tolist() == [True, False]
    inside, lam, u = solve_lp(np.stack([Y, Y]), s)
    assert inside.tolist() == [True, False]
    assert lam.tolist() == [[0.3, 0.7], [0.0, 0.7]]
    assert u[0].tolist() == [0.0, 0.0]
    assert u[1] == pytest.approx([10.0 / 3.0, 0.0], rel=1e-15)
    assert u[1] @ s[1] == pytest.approx(-1.0, abs=1e-15) and (Y @ u[1] >= 0.0).all()


def test_near_singular_bases_are_not_vertices(monkeypatch):
    """From the neutrality audit of node n46 in the generated tree217
    case with restriction [0, 2, 3]: the child's restricted payoff y is
    the price s times 1.0279 up to rounding. Over free weights u with
    s.u = b and y.u >= 0, the bases pairing the halves of different
    weights are singular but for the last bits, and the first of them
    comes before the first true vertex in combinations order. It solves
    to |u| of about 1.2e16 with a residual under FEAS_TOL, which the
    kernel must not report: with b = 1 the first vertex is u = e_0 / s_0,
    and with b = -1 (the Farkas LP of a node whose price lies outside
    its child's cone) there is no vertex, as y.u = 1.0279 b < 0. Both
    standard forms go in one stack. The projection, which enumerates no
    basis, puts s inside the cone whatever the rank tolerance."""
    s = np.array([0.7073836800450722, 0.0, 0.9728817260959624])
    y = np.array([0.7271014153834542, 0.0, 1.0])
    A, b = farkas_form(np.stack([s, s]), np.stack([y[None], y[None]]), [1.0, -1.0])

    def solve():
        feasible, z = cone_vertices(A, b)
        return feasible, z[:, 0:6:2] - z[:, 1:6:2]

    feasible, x = solve()
    assert feasible.tolist() == [True, False]
    assert x[0].tolist() == pytest.approx([1.0 / s[0], 0.0, 0.0], rel=1e-15)
    assert solve_lp(y[None, None], s[None])[0].tolist() == [True]
    # Without the conditioning rule the near-singular basis is reported.
    monkeypatch.setattr(lp, "_RANK_TOL", 1e-300)
    feasible, x = solve()
    assert feasible.tolist() == [True, True]
    assert np.abs(x[0]).max() > 1e15
    assert solve_lp(y[None, None], s[None])[0].tolist() == [True]


def test_too_many_bases_raise_before_enumerating():
    # The neutrality ray check of a node with 6 children and 9 tradables:
    # 8 independent rows over 24 columns. It raises for a stack that
    # also holds a feasible and an infeasible system of one row each.
    rng = np.random.default_rng(0)
    A = np.zeros((3, 8, 24))
    A[:2, 0] = np.abs(rng.normal(size=24))
    A[2] = rng.normal(size=(8, 24))
    b = (A @ np.ones(24)) * np.array([[1.0], [-1.0], [1.0]])
    assert cone_vertices(A[:2], b[:2])[0].tolist() == [True, False]
    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match=r"C\(24,8\)"):
        cone_vertices(A, b)
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
        assert sorted(index[c] for c in weights) == sorted(tree.children_of(node))
        assert min(weights.values()) >= 0.0
        rebuilt = sum(w * market.payoff(index[c]) for c, w in weights.items())
        np.testing.assert_allclose(rebuilt, market.price(node), rtol=0, atol=1e-8)
    for kind in ("consistency_with_tradables", "neutrality_to_tradables"):
        audits = report["audits"][kind]["per_node"]
        assert len(audits) == 1 + branch
        for label, audit in audits.items():
            node = index[label]
            child = tree.children_of(node)[0]
            mu = state_prices[node][child] / tree.prob[child]
            assert audit["status"] == "optimal"
            assert audit["optimum"] == pytest.approx(1.0 / mu, abs=1e-8)


def test_check_on_four_children_and_eight_risky_assets(tmp_path, monkeypatch):
    _check_state_price_market(tmp_path, monkeypatch, 4)


def test_check_on_six_children_and_eight_risky_assets(tmp_path, monkeypatch):
    """With 6 children and 9 tradables the child payoffs have rank 6 at
    each of the 7 inner nodes: every audit ray is a unit vector, read
    off without a solve, and each membership LP has a single basis."""
    _check_state_price_market(tmp_path, monkeypatch, 6)


def test_zero_columns_do_not_count_against_the_basis_limit():
    # 11 independent rows over 12 columns: C(12, 11) = 12 bases. Eleven
    # more columns, zero in every system, are never enumerated, so they
    # neither raise C(23, 11) > _MAX_BASES nor change the vertex.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(11, 12))
    b = A @ rng.uniform(size=12)
    feasible, x = cone_vertices(*stacked(A, b))
    assert feasible.tolist() == [True]
    wide, xw = cone_vertices(*stacked(np.hstack([A, np.zeros((11, 11))]), b))
    assert wide.tolist() == [True]
    assert xw[0, :12].tobytes() == x[0].tobytes() and not xw[0, 12:].any()
    assert math.comb(23, 11) > lp._MAX_BASES
