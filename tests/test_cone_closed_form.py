"""Differential test of the closed-form cone certificates.

``market.check_consistency`` decides the nodes whose restricted child
payoffs Y have full column rank together, by ``lp.full_rank_vertices``,
and every other node by the LP. The oracle below is a frozen copy of the
loop it replaced: one ``lp.solve_lp`` per node, and the Farkas LP where
that is not optimal. On random markets the two must give the same
verdicts, the same weights and violations bit for bit (compared by
``float.hex``), and the same errors.

The generators build markets around what the closed form must get
right: square and tall Y, rank-deficient Y (duplicate child payoffs, a
child paying nothing), weights that are exactly 0 or just below 0
(clipped by the LP, signed zeros included), prices outside the span of
Y (the Farkas path), Y whose smallest singular value is near the rank
tolerance, and index and basis restrictions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.errors import NumericalFailure
from prodval.lp import FEAS_TOL, full_rank_vertices, solve_lp
from prodval.market import RestrictionSet, TradableSet, check_consistency

from util import random_tree


# --- oracle: the per-node LP loop, frozen -------------------------------------


def oracle_check_consistency(market, tree, restriction=None):
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    B = restriction.matrix()
    verdicts = {}
    for node in range(tree.n_nodes):
        children = tree.children[node]
        if not children:
            continue
        Y = np.column_stack([B.T @ market.payoff(c) for c in children])
        s = B.T @ market.price(node)
        primal = solve_lp(c=np.zeros(len(children)), A_eq=Y, b_eq=s, nonneg=True)
        if primal.status == "optimal":
            verdicts[node] = (True, {c: float(primal.x[k]) for k, c in enumerate(children)})
            continue
        m = B.shape[1]
        alt = solve_lp(
            c=np.zeros(m),
            A_eq=s.reshape(1, -1),
            b_eq=np.array([-1.0]),
            A_ub=-Y.T,
            b_ub=np.zeros(len(children)),
            nonneg=False,
        )
        if alt.status != "optimal":
            raise NumericalFailure(
                f"neither cone membership nor a violation certified at node {node}"
            )
        verdicts[node] = (False, tuple(float(v) for v in B @ alt.x))
    return verdicts


def _hex(verdicts):
    out = {}
    for node, (consistent, data) in verdicts.items():
        if consistent:
            out[node] = (True, {c: w.hex() for c, w in data.items()})
        else:
            out[node] = (False, tuple(v.hex() for v in data))
    return out


def _outcome(fn, *args):
    try:
        return _hex(fn(*args))
    except NumericalFailure as e:
        return ("raises", type(e).__name__, str(e))


def _program(market, tree, restriction):
    cert = check_consistency(market, tree, restriction)
    return {
        node: (True, v.weights) if v.consistent else (False, v.violation)
        for node, v in cert.verdicts.items()
    }


# --- generators ---------------------------------------------------------------


KINDS = (
    "complete",
    "integer",
    "zero_weight",
    "rank_deficient",
    "outside_span",
    "near_singular",
)


def _restriction(rng, n_assets):
    pick = int(rng.integers(3))
    if pick == 0:
        return None
    if pick == 1:
        k = int(rng.integers(1, n_assets + 1))
        return RestrictionSet.of_indices(n_assets, rng.choice(n_assets, k, replace=False).tolist())
    k = int(rng.integers(1, n_assets + 1))
    while True:
        basis = rng.normal(size=(k, n_assets))
        if np.linalg.matrix_rank(basis) == k:
            return RestrictionSet(n_assets, basis=tuple(map(tuple, basis.tolist())))


def market_case(seed: int, kind: str):
    """(market, tree, restriction) for one generator kind.

    Prices are built backward: each inner node's price is sum_c w_c
    times its children's payoffs for weights w that the kind shapes, so
    that ``w`` is the certificate on the full space when the payoffs are
    independent. Payoffs are prices plus inflows and stay non-negative.
    """
    rng = np.random.default_rng(seed)
    interior = int(rng.integers(1, 3))
    tree = random_tree(rng, years=1, interior_per_year=interior, max_branch=5 - interior)
    n_assets = int(rng.integers(1, 6))
    integer = kind == "integer"
    n = tree.n_nodes

    def draw(size):
        if integer:
            return rng.integers(0, 4, size=size).astype(float)
        return rng.uniform(0.0, 2.0, size=size)

    prices = np.zeros((n, n_assets))
    inflows = np.zeros((n, n_assets))
    horizon = len(tree.grid.dates) - 1
    for node in reversed(range(n)):
        if tree.date_idx[node] == horizon:
            prices[node] = draw(n_assets)
            inflows[node] = draw(n_assets) * (rng.uniform() < 0.3)
            if kind == "rank_deficient" and rng.uniform() < 0.3:
                prices[node] = inflows[node] = 0.0  # a child paying nothing
            continue
        inflows[node] = draw(n_assets) * (rng.uniform() < 0.3) * (node != 0)
        kids = list(tree.children[node])
        pay = prices[kids] + inflows[kids]
        if kind == "rank_deficient" and len(kids) > 1:
            pay[-1] = pay[0]
            prices[kids[-1]], inflows[kids[-1]] = prices[kids[0]], inflows[kids[0]]
        if kind == "near_singular" and len(kids) > 1:
            # The last child pays the first's plus a tiny positive tilt,
            # so Y's smallest singular value is near the rank tolerance.
            tilt = rng.uniform(0.0, 1.0, size=n_assets) * 10.0 ** rng.uniform(-13, -9)
            pay[-1] = pay[0] + tilt
            prices[kids[-1]], inflows[kids[-1]] = pay[-1], 0.0
        w = draw(len(kids)) + (0.0 if integer else 0.05)
        if kind == "zero_weight":
            w[rng.uniform(size=len(kids)) < 0.4] = 0.0
            tiny = rng.uniform(size=len(kids)) < 0.3
            w[tiny] = -FEAS_TOL * rng.uniform(0.0, 2.0, size=int(tiny.sum()))
        price = w @ pay
        if kind == "outside_span":
            price = price * rng.uniform(0.5, 1.5, size=n_assets)
        prices[node] = np.maximum(price, 0.0)
        if not prices[node].any():
            prices[node, 0] = 1.0
    market = TradableSet(tree=tree, prices=prices, inflows=inflows)
    return market, tree, _restriction(rng, n_assets)


# --- the differential tests ---------------------------------------------------


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_check_consistency_matches_per_node_lp(seed, kind):
    market, tree, restriction = market_case(seed, kind)
    assert _outcome(_program, market, tree, restriction) == _outcome(
        oracle_check_consistency, market, tree, restriction
    )


def _system(rng, m, n):
    kind = int(rng.integers(4))
    if kind == 0:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
    else:
        A = rng.normal(size=(m, n))
    if kind == 2 and m > n:
        A[-1] = A[0] * rng.choice([0.0, 1.0, -2.0])  # a dependent row
    if kind == 3:
        # Smallest singular value near the rank tolerance.
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        sv = np.ones(min(m, n))
        sv[-1] = 1e-11 * 10.0 ** rng.uniform(-1, 1)
        A = (U * sv) @ Vt
    z = rng.uniform(0.0, 1.0, size=n)
    z[rng.uniform(size=n) < 0.3] = 0.0
    b = A @ z
    if rng.uniform() < 0.3:
        b = b + rng.normal(size=m) * 10.0 ** rng.uniform(-12, 0)
    return A, b


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_full_rank_vertices_match_solve_lp(seed):
    """Stacks of signed systems of one shape: every decided system has the
    bits of its own LP, and every system the LP solves with n kept rows
    is decided."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(max(1, n - 1), n + 3))
    systems = [_system(rng, m, n) for _ in range(int(rng.integers(1, 6)))]
    A = np.stack([a for a, _ in systems])
    b = np.stack([v for _, v in systems])
    decided, x = full_rank_vertices(A, b)
    for k, (a, v) in enumerate(systems):
        try:
            res = solve_lp(c=np.zeros(n), A_eq=a, b_eq=v, nonneg=True)
        except NumericalFailure:
            assert not decided[k]
            continue
        if decided[k]:
            assert res.status == "optimal"
            assert x[k].tobytes() == res.x.tobytes()
        else:
            # Undecided only where the row reduction keeps fewer than n
            # rows, or the LP finds no vertex.
            kept = lp._kept_rows(a[None], np.array([lp._RANK_TOL * lp._scale(a, v)]))[0]
            assert res.status != "optimal" or kept.sum() < n


# --- coverage -------------------------------------------------------------------


def test_generators_reach_the_closed_form_and_the_lp(monkeypatch):
    """Over fixed seeds every generator kind has nodes decided in closed
    form and nodes left to the LP. Between them they reach weights just
    below 0 that are clipped, exact zero weights, inconsistent nodes (the
    Farkas path), and index and basis restrictions."""
    closed, rest = {k: 0 for k in KINDS}, {k: 0 for k in KINDS}
    seen = {"clipped": 0, "zero": 0, "farkas": 0, "basis": 0, "indices": 0}
    calls = []

    def recording(A, b):
        calls.append((A, b, full_rank_vertices(A, b)))
        return calls[-1][2]

    monkeypatch.setattr(lp, "full_rank_vertices", recording)
    for kind in KINDS:
        for seed in range(30):
            market, tree, restriction = market_case(seed, kind)
            calls.clear()
            try:
                cert = check_consistency(market, tree, restriction)
            except NumericalFailure:
                continue
            for A, b, (decided, x) in calls:
                closed[kind] += int(decided.sum())
                rest[kind] += int((~decided).sum())
                for k in np.flatnonzero(decided):
                    z = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
                    seen["clipped"] += int(((z < -1e-12) & (x[k] == 0.0)).any())
                    seen["zero"] += int((x[k] == 0.0).any())
            seen["farkas"] += int(not cert.consistent)
            if restriction is not None:
                seen["basis" if restriction.basis is not None else "indices"] += 1
    assert all(closed.values()), closed
    assert all(rest.values()), rest
    assert all(seen.values()), seen


def test_clipped_weight_keeps_the_lp_bits():
    """A weight within FEAS_TOL below 0 is clipped to +0.0, as the LP's
    sum of its clipped solution gives it."""
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = np.array([0.5, -5e-10, 0.5 - 5e-10])
    decided, x = full_rank_vertices(Y[None], s[None])
    res = solve_lp(c=np.zeros(2), A_eq=Y, b_eq=s, nonneg=True)
    assert decided[0] and res.status == "optimal"
    assert x[0].tobytes() == res.x.tobytes()
    assert np.signbit(x[0]).tolist() == [False, False]
    # Further below 0 the system is infeasible, and left to the LP.
    decided, _ = full_rank_vertices(Y[None], (s * [1.0, 10.0, 1.0])[None])
    assert not decided[0]


@pytest.mark.parametrize("m, n", [(1, 2), (0, 1), (3, 0)])
def test_no_system_below_full_column_rank_is_decided(m, n):
    decided, x = full_rank_vertices(np.ones((2, m, n)), np.ones((2, m)))
    assert not decided.any() and x.shape == (2, n)
