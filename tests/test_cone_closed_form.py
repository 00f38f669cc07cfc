"""Differential tests of the stacked cone certificates.

``market.check_consistency`` decides every inner node's membership LP
with ``lp.cone_vertices``, one stacked vertex enumeration per run of
``ScenarioTree.sibling_groups`` (child count across dates), and then
projects the prices of the nodes where that LP is infeasible onto the
cone of their child payoffs, stacked by those runs through
``lp.solve_lp``. The oracle below is the per-node
loop of the frozen per-basis LP of ``lp_oracle`` at zero cost: the
membership LP of each node, and where that is not optimal the verdict
of ``lp_oracle.oracle_verdict``. On random markets the program must
give the same weights bit for bit (compared by ``float.hex``) where the
membership LP is optimal, the same side of the cone wherever the
oracle's LPs give it by more than the projection's tolerance, and the
same errors; every certificate it gives must hold when re-checked from
the market (``lp_oracle.projection_problems``).

The market generators build what the certificates must get right:
square and tall Y, rank-deficient Y (duplicate child payoffs, a child
paying nothing), weights that are exactly 0 or just below 0 (clipped by
the LP, signed zeros included), prices outside the span of Y (the
Farkas path), Y whose smallest singular value is near the rank
tolerance, and index and basis restrictions.

The kernel itself is held to the oracle's LP per system on stacks of
random systems built around its own rules (see ``_system``), and its
stacked dropped-row test to the per-system ``_dropped_rows``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval import market as market_module
from prodval.errors import NumericalFailure
from prodval.lp import FEAS_TOL, cone_vertices
from prodval.market import RestrictionSet, TradableSet, check_consistency

from lp_oracle import oracle_solve_lp, oracle_verdict, projection_problems
from util import random_tree


# --- oracle: the per-node LP loop, frozen -------------------------------------


def oracle_check_consistency(market, tree, restriction=None):
    """Per inner node (True, weights) where its membership LP is
    optimal, otherwise the side ``oracle_verdict`` gives: (False, None),
    or None where the LPs do not decide by the margin."""
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    B = restriction.matrix()
    verdicts = {}
    for node in range(tree.n_nodes):
        children = tree.children_of(node)
        if not children.size:
            continue
        Y = np.column_stack([B.T @ market.payoff(c) for c in children])
        s = B.T @ market.price(node)
        primal = oracle_solve_lp(np.zeros(len(children)), A_eq=Y, b_eq=s, nonneg=True)
        if primal.status == "optimal":
            verdicts[node] = (True, {c: float(primal.x[k]) for k, c in enumerate(children)})
        elif oracle_verdict(Y.T, s) is False:
            verdicts[node] = (False, None)
        else:
            verdicts[node] = None
    return verdicts


def _hex(verdicts):
    out = {}
    for node, verdict in verdicts.items():
        if verdict is None or not verdict[0]:
            out[node] = verdict
        else:
            out[node] = (True, {c: w.hex() for c, w in verdict[1].items()})
    return out


def _outcome(fn, *args):
    try:
        return _hex(fn(*args))
    except NumericalFailure as e:
        return ("raises", type(e).__name__, str(e))


def _program(market, tree, restriction):
    """The certificate's arrays as the oracle's verdicts: each inner
    node's weights, read from ``weights`` at its children, or (False,
    None) for a violation."""
    cert = check_consistency(market, tree, restriction)
    # What no verdict reads is NaN: the weights of the root and of the
    # children of inconsistent nodes, the violations of consistent nodes.
    bad = np.flatnonzero(~cert.consistent_at)
    unread = np.isin(tree.parent, bad) | (tree.parent < 0)
    assert np.isnan(cert.weights[unread]).all() and not np.isnan(cert.weights[~unread]).any()
    assert np.isnan(cert.violation[cert.consistent_at]).all()
    assert not np.isnan(cert.violation[~cert.consistent_at]).any()
    weights = cert.weights.tolist()
    return {
        node: (True, {c: weights[c] for c in tree.children_of(node).tolist()}) if consistent else (False, None)
        for node, consistent in enumerate(cert.consistent_at.tolist())
    }


def _certificate_problems(market, tree, restriction, nodes):
    """Per node of ``nodes`` whose certificate fails
    ``projection_problems`` in the restricted coordinates, what fails:
    the restricted violation u is read back from the full-space one, x =
    B u."""
    cert = check_consistency(market, tree, restriction)
    if restriction is None:
        restriction = RestrictionSet.full(market.n_assets)
    B = restriction.matrix()
    problems = {}
    for node in nodes:
        consistent = cert.consistent_at[node]
        kids = list(tree.children_of(node))
        Y = np.array([B.T @ market.payoff(c) for c in kids])
        s = B.T @ market.price(node)
        if consistent:
            found = projection_problems(Y, s, True, cert.weights[kids], None)
        else:
            u = np.linalg.lstsq(B, cert.violation[node], rcond=None)[0]
            found = projection_problems(Y, s, False, None, u)
            if np.abs(B @ u - cert.violation[node]).max() > 1e-9 * max(1.0, np.abs(u).max()):
                found.append("violation leaves the restriction")
        if found:
            problems[node] = found
    return problems


def _agree(market, tree, restriction):
    """(got, want): the program's and the oracle's outcomes, after
    asserting that they agree: the same errors, the same weights where
    the membership LP is optimal, and the same side wherever the oracle
    decides; and that each certificate at a node whose membership LP is
    not optimal, the projection's, passes ``_certificate_problems``."""
    got = _outcome(_program, market, tree, restriction)
    want = _outcome(oracle_check_consistency, market, tree, restriction)
    if got[0] == "raises" or want[0] == "raises":
        assert got == want
        return got, want
    for node, verdict in want.items():
        assert verdict is None or got[node] == verdict, (node, got[node], verdict)
    projected = [node for node, verdict in want.items() if verdict is None or not verdict[0]]
    assert _certificate_problems(market, tree, restriction, projected) == {}
    return got, want


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
        kids = list(tree.children_of(node))
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
    _agree(*market_case(seed, kind))


def test_nodes_without_a_farkas_vertex_are_decided():
    """On this market neither the membership LP nor the Farkas LP of
    nodes 6 and 11 has a vertex, so the oracle leaves them undecided
    (the Farkas path raised there). Both prices lie within FEAS_TOL of
    the cone, and the projection puts both inside it, with weights that
    rebuild the price."""
    got, want = _agree(*market_case(9460, "zero_weight"))
    assert [node for node, verdict in want.items() if verdict is None] == [6, 11]
    assert got[6][0] and got[11][0]


def test_every_zero_weight_market_decides():
    """Prices built from weights that are 0 or within 2 FEAS_TOL below 0
    lie on or just outside the cone: on seeds 0-399 neither LP has a
    vertex at 151 nodes. Every node is decided and every certificate
    holds (``_agree``), on both sides of the tolerance."""
    sides = set()
    undecided = 0
    for seed in range(400):
        got, want = _agree(*market_case(seed, "zero_weight"))
        for node, verdict in want.items():
            if verdict is None:
                undecided += 1
                sides.add(got[node][0])
    assert undecided == 151 and sides == {True, False}


def test_a_verdict_that_fails_its_check_raises(monkeypatch):
    """``check_consistency`` re-checks each projection verdict from the
    payoffs and price: a violation with the wrong sign (u.s = +1) fails
    it, and the error names the lowest such node by its label."""
    market, tree, restriction = market_case(2, "outside_span")
    assert check_consistency(market, tree, restriction).consistent_at.tolist()[:3] == [
        False, True, False,
    ]
    solve_lp = lp.solve_lp

    def flipped(Y, s):
        inside, lam, u = solve_lp(Y, s)
        return inside, lam, -u

    monkeypatch.setattr(lp, "solve_lp", flipped)
    with pytest.raises(NumericalFailure, match="failed its check at node 'n0'"):
        check_consistency(market, tree, restriction)


# --- coverage -------------------------------------------------------------------


def test_generators_reach_the_stack_and_the_projection(monkeypatch):
    """Over fixed seeds every generator kind has nodes whose weights come
    from the stacked kernel, at complete and at incomplete nodes between
    them. They reach weights just below 0 that are clipped, exact zero
    weights, inconsistent nodes, nodes that only the projection puts
    inside the cone, and index and basis restrictions."""
    stacked = {k: 0 for k in KINDS}
    seen = {"complete": 0, "incomplete": 0, "clipped": 0, "zero": 0, "violation": 0}
    seen.update(basis=0, indices=0, projected_inside=0)
    calls = []

    def recording(A, b):
        calls.append((A, b, cone_vertices(A, b)))
        return calls[-1][2]

    def projecting(Y, s):
        inside, lam, u = lp.solve_lp(Y, s)
        seen["projected_inside"] += int(inside.sum())
        return inside, lam, u

    stand_in = SimpleNamespace(cone_vertices=recording, solve_lp=projecting)
    monkeypatch.setattr(market_module, "lp", stand_in)
    for kind in KINDS:
        for seed in range(30):
            market, tree, restriction = market_case(seed, kind)
            calls.clear()
            try:
                cert = check_consistency(market, tree, restriction)
            except NumericalFailure:
                continue
            for A, b, (feasible, x) in calls:
                stacked[kind] += int(feasible.sum())
                for k in np.flatnonzero(feasible):
                    full = np.linalg.matrix_rank(A[k]) == A.shape[2]
                    seen["complete" if full else "incomplete"] += 1
                    z = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
                    seen["clipped"] += int(full and ((z < -1e-12) & (x[k] == 0.0)).any())
                    seen["zero"] += int((x[k] == 0.0).any())
            seen["violation"] += int(not cert.consistent)
            if restriction is not None:
                seen["basis" if restriction.basis is not None else "indices"] += 1
    assert all(stacked.values()), stacked
    assert all(seen.values()), seen


# --- the kernel against one LP per system ---------------------------------------


SYSTEM_KINDS = (
    "generic",
    "integer",
    "low_rank",
    "near_singular",
    "near_parallel",
    "zero_columns",
    "dependent_row",
    "failing",
)
RHS_KINDS = ("inside", "clipped", "outside", "noisy")


def _system(rng, m, n, kind, rhs):
    """One system A z = b of shape (m, n). ``kind`` shapes A:
    - integer: small integers (exact ties and exact dependence);
    - low_rank: some singular values 0, all of them at times (rank 0);
    - near_singular: the smallest singular value near the rank tolerance;
    - near_parallel: integer A whose last column is another one tilted by
      about 1e-12, so the bases holding both are near singular while b
      can still have an exact, non-negative basic solution on them;
    - zero_columns: some all-zero columns;
    - dependent_row: the last row a multiple of the first;
    - failing: rows 0 and 1 almost parallel and row 2 near their span,
      so the rank test drops row 2 though it is far from the kept rows.
    ``rhs`` shapes b = A z: z >= 0 with zeros (inside), an entry just
    below 0 (clipped), an entry well below 0 (outside), or b plus noise
    (noisy: outside the span, or dropped rows that are inconsistent)."""
    integer = kind in ("integer", "near_parallel")
    A = rng.integers(-3, 4, size=(m, n)).astype(float) if integer else rng.normal(size=(m, n))
    if kind in ("low_rank", "near_singular") and m:
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        sv = np.ones(min(m, n))
        if kind == "low_rank":
            sv[rng.uniform(size=len(sv)) < 0.5] = 0.0
        else:
            sv[-1] = 1e-11 * 10.0 ** rng.uniform(-1, 1)
        A = (U * sv) @ Vt
    if kind == "near_parallel" and n > 1 and m:
        A[:, -1] = A[:, int(rng.integers(n - 1))]
        A[int(rng.integers(m)), -1] += 10.0 ** rng.uniform(-13, -11.5)
    if kind == "zero_columns":
        A[:, rng.uniform(size=n) < 0.4] = 0.0
    if kind == "dependent_row" and m > 1:
        A[-1] = A[0] * rng.choice([0.0, 1.0, -2.0])
    if kind == "failing" and m > 2 and n > 2:
        v = rng.normal(size=n)
        A[1] = A[0] + 10.0 ** rng.uniform(-10.6, -10.0) * v
        A[2] = A[0] + v + 10.0 ** rng.uniform(-3, 0) * rng.normal(size=n)
    z = rng.uniform(0.0, 1.0, size=n)
    z[rng.uniform(size=n) < 0.3] = 0.0
    if kind == "near_parallel":
        z[-1] = 0.0
    if rhs == "clipped":
        z[int(rng.integers(n))] = -FEAS_TOL * rng.uniform(0.0, 2.0)
    if rhs == "outside":
        z[int(rng.integers(n))] = -rng.uniform(0.1, 1.0)
    b = A @ z
    if rhs == "noisy":
        b = b + rng.normal(size=m) * 10.0 ** rng.uniform(-12, 0)
    return A, b


def _stack(rng, draw):
    """A stack of systems of one shape, each of its own kinds: m below, at
    and above n, and ranks that differ from system to system."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, n + 3))
    systems = [
        _system(rng, m, n, draw(SYSTEM_KINDS), draw(RHS_KINDS))
        for _ in range(int(rng.integers(1, 7)))
    ]
    A = np.stack([a for a, _ in systems]).reshape(len(systems), m, n)
    b = np.stack([v for _, v in systems]).reshape(len(systems), m)
    return A, b


def _lp_outcome(A, b):
    """Per system of the stack: ("optimal", x bytes) or ("infeasible",),
    from the oracle's LP; or ("raises", message) for the first system
    whose LP raises."""
    out = []
    for a, v in zip(A, b):
        try:
            res = oracle_solve_lp(np.zeros(a.shape[1]), A_eq=a, b_eq=v, nonneg=True)
        except NumericalFailure as e:
            return ("raises", str(e))
        out.append(("optimal", res.x.tobytes()) if res.status == "optimal" else (res.status,))
    return out


def _kernel_outcome(A, b):
    try:
        feasible, x = cone_vertices(A, b)
    except NumericalFailure as e:
        return ("raises", str(e))
    return [("optimal", x[k].tobytes()) if feasible[k] else ("infeasible",) for k in range(len(A))]


def _dropped_statuses(A, b):
    """(stacked, per system) dropped-row statuses of the systems of A
    that drop a row."""
    scale = lp._scale(A, b)
    kept = lp._kept_rows(A, lp._RANK_TOL * scale)
    inconsistent, failed = lp._dropped_status(A, b, kept, scale)
    stacked = np.where(failed, "failed", np.where(inconsistent, "inconsistent", "implied"))
    some = ~kept.all(axis=1)
    each = [lp._dropped_rows(A[k], b[k], kept[k], scale[k]) for k in np.flatnonzero(some)]
    return stacked[some].tolist(), each


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_cone_vertices_match_solve_lp(seed):
    """Every system of a stack gets the oracle LP's feasibility and x bits,
    and the stack raises the first NumericalFailure the LPs raise; the
    stacked dropped-row test gives every system its per-system status."""
    rng = np.random.default_rng(seed)
    A, b = _stack(rng, lambda kinds: kinds[int(rng.integers(len(kinds)))])
    assert _kernel_outcome(A, b) == _lp_outcome(A, b)
    stacked, each = _dropped_statuses(A, b)
    assert stacked == each


def test_kernel_generators_reach_every_case(monkeypatch):
    """Over fixed seeds the system generators reach: each shape class,
    stacks of mixed rank, rank 0, all-zero columns, dropped rows that are
    implied, inconsistent and failing, bases that pass the residual and
    sign filters but fail the conditioning test, clipped weights, and
    infeasible systems."""
    seen = dict.fromkeys(
        "m<n m=n m>n mixed_rank rank_0 zero_column implied inconsistent failed "
        "ill_conditioned clipped infeasible".split(),
        0,
    )
    full_row_rank = lp._full_row_rank

    def conditioning(M, tol):
        passed = full_row_rank(M, tol)
        seen["ill_conditioned"] += int((~passed).sum())
        return passed

    first_vertices = lp._first_vertices

    def spied(*args):
        # Only the enumeration's conditioning test is counted, not the
        # row reduction's rank test.
        with monkeypatch.context() as m:
            m.setattr(lp, "_full_row_rank", conditioning)
            return first_vertices(*args)

    monkeypatch.setattr(lp, "_first_vertices", spied)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        A, b = _stack(rng, lambda kinds: kinds[int(rng.integers(len(kinds)))])
        N, m, n = A.shape
        seen["m<n" if m < n else "m=n" if m == n else "m>n"] += 1
        ranks = {int(np.linalg.matrix_rank(a)) if m else 0 for a in A}
        seen["mixed_rank"] += int(len(ranks) > 1)
        seen["rank_0"] += int(m > 0 and 0 in ranks)
        seen["zero_column"] += int((~A.any(axis=1)).any())
        for status in _dropped_statuses(A, b)[1]:
            seen[status] += 1
        outcome = _kernel_outcome(A, b)
        if outcome[0] == "raises":
            continue
        for (a, v), got in zip(zip(A, b), outcome):
            if got[0] != "optimal":
                seen["infeasible"] += 1
                continue
            x = np.frombuffer(got[1])
            z = np.linalg.lstsq(a, v, rcond=None)[0] if m else x
            seen["clipped"] += int(((z < -1e-12) & (z > -2 * FEAS_TOL) & (x == 0.0)).any())
    assert all(seen.values()), seen


def test_chunks_decide_alike(monkeypatch):
    """The (system, basis) budget splits the enumeration without changing
    a bit, and no stacked solve holds more than the budget or one
    system's chunk of bases."""
    sizes = []
    slogdet = np.linalg.slogdet

    def recording(B):
        sizes.append(B.shape[0] * B.shape[1])
        return slogdet(B)

    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        cases.append(_stack(rng, lambda kinds: kinds[int(rng.integers(len(kinds)))]))
    whole = [_kernel_outcome(A, b) for A, b in cases]
    monkeypatch.setattr(lp, "_VERTEX_CHUNK", 3)
    monkeypatch.setattr(lp, "_CHUNK", 2)
    monkeypatch.setattr(lp.np.linalg, "slogdet", recording)
    assert [_kernel_outcome(A, b) for A, b in cases] == whole
    assert sizes and max(sizes) <= 3


def test_too_many_bases_raise_as_the_lp_does():
    """C(23, 11) bases exceed the enumeration's limit; the stack raises the
    LP's message for the first such system, before enumerating."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 11, 23))
    A[0, 1:] = 0.0  # one kept row: C(23, 1) bases, solved
    b = (A @ rng.uniform(size=(3, 23, 1)))[..., 0]
    assert _kernel_outcome(A, b) == _lp_outcome(A, b)
    assert _kernel_outcome(A, b) == ("raises", "basis enumeration too large: C(23,11)")


def test_clipped_weight_keeps_the_lp_bits():
    """A weight within FEAS_TOL below 0 is clipped to +0.0, as the LP's
    sum of its clipped solution gives it."""
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = np.array([0.5, -5e-10, 0.5 - 5e-10])
    feasible, x = cone_vertices(Y[None], s[None])
    res = oracle_solve_lp(np.zeros(2), A_eq=Y, b_eq=s, nonneg=True)
    assert feasible[0] and res.status == "optimal"
    assert x[0].tobytes() == res.x.tobytes()
    assert np.signbit(x[0]).tolist() == [False, False]
    # Further below 0 the system is infeasible, for the LP too.
    s = s * [1.0, 10.0, 1.0]
    feasible, _ = cone_vertices(Y[None], s[None])
    assert not feasible[0]
    assert oracle_solve_lp(np.zeros(2), A_eq=Y, b_eq=s, nonneg=True).status == "infeasible"


@pytest.mark.parametrize("N, m, n", [(2, 1, 2), (2, 0, 1), (0, 2, 3)])
def test_degenerate_shapes_match_the_lp(N, m, n):
    """No constraint rows (z = 0 is the vertex), fewer rows than columns,
    and an empty stack."""
    A, b = np.ones((N, m, n)), np.ones((N, m))
    feasible, x = cone_vertices(A, b)
    assert x.shape == (N, n)
    assert _kernel_outcome(A, b) == _lp_outcome(A, b)
