"""Differential tests of the stacked basis enumeration in
``lp.cone_vertices`` and of the stacked projection in ``lp.solve_lp``.

The reference is ``lp_oracle.oracle_solve_standard``, a frozen copy of
the per-basis loop the chunked kernel replaced, with the kernel's
conditioning rule applied to every basis. At an all-zero cost its
answer is the first vertex in combinations order, the kernel's. The
kernel tests the conditioning rule only on a basis that passes the
other filters, and leaves the columns that are zero in every system of
a stack out of the enumeration, which must give the same answer.

On stacks of random standard-form problems, padded to one shape with
zero rows and columns, the kernel must give every system the oracle's
status and ``x`` bit for bit at zero cost, and a stack must raise the
error of its first system that raises. The kernel adds 0.0 to the
clipped vertex, so a -0.0 of the oracle's reads +0.0.

``solve_lp`` projects each price s of a stack onto the cone of its
child payoffs Y. On random stacks, with prices inside the cone, outside
it and within about FEAS_TOL of its boundary, every verdict must hold
when re-checked from Y and s (``lp_oracle.projection_problems``), and
it must be the side that the oracle's membership or Farkas LP gives
wherever that LP gives it by more than the tolerance
(``lp_oracle.oracle_verdict``).
"""

from math import comb

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.errors import NumericalFailure
from prodval.lp import FEAS_TOL, cone_vertices, solve_lp

from lp_oracle import (
    oracle_solve_lp,
    oracle_solve_standard,
    oracle_verdict,
    projection_problems,
)


# --- generators ---------------------------------------------------------------


def _matrix(rng, shape, integer):
    if integer:
        return rng.integers(-3, 4, size=shape).astype(float)
    return rng.normal(size=shape)


def standard_problem(seed: int, kind: str):
    """(A, b) in standard form; ``kind`` picks the structure."""
    rng = np.random.default_rng(seed)
    integer = bool(rng.integers(2))
    if kind == "split_free":
        # x = x+ - x-: every basis holding both halves is exactly singular.
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        A0 = _matrix(rng, (m, k), integer)
        A = np.hstack([A0, -A0, np.eye(m)[:, : int(rng.integers(0, m + 1))]])
        b = _matrix(rng, m, integer)
    elif kind == "dependent_rows":
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, m + 5))
        A0 = np.abs(_matrix(rng, (m, n), integer))
        x0 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.6)
        extra = [A0[int(rng.integers(m))]]  # a duplicate row
        if m > 1:
            extra.append(A0[0] - 2.0 * A0[m - 1])  # a dependent row
        A = np.vstack([A0] + extra)
        b = A @ x0
        if rng.uniform() < 0.3:
            b[-1] += 1.0  # inconsistent with the rows it depends on
        order = rng.permutation(A.shape[0])
        A, b = A[order], b[order]
    elif kind == "tall":
        # More rows than columns, as in a cone-weight certificate over
        # fewer children than tradables: the row reduction stops once it
        # holds n rows, and the others must be implied by them.
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, n + 4))
        A = _matrix(rng, (m, n), integer)
        b = A @ rng.uniform(0.0, 1.0, n)
        if rng.uniform() < 0.3:
            b[int(rng.integers(m))] += 1.0
    elif kind == "degenerate":
        # b is a combination of fewer than r columns, so many bases share
        # one vertex.
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, m + 6))
        A = rng.integers(0, 3, size=(m, n)).astype(float)
        support = rng.choice(n, size=int(rng.integers(1, m)), replace=False)
        x0 = np.zeros(n)
        x0[support] = rng.integers(1, 3, size=len(support))
        b = A @ x0
    elif kind == "infeasible":
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, m + 5))
        A = np.abs(_matrix(rng, (m, n), integer))
        b = -np.abs(_matrix(rng, m, integer)) - 0.5
        b[rng.uniform(size=m) < 0.3] *= -1.0
    elif kind == "ray":
        # A (d, 1) = 0 with d > 0: the feasible set is unbounded.
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 2, m + 6))
        A = _matrix(rng, (m, n), integer)
        d = rng.uniform(0.5, 1.5, n - 1)
        A[:, -1] = -(A[:, :-1] @ d)
        b = A @ rng.uniform(0.0, 1.0, n)
    elif kind == "near_parallel":
        # The shape of a neutrality audit over free portfolio weights:
        # s.x = 1 and y.x >= 0, where each child's payoff y is the price
        # s times a return t, rounded. Bases pairing the halves of
        # different weights are singular up to rounding and solve to
        # about 2**53 with a tiny residual.
        k = int(rng.integers(2, 5))
        s = rng.uniform(0.1, 1.0, k) * (rng.uniform(size=k) < 0.8)
        rows = [s * t for t in rng.uniform(0.9, 1.1, int(rng.integers(1, 3)))]
        A = np.zeros((1 + len(rows), 2 * k + len(rows)))
        A[0, :k], A[0, k : 2 * k] = s, -s
        for i, y in enumerate(rows, start=1):
            A[i, :k], A[i, k : 2 * k], A[i, 2 * k + i - 1] = -y, y, 1.0
        b = np.zeros(A.shape[0])
        b[0] = 1.0
    elif kind == "zero_columns":
        # The Farkas shape of near_parallel with one restricted coordinate
        # whose price and payoffs are all zero at the node, so both halves
        # of its weight are all-zero columns.
        k = int(rng.integers(2, 5))
        children = int(rng.integers(1, 4))
        s = _matrix(rng, k, integer)
        Y = _matrix(rng, (children, k), integer)
        j = int(rng.integers(k))
        s[j] = 0.0
        Y[:, j] = 0.0
        A = np.zeros((1 + children, 2 * k + children))
        A[0, :k], A[0, k : 2 * k] = s, -s
        A[1:, :k], A[1:, k : 2 * k], A[1:, 2 * k :] = -Y, Y, np.eye(children)
        b = np.zeros(A.shape[0])
        b[0] = 1.0
    elif kind == "no_rows":
        m = int(rng.integers(0, 3))
        n = int(rng.integers(1, 5))
        A = np.zeros((m, n))
        b = np.zeros(m)
    elif kind == "many_bases":
        # C(n, r) above one chunk, and the first vertex past the first
        # chunk: each of the first 4 columns is a negative multiple of b,
        # so every regular basis holding one solves to a negative weight.
        m = int(rng.integers(4, 6))
        n = int(rng.integers(13, 15))
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        if not integer:
            A += rng.normal(scale=1e-3, size=(m, n))
        b = A[:, 4:] @ rng.uniform(0.0, 1.0, n - 4)
        A[:, :4] = -np.outer(b, rng.integers(1, 4, size=4))
    else:
        raise ValueError(kind)
    return A, b


KINDS = (
    "split_free",
    "dependent_rows",
    "tall",
    "degenerate",
    "infeasible",
    "ray",
    "near_parallel",
    "zero_columns",
    "no_rows",
    "many_bases",
)


def standard_stack(seed: int, kind: str):
    """1 to 4 problems of one kind, each padded with zero rows and columns
    to the largest shape among them: (A, b) of shape (N, m, n) and (N, m).
    A padded column is zero in every system, and a column of the smaller
    problems' padding is zero in only some."""
    seeds = np.random.default_rng(seed).integers(2**32, size=int(seed % 4) + 1)
    problems = [standard_problem(int(s), kind) for s in seeds]
    m = max(a.shape[0] for a, _ in problems)
    n = max(a.shape[1] for a, _ in problems) + int(seed % 3 == 0)
    A, b = np.zeros((len(problems), m, n)), np.zeros((len(problems), m))
    for k, (a, v) in enumerate(problems):
        A[k, : a.shape[0], : a.shape[1]] = a
        b[k, : len(v)] = v
    return A, b


def farkas_stack(seed: int):
    """(Y, s) of 1 to 4 Farkas LPs of one shape, (N, K, d) and (N, d):
    some with the price inside the cone of the child payoffs (so without
    a vertex), some with the price a combination of the payoffs with
    weights 0 or within about 2 FEAS_TOL below 0 (on or just outside the
    cone's boundary), some with a coordinate whose price and payoffs are
    zero."""
    rng = np.random.default_rng(seed)
    integer = bool(rng.integers(2))
    N, K, d = (int(v) for v in rng.integers(1, (5, 5, 4)))
    Y = _matrix(rng, (N, K, d), integer)
    s = _matrix(rng, (N, d), integer)
    draw = rng.uniform(size=N)
    w = rng.uniform(0.0, 1.0, (N, K))
    near = draw >= 0.8
    w[near] *= rng.uniform(size=(int(near.sum()), K)) < 0.5
    w[near] -= FEAS_TOL * rng.uniform(0.0, 2.0, (int(near.sum()), K)) * (
        rng.uniform(size=(int(near.sum()), K)) < 0.5
    )
    cone = (draw < 0.3) | near
    s[cone] = np.einsum("nk,nkd->nd", w, Y)[cone]
    zero = np.flatnonzero(rng.uniform(size=N) < 0.3)
    j = rng.integers(d, size=len(zero))
    Y[zero, :, j] = 0.0
    s[zero, j] = 0.0
    return Y, s


def oracle_farkas(Y, s):
    """One node's Farkas LP by the per-basis oracle."""
    return oracle_solve_lp(
        np.zeros(len(s)), A_eq=s[None], b_eq=[-1.0], A_ub=-Y, b_ub=np.zeros(len(Y)), nonneg=False
    )


def _outcome(solver, *args, **kwargs):
    """The oracle's ("optimal", x bytes), ("infeasible", None) or
    ("raises", message)."""
    try:
        res = solver(*args, **kwargs)
    except NumericalFailure as e:
        return ("raises", str(e))
    return res.status, None if res.x is None else (res.x + 0.0).tobytes()


def _stack_outcome(feasible, x):
    return [
        ("optimal", x[k].tobytes()) if feasible[k] else ("infeasible", None)
        for k in range(len(x))
    ]


def _first_raise(outcomes):
    """A stack's outcome from its systems': the first raise, if any."""
    return next((o for o in outcomes if o[0] == "raises"), outcomes)


# --- the differential tests -----------------------------------------------------


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_cone_vertices_match_per_basis_loop(seed, kind):
    A, b = standard_stack(seed, kind)
    want = [_outcome(oracle_solve_standard, np.zeros(A.shape[2]), a, v) for a, v in zip(A, b)]
    try:
        got = _stack_outcome(*cone_vertices(A, b))
    except NumericalFailure as e:
        got = ("raises", str(e))
    assert got == _first_raise(want)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_lp_verdicts_hold_and_match_the_oracle(seed):
    Y, s = farkas_stack(seed)
    inside, lam, u = solve_lp(Y, s)
    for k in range(len(s)):
        assert projection_problems(Y[k], s[k], inside[k], lam[k], u[k]) == [], k
        want = oracle_verdict(Y[k], s[k])
        assert want is None or inside[k] == want, k


def test_generators_cover_every_case():
    """Across fixed seeds, the generators reach what the kernel must get
    right: exactly singular bases, ill-conditioned bases, both statuses,
    empty constraint sets, all-zero columns, a first vertex found past
    the first chunk, and stacks that mix both statuses."""
    seen = {"singular": 0, "ill_conditioned": 0, "late_vertex": 0}
    statuses = {kind: set() for kind in KINDS}
    for kind in KINDS:
        for seed in range(40):
            A, b = standard_problem(seed, kind)
            stats = {"singular": 0, "ill_conditioned": 0, "incumbent_index": -1}
            res = oracle_solve_standard(np.zeros(A.shape[1]), A, b, stats=stats)
            statuses[kind].add(res.status)
            seen["singular"] += stats["singular"]
            seen["ill_conditioned"] += stats["ill_conditioned"]
            seen["late_vertex"] += stats["incumbent_index"] >= lp._CHUNK
    assert all(seen.values()), seen
    assert {"optimal", "infeasible"} <= statuses["dependent_rows"]
    assert {"optimal", "infeasible"} <= statuses["tall"]
    assert "infeasible" in statuses["infeasible"]
    for kind in ("degenerate", "ray", "no_rows", "zero_columns", "many_bases"):
        assert "optimal" in statuses[kind], kind
    assert any(
        not A.any(axis=0).all()
        for A in (standard_problem(s, "zero_columns")[0] for s in range(5))
    )
    assert any(
        comb(A.shape[1], A.shape[0]) > lp._CHUNK
        for A in (standard_problem(s, "many_bases")[0] for s in range(5))
    )
    mixed = 0
    for seed in range(40):
        A, b = standard_stack(seed, KINDS[seed % len(KINDS)])
        statuses = {oracle_solve_standard(np.zeros(A.shape[2]), a, v).status for a, v in zip(A, b)}
        mixed += statuses == {"optimal", "infeasible"}
    assert mixed
    farkas, verdicts = set(), set()
    for seed in range(40):
        Y, s = farkas_stack(seed)
        inside = solve_lp(Y, s)[0]
        for y, t, got in zip(Y, s, inside.tolist()):
            zero_coordinate = bool((~y.any(axis=0) & (t == 0.0)).any())
            farkas.add((oracle_farkas(y, t).status, zero_coordinate))
            verdicts.add((oracle_verdict(y, t), got))
    assert farkas >= {("optimal", False), ("infeasible", False), ("optimal", True)}
    # Both sides as the LPs give them, and nodes too near the boundary
    # for the LPs to say, decided both ways.
    assert verdicts >= {(True, True), (False, False), (None, True), (None, False)}, verdicts
