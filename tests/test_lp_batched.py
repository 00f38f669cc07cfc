"""Differential test of the chunked basis enumeration in ``lp.solve_standard``.

The reference is ``lp_oracle.oracle_solve_standard``, a frozen copy of
the per-basis loop the chunked kernel replaced, with the kernel's
conditioning rule applied to every basis. At an all-zero cost its
answer is the first vertex in combinations order, the kernel's. The
kernel tests the conditioning rule only on a basis that passes the
other filters, and leaves all-zero columns out of the enumeration,
which must give the same answer.

On random standard-form problems, and through ``solve_lp`` with free
variables and inequality rows, the kernel must reproduce the oracle's
status and ``x`` bit for bit at zero cost, and raise the same errors.
"""

from math import comb

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.errors import NumericalFailure
from prodval.lp import solve_lp, solve_standard

from lp_oracle import oracle_solve_lp, oracle_solve_standard


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


def _bits(res):
    return res.status, None if res.x is None else res.x.tobytes()


def _outcome(solver, *args, **kwargs):
    try:
        return _bits(solver(*args, **kwargs))
    except NumericalFailure as e:
        return ("raises", str(e))


# --- the differential tests -----------------------------------------------------


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_solve_standard_matches_per_basis_loop(seed, kind):
    A, b = standard_problem(seed, kind)
    want = _outcome(oracle_solve_standard, np.zeros(A.shape[1]), A, b)
    assert _outcome(solve_standard, A, b) == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_lp_with_free_variables_matches_per_basis_loop(seed):
    rng = np.random.default_rng(seed)
    integer = bool(rng.integers(2))
    n = int(rng.integers(1, 4))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 4))
    nonneg = [bool(v) for v in rng.integers(2, size=n)]
    A_eq = _matrix(rng, (m_eq, n), integer) if m_eq else None
    b_eq = _matrix(rng, m_eq, integer) if m_eq else None
    # Without equality rows, A_ub (if need be with no rows) gives n.
    A_ub = _matrix(rng, (m_ub, n), integer) if m_ub or not m_eq else None
    b_ub = np.abs(_matrix(rng, m_ub, integer)) if m_ub or not m_eq else None
    args = dict(A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, nonneg=nonneg)
    want = _outcome(oracle_solve_lp, np.zeros(n), **args)
    assert _outcome(solve_lp, **args) == want


def test_generators_cover_every_case():
    """Across fixed seeds, the generators reach what the kernel must get
    right: exactly singular bases, ill-conditioned bases, both statuses,
    empty constraint sets, all-zero columns, and a first vertex found
    past the first chunk."""
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
