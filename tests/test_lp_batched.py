"""Differential test of the chunked basis enumeration in ``lp.solve_standard``.

The oracle below is a frozen copy of the per-basis loop the chunked
kernel replaced: the greedy row reduction with its per-prefix rank test,
then one ``np.linalg.solve`` per basis in ``itertools.combinations``
order. It carries the one rule the kernel added: a basis whose smallest
singular value is at most ``_RANK_TOL * scale`` is not a vertex. The
oracle applies that rule to every basis; the kernel only to a basis
about to become the incumbent, which must give the same answer.

The oracle decides boundedness the old way, by enumerating the whole
ray LP (min c.d over d >= 0, A d = 0, sum d = 1) after every optimum
with a nonzero cost. The kernel proves most optima bounded from the
reduced costs of the optimal basis, stops the ray LP at its first
vertex below -FEAS_TOL, stops at the first vertex when every cost is
zero, and leaves all-zero columns out of the enumeration.

On random standard-form problems, and through ``solve_lp`` with free
variables and inequality rows, the kernel must reproduce the oracle's
status, ``x`` and objective bit for bit, and raise the same errors.
"""

from contextlib import contextmanager
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.errors import NumericalFailure
from prodval.lp import FEAS_TOL, LPResult, solve_lp, solve_standard


# --- oracle: the per-basis loop, frozen, plus the conditioning rule ----------


def _oracle_independent_rows(A, b, scale):
    m = A.shape[0]
    kept = []
    for i in range(m):
        rows = kept + [i]
        if np.linalg.matrix_rank(A[rows], tol=lp._RANK_TOL * scale) == len(rows):
            kept.append(i)
    Ak, bk = A[kept], b[kept]
    kept_set = set(kept)
    for i in range(m):
        if i in kept_set:
            continue
        if not kept:
            if abs(float(b[i])) > FEAS_TOL * scale:
                return None
            continue
        coef, *_ = np.linalg.lstsq(Ak.T, A[i], rcond=None)
        if float(np.abs(Ak.T @ coef - A[i]).max(initial=0.0)) > FEAS_TOL * scale:
            raise NumericalFailure("row reduction failed to express a dependent row")
        if abs(float(coef @ bk) - float(b[i])) > FEAS_TOL * scale:
            return None
    return Ak, bk


def oracle_solve_standard(c, A, b, check_ray=True, stats=None):
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    reduced = _oracle_independent_rows(A, b, scale)
    if reduced is None:
        return LPResult("infeasible")
    A, b = reduced
    r = A.shape[0]
    if r == 0:
        if check_ray and bool((c < -FEAS_TOL).any()):
            return LPResult("unbounded")
        return LPResult("optimal", np.zeros(n), 0.0)
    if comb(n, r) > lp._MAX_BASES:
        raise NumericalFailure(f"basis enumeration too large: C({n},{r})")
    best_obj = None
    best_x = None
    for index, J in enumerate(combinations(range(n), r)):
        B = A[:, J]
        try:
            zJ = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            if stats is not None:
                stats["singular"] += 1
            continue
        if not np.all(np.isfinite(zJ)):
            continue
        if float(np.abs(B @ zJ - b).max(initial=0.0)) > FEAS_TOL:
            continue
        if zJ.min(initial=0.0) < -FEAS_TOL:
            continue
        if np.linalg.svd(B, compute_uv=False)[-1] <= lp._RANK_TOL * scale:
            if stats is not None:
                stats["ill_conditioned"] += 1
            continue
        x = np.zeros(n)
        x[list(J)] = np.clip(zJ, 0.0, None)
        obj = float(c @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
            if stats is not None:
                stats["incumbent_index"] = index
    if best_x is None:
        return LPResult("infeasible")
    if check_ray and bool(np.abs(c).max(initial=0.0) > 0.0):
        ray = oracle_solve_standard(
            c,
            np.vstack([A, np.ones((1, n))]),
            np.concatenate([np.zeros(r), [1.0]]),
            check_ray=False,
        )
        if ray.status == "optimal" and ray.objective < -FEAS_TOL:
            return LPResult("unbounded")
    return LPResult("optimal", best_x, best_obj)


@contextmanager
def _oracle_kernel():
    """Route ``solve_lp`` through the oracle (it calls the module global)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve_standard", oracle_solve_standard)
        yield


# --- generators ---------------------------------------------------------------


def _matrix(rng, shape, integer):
    if integer:
        return rng.integers(-3, 4, size=shape).astype(float)
    return rng.normal(size=shape)


def standard_problem(seed: int, kind: str):
    """(c, A, b) in standard form; ``kind`` picks the structure."""
    rng = np.random.default_rng(seed)
    integer = bool(rng.integers(2))
    if kind == "split_free":
        # x = x+ - x-: every basis holding both halves is exactly singular.
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        A0 = _matrix(rng, (m, k), integer)
        A = np.hstack([A0, -A0, np.eye(m)[:, : int(rng.integers(0, m + 1))]])
        b = _matrix(rng, m, integer)
        c0 = _matrix(rng, k, integer)
        c = np.concatenate([c0, -c0, rng.uniform(0.0, 1.0, A.shape[1] - 2 * k)])
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
        c = _matrix(rng, n, integer)
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
        c = _matrix(rng, n, integer)
    elif kind == "degenerate":
        # b is a combination of fewer than r columns, so many bases share
        # one vertex; small integer costs make objective ties.
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, m + 6))
        A = rng.integers(0, 3, size=(m, n)).astype(float)
        support = rng.choice(n, size=int(rng.integers(1, m)), replace=False)
        x0 = np.zeros(n)
        x0[support] = rng.integers(1, 3, size=len(support))
        b = A @ x0
        c = rng.integers(0, 3, size=n).astype(float)
    elif kind == "infeasible":
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, m + 5))
        A = np.abs(_matrix(rng, (m, n), integer))
        b = -np.abs(_matrix(rng, m, integer)) - 0.5
        b[rng.uniform(size=m) < 0.3] *= -1.0
        c = _matrix(rng, n, integer)
    elif kind == "unbounded":
        # A (d, 1) = 0 with d > 0 and c.(d, 1) < 0: an improving ray.
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 2, m + 6))
        A = _matrix(rng, (m, n), integer)
        d = rng.uniform(0.5, 1.5, n - 1)
        A[:, -1] = -(A[:, :-1] @ d)
        x0 = rng.uniform(0.0, 1.0, n)
        b = A @ x0
        c = _matrix(rng, n, integer)
        c[-1] = -abs(c[-1]) - float(d @ np.abs(c[:-1]))
    elif kind == "near_parallel":
        # The shape of a neutrality audit over free portfolio weights:
        # min y.x with s.x = 1 and y.x >= 0, where each child's payoff y
        # is the price s times a return t, rounded. Bases pairing the
        # halves of different weights are singular up to rounding and
        # solve to about 2**53 with a tiny residual.
        k = int(rng.integers(2, 5))
        s = rng.uniform(0.1, 1.0, k) * (rng.uniform(size=k) < 0.8)
        rows = [s * t for t in rng.uniform(0.9, 1.1, int(rng.integers(1, 3)))]
        A = np.zeros((1 + len(rows), 2 * k + len(rows)))
        A[0, :k], A[0, k : 2 * k] = s, -s
        for i, y in enumerate(rows, start=1):
            A[i, :k], A[i, k : 2 * k], A[i, 2 * k + i - 1] = -y, y, 1.0
        b = np.zeros(A.shape[0])
        b[0] = 1.0
        c = np.concatenate([rows[0], -rows[0], np.zeros(len(rows))])
    elif kind == "zero_columns":
        # The audit shape of near_parallel with one restricted coordinate
        # whose price and payoffs are all zero at the node, so both halves
        # of its weight are all-zero columns. Its cost is zero, as in the
        # audits, or not, which makes one half an improving ray.
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
        cost = rng.uniform(0.1, 1.0, children) @ Y * rng.choice([-1.0, 1.0])
        if rng.uniform() < 0.3:
            cost[j] = _matrix(rng, 1, integer)[0]
        c = np.concatenate([cost, -cost, np.zeros(children)])
    elif kind == "no_rows":
        m = int(rng.integers(0, 3))
        n = int(rng.integers(1, 5))
        A = np.zeros((m, n))
        b = np.zeros(m)
        c = _matrix(rng, n, integer)
    elif kind == "many_bases":
        # C(n, r) above one chunk: the incumbent changes across chunks.
        m = int(rng.integers(4, 6))
        n = int(rng.integers(13, 15))
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        if not integer:
            A += rng.normal(scale=1e-3, size=(m, n))
        b = A @ rng.uniform(0.0, 1.0, n)
        c = rng.integers(-2, 3, size=n).astype(float)
        # Late columns are cheapest, so the best bases come late in
        # combinations order; a zero cost makes every feasible basis tie.
        if rng.uniform() < 0.2:
            c[:] = 0.0
        else:
            c -= np.linspace(0.0, 2.0, n)
            c[: m + 1] = np.abs(c[: m + 1]) + 5.0
    else:
        raise ValueError(kind)
    return c, A, b


KINDS = (
    "split_free",
    "dependent_rows",
    "tall",
    "degenerate",
    "infeasible",
    "unbounded",
    "near_parallel",
    "zero_columns",
    "no_rows",
    "many_bases",
)


def _bits(res):
    x = None if res.x is None else res.x.tobytes()
    obj = None if res.objective is None else np.float64(res.objective).tobytes()
    return res.status, x, obj


def _outcome(solver, *args, **kwargs):
    try:
        return _bits(solver(*args, **kwargs))
    except NumericalFailure as e:
        return ("raises", str(e))


# --- the differential tests -----------------------------------------------------


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_solve_standard_matches_per_basis_loop(seed, kind):
    c, A, b = standard_problem(seed, kind)
    assert _outcome(solve_standard, c, A, b) == _outcome(oracle_solve_standard, c, A, b)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_lp_with_free_variables_matches_per_basis_loop(seed):
    rng = np.random.default_rng(seed)
    integer = bool(rng.integers(2))
    n = int(rng.integers(1, 4))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 4))
    nonneg = [bool(v) for v in rng.integers(2, size=n)]
    c = _matrix(rng, n, integer)
    A_eq = _matrix(rng, (m_eq, n), integer) if m_eq else None
    b_eq = _matrix(rng, m_eq, integer) if m_eq else None
    A_ub = _matrix(rng, (m_ub, n), integer) if m_ub else None
    b_ub = np.abs(_matrix(rng, m_ub, integer)) if m_ub else None
    args = dict(c=c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, nonneg=nonneg)
    got = _outcome(solve_lp, **args)
    with _oracle_kernel():
        want = _outcome(solve_lp, **args)
    assert got == want


def _recorded(monkeypatch, name):
    """Route the kernel's ``lp.<name>`` through a wrapper; returns the
    list of its results, one per call."""
    results = []
    fn = getattr(lp, name)

    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(lp, name, wrapper)
    return results


def test_generators_cover_every_case(monkeypatch):
    """Across fixed seeds, the generators reach what the kernel must get
    right: exactly singular bases, ill-conditioned bases, every status,
    empty constraint sets, all-zero columns, an incumbent found past the
    first chunk, and the three ways an optimum is checked for a ray:
    bounded by the optimal basis's reduced costs, bounded only after the
    ray LP (a degenerate optimum with a negative reduced cost), and
    unbounded."""
    seen = {"singular": 0, "ill_conditioned": 0, "late_incumbent": 0}
    statuses = {kind: set() for kind in KINDS}
    rays = {"certified": 0, "bounded_after_ray": 0, "unbounded_by_ray": 0}
    certified = _recorded(monkeypatch, "_bounded_by_basis")
    rayed = _recorded(monkeypatch, "_improving_ray")
    for kind in KINDS:
        for seed in range(40):
            c, A, b = standard_problem(seed, kind)
            stats = {"singular": 0, "ill_conditioned": 0, "incumbent_index": -1}
            res = oracle_solve_standard(c, A, b, stats=stats)
            statuses[kind].add(res.status)
            seen["singular"] += stats["singular"]
            seen["ill_conditioned"] += stats["ill_conditioned"]
            seen["late_incumbent"] += stats["incumbent_index"] >= lp._CHUNK
            certified.clear()
            rayed.clear()
            try:
                solve_standard(c, A, b)
            except NumericalFailure:
                continue
            rays["certified"] += certified == [True]
            rays["bounded_after_ray"] += rayed == [False]
            rays["unbounded_by_ray"] += rayed == [True]
    assert seen["singular"] and seen["ill_conditioned"] and seen["late_incumbent"]
    assert all(rays.values()), rays
    assert {"optimal", "infeasible"} <= statuses["dependent_rows"]
    assert {"optimal", "infeasible"} <= statuses["tall"]
    assert "infeasible" in statuses["infeasible"]
    assert "unbounded" in statuses["unbounded"]
    assert {"optimal", "unbounded"} <= statuses["no_rows"]
    assert {"optimal", "unbounded"} <= statuses["zero_columns"]
    assert "optimal" in statuses["degenerate"] and "optimal" in statuses["many_bases"]
    assert any(
        comb(A.shape[1], A.shape[0]) > lp._CHUNK
        for A in (standard_problem(s, "many_bases")[1] for s in range(5))
    )


def test_improving_ray_runs_only_without_certificate(monkeypatch):
    """The ray LP runs only when the optimal basis's reduced costs leave
    boundedness open, and never for an all-zero cost."""
    calls = _recorded(monkeypatch, "_improving_ray")
    # min x1 + 2 x2 with x1 + x2 = 1: basis {x1} has reduced costs (0, 1).
    res = solve_standard(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert (res.status, res.objective, calls) == ("optimal", 1.0, [])
    # A cone certificate's zero cost: the first vertex is the answer.
    res = solve_standard(np.zeros(3), np.array([[1.0, 2.0, 0.0]]), np.array([2.0]))
    assert (res.status, res.x.tolist(), calls) == ("optimal", [2.0, 0.0, 0.0], [])
    # Degenerate: z = 0 is the only vertex and basis {x1} has reduced
    # cost -1 on x2, but every ray has c.d = d1 >= 0.
    A = np.array([[1.0, 1.0, -1.0]])
    res = solve_standard(np.array([0.0, -1.0, 1.0]), A, np.zeros(1))
    assert (res.status, calls) == ("optimal", [False])
    # x1 = x2 = t for any t >= 0, and c.(1, 1) = -1.
    res = solve_standard(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.zeros(1))
    assert (res.status, calls) == ("unbounded", [False, True])
