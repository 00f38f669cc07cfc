"""A frozen per-basis LP solver, the reference for the LP kernel's tests.

``oracle_solve_standard`` is a frozen copy of the per-basis loop that
the chunked kernel in ``prodval.lp`` replaced: the greedy row reduction
with its per-prefix rank test, then one ``np.linalg.solve`` per basis in
``itertools.combinations`` order. It carries the conditioning rule of
the kernel: a basis whose smallest singular value is at most
``_RANK_TOL * scale`` is not a vertex. It keeps what the kernel no
longer has, a cost: the incumbent is the first vertex that improves on
it by more than 1e-12. With an all-zero cost that is the first vertex,
the kernel's answer.

An optimum with a nonzero cost is reported unbounded when the ray LP
(min c.d over d >= 0, A d = 0, sum d = 1), enumerated whole, has a
vertex below -FEAS_TOL. The ray LP is skipped where the reduced costs
``c - A^T y`` at the optimal basis J (``A[:, J]^T y = c[J]``) are all
at least ``-FEAS_TOL * 1e-3``: c.d = (c - A^T y).d is then at least
that on every ray.

``oracle_solve_lp`` lays out free variables (two columns each, u+ and
u-) and inequality rows (one slack each) of one LP in standard form,
and solves it by the oracle.

``oracle_verdict`` is what the membership and Farkas LPs of one node,
solved by the oracle, say about the side of the cone its price lies on,
where they say it by more than the tolerance of ``lp.solve_lp``'s
projection; ``projection_problems`` re-checks one node's projection
verdict from the node's payoffs and price alone.

``oracle_lp_optimum`` gives the status and optimum of the same LP with
the same row reduction and vertex rules, but evaluates all bases of the
LP at once, in one stacked ``np.linalg.solve`` (and one more for its ray
LP). The audit LPs of ``test_audit_rays.py`` need only the optimum, and
their per-basis loop is slow. It is no reference for the kernel's bits:
that is ``oracle_solve_standard``.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from prodval import lp
from prodval.errors import NumericalFailure
from prodval.lp import FEAS_TOL


@dataclass
class OracleResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None


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
    """min c.z subject to A z = b, z >= 0. ``stats``, if given, counts
    the exactly singular bases and the ill-conditioned bases met before
    the first vertex, and records the index of the last incumbent."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    reduced = _oracle_independent_rows(A, b, scale)
    if reduced is None:
        return OracleResult("infeasible")
    A, b = reduced
    r = A.shape[0]
    if r == 0:
        if check_ray and bool((c < -FEAS_TOL).any()):
            return OracleResult("unbounded")
        return OracleResult("optimal", np.zeros(n), 0.0)
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
                stats["ill_conditioned"] += best_x is None
            continue
        x = np.zeros(n)
        x[list(J)] = np.clip(zJ, 0.0, None)
        obj = float(c @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
            best_J = list(J)
            if stats is not None:
                stats["incumbent_index"] = index
    if best_x is None:
        return OracleResult("infeasible")
    if check_ray and bool(np.abs(c).max(initial=0.0) > 0.0):
        y = np.linalg.solve(A[:, best_J].T, c[best_J])
        if (c - A.T @ y).min() >= -FEAS_TOL * 1e-3:
            return OracleResult("optimal", best_x, best_obj)
        ray = oracle_solve_standard(
            c,
            np.vstack([A, np.ones((1, n))]),
            np.concatenate([np.zeros(r), [1.0]]),
            check_ray=False,
        )
        if ray.status == "optimal" and ray.objective < -FEAS_TOL:
            return OracleResult("unbounded")
    return OracleResult("optimal", best_x, best_obj)


def _standard_form(c, A_eq, b_eq, A_ub, b_ub, nonneg):
    """(cost, A, b, var, sign) of min c.x with A_eq x = b_eq, A_ub x <=
    b_ub in standard form: one column per non-negative
    variable, two per free variable (x = x+ - x-), then one slack per
    inequality row. Column j < len(var) holds sign[j] times variable
    var[j]."""
    n = len(c)
    if isinstance(nonneg, bool):
        nonneg = [nonneg] * n
    var, sign = [], []
    for i in range(n):
        var.append(i)
        sign.append(1.0)
        if not nonneg[i]:
            var.append(i)
            sign.append(-1.0)
    k = len(var)
    Ae = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    Au = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    be = np.zeros(0) if A_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    bu = np.zeros(0) if A_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    rows = np.concatenate([c[None], Ae, Au])
    std = np.zeros((len(rows), k + len(Au)))
    np.multiply(rows[:, var], sign, out=std[:, :k])
    std[1 + len(Ae) :, k:] = np.eye(len(Au))
    return std[0], std[1:], np.concatenate([be, bu]), var, sign


def oracle_solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, nonneg=True):
    """min c.x with A_eq x = b_eq, A_ub x <= b_ub, laid out by
    ``_standard_form``."""
    c = np.asarray(c, dtype=float)
    cost, A, b, var, sign = _standard_form(c, A_eq, b_eq, A_ub, b_ub, nonneg)
    res = oracle_solve_standard(cost, A, b)
    if res.status != "optimal":
        return res
    x = np.zeros(len(c))
    np.add.at(x, var, np.multiply(sign, res.x[: len(var)]))
    return OracleResult("optimal", x, float(c @ x))


def oracle_lp_optimum(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, nonneg=True):
    """(status, optimum) of ``oracle_solve_lp``'s LP, the optimum None
    unless the status is "optimal", from all bases at once: the least c.z
    over the vertices of the reduced standard form, and "unbounded" where
    some vertex of its ray LP (A d = 0, sum d = 1, d >= 0) has c.d below
    -FEAS_TOL. The ray LP is skipped, as the oracle skips it, where the
    reduced costs at the least vertex's basis show that no ray can pass.
    The oracle's incumbent may lie up to 1e-12 above the least value."""
    c = np.asarray(c, dtype=float)
    cost, A, b, _, _ = _standard_form(c, A_eq, b_eq, A_ub, b_ub, nonneg)
    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    reduced = _oracle_independent_rows(A, b, scale)
    if reduced is None:
        return "infeasible", None
    A, b = reduced
    J, z = _vertices(A, b, scale)
    if not len(z):
        return "infeasible", None
    costs = (cost[J] * z).sum(axis=1)
    best = J[costs.argmin()]
    y = np.linalg.solve(A[:, best].T, cost[best])
    if (cost - A.T @ y).min() < -FEAS_TOL * 1e-3:
        r, n = A.shape
        ray_A = np.vstack([A, np.ones((1, n))])
        ray_b = np.concatenate([np.zeros(r), [1.0]])
        ray_scale = max(1.0, float(np.abs(A).max(initial=0.0)))
        ray = _oracle_independent_rows(ray_A, ray_b, ray_scale)
        if ray is not None:
            J, d = _vertices(*ray, ray_scale)
            if ((cost[J] * d).sum(axis=1) < -FEAS_TOL).any():
                return "unbounded", None
    return "optimal", float(costs.min())


def _projection_tol(Y, s):
    """``lp.solve_lp``'s tolerance on the residual: FEAS_TOL * max(1,
    |Y|, |s|)."""
    return FEAS_TOL * max(1.0, float(np.abs(Y).max(initial=0.0)), float(np.abs(s).max(initial=0.0)))


def oracle_verdict(Y, s):
    """True where the oracle's membership LP of one node, Y (K, d) its
    child payoffs one row each and s (d,) its price, has weights that
    rebuild s within a tenth of the projection's tolerance; False where
    its Farkas LP (free u, u.s = -1, Y u >= 0) has a vertex u with 1/|u|,
    a lower bound on the distance of s from the cone, above ten times
    that tolerance; None where neither LP says so by that margin."""
    tol = _projection_tol(Y, s)
    K, d = Y.shape
    member = oracle_solve_lp(np.zeros(K), A_eq=Y.T, b_eq=s, nonneg=True)
    if member.status == "optimal" and np.linalg.norm(Y.T @ member.x - s) <= 0.1 * tol:
        return True
    farkas = oracle_solve_lp(
        np.zeros(d), A_eq=s[None], b_eq=[-1.0], A_ub=-Y, b_ub=np.zeros(K), nonneg=False
    )
    if farkas.status == "optimal" and 1.0 / np.linalg.norm(farkas.x) > 10.0 * tol:
        return False
    return None


def projection_problems(Y, s, inside, lam, u):
    """What fails in one node's projection verdict (inside, lam, u),
    checked from Y (K, d) and s (d,) alone, with tol the projection's
    tolerance: inside, lam >= 0 must rebuild s within tol; outside, every
    child payoff y.u must be at least -tol |u| and u.s within tol |u| of
    -1. An empty list when the verdict holds."""
    tol = _projection_tol(Y, s)
    if inside:
        problems = ["negative weight"] if min(lam) < 0.0 else []
        if np.abs(Y.T @ lam - s).max(initial=0.0) > tol:
            problems.append(f"weights miss the price by {np.abs(Y.T @ lam - s).max()!r}")
        return problems
    size = float(np.linalg.norm(u))
    problems = []
    if not (Y @ u).min(initial=np.inf) >= -tol * size:
        problems.append(f"child payoff {(Y @ u).min()!r} below 0, |u| = {size!r}")
    if not abs(float(u @ s) + 1.0) <= tol * size:
        problems.append(f"price {float(u @ s)!r}, not -1, |u| = {size!r}")
    return problems


@lru_cache(maxsize=None)
def _combinations(n, r):
    return np.array(list(combinations(range(n), r)), dtype=np.intp)


def _vertices(A, b, scale):
    """(J, z): the basis and the values, clipped at 0, of each vertex of
    A z = b, z >= 0, for A of full row rank, by the oracle's rules, from
    one stacked solve over all bases."""
    r, n = A.shape
    if not r:
        return np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0))  # z = 0
    if comb(n, r) > lp._MAX_BASES:
        raise NumericalFailure(f"basis enumeration too large: C({n},{r})")
    J = _combinations(n, r)
    # A basis holding a column and its negative (the halves of a free
    # variable), or a zero column (its own negative), is singular: never
    # a vertex.
    held = np.zeros((len(J), n), dtype=bool)
    held[np.arange(len(J))[:, None], J] = True
    i, j = np.nonzero(np.triu((A[:, :, None] == -A[:, None, :]).all(axis=0)))
    J = J[~(held[:, i] & held[:, j]).any(axis=1)]
    B = A[:, J].transpose(1, 0, 2)  # B[j] = A[:, J[j]]
    # An exactly singular basis, the oracle's LinAlgError, has slogdet
    # sign 0.
    sign, log_det = np.linalg.slogdet(B)
    regular = sign != 0
    B, J, log_det = B[regular], J[regular], log_det[regular]
    # b as a stack of columns: numpy 1.x and 2.x read a 1-D right-hand
    # side of a stacked solve differently.
    z = np.linalg.solve(B, np.broadcast_to(b[:, None], (len(B), r, 1)))[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs((B @ z[..., None])[..., 0] - b).max(axis=1)
    ok = np.isfinite(z).all(axis=1) & (resid <= FEAS_TOL) & (z.min(axis=1) >= -FEAS_TOL)
    B, J, z, log_det = B[ok], J[ok], z[ok], log_det[ok]
    # sigma_min(B) >= |det B| / |A|_F**(r-1): a log|det| above this floor
    # (doubled for its rounding) proves the conditioning rule without an
    # SVD.
    tol = lp._RANK_TOL * scale
    vertex = log_det > np.log(2.0 * tol) + (r - 1) * np.log(np.linalg.norm(A))
    test = ~vertex
    vertex[test] = np.linalg.svd(B[test], compute_uv=False)[:, -1] > tol
    return J[vertex], z[vertex].clip(0.0, None)
