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

``oracle_solve_lp`` lays out free variables and inequality rows as
``lp.solve_lp`` does and solves the standard form by the oracle. The
audit LPs of ``test_audit_rays.py`` need its cost.
"""

from dataclasses import dataclass
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


def oracle_solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, nonneg=True):
    """min c.x with A_eq x = b_eq, A_ub x <= b_ub, in ``lp.solve_lp``'s
    layout: one column per non-negative variable, two per free variable
    (x = x+ - x-), then one slack per inequality row."""
    c = np.asarray(c, dtype=float)
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
    res = oracle_solve_standard(std[0], std[1:], np.concatenate([be, bu]))
    if res.status != "optimal":
        return res
    x = np.zeros(n)
    np.add.at(x, var, np.multiply(sign, res.x[:k]))
    return OracleResult("optimal", x, float(c @ x))
