"""Small dense linear programs solved by exhaustive basis enumeration.

Problems here are small: the audits optimize over free portfolio
weights on d+1 <= 9 tradables with one row per child, the certificates
over cone weights on a node's children. ``solve_standard`` reduces
``A z = b`` to independent rows (one SVD when ``A`` has full row rank)
and then enumerates every basis, so the answer is deterministic and
needs nothing beyond numpy.

Enumeration is chunked: bases are taken in ``itertools.combinations``
order, ``_CHUNK`` at a time. Each chunk's ``(K, r, r)`` stack of
``A[:, J]`` is solved in one ``np.linalg.solve`` call after dropping
exactly singular bases, and the residual and ``z >= 0`` filters and the
objectives are array operations. Each basis gets the same bits as a
solve of its own.

A basis is a vertex when its solution is finite, non-negative within
``FEAS_TOL``, has an absolute residual within ``FEAS_TOL``, and the
basis is well conditioned: its smallest singular value exceeds
``_RANK_TOL * scale``, where ``scale`` is the largest of 1, ``|A|`` and
``|b|`` (the rank tolerance of the row reduction). A near-singular basis
can solve to about 2**53 with a residual that still passes, so the
residual alone does not decide. Only a basis about to become the
incumbent is tested, by an SVD unless ``log|det B|`` already proves it.

The vertex returned is part of the contract (stored benchmark reports
and golden digests pin it where the optimum is not unique): the first
vertex in combinations order whose objective improves on the incumbent
by more than 1e-12. Tolerances are absolute on constraint residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Optional

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-9
_RANK_TOL = 1e-11
_MAX_BASES = 500_000
_CHUNK = 512  # bases per stacked solve


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None


def _full_row_rank(M: np.ndarray, tol: float) -> bool:
    """Whether M, with no more rows than columns, has rank len(M) as
    ``np.linalg.matrix_rank(M, tol=tol)`` counts it: every singular value
    exceeds tol."""
    return bool(np.linalg.svd(M, compute_uv=False)[-1] > tol)


def _independent_rows(A: np.ndarray, b: np.ndarray, scale: float):
    """Greedily keep a maximal independent row set; None if inconsistent."""
    m, n = A.shape
    tol = _RANK_TOL * scale
    # Full row rank (or no rows): every row is kept, and none is left to
    # check.
    if m == 0 or (m <= n and _full_row_rank(A, tol)):
        return A, b
    kept: list[int] = []
    for i in range(m):
        if _full_row_rank(A[kept + [i]], tol):
            kept.append(i)
            if len(kept) == n:
                break  # no further row can be independent
    # Consistency: dropped rows must be implied by the kept ones.
    Ak, bk = A[kept], b[kept]
    dropped = [i for i in range(m) if i not in kept]
    if not kept:
        bad_fit = np.zeros(len(dropped), dtype=bool)
        bad_b = np.abs(b[dropped]) > FEAS_TOL * scale
    else:
        # Express each dropped row in terms of the kept rows; b must match.
        coef, *_ = np.linalg.lstsq(Ak.T, A[dropped].T, rcond=None)
        bad_fit = np.abs(Ak.T @ coef - A[dropped].T).max(axis=0) > FEAS_TOL * scale
        bad_b = np.abs(coef.T @ bk - b[dropped]) > FEAS_TOL * scale
    bad = np.flatnonzero(bad_fit | bad_b)
    if len(bad):
        # The first bad row decides between raising and infeasible.
        if bad_fit[bad[0]]:
            raise NumericalFailure("row reduction failed to express a dependent row")
        return None
    return Ak, bk


def solve_standard(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, check_ray: bool = True
) -> LPResult:
    """min c.z subject to A z = b, z >= 0, by vertex enumeration."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))

    reduced = _independent_rows(A, b, scale)
    if reduced is None:
        return LPResult("infeasible")
    A, b = reduced
    r = A.shape[0]

    if r == 0:
        # No effective constraints: z = 0 is the vertex.
        if check_ray and bool((c < -FEAS_TOL).any()):
            return LPResult("unbounded")
        return LPResult("optimal", np.zeros(n), 0.0)

    if _n_choose(n, r) > _MAX_BASES:
        raise NumericalFailure(f"basis enumeration too large: C({n},{r})")

    tol = _RANK_TOL * scale
    # sigma_min(B) >= |det B| / sigma_max(B)**(r-1) >= |det B| / |A|_F**(r-1):
    # a basis whose log|det| clears this floor is well conditioned
    # without an SVD (the factor 2 absorbs the rounding of log|det|).
    sure_log_det = math.log(2.0 * tol) + (r - 1) * math.log(float(np.linalg.norm(A)))
    best_obj = None
    best_x = None
    bases = combinations(range(n), r)
    while True:
        J = np.fromiter(
            chain.from_iterable(islice(bases, _CHUNK)), dtype=np.intp
        ).reshape(-1, r)
        if not len(J):
            break
        B = A[:, J].transpose(1, 0, 2)  # B[k] = A[:, J[k]]
        # An exactly singular basis has no basic solution (and would make
        # the stacked solve raise); slogdet's sign is 0 exactly then.
        sign, log_det = np.linalg.slogdet(B)
        regular = sign != 0
        if not regular.all():
            J, B, log_det = J[regular], B[regular], log_det[regular]
        K = len(J)
        if not K:
            continue
        # b as a (K, r, 1) stack of columns: numpy 1.x and 2.x read a
        # 1-D right-hand side of a stacked solve differently.
        z = np.linalg.solve(B, b[None, :, None].repeat(K, axis=0))[..., 0]
        x = np.zeros((K, n))
        x[np.arange(K)[:, None], J] = z.clip(0.0, None)
        # B has no zero column, so a row of z that is not finite has a
        # residual that is not finite and is rejected by the residual
        # test; its residual and objective may overflow meanwhile.
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs((B @ z[..., None])[..., 0] - b).max(axis=1)
            # Row-by-column products: one dot per basis, the bits of c @ x.
            obj = (x[:, None, :] @ c[:, None])[:, 0, 0]
        ok = (resid <= FEAS_TOL) & (z.min(axis=1) >= -FEAS_TOL)
        # The first basis in combinations order that improves on the
        # incumbent by more than 1e-12 becomes the incumbent.
        k = 0
        while k < K:
            hit = ok[k:] if best_obj is None else ok[k:] & (obj[k:] < best_obj - 1e-12)
            hit = np.flatnonzero(hit)
            if not len(hit):
                break
            k += int(hit[0])
            # A near-singular basis is not a vertex: it can solve to about
            # 2**53 with a residual that still passes FEAS_TOL. Testing
            # only would-be incumbents gives the same answer as testing all.
            if log_det[k] > sure_log_det or _full_row_rank(B[k], tol):
                best_x = x[k].copy()
                best_obj = float(c @ best_x)
            k += 1
    if best_x is None:
        return LPResult("infeasible")

    if check_ray and bool(np.abs(c).max(initial=0.0) > 0.0):
        ray = _improving_ray(c, A)
        if ray is not None:
            return LPResult("unbounded")
    return LPResult("optimal", best_x, best_obj)


def _improving_ray(c: np.ndarray, A: np.ndarray) -> Optional[np.ndarray]:
    """Direction d >= 0 with A d = 0, sum d = 1, c.d < 0, if one exists."""
    r, n = A.shape
    A2 = np.vstack([A, np.ones((1, n))])
    b2 = np.zeros(r + 1)
    b2[-1] = 1.0
    res = solve_standard(c, A2, b2, check_ray=False)
    if res.status == "optimal" and res.objective is not None and res.objective < -FEAS_TOL:
        return res.x
    return None


def solve_lp(
    c,
    A_eq=None,
    b_eq=None,
    A_ub=None,
    b_ub=None,
    nonneg=None,
) -> LPResult:
    """min c.x with A_eq x = b_eq, A_ub x <= b_ub.

    ``nonneg`` is a boolean per variable (True: x_i >= 0, False: free);
    a single bool applies to all variables. Free variables are split,
    inequality rows get slack variables, then the standard-form solver
    enumerates vertices.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if nonneg is None:
        nonneg = True
    if isinstance(nonneg, bool):
        nonneg = [nonneg] * n
    nonneg = list(nonneg)

    rows_eq = 0 if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n).shape[0]
    rows_ub = 0 if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n).shape[0]

    # Column layout: one column per non-negative variable, two per free
    # variable (x = x+ - x-), then one slack per inequality row.
    col_of: list[tuple[int, int]] = []  # (var index, sign)
    for i in range(n):
        col_of.append((i, +1))
        if not nonneg[i]:
            col_of.append((i, -1))
    n_cols = len(col_of) + rows_ub

    A_rows = []
    b_all = []
    if rows_eq:
        Ae = np.asarray(A_eq, dtype=float).reshape(-1, n)
        be = np.asarray(b_eq, dtype=float).reshape(-1)
        for k in range(rows_eq):
            row = np.zeros(n_cols)
            for j, (i, s) in enumerate(col_of):
                row[j] = s * Ae[k, i]
            A_rows.append(row)
            b_all.append(be[k])
    if rows_ub:
        Au = np.asarray(A_ub, dtype=float).reshape(-1, n)
        bu = np.asarray(b_ub, dtype=float).reshape(-1)
        for k in range(rows_ub):
            row = np.zeros(n_cols)
            for j, (i, s) in enumerate(col_of):
                row[j] = s * Au[k, i]
            row[len(col_of) + k] = 1.0
            A_rows.append(row)
            b_all.append(bu[k])

    A_std = np.array(A_rows) if A_rows else np.zeros((0, n_cols))
    b_std = np.array(b_all)
    c_std = np.zeros(n_cols)
    for j, (i, s) in enumerate(col_of):
        c_std[j] = s * c[i]

    res = solve_standard(c_std, A_std, b_std)
    if res.status != "optimal":
        return res
    x = np.zeros(n)
    for j, (i, s) in enumerate(col_of):
        x[i] += s * res.x[j]
    return LPResult("optimal", x, float(c @ x))


def _n_choose(n: int, r: int) -> int:
    from math import comb

    return comb(n, r)
