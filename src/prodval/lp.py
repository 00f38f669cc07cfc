"""Small dense feasibility LPs solved by exhaustive basis enumeration.

Problems here are small, and every LP has a zero cost: ``solve_standard``
returns a point of {A z = b, z >= 0}, the first vertex in
``itertools.combinations`` order, or reports that there is none. It
reduces ``A z = b`` to independent rows (one SVD when ``A`` has full row
rank) and then enumerates bases until the first vertex, so the answer is
deterministic and needs nothing beyond numpy. Three kinds of problem use
it:

- the cone certificates (``market``): the membership LP of every inner
  node, decided for a stack of nodes at once by ``cone_vertices``;
- the Farkas LP of a node whose price lies outside that cone, through
  ``solve_lp``;
- the tradable audits (``conditions``) solve no LP: they are read off
  the extreme rays of each node's cone of non-negative attainable child
  payoffs by ``cone_ratios``, which takes them for a stack of nodes as
  the vertices of {W z = 0, sum z = 1, z >= 0}, one stacked solve over
  the supports in ``_bases`` order.

Enumeration is chunked: bases are taken in ``itertools.combinations``
order, ``_CHUNK`` at a time, from an index array built once per
``(n, r)`` and cached. Each chunk's ``(K, r, r)`` stack of ``A[:, J]``
is solved in one ``np.linalg.solve`` call after dropping exactly
singular bases, and the residual and ``z >= 0`` filters are array
operations. Each basis gets the same bits as a solve of its own. A
basis holding an all-zero column of ``A`` (a free weight on a coordinate
with zero price and payoffs, say) is exactly singular, so leaving those
columns out keeps the combinations order of the other bases.

A basis is a vertex when its solution is finite, non-negative within
``FEAS_TOL``, has an absolute residual within ``FEAS_TOL``, and the
basis is well conditioned: its smallest singular value exceeds
``_RANK_TOL * scale``, where ``scale`` is the largest of 1, ``|A|`` and
``|b|`` (the rank tolerance of the row reduction). A near-singular basis
can solve to about 2**53 with a residual that still passes, so the
residual alone does not decide. Only a basis that passes the other
filters is tested, by an SVD unless ``log|det B|`` already proves it.
Tolerances are absolute on constraint residuals.

The vertex returned is part of the contract: stored benchmark reports
and golden digests pin it where the system has more than one.

``cone_vertices`` takes those steps for a stack of systems: the greedy
row reduction (``_kept_rows``) and the dropped-row test
(``_dropped_status``) for the whole stack, then per kept-row count one
enumeration (``_first_vertices``) that keeps each system until its
first vertex, about ``_VERTEX_CHUNK`` (system, basis) pairs per stacked
solve. Each system gets the bits ``solve_standard`` gives it. The
dropped-row test expresses the dropped rows of all systems that keep
equally many rows through one stacked SVD; a system whose residuals lie
too close to the threshold for the rounding of that solve and of
``lstsq`` to agree is tested alone, as ``solve_standard`` tests every
system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-9
_RANK_TOL = 1e-11
_MAX_BASES = 500_000
_MAX_SUPPORTS = 1 << 16  # cone_ratios candidate rays per cone
_RAY_CHUNK = 1 << 14  # cone_ratios candidate rays per stacked solve
_CHUNK = 512  # bases per stacked solve
_VERTEX_CHUNK = 1 << 14  # cone_vertices (system, basis) pairs per stacked solve
_ROUNDING_SLACK = 1 << 10  # eps multiple in the stacked dropped-row test's bounds


@dataclass
class LPResult:
    status: str  # "optimal" (x is feasible) | "infeasible"
    x: Optional[np.ndarray] = None


def _full_row_rank(M: np.ndarray, tol) -> np.ndarray:
    """Whether M, or each matrix of a stack M, with no more rows than
    columns, has rank len(M) as ``np.linalg.matrix_rank(M, tol=tol)``
    counts it: every singular value exceeds tol. A stacked SVD gives each
    matrix the bits of an SVD of its own."""
    return np.linalg.svd(M, compute_uv=False)[..., -1] > tol


def _kept_rows(A: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The rows the greedy row reduction keeps in each matrix of the
    stack A, shape (N, m, n), as an (N, m) mask; ``tol`` holds each
    matrix's rank tolerance.

    A matrix of full row rank keeps every row. Otherwise row i is kept
    when it is independent of the rows kept before it, until n are kept.
    Matrices that have kept equally many rows are tested together."""
    N, m, n = A.shape
    todo = np.arange(N)
    if m and m <= n:
        todo = np.flatnonzero(~_full_row_rank(A, tol))
    kept = np.ones((N, m), dtype=bool)
    if not len(todo):
        return kept
    kept[todo] = False
    rows = np.zeros((N, n), dtype=np.intp)  # rows[k, :count[k]] are kept
    count = np.zeros(N, dtype=np.intp)
    for i in range(m):
        if not len(todo):
            break
        c = count[todo]
        sizes = sorted(set(c.tolist()), reverse=True)
        # Larger sizes first, so a matrix that keeps row i is not tested
        # again with its new size.
        for size in sizes:
            g = todo if len(sizes) == 1 else todo[c == size]
            rows[g, size] = i
            hit = g[_full_row_rank(A[g[:, None], rows[g, : size + 1]], tol[g])]
            count[hit] = size + 1
        if sizes[0] + 1 == n:
            # No further row can be independent of n kept ones.
            todo = todo[count[todo] < n]
    held = np.arange(n) < count[:, None]
    kept[np.nonzero(held)[0], rows[held]] = True
    return kept


def _dropped_rows(A: np.ndarray, b: np.ndarray, kept: np.ndarray, scale: float) -> str:
    """Whether the rows of A z = b outside the ``kept`` mask follow from
    the kept ones: "implied", "inconsistent" (b does not follow), or
    "failed" (a dropped row of A could not be expressed)."""
    dropped = ~kept
    if not (A[dropped].any() or b[dropped].any()):
        # 0 = 0 holds for every z (and lstsq would give zero coefficients).
        return "implied"
    Ak, bk = A[kept], b[kept]
    if not len(Ak):
        bad_fit = np.zeros(int(dropped.sum()), dtype=bool)
        bad_b = np.abs(b[dropped]) > FEAS_TOL * scale
    else:
        # Express each dropped row in terms of the kept rows; b must match.
        coef, *_ = np.linalg.lstsq(Ak.T, A[dropped].T, rcond=None)
        bad_fit = np.abs(Ak.T @ coef - A[dropped].T).max(axis=0) > FEAS_TOL * scale
        bad_b = np.abs(coef.T @ bk - b[dropped]) > FEAS_TOL * scale
    bad = np.flatnonzero(bad_fit | bad_b)
    if not len(bad):
        return "implied"
    # The first bad row decides between the two.
    return "failed" if bad_fit[bad[0]] else "inconsistent"


def _independent_rows(A: np.ndarray, b: np.ndarray, scale: float):
    """Greedily keep a maximal independent row set; None if inconsistent."""
    kept = _kept_rows(A[None], np.array([_RANK_TOL * scale]))[0]
    if kept.all():
        return A, b
    status = _dropped_rows(A, b, kept, scale)
    if status == "failed":
        raise NumericalFailure("row reduction failed to express a dependent row")
    if status == "inconsistent":
        return None
    return A[kept], b[kept]


def _scale(A: np.ndarray, b: np.ndarray):
    """The largest of 1, |A| and |b|, for one system or per system of a
    stack: the unit of the rank tolerance. fmax skips a NaN as Python's
    max does."""
    return np.fmax(
        1.0, np.fmax(np.abs(A).max(axis=(-2, -1), initial=0.0), np.abs(b).max(axis=-1, initial=0.0))
    )


def solve_standard(A: np.ndarray, b: np.ndarray) -> LPResult:
    """The first vertex of A z = b, z >= 0 in combinations order."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]

    scale = float(_scale(A, b))
    reduced = _independent_rows(A, b, scale)
    if reduced is None:
        return LPResult("infeasible")
    A, b = reduced

    if not len(A):
        # No effective constraints: z = 0 is the vertex.
        return LPResult("optimal", np.zeros(n))
    x = _first_vertex(A, b, scale)
    if x is None:
        return LPResult("infeasible")
    return LPResult("optimal", x)


def cone_vertices(A: np.ndarray, b: np.ndarray):
    """The systems A[k] z = b[k], z >= 0 of a stack, shape (N, m, n),
    decided together: (feasible, x). Where ``feasible[k]``, x[k] holds the
    bits of ``solve_standard(A[k], b[k]).x``; ``solve_standard`` finds
    every other system infeasible. Raises the NumericalFailure that
    ``solve_standard`` raises on the first system of the stack that
    raises one.

    These are ``solve_standard``'s steps, each taken for the whole stack:
    the row reduction (``_kept_rows``), the dropped-row test
    (``_dropped_status``), and per kept-row count r the first vertex of
    each system (``_first_vertices``). A system that keeps no row has the
    vertex z = 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    N, m, n = A.shape
    feasible = np.zeros(N, dtype=bool)
    x = np.zeros((N, n))
    if not N:
        return feasible, x
    scale = _scale(A, b)
    kept = _kept_rows(A, _RANK_TOL * scale)
    inconsistent, failed = _dropped_status(A, b, kept, scale)
    rank = kept.sum(axis=1)
    implied = ~(inconsistent | failed)
    too_large = np.array([r > 0 and math.comb(n, r) > _MAX_BASES for r in range(m + 1)])
    raises = np.flatnonzero(failed | implied & too_large[rank])
    if len(raises):
        k = raises[0]
        if failed[k]:
            raise NumericalFailure("row reduction failed to express a dependent row")
        raise NumericalFailure(f"basis enumeration too large: C({n},{rank[k]})")
    feasible[implied & (rank == 0)] = True
    for r in sorted(set(rank[implied].tolist()) - {0}):
        idx = np.flatnonzero(implied & (rank == r))
        rows = kept[idx]
        feasible[idx], x[idx] = _first_vertices(
            A[idx][rows].reshape(-1, r, n), b[idx][rows].reshape(-1, r), scale[idx]
        )
    return feasible, x


def _dropped_status(A: np.ndarray, b: np.ndarray, kept: np.ndarray, scale: np.ndarray):
    """``_dropped_rows`` for each system of a stack, as two masks:
    (inconsistent, failed).

    Systems that keep equally many rows are tested together: each dropped
    row is expressed in the kept rows through a stacked SVD of the kept
    rows instead of a ``lstsq`` per system. The two solves round
    differently, so a flag is taken from the stack only where the
    difference cannot change it: where its residual clears the threshold
    by more than a bound on the rounding of either solve, which grows
    with the condition number kappa of the kept rows. A system with a
    flag that close to the threshold (or not finite) is tested alone."""
    N, m, n = A.shape
    inconsistent = np.zeros(N, dtype=bool)
    failed = np.zeros(N, dtype=bool)
    unsure = np.zeros(N, dtype=bool)
    rank = kept.sum(axis=1)
    eps = np.finfo(float).eps * _ROUNDING_SLACK
    # Only systems with a nonzero dropped row: 0 = 0 holds for every z,
    # as in _dropped_rows.
    todo = (((A != 0).any(axis=2) | (b != 0)) & ~kept).any(axis=1)
    for r in sorted(set(rank[todo].tolist())):
        idx = np.flatnonzero(todo & (rank == r))
        thr = FEAS_TOL * scale[idx, None]
        drop = ~kept[idx]
        Ad = A[idx][drop].reshape(len(idx), m - r, n)
        bd = b[idx][drop].reshape(len(idx), m - r)
        if r:
            Ak = A[idx][kept[idx]].reshape(len(idx), r, n)
            bk = b[idx][kept[idx]].reshape(len(idx), r)
            # Ak = U diag(S) Vt; the least-squares coef[:, j] of dropped
            # row j is U diag(1/S) Vt Ad[j].
            U, S, Vt = np.linalg.svd(Ak, full_matrices=False)
            coef = U @ ((Vt @ Ad.transpose(0, 2, 1)) / S[..., None])
            with np.errstate(over="ignore", invalid="ignore"):
                fit = np.abs(Ak.transpose(0, 2, 1) @ coef - Ad.transpose(0, 2, 1)).max(axis=1)
                gap = np.abs((coef * bk[..., None]).sum(axis=1) - bd)
                # Rounding bounds of a backward-stable least-squares
                # solve and of the residuals taken from it (Higham,
                # Accuracy and Stability, ch. 20), for either solve.
                kappa = (S[:, 0] / S[:, -1])[:, None]
                c_norm = np.linalg.norm(coef, axis=1)
                b_norm = np.linalg.norm(bk, axis=1)[:, None]
                fit_err = eps * kappa * np.linalg.norm(Ad, axis=2)
                res_norm = math.sqrt(n) * (fit + fit_err)
                coef_err = eps * kappa * (c_norm + kappa * res_norm / S[:, :1])
                gap_err = (coef_err + eps * c_norm) * b_norm + eps * np.abs(bd)
        else:
            fit = fit_err = np.zeros(bd.shape)
            gap, gap_err = np.abs(bd), 0.0
        fit_bad, fit_ok = fit - fit_err > thr, fit + fit_err <= thr
        gap_bad, gap_ok = gap - gap_err > thr, gap + gap_err <= thr
        # The first row that is not surely implied decides, if its kind
        # is sure.
        open_row = ~(fit_ok & gap_ok)
        q = open_row.argmax(axis=1)
        row = np.arange(len(idx)), q
        some = open_row.any(axis=1)
        failed[idx] = some & fit_bad[row]
        inconsistent[idx] = some & fit_ok[row] & gap_bad[row]
        unsure[idx] = some & ~(failed[idx] | inconsistent[idx])
    for k in np.flatnonzero(unsure).tolist():
        status = _dropped_rows(A[k], b[k], kept[k], scale[k])
        inconsistent[k] = status == "inconsistent"
        failed[k] = status == "failed"
    return inconsistent, failed


def _first_vertices(A: np.ndarray, b: np.ndarray, scale: np.ndarray):
    """(found, x): for each system A[k] z = b[k], z >= 0 of a stack of
    reduced systems, shape (N, r, n) with r independent rows, whether it
    has a vertex, and ``solve_standard``'s bits of the first one in
    combinations order, the vertex ``_first_vertex`` returns.

    The bases of ``_bases(n, r)`` are taken over all n columns: a basis
    holding an all-zero column is exactly singular, so the others keep
    the order ``_first_vertex`` gives them. About ``_VERTEX_CHUNK``
    (system, basis) pairs go into one stacked solve, a system's bases
    ``_CHUNK`` at a time, and a system leaves once it has its vertex. The
    filters are ``_first_vertex``'s: slogdet sign, residual, sign, then
    the conditioning test on the bases that pass them."""
    N, r, n = A.shape
    found = np.zeros(N, dtype=bool)
    x = np.zeros((N, n))
    bases = _bases(n, r)
    tol = _RANK_TOL * scale
    # _first_vertex's log|det| floor. It may differ from that one in the
    # last bits, but a log|det| within rounding of either floor has
    # sigma_min near 2 * tol, so the SVD passes it all the same.
    sure_log_det = np.log(2.0 * tol) + (r - 1) * np.log(np.linalg.norm(A, axis=(1, 2)))
    step = min(len(bases), _CHUNK)
    per_chunk = max(1, _VERTEX_CHUNK // step)
    for start in range(0, N, per_chunk):
        todo = np.arange(start, min(N, start + per_chunk))
        for first in range(0, len(bases), step):
            J = bases[first : first + step]
            # B[t, j] = A[todo[t]][:, J[j]].
            B = A[todo][:, :, J].transpose(0, 2, 1, 3)
            sign, log_det = np.linalg.slogdet(B)
            t, j = np.nonzero(sign != 0)
            B, c = B[t, j], b[todo[t]]
            z = np.linalg.solve(B, c[..., None])[..., 0]
            with np.errstate(over="ignore", invalid="ignore"):
                resid = np.abs((B @ z[..., None])[..., 0] - c).max(axis=1)
            ok = (resid <= FEAS_TOL) & (z.min(axis=1) >= -FEAS_TOL)
            t, j, B, z = t[ok], j[ok], B[ok], z[ok]
            good = log_det[t, j] > sure_log_det[todo[t]]
            # Only the bases before a system's first sure one need an SVD.
            first_sure = np.full(len(todo), step)
            np.minimum.at(first_sure, t[good], j[good])
            test = ~good & (j < first_sure[t])
            good[test] = _full_row_rank(B[test], tol[todo[t[test]]])
            # np.nonzero ran row-major, so the first hit per t is its
            # first basis in combinations order.
            t, j, z = t[good], j[good], z[good]
            t, hit = np.unique(t, return_index=True)
            node = todo[t]
            # solve_lp adds the clipped solution to zeros; adding 0.0 here
            # too gives a clipped -0.0 the same bits whatever clip makes
            # of it.
            x[node[:, None], J[j[hit]]] = z[hit].clip(0.0, None) + 0.0
            found[node] = True
            todo = np.delete(todo, t)
            if not len(todo):
                break
    return found, x


def cone_ratios(W: np.ndarray, c: np.ndarray, p: np.ndarray):
    """The linear-fractional programs max and min of p.z / c.z over the
    cones {z >= 0 : W[k] z = 0} of a stack W, shape (N, q, K), with c and
    p of shape (N, K), read off each cone's extreme rays e. Returns per
    cone (ray, positive, flat, hi, lo): whether it has a ray; whether some
    ray has c.e above the noise floor FEAS_TOL * max|c|, and whether some
    has not; the largest and smallest p.e / c.e over the rays of the
    first kind (-inf and inf without one).

    The rays, scaled to sum 1, are the vertices of {W z = 0, sum z = 1,
    z >= 0}: the basic solutions on the supports of ``_bases(K, q+1)``
    whose basis passes the conditioning test (smallest singular value
    above ``_RANK_TOL * scale``) and whose entries are at least -FEAS_TOL,
    clipped at 0 (``_cone_rays``). With q = 0 they are the unit vectors,
    and no solve is needed. The cones are taken in chunks of about
    ``_RAY_CHUNK`` candidate rays. Raises NumericalFailure above
    ``_MAX_SUPPORTS`` supports per cone, before building any."""
    N, q, K = W.shape
    n_supports = math.comb(K, q + 1)
    if n_supports > _MAX_SUPPORTS:
        raise NumericalFailure(f"ray enumeration too large: C({K},{q + 1})")
    ray, positive, flat = (np.zeros(N, dtype=bool) for _ in range(3))
    hi, lo = np.full(N, -np.inf), np.full(N, np.inf)
    step = max(1, _RAY_CHUNK // max(n_supports, 1))
    for start in range(0, N, step):
        k = slice(start, start + step)
        if q:
            rays, is_ray = _cone_rays(W[k])
            cost = (rays @ c[k, :, None])[..., 0]
            prob = (rays @ p[k, :, None])[..., 0]
        else:
            is_ray = np.ones(c[k].shape, dtype=bool)
            cost, prob = c[k], p[k]
        floor = FEAS_TOL * np.abs(c[k]).max(axis=1, initial=0.0)
        up = is_ray & (cost > floor[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = prob / cost
        ray[k] = is_ray.any(axis=1)
        positive[k] = up.any(axis=1)
        flat[k] = (is_ray & ~up).any(axis=1)
        hi[k] = np.where(up, ratio, -np.inf).max(axis=1, initial=-np.inf)
        lo[k] = np.where(up, ratio, np.inf).min(axis=1, initial=np.inf)
    return ray, positive, flat, hi, lo


def _cone_rays(W: np.ndarray):
    """The candidate rays of ``cone_ratios`` for a stack W, shape
    (N, q, K) with q >= 1: (rays, valid), where rays has shape
    (N, C(K, q+1), K) and rays[k, j], on the j-th support, is a ray of
    cone k exactly where valid[k, j]. One stacked solve for the stack; a
    degenerate vertex may appear more than once."""
    N, q, K = W.shape
    M = np.concatenate([W, np.ones((N, 1, K))], axis=1)
    supports = _bases(K, q + 1)
    rays = np.zeros((N, len(supports), K))
    valid = np.zeros((N, len(supports)), dtype=bool)
    if not (N and len(supports)):
        return rays, valid
    # B[k, j] = M[k][:, supports[j]].
    B = M[:, :, supports].transpose(0, 2, 1, 3)
    # M holds a row of ones, so this is the LP's scale max(1, |M|).
    tol = _RANK_TOL * np.abs(M).max(axis=(1, 2))
    regular = np.linalg.svd(B, compute_uv=False)[..., -1] > tol[:, None]
    rhs = np.zeros((int(regular.sum()), q + 1, 1))
    rhs[:, -1] = 1.0
    z = np.linalg.solve(B[regular], rhs)[..., 0]
    feasible = z.min(axis=1) >= -FEAS_TOL
    node, j = np.nonzero(regular)
    node, j, z = node[feasible], j[feasible], z[feasible]
    rays[node[:, None], j[:, None], supports[j]] = z.clip(0.0, None)
    valid[node, j] = True
    return rays, valid


def _first_vertex(A: np.ndarray, b: np.ndarray, scale: float):
    """The first vertex of A z = b, z >= 0 in combinations order, or None
    if there is none."""
    r, n = A.shape
    if math.comb(n, r) > _MAX_BASES:
        raise NumericalFailure(f"basis enumeration too large: C({n},{r})")

    tol = _RANK_TOL * scale
    # sigma_min(B) >= |det B| / sigma_max(B)**(r-1) >= |det B| / |A|_F**(r-1):
    # a basis whose log|det| clears this floor is well conditioned
    # without an SVD (the factor 2 absorbs the rounding of log|det|).
    sure_log_det = math.log(2.0 * tol) + (r - 1) * math.log(float(np.linalg.norm(A)))
    # A basis holding an all-zero column is exactly singular, and leaving
    # those columns out keeps the combinations order of the other bases.
    cols = np.flatnonzero(A.any(axis=0))
    bases = _bases(len(cols), r)
    for start in range(0, len(bases), _CHUNK):
        J = cols[bases[start : start + _CHUNK]]
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
        # B has no zero column, so a row of z that is not finite has a
        # residual that is not finite and is rejected by the residual
        # test; its residual may overflow meanwhile.
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs((B @ z[..., None])[..., 0] - b).max(axis=1)
        ok = (resid <= FEAS_TOL) & (z.min(axis=1) >= -FEAS_TOL)
        for k in np.flatnonzero(ok).tolist():
            # A near-singular basis is not a vertex: it can solve to about
            # 2**53 with a residual that still passes FEAS_TOL.
            if log_det[k] > sure_log_det or _full_row_rank(B[k], tol):
                x = np.zeros(n)
                x[J[k]] = z[k].clip(0.0, None)
                return x
    return None


@functools.lru_cache(maxsize=32)
def _bases(n: int, r: int) -> np.ndarray:
    """Every r-subset of range(n), one row each in combinations order.

    Read-only, as every caller shares it; the narrowest unsigned dtype
    that holds n keeps the cached arrays small."""
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n), r)),
        dtype=np.min_scalar_type(n),
        count=math.comb(n, r) * r,
    )
    flat.flags.writeable = False
    return flat.reshape(-1, r)


def solve_lp(
    A_eq=None,
    b_eq=None,
    A_ub=None,
    b_ub=None,
    nonneg=True,
) -> LPResult:
    """A point x with A_eq x = b_eq and A_ub x <= b_ub, or "infeasible".

    The constraint matrices are 2-D, and at least one is given.
    ``nonneg`` is a boolean per variable (True: x_i >= 0, False: free);
    a single bool applies to all variables. Free variables are split,
    inequality rows get slack variables, then ``solve_standard`` takes
    the first vertex of the standard form.
    """
    if A_eq is None and A_ub is None:
        raise ValueError("solve_lp needs A_eq or A_ub")
    n = np.shape(A_eq if A_eq is not None else A_ub)[1]
    if isinstance(nonneg, bool):
        nonneg = [nonneg] * n

    # Column layout: one column per non-negative variable, two per free
    # variable (x = x+ - x-), then one slack per inequality row. Column j
    # holds sign[j] times variable var[j].
    var: list[int] = []
    sign: list[float] = []
    for i in range(n):
        var.append(i)
        sign.append(1.0)
        if not nonneg[i]:
            var.append(i)
            sign.append(-1.0)
    k = len(var)

    Ae, be = _constraint_rows(A_eq, b_eq, n)
    Au, bu = _constraint_rows(A_ub, b_ub, n)
    # The equality and the inequality rows, laid out by one gather.
    rows = np.concatenate([Ae, Au])
    std = np.zeros((len(rows), k + len(Au)))
    np.multiply(rows[:, var], sign, out=std[:, :k])
    std[len(Ae) :, k:] = np.eye(len(Au))

    res = solve_standard(std, np.concatenate([be, bu]))
    if res.status != "optimal":
        return res
    # Summed column by column in layout order: x+ first, then -x-.
    x = np.zeros(n)
    np.add.at(x, var, np.multiply(sign, res.x[:k]))
    return LPResult("optimal", x)


def _constraint_rows(A, b, n: int):
    """(A, b) as an (m, n) matrix and m values; no rows when A is None."""
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    if not len(A):
        return A, np.zeros(0)
    return A, np.asarray(b, dtype=float).reshape(-1)
