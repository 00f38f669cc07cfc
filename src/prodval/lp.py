"""The three cone questions of ``check``, each asked for a stack of
nodes at once.

- ``cone_vertices``: the membership LP of every inner node (``market``),
  stacked per child count across dates, in the runs of
  ``ScenarioTree.sibling_groups``. For each system A[k] z = b[k],
  z >= 0 of a stack it returns the first vertex in
  ``itertools.combinations`` order of the bases, or reports that there
  is none, so the answer is deterministic and needs nothing beyond
  numpy.
- ``solve_lp``: the projection of the price of each node whose
  membership LP has no vertex onto the cone of its child payoffs,
  stacked by those runs likewise: non-negative least squares
  by Lawson and Hanson's active-set iteration. It returns ``(inside,
  lam, u)``: whether the residual r = s - Y^T lam is within FEAS_TOL *
  max(1, |Y|, |s|), the projection's weights lam, and elsewhere the
  violation u = -r / (s.r), which is -r / |r|^2 at the projection, so
  that Y u >= 0 and u.s = -1. It enumerates no basis.
- ``cone_facts``: what the tradable audits (``conditions``) are decided
  from, read off the extreme rays of each node's cone of non-negative
  attainable child payoffs without an LP: the rays are the vertices of
  {W z = 0, sum z = 1, z >= 0}, one stacked solve over the supports in
  ``_bases`` order.

No system's answer depends on which systems share its stack: stacked
SVDs, solves and products give each matrix the bits of its own, and the
stack-wide steps below keep each system's order of bases. Only the
limit on bases of ``cone_vertices`` counts columns over the stack.

A ``cone_vertices`` stack is decided in three steps: the greedy row
reduction (``_kept_rows``, mostly one SVD of each system's nonzero
rows), the test that the dropped rows follow from the kept ones
(``_dropped_status``), then per kept-row count r one enumeration
(``_first_vertices``) that keeps each system until its first vertex. A
system that keeps no row has the vertex z = 0.

Enumeration is chunked: bases are taken in combinations order,
``_CHUNK`` per system at a time, from an index array built once per
``(n, r)`` and cached, about ``_VERTEX_CHUNK`` (system, basis) pairs per
stacked ``np.linalg.solve`` after dropping exactly singular bases; the
residual and ``z >= 0`` filters are array operations. Each basis gets
the same bits as a solve of its own. A column that is zero in every
system of the stack (the weight of a child that pays nothing on the
restriction, say) is left out: a basis holding it is exactly singular,
so the other bases keep their combinations order, and it does not count
against ``_MAX_BASES``.

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

The dropped-row test expresses the dropped rows of all systems that keep
equally many rows through one stacked SVD; a system whose residuals lie
too close to the threshold for the rounding of that solve and of
``lstsq`` to agree is tested alone by ``lstsq`` (``_dropped_rows``).
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations

import numpy as np

from .errors import NumericalFailure

FEAS_TOL = 1e-9
_RANK_TOL = 1e-11
_MAX_BASES = 500_000
_DUAL_TOL = 1e-12  # solve_lp: least y_c.r / (|y_c| |r|) that adds child c
_MAX_SUPPORTS = 1 << 16  # cone_facts candidate rays per cone
_RAY_CHUNK = 1 << 14  # cone_facts candidate rays per stacked solve
_CHUNK = 512  # bases per system per stacked solve
_VERTEX_CHUNK = 1 << 14  # cone_vertices (system, basis) pairs per stacked solve
_ROUNDING_SLACK = 1 << 10  # eps multiple in the rounding bounds of the stacked row tests


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
    A zero row never is (its matrix's smallest singular value is within
    rounding of 0), so the greedy skips it.

    Most matrices are decided by one SVD of their p <= n nonzero rows:
    where the block's smallest singular value exceeds the tolerance by
    more than the rounding of that SVD and of the greedy's, every prefix
    of the block does too, as the rows' singular values interlace, so
    the greedy keeps exactly these rows. At p = m the block is the matrix
    and needs no margin. Only the other matrices run the greedy, each
    step testing those whose row i is nonzero, matrices that have kept
    equally many rows together."""
    N, m, n = A.shape
    nonzero = (A != 0).any(axis=2)
    p = nonzero.sum(axis=1)
    kept = np.zeros((N, m), dtype=bool)
    greedy = p > 0
    for size in set(p[greedy & (p <= n)].tolist()):
        g = np.flatnonzero(p == size)
        block = A[nonzero & (p == size)[:, None]].reshape(-1, size, n)
        sv = np.linalg.svd(block, compute_uv=False)
        margin = 0.0 if size == m else np.finfo(float).eps * _ROUNDING_SLACK * sv[:, 0]
        full = g[sv[:, -1] - margin > tol[g]]
        kept[full] = nonzero[full]
        greedy[full] = False
    todo = np.flatnonzero(greedy)
    rows = np.zeros((N, n), dtype=np.intp)  # rows[k, :count[k]] are kept
    count = np.zeros(N, dtype=np.intp)
    for i in range(m):
        if not len(todo):
            break
        live = todo[nonzero[todo, i]]
        c = count[live]
        sizes = sorted(set(c.tolist()), reverse=True)
        # Larger sizes first, so a matrix that keeps row i is not tested
        # again with its new size.
        for size in sizes:
            g = live if len(sizes) == 1 else live[c == size]
            rows[g, size] = i
            hit = g[_full_row_rank(A[g[:, None], rows[g, : size + 1]], tol[g])]
            count[hit] = size + 1
        if sizes and sizes[0] + 1 == n:
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


def _scale(A: np.ndarray, b: np.ndarray):
    """The largest of 1, |A| and |b| per system of a stack: the unit of
    the rank tolerance. fmax skips a NaN as Python's max does."""
    return np.fmax(
        1.0, np.fmax(np.abs(A).max(axis=(-2, -1), initial=0.0), np.abs(b).max(axis=-1, initial=0.0))
    )


def cone_vertices(A: np.ndarray, b: np.ndarray):
    """The systems A[k] z = b[k], z >= 0 of a stack, shape (N, m, n),
    decided together: (feasible, x). Where ``feasible[k]``, x[k] is the
    first vertex of system k in combinations order, clipped at +0.0;
    elsewhere it is zero. Raises NumericalFailure for the first system of
    the stack with a dropped row that the kept rows cannot express, or
    with more than ``_MAX_BASES`` bases C(n', r), before enumerating any:
    n' counts the columns that ``_first_vertices`` enumerates, those
    nonzero in the kept rows of some system that keeps r rows."""
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
    reduced = {}  # kept-row count r -> (systems, A and b on their kept rows)
    width = np.zeros(m + 1, dtype=np.intp)  # enumerated columns per r
    for r in sorted(set(rank[implied].tolist()) - {0}):
        idx = np.flatnonzero(implied & (rank == r))
        Ar = A[idx][kept[idx]].reshape(-1, r, n)
        reduced[r] = idx, Ar, b[idx][kept[idx]].reshape(-1, r)
        width[r] = np.count_nonzero(Ar.any(axis=(0, 1)))
    too_large = np.array([r > 0 and math.comb(int(width[r]), r) > _MAX_BASES for r in range(m + 1)])
    raises = np.flatnonzero(failed | implied & too_large[rank])
    if len(raises):
        k = raises[0]
        if failed[k]:
            raise NumericalFailure("row reduction failed to express a dependent row")
        raise NumericalFailure(f"basis enumeration too large: C({width[rank[k]]},{rank[k]})")
    feasible[implied & (rank == 0)] = True
    for idx, Ar, br in reduced.values():
        feasible[idx], x[idx] = _first_vertices(Ar, br, scale[idx])
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
    has a vertex, and the first one in combinations order.

    The bases are taken over the columns that are nonzero in some system
    of the stack: a basis holding a column that is zero in its system is
    exactly singular, so leaving out the columns zero in every system
    keeps the order of the other bases. About ``_VERTEX_CHUNK`` (system,
    basis) pairs go into one stacked solve, a system's bases ``_CHUNK``
    at a time, and a system leaves once it has its vertex. The filters
    are: slogdet sign, residual, sign, then the conditioning test on the
    bases that pass them."""
    N, r, n = A.shape
    found = np.zeros(N, dtype=bool)
    x = np.zeros((N, n))
    cols = np.flatnonzero(A.any(axis=(0, 1)))
    bases = _bases(len(cols), r)
    tol = _RANK_TOL * scale
    # sigma_min(B) >= |det B| / sigma_max(B)**(r-1) >= |det B| / |A|_F**(r-1):
    # a basis whose log|det| clears this floor is well conditioned
    # without an SVD (the factor 2 absorbs the rounding of log|det|).
    sure_log_det = np.log(2.0 * tol) + (r - 1) * np.log(np.linalg.norm(A, axis=(1, 2)))
    step = min(len(bases), _CHUNK)
    per_chunk = max(1, _VERTEX_CHUNK // step)
    for start in range(0, N, per_chunk):
        todo = np.arange(start, min(N, start + per_chunk))
        for first in range(0, len(bases), step):
            J = cols[bases[first : first + step]]
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
            # Adding 0.0 makes a clipped -0.0 read +0.0, whatever clip
            # makes of it.
            x[node[:, None], J[j[hit]]] = z[hit].clip(0.0, None) + 0.0
            found[node] = True
            todo = np.delete(todo, t)
            if not len(todo):
                break
    return found, x


def cone_facts(Y: np.ndarray, s: np.ndarray, p: np.ndarray):
    """What both tradable audits are decided from, for a stack of nodes
    with equal child counts: Y (N, K, d) holds each node's restricted
    child payoffs, one row per child, s (N, d) its restricted price and
    p (N, K) its child probabilities. Returns per node (outside, ray,
    positive, flat, hi, lo).

    The payoffs of admissible portfolios with non-negative child payoffs
    form the cone C = range(Y) ∩ R^K_+. ``outside``: s is not in the row
    space of Y. ``ray``: C has an extreme ray. Otherwise Y^T λ = s, and a
    portfolio with payoff z ∈ C costs λ.z. ``positive``: some extreme ray
    e has λ.e above the noise floor FEAS_TOL * max|λ|; ``flat``: some has
    not; ``hi`` and ``lo``: the largest and smallest p.e / λ.e over the
    rays of the first kind (-inf and inf without one).

    One stacked SVD of Y gives every node's rank r, counting the singular
    values above the rank tolerance ``_RANK_TOL * max(1, |Y|, |s|)``; s
    is outside when a component of V^T s beyond the first r exceeds it.
    The rays of C, scaled to sum 1, are the vertices of {W z = 0,
    sum z = 1, z >= 0}, W the q = K - r rows of the left null space of
    Y: the basic solutions on the supports of ``_bases(K, q+1)`` whose
    basis passes the conditioning test and whose entries are at least
    -FEAS_TOL, clipped at 0 (``_cone_rays``). At r = K they are the unit
    vectors, and no solve is needed. The nodes of one rank are taken in
    chunks of about ``_RAY_CHUNK`` candidate rays. Raises NumericalFailure
    for the first node of the stack whose cone has more than
    ``_MAX_SUPPORTS`` supports, before building any."""
    N, K, d = Y.shape
    tol = _RANK_TOL * _scale(Y, s)
    U, sv, Vt = np.linalg.svd(Y)
    rank = (sv > tol[:, None]).sum(axis=1)
    t = (Vt @ s[..., None])[..., 0]
    outside = ((np.arange(d) >= rank[:, None]) & (np.abs(t) > tol[:, None])).any(axis=1)
    ray, positive, flat = (np.zeros(N, dtype=bool) for _ in range(3))
    hi, lo = np.full(N, -np.inf), np.full(N, np.inf)
    too_large = [math.comb(K, K - r + 1) > _MAX_SUPPORTS for r in range(min(K, d) + 1)]
    bad = np.flatnonzero(np.array(too_large)[rank])
    if len(bad):
        raise NumericalFailure(f"ray enumeration too large: C({K},{K - rank[bad[0]] + 1})")
    for r in set(rank.tolist()):
        g = np.flatnonzero(rank == r)
        q = K - r
        n_supports = math.comb(K, q + 1)
        # The least-norm solution of Y^T λ = s where s is not outside;
        # λ.z is the same for every solution when z ∈ C.
        lam = (U[g, :, :r] @ (t[g, :r] / sv[g, :r])[..., None])[..., 0]
        W = U[g, :, r:].transpose(0, 2, 1)  # the left null space of Y
        prob = p[g]
        step = max(1, _RAY_CHUNK // max(n_supports, 1))
        for start in range(0, len(g), step):
            k = slice(start, start + step)
            if q:
                rays, is_ray = _cone_rays(W[k])
                cost = (rays @ lam[k, :, None])[..., 0]
                gain = (rays @ prob[k, :, None])[..., 0]
            else:
                is_ray = np.ones(lam[k].shape, dtype=bool)
                cost, gain = lam[k], prob[k]
            floor = FEAS_TOL * np.abs(lam[k]).max(axis=1, initial=0.0)
            up = is_ray & (cost > floor[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = gain / cost
            n = g[k]
            ray[n] = is_ray.any(axis=1)
            positive[n] = up.any(axis=1)
            flat[n] = (is_ray & ~up).any(axis=1)
            hi[n] = np.where(up, ratio, -np.inf).max(axis=1, initial=-np.inf)
            lo[n] = np.where(up, ratio, np.inf).min(axis=1, initial=np.inf)
    return outside, ray, positive, flat, hi, lo


def _cone_rays(W: np.ndarray):
    """The candidate rays of ``cone_facts`` for a stack W, shape
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


def solve_lp(Y: np.ndarray, s: np.ndarray):
    """The projection of each node's restricted price onto the cone of
    its child payoffs, for a stack of nodes with equal child counts: Y
    (N, K, d) holds each node's restricted child payoffs, one row per
    child, and s (N, d) its restricted price. Returns (inside, lam, u).
    The name is kept from the Farkas LP this replaced.

    lam >= 0 minimises |r|, r = s - Y^T lam. ``inside`` is |r| <=
    FEAS_TOL * max(1, |Y|, |s|). Elsewhere u = -r / (s.r) is a
    violation, zero where inside: at the projection Y r <= 0 and
    lam.(Y r) = 0 (Moreau 1962), so s.r = |r|^2, Y u >= 0 and u.s = -1.

    Lawson & Hanson's active-set iteration (1974, ch. 23), one round for
    the whole stack at a time, with a passive-set mask per node. A node
    whose last solve on its passive set was non-negative adds the child
    with the largest y_c.r / |y_c| above ``_DUAL_TOL * |r|``, or stops
    when there is none or it is inside. A node whose solve was not steps
    back to where its first weight reaches 0 and drops the children at
    0. Each solve is the least-norm one, from one stacked SVD with the
    rank tolerance of ``cone_vertices``. The residual is projected off
    the span of the passive children once more before u is taken from
    it: the rounding of s - Y^T lam along that span would otherwise give
    y_c.u an error of about eps |s| / |r| relative to |y_c| |u|."""
    Y = np.asarray(Y, dtype=float)
    s = np.asarray(s, dtype=float)
    N, K, d = Y.shape
    scale = _scale(Y, s)
    tol = FEAS_TOL * scale
    cut = _RANK_TOL * scale
    size = np.linalg.norm(Y, axis=2)
    lam = np.zeros((N, K))
    passive = np.zeros((N, K), dtype=bool)
    live = np.ones(N, dtype=bool)  # still iterating
    solved = np.ones(N, dtype=bool)  # lam solves its passive set
    r = s.copy()
    for _ in range(3 * K + 1):
        t = np.flatnonzero(live & solved)
        if len(t):
            w = (Y[t] @ r[t, :, None])[..., 0]
            norm = np.linalg.norm(r[t], axis=1)[:, None]
            enter = ~passive[t] & (w > _DUAL_TOL * size[t] * norm) & (norm > tol[t, None])
            some = enter.any(axis=1)
            live[t[~some]] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                j = np.where(enter, w / size[t], -np.inf).argmax(axis=1)
            passive[t[some], j[some]] = True
        g = np.flatnonzero(live)
        if not len(g):
            break
        z, _ = _passive_solve(Y[g], s[g], passive[g], cut[g])
        bad = passive[g] & (z <= 0.0)
        ok = ~bad.any(axis=1)
        lam[g[ok]] = z[ok]
        solved[g] = ok
        b = g[~ok]
        if len(b):
            # Step from lam towards z until the first weight reaches 0.
            old, z, bad = lam[b], z[~ok], bad[~ok]
            step = np.zeros(old.shape)
            np.divide(old, old - z, out=step, where=bad & (old > z))
            step = np.where(bad, step, np.inf)
            first = step.argmin(axis=1)
            new = old + step[np.arange(len(b)), first][:, None] * (z - old)
            keep = passive[b] & (new > 0.0)
            keep[np.arange(len(b)), first] = False
            passive[b] = keep
            lam[b] = np.where(keep, new, 0.0)
        r[g] = s[g] - (lam[g, None, :] @ Y[g])[:, 0]
    inside = np.linalg.norm(r, axis=1) <= tol
    _, V = _passive_solve(Y, s, passive, cut)
    r -= ((r[:, None, :] @ V.transpose(0, 2, 1)) @ V)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Adding 0.0 makes a -0.0 read +0.0.
        u = -r / (s * r).sum(axis=1)[:, None] + 0.0
    u[inside] = 0.0
    return inside, lam, u


def _passive_solve(Y: np.ndarray, s: np.ndarray, passive: np.ndarray, cut: np.ndarray):
    """(z, V) for a stack: z the least-norm minimiser of |s - Y^T z|
    over the z that are zero off the ``passive`` children, and V, shape
    (N, min(K, d), d), whose nonzero rows are an orthonormal basis of the
    span of the passive children's payoffs. Singular values at most
    ``cut`` count as zero."""
    M = Y * passive[..., None]
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    keep = S > cut[:, None]
    inv = np.where(keep, 1.0 / np.where(keep, S, 1.0), 0.0)
    z = (U @ ((Vt @ s[..., None])[..., 0] * inv)[..., None])[..., 0]
    return z * passive, Vt * keep[..., None]
