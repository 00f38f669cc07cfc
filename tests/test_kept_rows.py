"""Differential test of the row reduction in ``lp.cone_vertices``.

``lp._kept_rows`` decides most systems from one SVD of their nonzero
rows and runs the greedy only on the others, skipping their zero rows.
The frozen function below is the reduction it replaced: the whole
matrix's rank test where m <= n, else the greedy over every row. On
stacks mixing zero rows, all-zero systems, rows and blocks within a few
ulps of the rank tolerance, rank-deficient blocks, and more nonzero rows
than columns, with m below, at and above n, both must keep the same
rows, and ``cone_vertices`` must give the same answer bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.errors import NumericalFailure

# --- frozen: the greedy row reduction -----------------------------------------------


def _frozen_kept_rows(A: np.ndarray, tol: np.ndarray) -> np.ndarray:
    N, m, n = A.shape
    todo = np.arange(N)
    if m and m <= n:
        todo = np.flatnonzero(~lp._full_row_rank(A, tol))
    kept = np.ones((N, m), dtype=bool)
    if not len(todo):
        return kept
    kept[todo] = False
    rows = np.zeros((N, n), dtype=np.intp)
    count = np.zeros(N, dtype=np.intp)
    for i in range(m):
        if not len(todo):
            break
        c = count[todo]
        sizes = sorted(set(c.tolist()), reverse=True)
        for size in sizes:
            g = todo if len(sizes) == 1 else todo[c == size]
            rows[g, size] = i
            hit = g[lp._full_row_rank(A[g[:, None], rows[g, : size + 1]], tol[g])]
            count[hit] = size + 1
        if sizes[0] + 1 == n:
            todo = todo[count[todo] < n]
    held = np.arange(n) < count[:, None]
    kept[np.nonzero(held)[0], rows[held]] = True
    return kept


# --- generators ---------------------------------------------------------------------

EPS = np.finfo(float).eps
KINDS = ("dense", "zero_rows", "all_zero", "near_tol_rows", "near_tol_block", "deficient", "tall")


def _near_tol(rng, scale):
    """The rank tolerance of a system of this scale, moved by a few ulps
    or, at times, by up to 5% above it (inside the block test's margin)."""
    tol = lp._RANK_TOL * scale
    if rng.uniform() < 0.5:
        return tol * (1.0 + EPS * int(rng.integers(-4, 5)))
    return tol * (1.0 + rng.uniform(0.0, 0.05))


def _system(rng, m, n, kind):
    """One system (A, b) of shape (m, n) with entries at most ``scale``,
    which sets its rank tolerance; ``kind`` shapes its rows."""
    scale = float(rng.choice([1.0, 1.0, 8.0, 1e3]))
    A = rng.uniform(-1.0, 1.0, size=(m, n)) * scale
    zero = rng.uniform(size=m) < 0.5
    if kind == "all_zero":
        A[:] = 0.0
    elif kind == "zero_rows":
        A[zero] = 0.0
    elif kind == "near_tol_rows" and m:
        # Rows whose norm is the tolerance within a few ulps, along a
        # coordinate (so that norm is exact) or a random direction.
        A[zero] = 0.0
        for i in np.flatnonzero(rng.uniform(size=m) < 0.5).tolist():
            v = np.zeros(n)
            if rng.uniform() < 0.5:
                v[int(rng.integers(n))] = 1.0
            else:
                v = rng.normal(size=n)
                v /= np.linalg.norm(v)
            A[i] = v * _near_tol(rng, scale)
    elif kind == "near_tol_block" and m:
        # The nonzero rows' smallest singular value at the tolerance.
        A[zero] = 0.0
        live = np.flatnonzero(~zero)
        if len(live):
            U, sv, Vt = np.linalg.svd(A[live], full_matrices=False)
            sv[-1] = _near_tol(rng, scale)
            A[live] = (U * sv) @ Vt
    elif kind == "deficient" and m > 1:
        A[zero] = 0.0
        src = int(rng.integers(m))
        A[int(rng.integers(m))] = A[src] * rng.choice([1.0, -2.0, 0.5])
    elif kind == "tall":
        # More nonzero rows than columns.
        A[rng.uniform(size=m) < 0.2] = 0.0
    z = rng.uniform(0.0, 1.0, size=n)
    z[rng.uniform(size=n) < 0.3] = 0.0
    b = A @ z
    if rng.uniform() < 0.3:
        b = b + rng.normal(size=m) * 10.0 ** rng.uniform(-12, -1)
    return A, b


def _stack(seed):
    """A stack of 1-12 systems of one shape (N, m, n), m from 0 to n + 5,
    each of its own kind."""
    rng = np.random.default_rng([seed, 27])
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, n + 6))
    kinds = [KINDS[int(rng.integers(len(KINDS)))] for _ in range(int(rng.integers(1, 13)))]
    systems = [_system(rng, m, n, kind) for kind in kinds]
    A = np.stack([a for a, _ in systems]).reshape(len(systems), m, n)
    b = np.stack([v for _, v in systems]).reshape(len(systems), m)
    return A, b


def _tol(A, b):
    return lp._RANK_TOL * lp._scale(A, b)


def _vertices(A, b):
    try:
        feasible, x = lp.cone_vertices(A, b)
    except NumericalFailure as e:
        return ("raises", str(e))
    return feasible.tobytes(), x.tobytes()


# --- the differential tests -------------------------------------------------------------


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_kept_rows_match_the_greedy(seed):
    """The same mask as the frozen greedy, and the same ``cone_vertices``
    answer, bit for bit, as with the frozen greedy in its place."""
    A, b = _stack(seed)
    tol = _tol(A, b)
    got = lp._kept_rows(A, tol)
    want = _frozen_kept_rows(A, tol)
    assert got.shape == want.shape and (got == want).all()
    answer = _vertices(A, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_kept_rows", _frozen_kept_rows)
        assert answer == _vertices(A, b)


def test_generators_reach_every_case():
    """Over fixed seeds the stacks reach: m below, at and above n; all-zero
    systems; blocks of nonzero rows below m that the block test decides,
    and that only its margin sends to the greedy; blocks of full rank that
    are not kept whole; rows within a few ulps of the tolerance that the
    greedy keeps and drops; and more nonzero rows than columns."""
    seen = set()
    for seed in range(300):
        A, b = _stack(seed)
        N, m, n = A.shape
        seen.add("m<n" if m < n else "m=n" if m == n else "m>n")
        tol = _tol(A, b)
        kept = _frozen_kept_rows(A, tol)
        nonzero = (A != 0).any(axis=2)
        p = nonzero.sum(axis=1)
        for k in range(N):
            if m and not p[k]:
                seen.add("all_zero")
            if p[k] > n:
                seen.add("tall")
            if 0 < p[k] <= n and p[k] < m:
                sv = np.linalg.svd(A[k][nonzero[k]], compute_uv=False)
                if sv[-1] - EPS * lp._ROUNDING_SLACK * sv[0] > tol[k]:
                    seen.add("block_decides")
                elif sv[-1] > tol[k]:
                    seen.add("margin_sends_to_greedy")
                    if not (kept[k] == nonzero[k]).all():
                        seen.add("full_block_not_kept")
            norms = np.linalg.norm(A[k], axis=1)
            near = np.abs(norms / tol[k] - 1.0) <= 8 * EPS
            seen |= {("near_tol_kept", bool(v)) for v in kept[k][near].tolist()}
    assert seen >= {
        "m<n", "m=n", "m>n", "all_zero", "tall", "block_decides", "margin_sends_to_greedy",
        ("near_tol_kept", True), ("near_tol_kept", False),
    }, seen


def test_a_block_over_the_tolerance_by_rounding_runs_the_greedy():
    """Row 0 alone has norm exactly at the tolerance, so the greedy drops
    it; the SVD of both nonzero rows can round their smallest singular
    value one ulp above it (it does with the LAPACK this was found on).
    The block test's margin sends the system to the greedy, which keeps
    row 2 alone."""
    A = np.zeros((1, 3, 2))
    A[0, 0, 0] = 1e-11
    A[0, 2, 1] = float.fromhex("0x1.68a79999c1d84p-37")
    tol = _tol(A, np.zeros((1, 3)))
    assert tol.tolist() == [1e-11]
    assert lp._kept_rows(A, tol).tolist() == _frozen_kept_rows(A, tol).tolist() == [
        [False, False, True]
    ]
