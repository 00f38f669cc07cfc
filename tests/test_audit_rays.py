"""Differential test of the tradable audits decided from cone rays.

``lp.cone_facts`` and ``conditions._verdict`` decide both
audits of a node without an LP. The oracle below is the per-node audit
LP they replaced, frozen: over free portfolio weights x, optimize the
expected child payoff p.Yx subject to s.x = 1 and Yx >= 0, the maximum
for the consistency audit and the minimum for the neutrality audit. An
infeasible LP is a vacuous audit. The LP is solved by
``lp_oracle.oracle_lp_optimum``, all bases at once; on a sample of the
random nodes it must agree with the per-basis ``oracle_solve_lp``.

Random nodes cover complete and rank-deficient child payoffs Y, prices
s outside the row space of Y, state prices λ (Y^T λ = s) with negative
entries (vacuous and unbounded audits), all-zero coordinates, and the
near-parallel shapes of ``test_lp_batched.py``, where every child pays
the price times a return. The nodes of one example share their shape
and are decided in one stacked call, so one stack mixes ranks.

Status and optimum must agree, the optimum within 1e-9 relative. Where
the optimum is 0 (a price outside the row space), the LP returns the
rounding noise of its vertex, seen up to about 3e-11, so zero optima
agree within 1e-9 absolute. Exact ties at λ.e = 0 for an extreme ray e
of the payoff cone are avoided: there the LP's answer turns on its
tolerances. A node with a ray whose |λ.e| is below 1e-6 max|λ| is
dropped from the example.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prodval import lp
from prodval.conditions import AUDIT_STATUSES, OPTIMAL, _verdict
from prodval.errors import NumericalFailure
from prodval.lp import cone_facts

from lp_oracle import oracle_lp_optimum, oracle_solve_lp

# --- oracle: the per-node audit LP, frozen ------------------------------------


def oracle_audit(Y, s, p, kind, optimum=oracle_lp_optimum):
    """(status, optimum) of one node's audit by the LP; ``optimum`` solves
    it and returns (status, objective)."""
    sign = -1.0 if kind == "consistency" else 1.0
    status, objective = optimum(
        sign * (p @ Y),
        A_eq=s.reshape(1, -1),
        b_eq=np.array([1.0]),
        A_ub=-Y,
        b_ub=np.zeros(len(Y)),
        nonneg=False,
    )
    if status == "infeasible":
        return "vacuous", None
    if status == "unbounded":
        assert kind == "consistency", "neutrality LP unbounded"
        return "unbounded", None
    return "optimal", sign * objective


def per_basis_optimum(c, **lp_args):
    res = oracle_solve_lp(c, **lp_args)
    return res.status, res.objective


# --- random nodes ----------------------------------------------------------------

KINDS = ("complete", "deficient", "outside", "near_parallel")


def _state_prices(rng, K):
    """Mostly positive, some negative, all away from 0."""
    lam = rng.uniform(0.05, 0.5, K)
    share = rng.choice([0.0, 0.3, 1.0])  # 1.0: every entry negative
    return np.where(rng.uniform(size=K) < share, -lam, lam)


def _node(rng, kind, K, d):
    if kind == "near_parallel":
        s = rng.uniform(0.1, 1.0, d) * (rng.uniform(size=d) < 0.8)
        Y = np.outer(rng.uniform(0.9, 1.1, K), s)
        return Y, s
    if kind == "complete":
        r = min(K, d)
    else:
        r = int(rng.integers(0, min(K, d)))
    Y = rng.uniform(-1.0, 2.0, (K, r)) @ rng.uniform(-1.0, 2.0, (r, d))
    s = Y.T @ _state_prices(rng, K)
    if kind == "outside":
        # A component along the null space of Y.
        _, sv, Vt = np.linalg.svd(Y)
        null = Vt[int((sv > 1e-9).sum()) :]
        if len(null):
            s = s + rng.uniform(0.5, 1.0) * null[int(rng.integers(len(null)))]
    if rng.uniform() < 0.3:
        j = int(rng.integers(d))
        Y[:, j] = 0.0
        s[j] = 0.0
    return Y, s


def ray_costs(Y, s):
    """λ.e over the extreme rays e of range(Y) ∩ R^K_+ (summing to 1),
    enumerated one support at a time; None when s is outside the row
    space of Y."""
    K = len(Y)
    U, sv, Vt = np.linalg.svd(Y)
    tol = lp._RANK_TOL * max(1.0, np.abs(Y).max(), np.abs(s).max())
    r = int((sv > tol).sum())
    lam = np.linalg.lstsq(Y.T, s, rcond=None)[0]
    if np.abs(Y.T @ lam - s).max() > 1e-9:
        return None
    M = np.vstack([U[:, r:].T, np.ones(K)])
    costs = []
    for J in combinations(range(K), K - r + 1):
        B = M[:, J]
        if np.linalg.svd(B, compute_uv=False)[-1] <= lp._RANK_TOL:
            continue
        z = np.linalg.solve(B, np.eye(len(J))[-1])
        if z.min() >= -lp.FEAS_TOL:
            costs.append(lam[list(J)] @ z)
    return np.array(costs), np.abs(lam).max()


def _near_tie(Y, s):
    costs = ray_costs(Y, s)
    if costs is None:
        return False
    costs, lam_max = costs
    return bool(len(costs)) and np.abs(costs).min() < 1e-6 * lam_max


def random_nodes(seed, kind):
    """A stack of nodes of one shape: (Y, s, p)."""
    rng = np.random.default_rng(seed)
    K, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    Ys, ss = [], []
    for _ in range(int(rng.integers(1, 5))):
        node_kind = kind if rng.uniform() < 0.5 else str(rng.choice(KINDS))
        Y, s = _node(rng, node_kind, K, d)
        if not _near_tie(Y, s):
            Ys.append(Y)
            ss.append(s)
    p = rng.uniform(0.2, 1.0, (len(Ys), K))
    p /= p.sum(axis=1, keepdims=True)
    return np.array(Ys).reshape(-1, K, d), np.array(ss).reshape(-1, d), p


def verdicts(kind, facts):
    """Per node the (status, optimum) of ``_verdict``'s arrays, as the
    oracle gives them: the status's name, and None for an optimum that
    the status leaves undefined (NaN)."""
    status, optimum = _verdict(kind, *facts)
    assert status.dtype == np.int8 and np.isnan(optimum[status != OPTIMAL]).all()
    return [
        (AUDIT_STATUSES[code], None if math.isnan(x) else x)
        for code, x in zip(status.tolist(), optimum.tolist())
    ]


def _same(got, want):
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_audits_match_the_lp(seed, kind):
    Y, s, p = random_nodes(seed, kind)
    assume(len(Y))
    facts = cone_facts(Y, s, p)
    for audit in ("consistency", "neutrality"):
        for k, got in enumerate(verdicts(audit, facts)):
            _same(got, oracle_audit(Y[k], s[k], p[k], audit))


def test_random_nodes_reach_every_status():
    """The generator reaches every status of both audits, with the price
    inside and outside the row space of Y where the status allows it."""
    seen = set()
    for seed in range(300):
        Y, s, p = random_nodes(seed, KINDS[seed % len(KINDS)])
        for k in range(len(Y)):
            outside = ray_costs(Y[k], s[k]) is None
            for audit in ("consistency", "neutrality"):
                seen.add((audit, oracle_audit(Y[k], s[k], p[k], audit)[0], outside))
    assert seen >= {
        ("consistency", "optimal", False),
        ("consistency", "optimal", True),
        ("consistency", "unbounded", False),
        ("consistency", "vacuous", False),
        ("consistency", "unbounded", True),
        ("neutrality", "optimal", False),
        ("neutrality", "vacuous", False),
        ("neutrality", "optimal", True),
    }


def test_stacked_oracle_matches_the_per_basis_oracle():
    """``oracle_lp_optimum`` decides the audit LPs of the first random
    nodes as the per-basis ``oracle_solve_lp`` does."""
    statuses = set()
    for seed in range(24):
        Y, s, p = random_nodes(seed, KINDS[seed % len(KINDS)])
        for k in range(len(Y)):
            for audit in ("consistency", "neutrality"):
                want = oracle_audit(Y[k], s[k], p[k], audit, optimum=per_basis_optimum)
                _same(oracle_audit(Y[k], s[k], p[k], audit), want)
                statuses.add(want[0])
    assert statuses == {"optimal", "unbounded", "vacuous"}


def test_complete_nodes_take_the_ratio_of_probability_to_state_price():
    """At a complete node the rays are the unit vectors: the optima are
    the largest and smallest p_k / λ_k."""
    rng = np.random.default_rng(3)
    Y = rng.uniform(0.5, 2.0, (3, 4))
    lam = np.array([0.2, 0.3, 0.4])
    p = np.array([0.5, 0.25, 0.25])
    facts = cone_facts(Y[None], (Y.T @ lam)[None], p[None])
    assert verdicts("consistency", facts) == [("optimal", pytest.approx(2.5, rel=1e-12))]
    assert verdicts("neutrality", facts) == [("optimal", pytest.approx(0.625, rel=1e-12))]


def test_chunks_change_no_verdict(monkeypatch):
    """``lp.cone_facts`` takes the cones of one rank in chunks of about
    ``_RAY_CHUNK`` candidate rays; one cone per chunk decides alike."""
    stacks = [random_nodes(seed, KINDS[seed % len(KINDS)]) for seed in range(200)]
    whole = [[f.tolist() for f in cone_facts(*stack)] for stack in stacks]
    monkeypatch.setattr(lp, "_RAY_CHUNK", 1)
    assert [[f.tolist() for f in cone_facts(*stack)] for stack in stacks] == whole


def test_too_many_supports_raise_before_enumerating():
    # 36 children at rank 27: C(36,10) supports.
    rng = np.random.default_rng(0)
    Y, s = rng.normal(size=(1, 36, 27)), rng.normal(size=(1, 27))
    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match=r"C\(36,10\)"):
        cone_facts(Y, s, np.ones((1, 36)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", range(8))
def test_a_zero_state_price_makes_the_maximum_unbounded(seed):
    """A complete node whose second child has state price 0: its Arrow
    payoff costs nothing, so the maximum is unbounded, and the minimum is
    the smaller of p_k/λ_k over the other two children, as the LP finds.
    The computed λ_2 is rounding noise of either sign (positive for about
    half the seeds), which the noise floor must count as 0."""
    Y = np.random.default_rng(seed).uniform(0.5, 2.0, (3, 4))
    s = Y.T @ np.array([0.3, 0.0, 0.4])
    p = np.array([0.2, 0.5, 0.3])
    facts = cone_facts(Y[None], s[None], p[None])
    assert verdicts("consistency", facts) == [("unbounded", None)]
    assert verdicts("neutrality", facts) == [("optimal", pytest.approx(0.2 / 0.3, rel=1e-12))]
    for audit in ("consistency", "neutrality"):
        _same(verdicts(audit, facts)[0], oracle_audit(Y, s, p, audit))
