"""Differential tests of the fixed-mix scale search.

The oracle below is a frozen copy of the batched doubling bracket and
bisection that ``engine._bisect_scales`` ran before it replayed those
loops against an estimate and certified the outcome with two real
checks per row. The search must give the oracle's scales and solved
bits exactly:

- on the one-period problems of ``test_one_period_step.py``, under every
  fulfillment condition, with zero prices, infinite liability atoms,
  rows unsolved at 2**60, scales large enough that the bracket stops at
  adjacent floats, and coarse and fine tolerances;
- on synthetic threshold predicates, from estimates that are exact,
  one grid step off either way, far off, 0 and infinite, which drive
  every retry branch of the certification.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prodval import engine
from prodval.conditions import FinanciabilitySpec, FulfillmentSpec, flat_rates
from prodval.engine import (
    EngineConfig,
    IlliquidPortfolio,
    LiabilitySpec,
    StrategyFamily,
    backward_value,
    build_one_period,
    fulfillment_satisfied,
)
from prodval.lattice import build_tree

from test_one_period_step import MIX_INDICES, zero_price_inside_a_year
from test_risk_free_step import FULFILLMENTS, SHAPES, make_problem
from util import make_grid, state_price_market

INF = math.inf


# --- oracle: the batched bisection, frozen ------------------------------------


def frozen_loops(ok, pending, solved, tol):
    """The doubling bracket from 1 up to 2**60 and the bisection to
    ``tol`` of the rows in ``pending``, which fail at 0; clears
    ``solved`` where the bracket passes 2**60. Returns the scales and
    each row's final lo."""
    hi = np.ones(len(pending))
    bracketing = pending
    while bracketing.any():
        failed = bracketing & ~ok(hi, bracketing)
        hi = np.where(failed, hi * 2.0, hi)
        solved &= ~(hi > 2.0**60)
        bracketing = failed & solved
    pending &= solved
    lo = np.zeros(len(pending))
    active = pending & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        good = ok(mid, active)
        stuck = (mid == lo) | (mid == hi)
        hi = np.where(good, mid, hi)
        lo = np.where(active & ~good, mid, lo)
        active &= (hi - lo > tol) & ~stuck
    return np.where(pending, hi, 0.0), lo


def frozen_bisect_scales(year, portfolio, fulfillment, solved, tol):
    n = len(solved)

    def ok(s, rows):
        pots, _, end = engine._roll(year, portfolio, s)
        good = np.flatnonzero(engine._interior_ok(year, pots, rows.copy()))
        surplus = year.dist.with_values(year.pad(end - year.ell)).take(good)
        out = np.zeros(n, dtype=bool)
        out[good] = fulfillment_satisfied(fulfillment, surplus)
        return out

    if fulfillment.variant == "full":
        solved &= ~year.pad(np.isinf(year.ell)).any(axis=1)
    pending = solved & ~ok(np.zeros(n), solved)
    return frozen_loops(ok, pending, solved, tol)[0]


# --- the search inside the one-period step --------------------------------------


def _one_date(seed, shape, indices, depth, zero_price, infinite, magnitude, tol, fulfillment):
    """Runs ``build_one_period`` at one date of a random problem with
    random effective liabilities, holding every scale search to the
    oracle; returns the solved bits of the searches."""
    tree, market, liab, psi = make_problem(seed, shape, None, True, 1.0, 2)
    indices = tuple(k for k in indices if k < market.n_assets)
    rng = np.random.default_rng(seed)
    if zero_price is not None:
        market = zero_price_inside_a_year(rng, tree, market, zero_price)
    i = int(rng.integers(tree.grid.horizon))
    nodes = tree.nodes_at(i)
    ends = np.asarray(tree.nodes_at(i + 1))
    ell = np.zeros(tree.n_nodes)
    ell[ends] = rng.uniform(-50.0, 250.0, len(ends)) * magnitude
    if infinite:
        ell[ends[rng.uniform(size=len(ends)) < 0.3]] = INF
    net = (liab.inflows + psi.inflows - liab.outflows) * magnitude
    searched = []

    def checked(year, portfolio, fulfillment, solved, tol):
        want_solved = solved.copy()
        want = frozen_bisect_scales(year, portfolio, fulfillment, want_solved, tol)
        got = engine_search(year, portfolio, fulfillment, solved, tol)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert np.array_equal(solved, want_solved)
        searched.append(solved.copy())
        return got

    engine_search = engine._bisect_scales
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_bisect_scales", checked)
        build_one_period(
            nodes, ell, net, StrategyFamily.fixed_mix(indices), fulfillment,
            FinanciabilitySpec.cost_of_capital(0.06), market, tree,
            flat_rates(tree, 0.02)[list(nodes)], "B", tol, depth,
        )
    assert len(searched) == 1
    return searched[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(SHAPES),
    indices=st.sampled_from(MIX_INDICES),
    depth=st.integers(0, 3),
    zero_price=st.sampled_from([None, None, 0, 1]),
    infinite=st.booleans(),
    magnitude=st.sampled_from([1.0, 100.0, 1e6]),
    tol=st.sampled_from([1e-10, 1e-6, 2.0]),
    fulfillment=st.sampled_from(FULFILLMENTS),
)
@example(1, (1, 1), (0, 1), 2, None, True, 1.0, 1e-10, FulfillmentSpec.es(0.3))
@example(1, (2, 1), (0, 1), 2, None, True, 1.0, 1e-10, FulfillmentSpec.full())
@example(2, (1, 2), (0, 1), 3, None, False, 1e6, 1e-10, FulfillmentSpec.var(0.2))
@example(3, (1, 1), (1,), 1, 1, False, 100.0, 2.0, FulfillmentSpec.probability(0.9))
def test_search_matches_the_frozen_bisection(
    seed, shape, indices, depth, zero_price, infinite, magnitude, tol, fulfillment
):
    _one_date(seed, shape, indices, depth, zero_price, infinite, magnitude, tol, fulfillment)


def test_the_examples_reach_unsolved_and_stuck_rows():
    """Infinite liability atoms under ES leave rows unsolved at 2**60,
    and a magnitude of 1e6 puts the scales where the bracket stops at
    adjacent floats before the tolerance."""
    searches = []
    real = engine._certified_replay

    def spy(ok, t, pending, tol):
        hi, found = real(ok, t, pending, tol)
        searches.append((pending, hi, found))
        return hi, found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_certified_replay", spy)
        _one_date(1, (1, 1), (0, 1), 2, None, True, 1.0, 1e-10, FulfillmentSpec.es(0.3))
        _one_date(2, (1, 2), (0, 1), 3, None, False, 1e6, 1e-10, FulfillmentSpec.var(0.2))
    (pending, _, found), (_, hi, stuck) = searches
    assert (pending & ~found).any()
    assert (hi[stuck] > 2.0**19).any()


# --- the search on synthetic predicates -----------------------------------------


def _threshold(c, strict=False):
    """A predicate passing at the scales from the thresholds ``c`` on
    (above them if ``strict``), counting its calls."""

    def ok(s, rows):
        ok.calls += 1
        return rows & ((s > c) if strict else (s >= c))

    ok.calls = 0
    return ok


THRESHOLDS = np.array([
    1e-12, 0.3, 1.0, 1.5, 37.2, 100.0 + 1e-9, 2.0**19 + 0.1, 1e6 / 3.0, 2.0**59,
    2.0**60, 2.0**60 * (1.0 + 2.0**-52), 1e300, INF,
])


def _oracle(c, tol, strict=False):
    pending = np.ones(len(c), dtype=bool)
    solved = pending.copy()
    hi, lo = frozen_loops(_threshold(c, strict), pending.copy(), solved, tol)
    return hi, solved, lo


def _search(c, t, tol, strict=False):
    ok = _threshold(c, strict)
    hi, found = engine._certified_replay(ok, t, np.ones(len(c), dtype=bool), tol)
    return np.where(found, hi, 0.0), found, ok.calls


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 2.0])
def test_exact_estimates_take_one_round(tol):
    want, solved, _ = _oracle(THRESHOLDS, tol)
    got, found, calls = _search(THRESHOLDS, THRESHOLDS, tol)
    assert got.tobytes() == want.tobytes() and np.array_equal(found, solved)
    assert calls == 2


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 2.0])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_estimates_one_grid_step_off_take_two_rounds(tol, side):
    """An estimate one final bracket below or above the threshold is
    certified at the second try, in the bracket next to the failed
    one."""
    c = THRESHOLDS[:-4]
    want, solved, lo = _oracle(c, tol)
    t = c + side * (want - lo)
    got, found, calls = _search(c, t, tol)
    assert got.tobytes() == want.tobytes() and np.array_equal(found, solved)
    assert calls == 4


def _far_off(kind, c):
    """Estimates of the thresholds ``c`` that are 0, infinite, far off on
    either side, or random."""
    return {
        "zero": np.zeros(len(c)),
        "inf": np.full(len(c), INF),
        "far_below": c * 1e-6,
        "far_above": c * 1e6 + 1e3,
        "random": 10.0 ** np.random.default_rng(7).uniform(-12.0, 20.0, len(c)),
    }[kind]


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 2.0])
@pytest.mark.parametrize("kind", ["zero", "inf", "far_below", "far_above", "random"])
@pytest.mark.parametrize("strict", [False, True])
def test_any_estimate_gives_the_bisection_bits(tol, kind, strict):
    """Estimates that are 0, infinite, or far off on either side cost
    checks, never bits."""
    c = THRESHOLDS
    want, solved, _ = _oracle(c, tol, strict)
    got, found, _ = _search(c, _far_off(kind, c), tol, strict)
    assert got.tobytes() == want.tobytes() and np.array_equal(found, solved)


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 2.0])
@pytest.mark.parametrize("kind", ["zero", "inf", "far_below", "far_above", "random"])
def test_far_off_estimates_cost_at_most_four_checks_more(tol, kind):
    """Two replays of two checks each, then the bisection itself: a
    far-off estimate costs at most 4 checks more than the bisection."""
    bisection = _threshold(THRESHOLDS)
    pending = np.ones(len(THRESHOLDS), dtype=bool)
    frozen_loops(bisection, pending.copy(), pending.copy(), tol)
    _, _, calls = _search(THRESHOLDS, _far_off(kind, THRESHOLDS), tol)
    assert calls <= bisection.calls + 4, (calls, bisection.calls)


def test_contradicting_checks_fall_back_to_the_bisection():
    """A predicate that is not monotone can make the certificate's two
    checks contradict each other; those rows run the loops on the
    predicate itself."""

    def ok(s, rows):
        # Passes on [3, 4) and from 10 on.
        return rows & (((s >= 3.0) & (s < 4.0)) | (s >= 10.0))

    pending = np.ones(4, dtype=bool)
    solved = pending.copy()
    want, _ = frozen_loops(ok, pending.copy(), solved, 1e-10)
    # At 4 the replay's last bracket is (4 - 2**-34, 4]: ok fails at its
    # hi and passes at its lo.
    t = np.array([4.0, 4.0, 1e3, 10.0])
    hi, found = engine._certified_replay(ok, t, pending, 1e-10)
    assert np.where(found, hi, 0.0).tobytes() == want.tobytes()
    assert np.array_equal(found, solved)


@settings(max_examples=50, deadline=None)
@given(
    c=st.lists(
        st.one_of(
            st.floats(1e-15, 2.0**61, allow_nan=False),
            st.sampled_from([1.0, 2.0**60, INF]),
        ),
        min_size=1, max_size=6,
    ),
    noise=st.lists(st.floats(-40.0, 40.0, allow_nan=False), min_size=6, max_size=6),
    tol=st.sampled_from([1e-10, 1e-6, 2.0]),
    strict=st.booleans(),
)
def test_random_estimates_give_the_bisection_bits(c, noise, tol, strict):
    c = np.array(c)
    t = c * 2.0 ** np.array(noise[: len(c)])
    want, solved, _ = _oracle(c, tol, strict)
    got, found, _ = _search(c, t, tol, strict)
    assert got.tobytes() == want.tobytes() and np.array_equal(found, solved)


# --- the saving, as a count -------------------------------------------------------


def _full_tree(branch, years):
    """A full ``branch``-ary tree with one interior date per year."""
    grid = make_grid(years, 1)
    nodes = [{"id": "n0", "date": grid.dates[0], "parent": None, "p": 1.0}]
    layer = ["n0"]
    for j in range(1, len(grid.dates)):
        nxt = []
        for parent in layer:
            for _ in range(branch):
                nxt.append(f"n{len(nodes)}")
                nodes.append(
                    {"id": nxt[-1], "date": grid.dates[j], "parent": parent, "p": 1.0 / branch}
                )
        layer = nxt
    return build_tree(grid, nodes)


def test_fixed_mix_step_rolls_a_few_times_per_date():
    """A fixed mix over 2 assets at grid_depth 3 under ES 1% on a 3-ary
    two-year tree: the scale search and the step roll each date's year
    at most 12 times, where the doubling and bisection rolled it about
    54 times."""
    rng = np.random.default_rng(5)
    tree = _full_tree(3, 2)
    market, _ = state_price_market(rng, tree, n_risky=2)
    annual = [m for i in (1, 2) for m in tree.nodes_at(i).tolist()]
    outflows = np.zeros(tree.n_nodes)
    outflows[annual] = rng.uniform(50.0, 150.0, len(annual))
    terminal = np.zeros(tree.n_nodes)
    leaves = list(tree.nodes_at(2))
    terminal[leaves] = rng.uniform(0.0, 50.0, len(leaves))
    zero = np.zeros(tree.n_nodes)
    rolls, per_date = [0], []
    roll, step = engine._roll, engine.build_one_period

    def counted_roll(*args):
        rolls[0] += 1
        return roll(*args)

    def counted_step(*args, **kwargs):
        before = rolls[0]
        out = step(*args, **kwargs)
        per_date.append(rolls[0] - before)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_roll", counted_roll)
        patch.setattr(engine, "build_one_period", counted_step)
        cost = backward_value(
            LiabilitySpec(outflows, zero, terminal), IlliquidPortfolio(zero),
            EngineConfig(family=StrategyFamily.fixed_mix((0, 1)), grid_depth=3),
            FulfillmentSpec.es(0.01), FinanciabilitySpec.cost_of_capital(0.06), market,
            tree, flat_rates(tree, 0.02),
        )
    assert cost.feasible
    assert len(per_date) == 2
    assert max(per_date) <= 12, per_date
