"""Differential tests of the fixed-mix scale search.

The oracle below is a frozen copy of the batched doubling bracket and
bisection that ``engine._bisect_scales`` ran on the real check, one roll
per loop step. The search now estimates each row's threshold, takes the
bisection's outcome against the estimate in closed form, and certifies
it with two real checks per row. It must give the oracle's scales and
solved bits exactly:

- on the one-period problems of ``test_one_period_step.py``, under every
  fulfillment condition, with zero prices, infinite liability atoms,
  rows unsolved at 2**60, scales large enough that the bracket stops at
  adjacent floats, and coarse and fine tolerances;
- on synthetic threshold predicates, from estimates that are exact,
  one grid step off either way, far off, 0 and infinite, which drive
  every retry branch of the certification.

The two pieces of the search are held to their own definitions too: the
closed form to the bisection's loops against ``s >= t``, and the Newton
estimate for ES to the ES root, which it never passes by more than
rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prodval import engine
from prodval.conditions import SLACK, FinanciabilitySpec, FulfillmentSpec, flat_rates
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
from prodval.risk import DistributionRows, expected_shortfall

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


# --- the bisection against a threshold, in closed form ---------------------------


def _with_neighbours(x):
    """x or the float next to it on either side."""
    return st.sampled_from([x, math.nextafter(x, -INF), math.nextafter(x, INF)])


# Powers of two from the smallest subnormal to past 2**60 and their
# neighbours, 0, negatives, infinities, NaN and the thresholds above.
BRACKET_THRESHOLDS = st.one_of(
    st.integers(-1074, 62).map(lambda e: math.ldexp(1.0, e)).flatmap(_with_neighbours),
    _with_neighbours(2.0**60),
    st.sampled_from([0.0, -0.0, -1e-300, -0.5, -1.0, -1e300, -INF, INF, math.nan]),
    st.floats(max_value=0.0, allow_nan=False),
    st.sampled_from(THRESHOLDS.tolist()),
)


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(BRACKET_THRESHOLDS, min_size=1, max_size=8),
    pending=st.lists(st.booleans(), min_size=8, max_size=8),
    tol=st.sampled_from([1e-10, 1e-6, 2.0, 1e-16, 1e-300, 5e-324, 1e300]),
)
@example([0.5], [True] * 8, 1e-16)
@example([1.0, 0.0, 37.2], [True] * 8, 1e-300)
@example([1.0, 2.0**-1074, -INF], [True] * 8, 5e-324)
@example([2.0**60, math.nextafter(2.0**60, INF), 1.5], [True] * 8, 1e300)
def test_closed_form_is_the_bisection_against_the_threshold(t, pending, tol):
    """The closed form gives the final hi, found bits and largest failed
    scale of the doubling and bisection loops deciding each scale by
    ``s >= t``, to the byte, pending or not: where the bracket reaches
    the tolerance, adjacent floats (below a power of two they lie in the
    binade below) or the subnormals, and past 2**60."""
    t = np.array(t)
    pending = np.array(pending[: len(t)])
    want = engine._bisection(lambda s, rows: rows & (s >= t), pending, tol)
    got = engine._bisection_against(t, pending, tol)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (t, tol, w, g)


# --- the Newton estimate for ES ---------------------------------------------------

# (base, slope) of an atom: few values, so that atoms tie at 0 and where
# their lines cross.
ATOMS = st.tuples(
    st.sampled_from([-40.0, -10.0, -3.0, -3.0, -1.0, 0.0, 2.5, -INF, INF]),
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0]),
)


@st.composite
def affine_rows(draw):
    """Up to 5 rows of up to 5 atoms base + x slope, padded to 6 columns
    with NaN values; some rows have slopes that do not rise, so that no
    root exists. The probabilities are sixteenths, cut at drawn points
    (equal cuts give zero-probability atoms), so that every running sum
    is exact whatever the order: a rounded sum could give an atom at +inf
    a sliver of the tail."""
    n = draw(st.integers(1, 5))
    base, slope, probs = np.full((n, 6), np.nan), np.zeros((n, 6)), np.zeros((n, 6))
    counts = np.zeros(n, dtype=np.int64)
    for r in range(n):
        atoms = draw(st.lists(ATOMS, min_size=1, max_size=5))
        k = counts[r] = len(atoms)
        cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=k - 1, max_size=k - 1)))
        b, s = np.array(atoms).T
        base[r, :k], slope[r, :k] = b, s if draw(st.booleans()) else -s
        probs[r, :k] = np.diff([0, *cuts, 16]) / 16.0
    return base, slope, probs, counts


def _es_excess(base, slope, probs, counts, alpha, x):
    rows = DistributionRows(base + x[:, None] * slope, probs, counts)
    return expected_shortfall(rows, alpha) - SLACK


# Six atoms without a root: Newton takes 5 steps before the tangent
# stops falling.
SLOW_ROW = (
    np.array([[-15.0, -3.0, -15.0, -10.0, 2.5, -40.0]]),
    np.array([[0.5, 0.0, 3.0, 0.25, 0.0, 3.0]]),
    np.array([[3.0, 3.0, 2.0, 1.0, 6.0, 1.0]]) / 16.0,
    np.array([6]),
)


@settings(max_examples=300, deadline=None)
@given(rows=affine_rows(), alpha=st.sampled_from([0.01, 0.05, 0.3, 0.5, 0.9]))
@example(SLOW_ROW, 0.3)
def test_newton_estimate_never_passes_the_es_root(rows, alpha):
    """Against ``expected_shortfall`` itself: the estimate is 0 where the
    excess is at most 0 at 0; it is +inf exactly where no scale brings
    the excess to 0 (an atom at -inf in the tail, slopes that do not
    rise, a tail that stops falling above SLACK), and never NaN; a
    finite estimate does not pass the first root by more than rounding,
    as the excess is still above 0 just left of it."""
    base, slope, probs, counts = rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        est = engine._es_root(base, slope, probs, counts, alpha)
        n = len(base)
        at_zero = _es_excess(base, slope, probs, counts, alpha, np.zeros(n))
        # Past every crossing of two atom lines the excess is linear.
        far = _es_excess(base, slope, probs, counts, alpha, np.full(n, 1e6))
        below = _es_excess(base, slope, probs, counts, alpha, est - 1e-9 * (1.0 + est))
    assert not np.isnan(est).any()
    assert np.array_equal(est[at_zero <= 0.0], np.zeros((at_zero <= 0.0).sum()))
    assert np.array_equal(np.isfinite(est), (at_zero <= 0.0) | (far <= 0.0))
    inside = np.isfinite(est) & (est > 0.0)
    assert (below[inside] > 0.0).all(), (est, below)


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
    at most 5 times (the estimate, one certified round and the step's
    own roll), where the doubling and bisection rolled it about 54
    times, and the Newton estimate evaluates ES at most 3 times per
    date."""
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
    rolls, tangents, per_date = [0], [0], []
    roll, tangent, step = engine._roll, engine.shortfall_tangent, engine.build_one_period

    def counted_roll(*args):
        rolls[0] += 1
        return roll(*args)

    def counted_tangent(*args):
        tangents[0] += 1
        return tangent(*args)

    def counted_step(*args, **kwargs):
        before = rolls[0], tangents[0]
        out = step(*args, **kwargs)
        per_date.append((rolls[0] - before[0], tangents[0] - before[1]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_roll", counted_roll)
        patch.setattr(engine, "shortfall_tangent", counted_tangent)
        patch.setattr(engine, "build_one_period", counted_step)
        cost = backward_value(
            LiabilitySpec(outflows, zero, terminal), IlliquidPortfolio(zero),
            EngineConfig(family=StrategyFamily.fixed_mix((0, 1)), grid_depth=3),
            FulfillmentSpec.es(0.01), FinanciabilitySpec.cost_of_capital(0.06), market,
            tree, flat_rates(tree, 0.02),
        )
    assert cost.feasible
    assert len(per_date) == 2
    assert max(r for r, _ in per_date) <= 5, per_date
    assert max(e for _, e in per_date) <= 3, per_date
