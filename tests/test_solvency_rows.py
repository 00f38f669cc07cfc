"""Differential test of the per-date solvency recursion.

``multi_period_solvency`` evaluates each annual date's nodes as the rows
of padded arrays in one call of a stage function, which evaluates one
node as one row. On random ragged trees and random states, for
stages 1-3 under the worst case, VaR and ES, both must reproduce the
frozen node-by-node recursion of ``scalar_reference`` bit for bit, and
raise the same errors.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from prodval import solvency
from prodval.errors import ProdvalError
from prodval.risk import DistributionRows, RiskMeasureSpec
from prodval.solvency import (
    PeriodState,
    RateCurve,
    multi_period_solvency,
    stage2_decompose,
)

from util import liability, random_tree, solvency_mappings

LEVELS = (0.005, 0.1, 0.25, 0.5, 0.75)
# Small value sets, so states tie and thresholds land on atoms.
FLOWS = (0.0, 10.0, 25.0, 40.0)


@st.composite
def measures(draw):
    variant = draw(st.sampled_from(("full", "var", "es")))
    if variant == "full":
        return RiskMeasureSpec("full")
    return RiskMeasureSpec(variant, draw(st.sampled_from(LEVELS)))


def _hex(value):
    return None if value is None else float(value).hex()


def _outcome(fn):
    """The call's result with every float as hex, or its error."""
    try:
        out = fn()
    except ProdvalError as e:
        return ("error", type(e).__name__, str(e))
    if isinstance(out, tuple):
        return tuple(map(_hex, out))
    if isinstance(out, float):
        return _hex(out)
    rows = [
        (key, row.node, row.date, _hex(row.bel), _hex(row.rm), _hex(row.scr), _hex(row.p_m1), row.stage)
        for key, row in sorted(out.rows.items())
    ]
    return out.stage, rows, _hex(out.sii_formula_rm0)


def _flow(rng):
    if rng.uniform() < 0.5:
        return float(FLOWS[int(rng.integers(len(FLOWS)))])
    return float(rng.uniform(0.0, 100.0))


def _problem(seed, years, interior, branch, flat, with_inflows):
    rng = np.random.default_rng(seed)
    if years * (1 + interior) > 3:
        branch = min(branch, 2)
    tree = random_tree(rng, years, interior_per_year=interior, max_branch=branch)
    outflows, inflows = {}, {}
    for i in range(1, years + 1):
        for node in tree.nodes_at(i).tolist():
            outflows[node] = _flow(rng)
            if with_inflows and rng.uniform() < 0.3:
                inflows[node] = _flow(rng)
    terminal = {n: _flow(rng) for n in tree.nodes_at(years).tolist() if rng.uniform() < 0.5}
    liab = liability(tree, outflows=outflows, inflows=inflows, terminal=terminal)
    if flat:
        rates = RateCurve.flat(tree, 0.02)
    else:
        rates = RateCurve({
            n: float(rng.uniform(-0.03, 0.08)) for i in range(years) for n in tree.nodes_at(i).tolist()
        })
    return tree, liab, rates


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.sampled_from((0.0, 0.06, 0.3, -1.0)),
    st.sampled_from((1, 2, 3)),
    measures(),
)
def test_per_date_recursion_matches_node_by_node(
    seed, years, interior, branch, flat, with_inflows, eta, stage, rho
):
    tree, liab, rates = _problem(seed, years, interior, branch, flat, with_inflows)
    want = _outcome(lambda: ref.multi_period_solvency(liab, rates, eta, rho, stage, tree))
    got = _outcome(
        lambda: solvency_mappings(multi_period_solvency(liab, rates, eta, rho, stage, tree), tree)
    )
    assert got == want


@st.composite
def state_lists(draw):
    n = draw(st.integers(1, 7))
    value = st.one_of(st.sampled_from(FLOWS), st.floats(-20.0, 100.0))
    weights = draw(st.lists(st.sampled_from((0.1, 0.2, 0.25, 0.7)), min_size=n, max_size=n))
    total = sum(weights)
    return [
        PeriodState(w / total, draw(value), draw(value), draw(st.sampled_from((0.0, 1.0, 2.5))))
        for w in weights
    ]


@settings(max_examples=300, deadline=None)
@given(
    state_lists(),
    st.floats(-0.05, 0.1),
    st.sampled_from((0.0, 0.06, -1.0)),
    measures(),
)
def test_stage_functions_match_node_by_node(states, r, eta, rho):
    for name in ("stage1_value", "stage1_closed_form", "stage2_decompose", "stage3_decompose"):
        want = _outcome(lambda: getattr(ref, name)(states, r, eta, rho))
        got = _outcome(lambda: getattr(solvency, name)(states, r, eta, rho))
        assert got == want, name


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(state_lists(), st.floats(-0.03, 0.08)), min_size=1, max_size=5),
    st.floats(0.7, 1.3),
    st.sampled_from((0.3, 0.5, 1.0)),
    st.sampled_from((0, 1, 3, 200)),
    measures(),
    st.data(),
)
def test_bel_shape_fixed_point_iterates_each_row_alone(
    starts, base, damping, max_iter, rho, data
):
    """Rows that converge early keep their value while the others go on;
    a row alone takes the same steps as in a batch."""
    shapes = [
        [base + data.draw(st.floats(-0.2, 0.2)) for _ in states] for states, _ in starts
    ]
    eta = 0.06
    want = [
        _outcome(lambda: ref.stage2_decompose(
            states, r, eta, rho, bel_shape=shape, damping=damping, max_iter=max_iter
        ))
        for (states, r), shape in zip(starts, shapes)
    ]
    # One row at a time through the public function.
    got = [
        _outcome(lambda: stage2_decompose(
            states, r, eta, rho, bel_shape=shape, damping=damping, max_iter=max_iter
        ))
        for (states, r), shape in zip(starts, shapes)
    ]
    assert got == want
    # All rows in one batch: the same values, or the divergence of a row.
    width = max(len(states) for states, _ in starts)

    def padded(values_of):
        out = np.zeros((len(starts), width))
        for k, (states, _) in enumerate(starts):
            out[k, : len(states)] = values_of(k, states)
        return out

    batch = solvency._States(
        DistributionRows(
            np.zeros((len(starts), width)),
            padded(lambda k, states: [s.prob for s in states]),
            np.array([len(states) for states, _ in starts]),
        ),
        padded(lambda k, states: [s.x for s in states]),
        padded(lambda k, states: [s.bel for s in states]),
        padded(lambda k, states: [s.rm for s in states]),
    )
    rates = np.array([r for _, r in starts])
    shape = padded(lambda k, states: shapes[k])
    diverged = [w for w in want if w[0] == "error"]
    try:
        out = stage2_decompose(
            batch, rates, eta, rho, bel_shape=shape, damping=damping, max_iter=max_iter
        )
    except ProdvalError as e:
        assert diverged and ("error", type(e).__name__, str(e)) == diverged[0]
        return
    assert not diverged
    assert [tuple(_hex(v[k]) for v in out) for k in range(len(starts))] == want

