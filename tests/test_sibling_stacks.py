"""Differential test of the sibling stacks behind ``check``.

``ScenarioTree.sibling_groups`` stacks the inner nodes by child count
alone, across dates, in runs of at most ``lattice._GROUP`` nodes. The
frozen generator below is the grouping it replaced: one stack per date
and child count. Each system's answer in ``lp.cone_vertices``,
``lp.solve_lp`` and ``lp.cone_facts`` must not depend on which systems
share its stack, so with ``_GROUP`` set to 3 (runs end inside small
trees) ``check_consistency``'s three arrays, ``tradable_cone_facts`` and
the ``check.json`` text must be those of the frozen stacks bit for bit,
NaN positions included. The trees are ``test_build_tree``'s random trees
with one to three children per node, under a consistent market with some
prices raised so that nodes fall outside their cones, and the
``zero_weight`` markets of ``test_cone_closed_form``, whose prices lie
on or just outside their cones.
"""

import numpy as np
import pytest
from test_build_tree import _random_grid, _random_nodes
from test_cone_closed_form import market_case
from util import config_doc, state_price_market

from prodval import lattice, lp
from prodval.cli import run
from prodval.conditions import FinanciabilitySpec, tradable_cone_facts
from prodval.config import problem_from_dict
from prodval.errors import NumericalFailure
from prodval.lattice import ScenarioTree, build_tree
from prodval.market import check_consistency

# --- frozen: one stack per date and child count ---------------------------------------


def _frozen_sibling_groups(tree):
    count = np.diff(tree.child_start)
    starts = tree.date_start.tolist()
    for lo, hi in zip(starts, starts[1:]):
        at = count[lo:hi]
        for k in np.flatnonzero(np.bincount(at)[1:]).tolist():
            nodes = lo + np.flatnonzero(at == k + 1)
            yield nodes, tree.child_start[nodes, None] + np.arange(k + 1)


# --- cases ------------------------------------------------------------------------------


def _problem(seed: int):
    """A random tree with 1-3 children per node; a consistent market on it
    with asset 0's price raised at about a quarter of the inner nodes;
    a restriction or none, and a cost-of-capital condition."""
    rng = np.random.default_rng([seed, 27])
    grid = _random_grid(rng)
    tree = build_tree(grid, _random_nodes(rng, grid))
    market, _ = state_price_market(rng, tree, n_risky=2)
    doc = config_doc(rng, tree, market)
    prices = doc["market"]["tradables"][0]["prices"]
    for node in np.flatnonzero(rng.uniform(size=tree.n_inner) < 0.25).tolist():
        prices[tree.labels[node]] *= float(rng.uniform(1.5, 3.0))
    doc["financiability"] = {"type": "coc", "eta": float(rng.choice([0.0, 0.06]))}
    if rng.uniform() < 0.5:
        doc["restriction"] = {"indices": [0, 2]}
    return problem_from_dict(doc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalFailure as e:
        return ("raises", str(e))


def _arrays(market, tree, restriction):
    """The certificate's and the cone facts' arrays, as bytes."""
    cert = check_consistency(market, tree, restriction)
    spec = FinanciabilitySpec("cost_of_capital", eta=0.0)
    facts = tradable_cone_facts(spec, market, tree, restriction)
    arrays = (cert.consistent_at, cert.violation, cert.weights, *facts)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _both(monkeypatch, fn, *args):
    """fn's outcome on the frozen stacks and on runs of 3."""
    with monkeypatch.context() as patch:
        patch.setattr(ScenarioTree, "sibling_groups", _frozen_sibling_groups)
        want = _outcome(fn, *args)
    monkeypatch.setattr(lattice, "_GROUP", 3)
    return _outcome(fn, *args), want


def _check_text(problem):
    return run(problem, "check").files["check.json"]


# --- the differential tests -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_check_matches_stacks_per_date(seed, monkeypatch):
    problem = _problem(seed)
    args = (problem.market, problem.tree, problem.restriction)
    got, want = _both(monkeypatch, _arrays, *args)
    assert got == want
    got, want = _both(monkeypatch, _check_text, problem)
    assert got == want


@pytest.mark.parametrize("seed", range(0, 400, 10))
def test_zero_weight_markets_match_stacks_per_date(seed, monkeypatch):
    market, tree, restriction = market_case(seed, "zero_weight")
    got, want = _both(monkeypatch, _arrays, market, tree, restriction)
    assert got == want


def test_cases_reach_runs_across_dates_and_inconsistent_nodes():
    """The random problems reach: child counts whose nodes span several
    dates and more than one run of 3, both verdicts, and restricted and
    full-space certificates."""
    seen = set()
    for seed in range(12):
        problem = _problem(seed)
        tree = problem.tree
        for nodes, _ in _frozen_sibling_groups(tree):
            if len(nodes) > 3:
                seen.add("split")
        kids = np.diff(tree.child_start[: tree.n_inner + 1])
        for k in set(kids.tolist()):
            if len(set(tree.date_idx[: tree.n_inner][kids == k].tolist())) > 1:
                seen.add("across_dates")
        cert = check_consistency(problem.market, tree, problem.restriction)
        seen |= {("consistent", v) for v in cert.consistent_at.tolist()}
        seen.add(("restricted", problem.restriction is not None))
    assert seen == {
        "split", "across_dates", ("consistent", True), ("consistent", False),
        ("restricted", True), ("restricted", False),
    }


@pytest.mark.parametrize("ranks, message", [((9, 8), r"C\(20,12\)"), ((8, 9), r"C\(20,13\)")])
def test_cone_facts_raise_for_the_first_node_too_large(ranks, message):
    """Two cones over 20 children, of ranks 8 and 9, both with more than
    ``_MAX_SUPPORTS`` supports: the stack raises for its first node,
    whichever rank that node has, so the error names the same node
    however the nodes are stacked."""
    rng = np.random.default_rng(27)
    Y = np.zeros((2, 20, 9))
    for k, r in enumerate(ranks):
        Y[k, :, :r] = rng.uniform(0.5, 1.5, size=(20, r))
    with pytest.raises(NumericalFailure, match=f"^ray enumeration too large: {message}$"):
        lp.cone_facts(Y, Y[:, 0], np.full((2, 20), 0.05))
