"""Shared generators for randomized tests.

Markets are built backward from the leaves out of strictly positive
state-price weights, so they are consistent by construction and the
composed weights price any self-financing payoff exactly. That gives the
randomized property tests an independent pricing oracle.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from prodval.lattice import DateGrid, ScenarioTree, build_tree
from prodval.market import TradableSet


def by_node(tree: ScenarioTree, values: dict) -> np.ndarray:
    """The array indexed by node id of a node -> value (or node -> vector)
    mapping, zero at the nodes it leaves out."""
    first = next(iter(values.values()), 0.0)
    out = np.zeros((tree.n_nodes,) + np.shape(first))
    for node, value in values.items():
        out[node] = value
    return out


def cost_mappings(cost, tree: ScenarioTree) -> SimpleNamespace:
    """A ProductionCostProcess as the node -> value mappings that the
    per-node reference implementations build and read, keyed in node
    order: ``values`` at the annual nodes; ``capital`` and ``params``,
    the parameter tuple the one-period step reports, at the funded nodes
    and ``("infeasible",)`` at the infeasible ones; the balance-sheet
    ``rows`` (assets, liabilities, capital_payoff and the failure kind's
    name) at the annual nodes after the root. ``strategy``, ``mode`` and
    ``infeasible_nodes`` pass through."""
    from prodval.engine import FAILURE_KINDS

    annual = [n for i in range(tree.grid.horizon + 1) for n in tree.nodes_at(i).tolist()]
    params = {}
    for n in sorted(annual):
        head = cost.heads[cost.head[n]]
        if cost.funded[n]:
            params[n] = head + (float(cost.scale[n]),)
        elif head:
            params[n] = head
    funded = np.flatnonzero(cost.funded).tolist()
    sheet = cost.sheet
    return SimpleNamespace(
        values={n: float(cost.values[n]) for n in sorted(annual)},
        capital={n: float(cost.capital[n]) for n in funded},
        params=params,
        rows={
            n: SimpleNamespace(
                assets=float(sheet.assets[n]),
                liabilities=float(sheet.liabilities[n]),
                capital_payoff=float(sheet.capital_payoff[n]),
                failure=FAILURE_KINDS[sheet.failure[n]],
            )
            for n in sorted(annual)
            if tree.date_of(n) > 0
        },
        strategy=cost.strategy,
        mode=cost.mode,
        infeasible_nodes=cost.infeasible_nodes,
    )


def certificate_mappings(cert, tree: ScenarioTree) -> dict:
    """A ConsistencyCertificate as the node -> verdict mapping of the
    per-node references, keyed in node order over the inner nodes: each
    verdict's ``consistent``, and its ``weights`` (child -> λ) or its
    ``violation`` (a tuple of floats), the other None."""
    out = {}
    for node, consistent in enumerate(cert.consistent_at.tolist()):
        if consistent:
            weights = {c: float(cert.weights[c]) for c in tree.children_of(node).tolist()}
            out[node] = SimpleNamespace(consistent=True, weights=weights, violation=None)
        else:
            violation = tuple(cert.violation[node].tolist())
            out[node] = SimpleNamespace(consistent=False, weights=None, violation=violation)
    return out


def audit_mappings(report) -> dict:
    """A TradableAuditReport as node -> audit over the inner nodes: the
    ``status`` name, the ``optimum`` and ``hurdle`` (None where the
    status leaves them undefined) and ``flagged``."""
    from prodval.conditions import AUDIT_STATUSES

    def value(x: float):
        return None if np.isnan(x) else x

    return {
        node: SimpleNamespace(
            status=AUDIT_STATUSES[status], optimum=value(optimum), hurdle=value(hurdle),
            flagged=flagged,
        )
        for node, (status, optimum, hurdle, flagged) in enumerate(zip(
            report.status.tolist(), report.optimum.tolist(), report.hurdle.tolist(),
            report.flagged.tolist(),
        ))
    }


def solvency_mappings(report, tree: ScenarioTree) -> SimpleNamespace:
    """A SolvencyReport as the node -> row mapping of the node-by-node
    recursion, keyed in node order over the annual nodes before the
    horizon: each row's ``node``, ``date``, ``bel``, ``rm``, ``scr``,
    ``p_m1``, ``stage`` and ``total`` (bel + rm). ``stage`` and
    ``sii_formula_rm0`` pass through."""
    rows = {
        n: SimpleNamespace(
            node=n, date=i, bel=float(report.bel[n]), rm=float(report.rm[n]),
            scr=float(report.scr[n]), p_m1=float(report.p_m1[n]), stage=report.stage,
            total=float(report.bel[n]) + float(report.rm[n]),
        )
        for i in range(tree.grid.horizon)
        for n in tree.nodes_at(i).tolist()
    }
    return SimpleNamespace(
        stage=report.stage, rows=rows, sii_formula_rm0=report.sii_formula_rm0
    )


def liability(tree: ScenarioTree, outflows=None, inflows=None, terminal=None):
    """A LiabilitySpec from node -> value mappings (each zero if omitted)."""
    from prodval.engine import LiabilitySpec

    return LiabilitySpec(
        *(by_node(tree, flows or {}) for flows in (outflows, inflows, terminal))
    )


def make_grid(years: int, interior_per_year: int = 1) -> DateGrid:
    dates = []
    for i in range(years):
        dates.append(Fraction(i))
        for k in range(1, interior_per_year + 1):
            dates.append(Fraction(i) + Fraction(k, interior_per_year + 1))
    dates.append(Fraction(years))
    return DateGrid(tuple(dates), years)


def random_tree(
    rng: np.random.Generator,
    years: int,
    interior_per_year: int = 1,
    max_branch: int = 3,
) -> ScenarioTree:
    grid = make_grid(years, interior_per_year)
    nodes = [{"id": "n0", "date": grid.dates[0], "parent": None, "p": 1.0}]
    frontier = ["n0"]
    counter = 1
    for j in range(1, len(grid.dates)):
        nxt = []
        for parent in frontier:
            k = int(rng.integers(1, max_branch + 1))
            raw = rng.uniform(0.2, 1.0, size=k)
            probs = raw / raw.sum()
            for b in range(k):
                nid = f"n{counter}"
                counter += 1
                nodes.append(
                    {"id": nid, "date": grid.dates[j], "parent": parent, "p": float(probs[b])}
                )
                nxt.append(nid)
        frontier = nxt
    return build_tree(grid, nodes)


def pathwise_tree(years: int, interior_per_year: int = 1) -> ScenarioTree:
    """Deterministic single-path tree (one node per date)."""
    grid = make_grid(years, interior_per_year)
    nodes = [{"id": "n0", "date": grid.dates[0], "parent": None, "p": 1.0}]
    for j in range(1, len(grid.dates)):
        nodes.append(
            {"id": f"n{j}", "date": grid.dates[j], "parent": f"n{j-1}", "p": 1.0}
        )
    return build_tree(grid, nodes)


def state_price_market(
    rng: np.random.Generator,
    tree: ScenarioTree,
    n_risky: int = 2,
    with_bonds: bool = True,
    inflow_scale: float = 0.2,
    discount_range=(0.94, 1.0),
) -> tuple[TradableSet, dict]:
    """Consistent market from strictly positive per-node state prices.

    Returns the market and the weight map {node: {child: weight}} used to
    build it. Tradable k is a risky asset for k < n_risky; when
    ``with_bonds`` each period (i, i+1) gets one flagged zero-coupon bond.
    """
    years = tree.grid.horizon
    n_assets = n_risky + (years if with_bonds else 0)
    J = len(tree.grid.dates) - 1

    weights: dict[int, dict[int, float]] = {}
    for node in range(tree.n_nodes):
        if tree.is_leaf(node):
            continue
        mu = rng.uniform(*discount_range)
        weights[node] = {c: mu * tree.prob[c] for c in tree.children_of(node).tolist()}

    prices = {n: np.zeros(n_assets) for n in range(tree.n_nodes)}
    inflows = {n: np.zeros(n_assets) for n in range(tree.n_nodes)}

    # Risky assets: random non-negative leaf prices and inflows, earlier
    # prices from the state prices.
    for k in range(n_risky):
        for node in tree.by_date[J].tolist():
            prices[node][k] = rng.uniform(0.5, 2.0)
            inflows[node][k] = rng.uniform(0.0, inflow_scale)
        for j in range(J - 1, -1, -1):
            for node in tree.by_date[j].tolist():
                lam = weights[node]
                prices[node][k] = sum(
                    lam[c] * (prices[c][k] + inflows[c][k]) for c in tree.children_of(node).tolist()
                )
                if j > 0:
                    inflows[node][k] = rng.uniform(0.0, inflow_scale)

    bond_periods = {}
    if with_bonds:
        for i in range(years):
            k = n_risky + i
            bond_periods[k] = i
            j_end = tree.grid.index(i + 1)
            for node in tree.by_date[j_end].tolist():
                prices[node][k] = 0.0
                inflows[node][k] = 1.0
            # Backward to the root: the bond must be consistently priced
            # before its own period as well.
            for j in range(j_end - 1, -1, -1):
                for node in tree.by_date[j].tolist():
                    lam = weights[node]
                    prices[node][k] = sum(
                        lam[c] * (prices[c][k] + inflows[c][k])
                        for c in tree.children_of(node).tolist()
                    )

    market = TradableSet(
        tree=tree,
        prices=by_node(tree, prices),
        inflows=by_node(tree, inflows),
        bond_periods=bond_periods,
        close_out=True,
    )
    return market, weights


def year_state_prices(tree: ScenarioTree, weights: dict, node: int, j_end: int) -> dict:
    """Compose per-step weights into prices of 1 paid at date-j_end nodes."""
    out = {}
    for target in tree.descendants_at(node, j_end).tolist():
        q = 1.0
        m = target
        while m != node:
            par = tree.parent[m]
            q *= weights[par][m]
            m = par
        out[target] = q
    return out


def random_paying_strategy(rng, tree, market, scale=1.0):
    """Non-negative strategy with zero inflows and the outflows implied by
    downscaling the portfolio at every step (so X_t >= 0 by construction)."""
    from prodval.strategy import CashflowProcess, Strategy

    n = market.n_assets
    init = rng.uniform(0.5, 1.5, size=n) * scale
    assignment = {}
    outflow = {}
    init_map = {}
    for node in tree.by_date[0].tolist():
        init_map[node] = tuple(init)
    for j in range(len(tree.grid.dates)):
        for node in tree.by_date[j].tolist():
            held_in = (
                np.array(init_map[node])
                if j == 0
                else np.array(assignment[tree.parent[node]])
            )
            wealth = float(
                held_in @ market.price(node) + held_in @ market.inflow(node)
            )
            target = wealth * float(rng.uniform(0.6, 1.0))
            direction = rng.uniform(0.1, 1.0, size=n)
            price = float(direction @ market.price(node))
            if price <= 1e-12:
                nxt = np.zeros(n)
                target = 0.0
            else:
                nxt = direction * (target / price)
            assignment[node] = tuple(nxt)
            outflow[node] = wealth - target
    phi = Strategy(tree, n, by_node(tree, assignment), by_node(tree, init_map))
    return phi, CashflowProcess(np.zeros(tree.n_nodes), by_node(tree, outflow))


def random_stop(rng, tree, p_stop=0.2):
    """Random antichain covering every path (default stop at the horizon)."""
    stop = set()
    blocked = set()
    J = len(tree.grid.dates) - 1
    for j in range(J + 1):
        for node in tree.by_date[j].tolist():
            par = tree.parent[node]
            if par is not None and (par in stop or par in blocked):
                blocked.add(node)
                continue
            if j == J or rng.uniform() < p_stop:
                stop.add(node)
    return stop


def self_financing_addon(rng, tree, market, scale=1.0):
    """Non-negative self-financing strategy: random value-preserving
    rebalances of a random initial position, inflows reinvested."""
    from prodval.strategy import Strategy

    n = market.n_assets
    init = rng.uniform(0.0, scale, size=n)
    assignment = {}
    init_map = {node: tuple(init) for node in tree.by_date[0].tolist()}
    for j in range(len(tree.grid.dates)):
        for node in tree.by_date[j].tolist():
            held_in = (
                np.array(init_map[node])
                if j == 0
                else np.array(assignment[tree.parent[node]])
            )
            wealth = float(
                held_in @ market.price(node) + held_in @ market.inflow(node)
            )
            direction = rng.uniform(0.1, 1.0, size=n)
            # Only assets with a positive price can carry value.
            mask = market.price(node) > 1e-12
            direction = direction * mask
            price = float(direction @ market.price(node))
            if price <= 1e-12:
                assignment[node] = tuple(np.zeros(n))
            else:
                assignment[node] = tuple(direction * (wealth / price))
    return Strategy(tree, n, by_node(tree, assignment), by_node(tree, init_map))


def generated_config(seed: int, years: int, interior_per_year: int) -> dict:
    """Config for a seeded random tree with a consistent market (two risky
    assets and one bond per year) and random annual liability flows."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, years=years, interior_per_year=interior_per_year)
    market, _ = state_price_market(rng, tree, n_risky=2)
    return config_doc(rng, tree, market)


def config_doc(rng: np.random.Generator, tree: ScenarioTree, market: TradableSet) -> dict:
    """Config for ``tree`` and ``market`` with random annual liability
    flows drawn from ``rng``."""
    years = tree.grid.horizon
    labels = tree.labels
    parent_label = {c: labels[n] for n in range(tree.n_nodes) for c in tree.children_of(n).tolist()}
    nodes = [
        {
            "id": labels[n],
            "date": str(tree.date_of(n)),
            "parent": parent_label.get(n),
            "p": float(tree.prob[n]),
        }
        for n in range(tree.n_nodes)
    ]
    tradables = []
    for k in range(market.n_assets):
        spec = {
            "prices": {labels[n]: float(market.prices[n][k]) for n in range(tree.n_nodes)},
            "inflows": {
                labels[n]: float(market.inflows[n][k])
                for n in range(tree.n_nodes)
                if market.inflows[n][k] != 0.0
            },
        }
        if k in market.bond_periods:
            spec["bond_period"] = market.bond_periods[k]
        tradables.append(spec)
    outflows, inflows = {}, {}
    for i in range(1, years + 1):
        for n in tree.nodes_at(i).tolist():
            outflows[labels[n]] = float(rng.uniform(50.0, 150.0))
            if i < years and rng.uniform() < 0.5:
                inflows[labels[n]] = float(rng.uniform(0.0, 30.0))
    return {
        "grid": {"T": years, "dates": [str(d) for d in tree.grid.dates]},
        "tree": {"nodes": nodes},
        "market": {"tradables": tradables, "close_out": True},
        "liability": {"outflows": outflows, "inflows": inflows},
        "fulfillment": {"type": "var", "alpha": 0.005},
        "financiability": {"type": "coc", "eta": 0.06},
        "engine": {"mode": "B", "family": {"type": "risk_free"}},
    }
