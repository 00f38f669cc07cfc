"""Seeded workload definitions and config generator for the benchmark.

The generator follows the construction in the test helpers (full b-ary
trees with one interior date per year, markets built backward from
strictly positive state prices) but is a copy kept here on purpose, so
that refactoring the tests can never move the benchmark's inputs. It is
vectorized over date layers, because the largest workload has 88,573
nodes.

Node ids are assigned breadth first, so the children of layer-j node r
are layer-(j+1) nodes r*b .. r*b + b - 1 and every non-leaf node comes
before every leaf.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    branch: int
    years: int
    n_risky: int
    # One op runs these subcommands in order on the same config.
    commands: Tuple[Tuple[str, ...], ...]
    family: dict = field(default_factory=lambda: {"type": "risk_free"})
    fulfillment: dict = field(default_factory=lambda: {"type": "var", "alpha": 0.005})
    financiability: dict = field(default_factory=lambda: {"type": "coc", "eta": 0.06})
    restriction: Optional[Tuple[int, ...]] = None
    # Share of non-leaf nodes whose risky asset 0 price is raised 1.5x.
    perturb_share: float = 0.0

    def n_nodes(self) -> int:
        b, J = self.branch, 2 * self.years
        return sum(b**j for j in range(J + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # The ROADMAP baseline case: config load, the closed-form
            # engine pass, the balance-sheet post-pass and report writing
            # all carry large shares; no LP runs.
            name="value_88k",
            branch=3,
            years=5,
            n_risky=2,
            commands=(("value",),),
        ),
        Workload(
            # The fixed-mix bisection scale search is most of the op; the
            # state-price bound adds one cone-membership certificate.
            name="mix_es_1k",
            branch=3,
            years=3,
            n_risky=2,
            commands=(("value",),),
            family={"type": "fixed_mix", "indices": [0, 1], "grid_depth": 3},
            fulfillment={"type": "es", "alpha": 0.01},
            financiability={"type": "state_price"},
        ),
        Workload(
            # The only workload that runs the solvency and resolution
            # layers: at VaR 20% the worst year-end atoms fail and are
            # written down.
            name="writedown_10k",
            branch=3,
            years=4,
            n_risky=2,
            commands=(("solvency", "--stage", "3"), ("adjust",)),
            fulfillment={"type": "var", "alpha": 0.2},
        ),
        Workload(
            # The LP kernel is most of the op: certificates on the
            # restricted and the full space, with both verdict branches,
            # and the audits' unbounded detection.
            name="check_lp_341",
            branch=4,
            years=2,
            n_risky=3,
            commands=(("check",),),
            restriction=(0, 1, 3, 4),
            perturb_share=0.1,
        ),
    )
}


def shrunk(w: Workload, branch: int, years: int) -> Workload:
    """The same workload on a smaller tree (used by the benchmark's tests)."""
    return dataclasses.replace(w, branch=branch, years=years)


def _layers(branch: int, years: int):
    J = 2 * years
    sizes = [branch**j for j in range(J + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return J, sizes, offsets


def make_config(w: Workload, seed: int) -> dict:
    """The config document for workload ``w``; equal seeds give equal
    documents."""
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    b = w.branch
    J, sizes, off = _layers(b, w.years)
    n = int(off[-1])
    labels = [f"n{k}" for k in range(n)]
    dates = [str(Fraction(j, 2)) for j in range(J + 1)]

    # Branch probabilities and per-node discount factors.
    prob = np.ones(n)
    for j in range(1, J + 1):
        raw = rng.uniform(0.2, 1.0, size=(sizes[j - 1], b))
        prob[off[j] : off[j + 1]] = (raw / raw.sum(axis=1, keepdims=True)).ravel()
    mu = rng.uniform(0.94, 1.0, size=int(off[J]))

    # Risky assets: random leaf prices, interior inflows; bonds: one unit
    # at the end of their period. Earlier prices follow from the state
    # prices lambda_c = mu_parent * p_c, so the market is consistent.
    n_assets = w.n_risky + w.years
    prices = np.zeros((n, n_assets))
    inflows = np.zeros((n, n_assets))
    prices[off[J] :, : w.n_risky] = rng.uniform(0.5, 2.0, size=(sizes[J], w.n_risky))
    inflows[off[1] :, : w.n_risky] = rng.uniform(0.0, 0.2, size=(n - 1, w.n_risky))
    for i in range(w.years):
        j_end = 2 * (i + 1)
        inflows[off[j_end] : off[j_end + 1], w.n_risky + i] = 1.0
    for j in range(J - 1, -1, -1):
        kids = slice(off[j + 1], off[j + 2])
        lam = np.repeat(mu[off[j] : off[j + 1]], b) * prob[kids]
        pay = (prices[kids] + inflows[kids]) * lam[:, None]
        prices[off[j] : off[j + 1]] = pay.reshape(sizes[j], b, n_assets).sum(axis=1)

    # Liability outflows on annual dates only, terminal values at leaves.
    annual = np.concatenate([np.arange(off[j], off[j + 1]) for j in range(2, J + 1, 2)])
    outflow = rng.uniform(50.0, 150.0, size=annual.size)
    terminal = rng.uniform(0.0, 50.0, size=sizes[J])

    if w.perturb_share > 0.0:
        n_inner = int(off[J])
        hit = rng.choice(n_inner, size=round(w.perturb_share * n_inner), replace=False)
        prices[np.sort(hit), 0] *= 1.5

    nodes = [{"id": labels[0], "date": dates[0], "parent": None, "p": 1.0}]
    for j in range(1, J + 1):
        for r in range(sizes[j]):
            k = off[j] + r
            nodes.append(
                {
                    "id": labels[k],
                    "date": dates[j],
                    "parent": labels[off[j - 1] + r // b],
                    "p": float(prob[k]),
                }
            )
    tradables = []
    for a in range(n_assets):
        spec = {
            "prices": dict(zip(labels, prices[:, a].tolist())),
            "inflows": {
                labels[k]: float(inflows[k, a]) for k in np.flatnonzero(inflows[:, a])
            },
        }
        if a >= w.n_risky:
            spec["bond_period"] = a - w.n_risky
        tradables.append(spec)
    doc = {
        "grid": {"T": w.years, "dates": dates},
        "tree": {"nodes": nodes},
        "market": {"tradables": tradables, "close_out": False},
        "liability": {
            "outflows": dict(zip((labels[k] for k in annual), outflow.tolist())),
            "terminal": dict(zip(labels[off[J] :], terminal.tolist())),
        },
        "fulfillment": dict(w.fulfillment),
        "financiability": dict(w.financiability),
        "engine": {"mode": "B", "family": dict(w.family)},
    }
    if w.restriction is not None:
        doc["restriction"] = {"indices": list(w.restriction)}
    return doc


def write_config(w: Workload, seed: int, path) -> Tuple[str, int]:
    """Write the config to ``path``; returns (sha256 of its bytes, node count)."""
    blob = json.dumps(make_config(w, seed), separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest(), w.n_nodes()
