"""Output checks run on every op.

* Reports are compared with a stored per-seed reference: byte digest
  first; if the bytes differ, the text with every decimal number
  replaced by a placeholder must match exactly (integers such as node
  labels and dates included), and the decimal numbers must match
  through weighted sums, within what a change in the last printed
  decimals can add up to. Violation portfolios are left out of the
  numeric comparison because any valid one is acceptable; they are
  re-verified instead.
* Consistency certificates are re-verified with numpy from the config:
  weights must be non-negative and reconstruct the node's price vector,
  a violation must have non-negative child payoffs and a negative price.
* Write-down runs must re-validate and keep the scaled-cost identity.

Every check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

NUMBER = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")
# Each number may move by ATOL + RTOL |x|: reports print 9 decimals.
ATOL = 1e-8
RTOL = 1e-9
CERT_TOL = 1e-7
COST_IDENTITY_TOL = 1e-6


def _drop_violations(obj):
    if isinstance(obj, dict):
        return {
            k: ("*" if k == "violation" else _drop_violations(v)) for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_drop_violations(v) for v in obj]
    return obj


def _weights(n: int):
    i = np.arange(n)
    return 1.0 + (i % 7) / 7.0, 1.0 + (i % 13) / 13.0


def fingerprint(name: str, data: bytes) -> dict:
    """Digest, number-free skeleton digest and weighted sums of a report."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        text = json.dumps(_drop_violations(json.loads(text)), sort_keys=True)
    x = np.array([float(t) for t in NUMBER.findall(text)])
    w1, w2 = _weights(x.size)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "skeleton": hashlib.sha256(NUMBER.sub("#", text).encode()).hexdigest(),
        "n": int(x.size),
        "sums": [float(x.sum()), float(w1 @ x), float(w2 @ x)],
        "abs_sum": float(np.abs(x).sum()),
    }


def compare_report(name: str, data: bytes, ref: dict) -> list:
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return []
    got = fingerprint(name, data)
    if got["skeleton"] != ref["skeleton"] or got["n"] != ref["n"]:
        return [f"{name}: text differs from the reference beyond its numbers"]
    # Weights are below 2.
    tol = 2.0 * (ATOL * ref["n"] + RTOL * ref["abs_sum"])
    for k, (a, b) in enumerate(zip(got["sums"], ref["sums"])):
        if not abs(a - b) <= tol:
            return [f"{name}: numbers differ from the reference (sum {k}: {a!r} vs {b!r})"]
    return []


def digests(files: dict) -> dict:
    return {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}


def compare_reports(files: dict, ref_files: dict) -> list:
    """``files`` maps report key -> bytes; metadata is not compared."""
    if sorted(files) != sorted(ref_files):
        return [f"report set {sorted(files)} differs from reference {sorted(ref_files)}"]
    problems = []
    for key in sorted(files):
        problems += compare_report(key, files[key], ref_files[key])
    return problems


class Market:
    """Prices, inflows and children from a generated config, by label."""

    def __init__(self, doc: dict):
        nodes = doc["tree"]["nodes"]
        self.index = {nd["id"]: k for k, nd in enumerate(nodes)}
        self.children = {nd["id"]: [] for nd in nodes}
        for nd in nodes:
            if nd["parent"] is not None:
                self.children[nd["parent"]].append(nd["id"])
        tradables = doc["market"]["tradables"]
        self.n_assets = len(tradables)
        self.prices = np.zeros((len(nodes), self.n_assets))
        self.inflows = np.zeros((len(nodes), self.n_assets))
        for a, spec in enumerate(tradables):
            for lab, v in spec["prices"].items():
                self.prices[self.index[lab], a] = v
            for lab, v in spec.get("inflows", {}).items():
                self.inflows[self.index[lab], a] = v
        restriction = doc.get("restriction", {}).get("indices")
        self.restriction = None if restriction is None else sorted(restriction)

    def price(self, lab):
        return self.prices[self.index[lab]]

    def payoff(self, lab):
        k = self.index[lab]
        return self.prices[k] + self.inflows[k]


def verify_certificates(market: Market, check_doc: dict) -> list:
    """Independently re-verify every certificate in a check.json report."""
    problems = []
    cons = check_doc["consistency"]
    sections = {"used_subspace": market.restriction}
    if market.restriction is not None:
        sections["full_space"] = None
    inner = sorted(lab for lab, kids in market.children.items() if kids)
    for section, coords in sections.items():
        if section not in cons:
            problems.append(f"{section}: missing")
            continue
        certs = cons[section]
        if sorted(certs) != inner:
            problems.append(f"{section}: certificates do not cover exactly the non-leaf nodes")
            continue
        idx = list(range(market.n_assets)) if coords is None else coords
        outside = [a for a in range(market.n_assets) if a not in idx]
        for lab in inner:
            entry = certs[lab]
            kids = market.children[lab]
            s = market.price(lab)
            mag = max(1.0, float(np.abs(s).max()))
            mag = max(mag, *(float(np.abs(market.payoff(c)).max()) for c in kids))
            if entry.get("consistent"):
                w = entry.get("weights", {})
                if sorted(w) != sorted(kids):
                    problems.append(f"{section}/{lab}: weights do not name the children")
                    continue
                lam = np.array([w[c] for c in kids], dtype=float)
                Y = np.array([market.payoff(c)[idx] for c in kids])
                if lam.min() < -CERT_TOL:
                    problems.append(f"{section}/{lab}: negative weight {lam.min()!r}")
                elif np.abs(lam @ Y - s[idx]).max() > CERT_TOL * mag * len(kids):
                    problems.append(f"{section}/{lab}: weights do not reconstruct the price")
            else:
                x = np.array(entry.get("violation", []), dtype=float)
                if x.shape != (market.n_assets,):
                    problems.append(f"{section}/{lab}: violation has the wrong length")
                    continue
                # Reports round to 9 decimals; allow for that and for
                # solver error growing with the size of the portfolio.
                tol = CERT_TOL * mag * max(1.0, 1e-3 * float(np.abs(x).sum()))
                pays = np.array([x @ market.payoff(c) for c in kids])
                if outside and np.abs(x[outside]).max() > tol:
                    problems.append(f"{section}/{lab}: violation leaves the subspace")
                elif pays.min() < -tol:
                    problems.append(f"{section}/{lab}: violation has a negative child payoff")
                elif not x @ s < -tol:
                    problems.append(f"{section}/{lab}: violation price is not negative")
    return problems


def verify_adjust(adjust_doc: dict) -> list:
    problems = []
    if adjust_doc.get("revalidation_ok") is not True:
        problems.append("adjust: revalidation_ok is not true")
    diff = adjust_doc.get("cost_identity_max_diff")
    if not isinstance(diff, (int, float)) or not abs(diff) <= COST_IDENTITY_TOL:
        problems.append(f"adjust: cost_identity_max_diff {diff!r} is not near zero")
    return problems
