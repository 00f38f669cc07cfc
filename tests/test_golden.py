"""Golden sha256 digests of every report the CLI writes for the bundled
configs and for configs generated from seeded random trees, with exit
codes and error text.

A refactor that keeps these digests keeps the reports byte-identical.
Regenerate them only for an intended change of report content.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prodval.cli import main

from util import generated_config

CONFIGS = Path(__file__).parent.parent / "configs"

GOLDEN = {
    ("inconsistent_market", "value"): (
        0,
        "",
        {
            "metadata.json": "5b0fed53418a4865b0fce23cb6d5d56d4c28974945c9fe4e37858532f01706b1",
            "production.csv": "07fa895064c0756a96667cabe144cb73b921c8abfb657e338b7c49606ac11c0b",
        },
    ),
    ("inconsistent_market", "solvency"): (
        1,
        "error: solvency needs a cost_of_capital financiability condition (eta)\n",
        {},
    ),
    ("inconsistent_market", "check"): (
        0,
        "",
        {
            "check.json": "95d162961d875c42d460a67cdb205c903952c744e4b6922ed112d1b815a5a4e3",
            "metadata.json": "f4eb84f606f33a39ef134512edcf7477c02d80978da8dde21859011620db64d4",
        },
    ),
    ("inconsistent_market", "adjust"): (
        1,
        "error: no flagged risk-free bond for period (0, 1)\n",
        {},
    ),
    ("two_point", "value"): (
        0,
        "",
        {
            "metadata.json": "f342098b267a6e4db00b5596b664d988f640267aeb4207c2f3766c0c643ce5bc",
            "production.csv": "2d401e565ad614c225fbb63d605cc5fae251ec8d0960460eebfac656e196ca13",
        },
    ),
    ("two_point", "solvency"): (
        0,
        "",
        {
            "metadata.json": "5152cfa15bd29f3f91c7b52d89384c9d943fdac588ea1daed80774cf5fbf6b38",
            "solvency.csv": "a425f7388b816f5389b0e09a5a77d82afe422fa6bd90c6402d799e46578dd763",
            "solvency.json": "59123999e4712729d946e548e8cf6a36dc392995af54d65d7140b283f0a0603b",
        },
    ),
    ("two_point", "check"): (
        0,
        "",
        {
            "check.json": "bbeac0024d4245b7bcadaf521b71072538c90501c92bb3c830327ae5be3fd72f",
            "metadata.json": "7d151c5068e75100ec10688c1bb63fd8267785b2b7d49273c12bbebba53beccf",
        },
    ),
    ("two_point", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "7477b1cd50da3e233abe16bbdb17891384bd5a5815d9198094634edd034ec2b8",
            "adjust.json": "c0878c4366b72cbc6f92cd6272c3f25bcd7873a3db35e37bc438a170c6789301",
            "metadata.json": "1ea638dc0701c75a62413c03ad6c877487f8c2cb4911f358ab5671cf11c1c9e8",
        },
    ),
}


def _run_digests(args, out_dir, capsys):
    code = main(list(args) + ["--output-dir", str(out_dir)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }
    return code, capsys.readouterr().err, digests


@pytest.mark.parametrize(
    "config,subcommand", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_reports_match_golden_digests(config, subcommand, tmp_path, capsys):
    args = [subcommand, "--config", str(CONFIGS / f"{config}.json")]
    got = _run_digests(args, tmp_path, capsys)
    assert got == GOLDEN[(config, subcommand)]


def test_golden_covers_every_bundled_config():
    assert {c for c, _ in GOLDEN} == {p.stem for p in CONFIGS.glob("*.json")}


# --- generated trees ----------------------------------------------------------

# (seed, years, interior dates per year): 274 and 217 nodes, up to three
# children per node, one and two interior dates per year.
TREES = {"tree274": (2, 3, 1), "tree217": (7, 2, 2)}

_FIXED_MIX = {
    "mode": "B",
    "family": {"type": "fixed_mix", "indices": [0, 1], "grid_depth": 2},
}

# Subcommand arguments and config overrides per case.
CASES = {
    "value_risk_free_var": (("value",), {}),
    "value_fixed_mix_es": (
        ("value",),
        {
            "fulfillment": {"type": "es", "alpha": 0.05},
            "engine": {
                "mode": "B",
                "family": {"type": "fixed_mix", "indices": [0, 1], "grid_depth": 2},
            },
        },
    ),
    "solvency_stage3": (("solvency", "--stage", "3"), {}),
    "check_restricted": (("check",), {"restriction": {"indices": [0, 2, 3]}}),
    "adjust": (("adjust",), {"fulfillment": {"type": "var", "alpha": 0.2}}),
    # The risk-free one-period step under every fulfillment and
    # financiability variant, in both modes, and with infeasible nodes.
    "value_risk_free_es": (("value",), {"fulfillment": {"type": "es", "alpha": 0.05}}),
    "value_risk_free_prob90": (("value",), {"fulfillment": {"type": "prob", "p": 0.9}}),
    "value_risk_free_prob100": (("value",), {"fulfillment": {"type": "prob", "p": 1.0}}),
    "value_risk_free_full": (("value",), {"fulfillment": {"type": "full"}}),
    "value_risk_free_zero": (("value",), {"financiability": {"type": "zero"}}),
    "value_risk_free_state_price": (
        ("value",),
        {"financiability": {"type": "state_price"}},
    ),
    "value_risk_free_mode_a": (
        ("value",),
        lambda doc: dict(
            _level_inflows(doc),
            engine={"mode": "A", "family": {"type": "risk_free"}},
        ),
    ),
    "value_risk_free_no_bond": (
        ("value",),
        lambda doc: dict(_drop_bond(doc, 1), financiability={"type": "zero"}),
    ),
    # The fixed-mix and explicit one-period steps.
    "value_fixed_mix_var": (("value",), {"engine": _FIXED_MIX}),
    "value_fixed_mix_prob90": (
        ("value",),
        {"fulfillment": {"type": "prob", "p": 0.9}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_full": (
        ("value",),
        {"fulfillment": {"type": "full"}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_zero": (
        ("value",),
        {"financiability": {"type": "zero"}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_mode_a": (
        ("value",),
        lambda doc: dict(_level_inflows(doc), engine=dict(_FIXED_MIX, mode="A")),
    ),
    "value_explicit": (("value",), lambda doc: dict(doc, engine=_explicit_engine(doc))),
}


def _level_inflows(doc: dict) -> dict:
    """An inflow of 100 wherever an outflow (drawn from 50..150) falls:
    some years end with a net inflow, so mode A reports negative
    production costs next to positive ones."""
    outflows = doc["liability"]["outflows"]
    inflows = dict.fromkeys(outflows, 100.0)
    return dict(doc, liability={"outflows": outflows, "inflows": inflows})


def _drop_bond(doc: dict, period: int) -> dict:
    """Without the period bond, the nodes of that date are infeasible,
    and so is every node above them: the run exits 2."""
    market = doc["market"]
    tradables = [t for t in market["tradables"] if t.get("bond_period") != period]
    return dict(doc, market=dict(market, tradables=tradables))


def _explicit_engine(doc: dict) -> dict:
    """An explicit family whose base buys 0 to 300 units of the period
    bond at each annual node and holds them through the year, so it
    funds its interior dates exactly. Some years end above the
    liability (no top-up) and some below it (a bond top-up)."""
    rng = np.random.default_rng(0)
    tradables = doc["market"]["tradables"]
    bond = {t["bond_period"]: k for k, t in enumerate(tradables) if "bond_period" in t}
    horizon = doc["grid"]["T"]
    assignments = {}
    # Parents come before their children in the node list.
    for node in doc["tree"]["nodes"]:
        date = Fraction(node["date"])
        units = [0.0] * len(tradables)
        if date < horizon:
            k = bond[math.floor(date)]
            if date.denominator == 1:
                units[k] = float(rng.uniform(0.0, 300.0))
            else:
                units[k] = assignments[node["parent"]][k]
        assignments[node["id"]] = units
    return {
        "mode": "B",
        "family": {"type": "explicit", "strategy": {"assignments": assignments}},
    }


def _config(tree: str, overrides) -> dict:
    doc = generated_config(*TREES[tree])
    if callable(overrides):
        return overrides(doc)
    return dict(doc, **overrides)


GENERATED_GOLDEN = {
    ("tree217", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "8c8a00bad80f43ce86609a16c517985f2bd3828cb9246059d88e4dca2acb1e97",
            "adjust.json": "5b2ef14e130c5a96292ec0a2384f89774c5ce9ac40960553acf658df9a143310",
            "metadata.json": "03e43ac38166b65eaf4f7927e7f0f5f82e9af038d0c1c341816a368b7dd41413",
        },
    ),
    ("tree217", "check_restricted"): (
        0,
        "",
        {
            "check.json": "39445c2af60fd84e3ceb69ab3b361151b8fa8674c02b8e5ad91f2314cab304f4",
            "metadata.json": "60ff6caf61b821b64a1647165907d9700cf9714544659bb8b77b82d44e230223",
        },
    ),
    ("tree217", "solvency_stage3"): (
        0,
        "",
        {
            "metadata.json": "35356b8b1a2de12636c6191f5429eabd7219eb5652490dc39a732abf53fa01aa",
            "solvency.csv": "46829962346fedb69e73901d3c31f3f3c0ecd07c5348a6970416a8b5b6a2b8e8",
            "solvency.json": "4e6b647c1ddf69e151d42126158562f9bd79f06fc730155c2eac56e1ce369b72",
        },
    ),
    ("tree217", "value_explicit"): (
        0,
        "",
        {
            "metadata.json": "d8afdc9645924c6c3ea26a1c5200b6433eb1bf8d2be5acf592d201f510c88498",
            "production.csv": "198e0143adeba1f25835c89bafc1ddc05f3b82845a0f8076386487fd1aadb01c",
        },
    ),
    ("tree217", "value_fixed_mix_es"): (
        0,
        "",
        {
            "metadata.json": "929ff747dd66860388a82d103c7d72e0ff2253be636a5834a0dd908fb958db24",
            "production.csv": "b65cffea67f4ac8d9bee7e0dd21baf53652b68305adbea167f5459ca80e11a80",
        },
    ),
    ("tree217", "value_fixed_mix_full"): (
        0,
        "",
        {
            "metadata.json": "c5d5faab399ad54b3f3196f4ba52befc6c22641d022197cc25614c239edd7268",
            "production.csv": "26aca08217bd030ab3bd20af02c59c0ee929feb15a2d830ff60a84b3566d2485",
        },
    ),
    ("tree217", "value_fixed_mix_mode_a"): (
        0,
        "",
        {
            "metadata.json": "de5bf7902a223b4013f2c0b82d148e1bbc96f9fa931d76dd878a88e8fc73cf59",
            "production.csv": "6c25b6185dc7f0ba653ba5d398c4064d5e52d2e0aaf354c14cbcfc2b6dc15ac7",
        },
    ),
    ("tree217", "value_fixed_mix_prob90"): (
        0,
        "",
        {
            "metadata.json": "a5af5426bd33d69b43b9a0511183c4f736bebf0606d5e7cfd4ce274823067115",
            "production.csv": "da4516df2eefdde1dffbd13e6708a16e2d5d1c8056eee55f45a03eeee80bc6a4",
        },
    ),
    ("tree217", "value_fixed_mix_var"): (
        0,
        "",
        {
            "metadata.json": "c80d55ddb75800899fd623a2bda8f3ccf56068f7220940d1ac41a8628f8b30cc",
            "production.csv": "26aca08217bd030ab3bd20af02c59c0ee929feb15a2d830ff60a84b3566d2485",
        },
    ),
    ("tree217", "value_fixed_mix_zero"): (
        0,
        "",
        {
            "metadata.json": "8e613de9c0cf4d556be8373e1a5ab95507dd6c390b02f10e8cda41d998f09f73",
            "production.csv": "1c9f6d3f1b37b6fac32f24850fb861867fb3067a0855eb71950d119c8c7c7295",
        },
    ),
    ("tree217", "value_risk_free_es"): (
        0,
        "",
        {
            "metadata.json": "110415e9bf494610e51e7d38f0126253d52d150b5e6de149f8215a77cce2ed52",
            "production.csv": "c4428b807ec9032b38a9a6c4b5cb4356ed829f9d2f1c4ae812c4ce158193e997",
        },
    ),
    ("tree217", "value_risk_free_full"): (
        0,
        "",
        {
            "metadata.json": "2dc0f837ec001fd678d405fd3322067d2c1ab55fb13a02e6d6ff05e202497d5f",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_mode_a"): (
        0,
        "",
        {
            "metadata.json": "3b87d90be938ed647fe1a7e4773fa6357ea14efd2d6e7d189a4168578b31a624",
            "production.csv": "1514a10e284b17a5cb724232351f38547b10e159e60d6286c62ee05cdcd2ef27",
        },
    ),
    ("tree217", "value_risk_free_no_bond"): (
        2,
        "",
        {
            "metadata.json": "b04857ab02197a43be5a16a55f42d8f8e18e907cce129ed6698963d0308f953c",
            "production.csv": "491a9d3efd22ac59371db6f02ef0bbaff8d564e59f1fa42ee54d461e094cbbe5",
        },
    ),
    ("tree217", "value_risk_free_prob100"): (
        0,
        "",
        {
            "metadata.json": "0947cfa30f003844da266d713b2a5b327b7b3d1fe9e29f1bdbee90bbce376407",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_prob90"): (
        0,
        "",
        {
            "metadata.json": "250f1b240d0bd106198a1561498afdb810e01c1cd2de8b1a7dc70175d49791de",
            "production.csv": "65fee6c79e1757e94579248c6d70ce08e68fd28b711de36ada1a0ae5034d44fd",
        },
    ),
    ("tree217", "value_risk_free_state_price"): (
        0,
        "",
        {
            "metadata.json": "2d9e36756f59af007ffbba19cf2b4395ce9aa588d15a7540392c9728011da0e6",
            "production.csv": "db870d97fb9771b02c7914be55ce2cca1a96314914cd2ef187795e1e26e391aa",
        },
    ),
    ("tree217", "value_risk_free_var"): (
        0,
        "",
        {
            "metadata.json": "a22b53a950b97ac49f8782a6e2f6bf75a762aeabcd7bb478a140b39f57f687c4",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_zero"): (
        0,
        "",
        {
            "metadata.json": "03ca3a4c9b2c664a08d022e36c2b0e29381f61e7d751834dc594f2ab091b1715",
            "production.csv": "cb5e3254903cf7d77c8235cb43831e956807e1f72f3dca0e96a5735c82f91490",
        },
    ),
    ("tree274", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "77dfd8091a691b12a3067bf68e990b7e657f9e4468633405ee9a9154294414bb",
            "adjust.json": "58f2624e8980a9be0d32cd5bb6f8b99b5ae3726693b34e93cf4dfddf2c07f404",
            "metadata.json": "9acf443fe08e20740e0ae01cedb25b9852d3334bcf0fa056b02dedfd74f81da6",
        },
    ),
    ("tree274", "check_restricted"): (
        0,
        "",
        {
            "check.json": "5ad4598d8c67e334891b501603f94d5ed659434aac1a23203aef3a74bb70c566",
            "metadata.json": "0299dd0dfee9f14ea60829fdbaa581700ba5cbff0378eaf305d8ecc8520fb5e9",
        },
    ),
    ("tree274", "solvency_stage3"): (
        0,
        "",
        {
            "metadata.json": "29f8626fabd0edac7be9070889d22db20a583c274e62b29569a7ec5c81b6f2fc",
            "solvency.csv": "98230590d0a3f00059d038864e1653f873743014a1a1054388ee3c91c3ff41e2",
            "solvency.json": "b6bff663307638cff2cae54c749b0aa950274ec1a69fd54029390121334b1645",
        },
    ),
    ("tree274", "value_explicit"): (
        0,
        "",
        {
            "metadata.json": "bcab83fa41a57c525cd1f224e617142d234fffafd1ac315161f348ea5d3cd664",
            "production.csv": "27326bfecceea86a565418ea45a637e54a82b1553ca9809edf92d98d0367a6d1",
        },
    ),
    ("tree274", "value_fixed_mix_es"): (
        0,
        "",
        {
            "metadata.json": "2dfc049cf16a3a60f7658f9bad4c23cc7e6cdab933fed0c8de63e21ad0fe662c",
            "production.csv": "b74c71b856736cc04a1155ba41f00df77bf8e600c0640370f4b7829d91e2ad85",
        },
    ),
    ("tree274", "value_fixed_mix_full"): (
        0,
        "",
        {
            "metadata.json": "6b3dcbd974e307692c8603c3fd68a989cca56371e75fee555b08cf5aa2501a0b",
            "production.csv": "da5479b9588cb8050b3137b6b85cdd6af61cc86f11c7adf3656ae74ba00c05b9",
        },
    ),
    ("tree274", "value_fixed_mix_mode_a"): (
        0,
        "",
        {
            "metadata.json": "743ff474a87dff0606cce6d00b5fa8cb3caf27252287b6bf2aab821054a9af82",
            "production.csv": "3363b56cb789c6ff2da8b35242664eb5b84131d0a98dc943b8d5479b875f11d7",
        },
    ),
    ("tree274", "value_fixed_mix_prob90"): (
        0,
        "",
        {
            "metadata.json": "491959d9f6f211a5f43f6fa237aa80e56fbf2c39078cf3713dc9ec7504240953",
            "production.csv": "c483f19c2beba79eb6bd40bd2f90bef61a141079d1f6877c3d4bef1bf71316f2",
        },
    ),
    ("tree274", "value_fixed_mix_var"): (
        0,
        "",
        {
            "metadata.json": "cbc19124e01c8fc0e63f7128f010c796d7cbc692e61e6e3d4093a02ea27a2bff",
            "production.csv": "da5479b9588cb8050b3137b6b85cdd6af61cc86f11c7adf3656ae74ba00c05b9",
        },
    ),
    ("tree274", "value_fixed_mix_zero"): (
        0,
        "",
        {
            "metadata.json": "0db2a5f44ef51bfec4d0eaf8ee1d8fbcd14160caa750fb302edf6a5ebbde072e",
            "production.csv": "6dc7353f36937adaeb31951e69ac68a1b3b66124f169f4468ec248b22b6c9b3a",
        },
    ),
    ("tree274", "value_risk_free_es"): (
        0,
        "",
        {
            "metadata.json": "3a4e2cfb57863bdd0b01c651c594176923beaf3f5a6a611284ef1bf814913c2a",
            "production.csv": "1e6a0900ec22ad1f3c1a422e79d61ed2159dbd082f22edeb64a50c8585489284",
        },
    ),
    ("tree274", "value_risk_free_full"): (
        0,
        "",
        {
            "metadata.json": "1b065f97b1700255e19ba4a1d5c1c8e7fd488f64c6c5180e1525fcdb9afa32c4",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_mode_a"): (
        0,
        "",
        {
            "metadata.json": "9e74ef3c3e307d62f1aa1aa4ae659716210db9804a9753d7b0c992520b63820b",
            "production.csv": "ed8897e1079a0d62e4fd04f28ab30151422cbcb09cd8eb58b3629c774acd4476",
        },
    ),
    ("tree274", "value_risk_free_no_bond"): (
        2,
        "",
        {
            "metadata.json": "bc96906df053e39551c4d8327b3d636512d2776ac7f566c08fc9858da29bfb69",
            "production.csv": "694dc9a4054cb6088f385e50fb75a4d805b1a2516e4cd27f5c97c54d68fe0156",
        },
    ),
    ("tree274", "value_risk_free_prob100"): (
        0,
        "",
        {
            "metadata.json": "e973c7471481a0a56defd0c70da23359f10db9ee20d9562eb2244fd5125ad1ee",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_prob90"): (
        0,
        "",
        {
            "metadata.json": "972d9b4f7f03fa7c28336f825424ed7e7e0dcf1dc12addb0b8bb31accb219512",
            "production.csv": "ba22c208f48e334d0441950547771272ee7ca0657a1743b9eafd8d630f4729f7",
        },
    ),
    ("tree274", "value_risk_free_state_price"): (
        0,
        "",
        {
            "metadata.json": "e6d39cd8645c10a147370af89f69c6bd9f374751cc353d7e64fddf63c4e6395f",
            "production.csv": "53de94021e87147e2dd2667d68f763ce287d18e3b243efac77e176e063f89bf8",
        },
    ),
    ("tree274", "value_risk_free_var"): (
        0,
        "",
        {
            "metadata.json": "1f624902087a807066c2510354f6be4181691c2c56abd880170300cbddc43f78",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_zero"): (
        0,
        "",
        {
            "metadata.json": "fe536f9e7978fabcddffd6210e27f07a0bd92952a486d696c3de7b7cd9719f05",
            "production.csv": "44c53afbee8e35ccd91fdd1f608ca65d9ec41718bae0f005607aaeab8d969a95",
        },
    ),
}


@pytest.mark.parametrize(
    "tree,case", sorted(GENERATED_GOLDEN), ids=lambda v: str(v)
)
def test_generated_tree_reports_match_golden_digests(tree, case, tmp_path, capsys):
    args, overrides = CASES[case]
    doc = _config(tree, overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=1))
    out = tmp_path / "out"
    out.mkdir()
    got = _run_digests(list(args) + ["--config", str(config)], out, capsys)
    assert got == GENERATED_GOLDEN[(tree, case)]


def test_generated_golden_covers_every_tree_and_case():
    assert set(GENERATED_GOLDEN) == {(t, c) for t in TREES for c in CASES}
