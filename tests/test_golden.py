"""Golden sha256 digests of every report the CLI writes for the bundled
configs, with exit codes and error text.

A refactor that keeps these digests keeps the reports byte-identical.
Regenerate them only for an intended change of report content.
"""

import hashlib
from pathlib import Path

import pytest

from prodval.cli import main

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


@pytest.mark.parametrize(
    "config,subcommand", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_reports_match_golden_digests(config, subcommand, tmp_path, capsys):
    code = main(
        [
            subcommand,
            "--config",
            str(CONFIGS / f"{config}.json"),
            "--output-dir",
            str(tmp_path),
        ]
    )
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert (code, capsys.readouterr().err, digests) == GOLDEN[(config, subcommand)]


def test_golden_covers_every_bundled_config():
    assert {c for c, _ in GOLDEN} == {p.stem for p in CONFIGS.glob("*.json")}
