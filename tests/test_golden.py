"""Golden outputs: the CSV bodies of the six subcommands on criterion 9's
config must not change.

The digests pin every random stream and every formula behind the
reports, grouped by the stream each CSV reads: the chain and ZRP
reports never touch the diffusion's gaussian streams, the other four
do.  A change that alters a stream or a formula on purpose updates the
group it moves here and says so in CHANGES.md.
"""

import hashlib

import pytest

from condensim.cli import main

from test_acceptance import CRITERION_9_DOC

# Chain linear algebra and the ZRP's uniform streams only.
GOLDEN_CHAIN_ZRP = {
    "chain_info.csv": "c644ef87541a40b0d510ed80c532ec5946129a747c83a36b377cb72d07318a6f",
    "psi4_report.csv": "fe6676a9e2c9ef555f3e60f6fbcb4cd503a8ddac65c6050f6d995bb495b8ff34",
    "zrp_condensation_N30.csv": "9c931d83481a108457d1e4f3b7a89ef93a89286da75640c42201136cf209b0a8",
    "zrp_samples_N30.csv": "dcc0eda829a02ef7452bd01d9c4c3bef1879d53a5cc29eb4b55cc5014b703b2e",
}

# Everything that reads a diffusion path, and so the gaussian streams
# and the per-face noise factor.
GOLDEN_DIFFUSION = {
    "compare_report.csv": "b2d67e41ee1efc9cd66582fb0fdcb0df330fd778fcf2632d9e66b0fec5f1f45b",
    "diff_absorption.csv": "06122e8eb3d9d47ebe36c416c71cf96b2574fad5558dba279030520746019b1b",
    "diff_samples.csv": "d9234ec5a320a729a874cd6665891ca18fba044b4fff3fff031045e272f920e8",
    "verify_report.csv": "53d8090940477df6d98fdf22e771113bf43900352da4373776f3829843dea7a3",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    outdir = tmp / "out"
    cfg = tmp / "cfg.yaml"
    cfg.write_text(CRITERION_9_DOC.replace("PLACEHOLDER", str(outdir)))
    for sub in ("chain-info", "zrp-run", "diff-run", "verify", "psi4-check", "compare"):
        assert main([sub, str(cfg)]) == 0, sub
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.glob("*.csv"))
    }
    assert sorted(got) == sorted({**GOLDEN_CHAIN_ZRP, **GOLDEN_DIFFUSION})
    return got


def test_csv_bodies_match_golden_digests(digests):
    assert {name: digests[name] for name in GOLDEN_CHAIN_ZRP} == GOLDEN_CHAIN_ZRP


def test_diffusion_csv_bodies_match_golden_digests(digests):
    assert {name: digests[name] for name in GOLDEN_DIFFUSION} == GOLDEN_DIFFUSION
