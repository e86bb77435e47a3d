"""Golden outputs: the CSV bodies of the six subcommands on criterion 9's
config must not change.

The digests pin every random stream and every formula behind the
reports.  A change that alters a stream or a formula on purpose updates
them here and says so in CHANGES.md.
"""

import hashlib

from condensim.cli import main

from test_acceptance import CRITERION_9_DOC

GOLDEN = {
    "chain_info.csv": "c644ef87541a40b0d510ed80c532ec5946129a747c83a36b377cb72d07318a6f",
    "compare_report.csv": "7778f88feb3469c32c7da3d8b527ae4e38a1924b04d7a2740c1278f2411371af",
    "diff_absorption.csv": "f19819eaee3527daaa7a11e3722077a7858472f9a64e2ea3ef38bed16eda7d66",
    "diff_samples.csv": "4cc285beb70131de155f0bc92af5e4bb8cc9784a9cf23c597a19bb371f87b5c4",
    "psi4_report.csv": "fe6676a9e2c9ef555f3e60f6fbcb4cd503a8ddac65c6050f6d995bb495b8ff34",
    "verify_report.csv": "c397bc074486989f8ca49853c2869287ef967fd8a07c7d0c6ddaa30864b0ea65",
    "zrp_condensation_N30.csv": "9c931d83481a108457d1e4f3b7a89ef93a89286da75640c42201136cf209b0a8",
    "zrp_samples_N30.csv": "dcc0eda829a02ef7452bd01d9c4c3bef1879d53a5cc29eb4b55cc5014b703b2e",
}


def test_csv_bodies_match_golden_digests(tmp_path):
    outdir = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CRITERION_9_DOC.replace("PLACEHOLDER", str(outdir)))
    for sub in ("chain-info", "zrp-run", "diff-run", "verify", "psi4-check", "compare"):
        assert main([sub, str(cfg)]) == 0, sub
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.glob("*.csv"))
    }
    assert digests == GOLDEN
