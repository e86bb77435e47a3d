"""End-to-end subcommand tests driving the CLI exactly as a user would."""

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from condensim.cli import main

from _chains import run_python

K3_DOC = """
chain:
  rates: [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
model:
  b: 1.5
  N: [{n_list}]
experiment:
  seed: 42
  paths: {paths}
  delta: 0.05
  subset: [1, 2]
  sample_times: {sample_times}
output:
  directory: {outdir}
"""


def write_config(tmp_path, paths=40, n_list="20", sample_times="[]", name="cfg.yaml"):
    out = tmp_path / "out"
    doc = K3_DOC.format(
        paths=paths, n_list=n_list, sample_times=sample_times, outdir=out
    )
    cfg = tmp_path / name
    cfg.write_text(doc)
    return cfg, out


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestChainInfo:
    def test_trace_rate_in_output(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["chain-info", str(cfg)]) == 0
        header, rows = read_rows(out / "chain_info.csv")
        assert header == ["quantity", "i", "j", "value"]
        trace = {
            (r[1], r[2]): float(r[3]) for r in rows if r[0] == "r_B"
        }
        assert trace[("1", "2")] == pytest.approx(1.5)
        assert trace[("2", "1")] == pytest.approx(1.5)
        m_rows = [float(r[3]) for r in rows if r[0] == "m"]
        np.testing.assert_allclose(m_rows, [1 / 3] * 3, atol=1e-12)
        a0 = [float(r[3]) for r in rows if r[0] == "a0"]
        # b = 1.5 with the default p = 1.25 on K3: a0 = (b - p)/b = 1/6.
        assert a0 == [pytest.approx(1 / 6)]
        assert "r_B" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["chain-info", str(cfg)]) == 0
        manifest = json.loads((out / "run_manifest_chain-info.json").read_text())
        assert manifest["subcommand"] == "chain-info"
        assert manifest["seed"] == 42
        assert manifest["seed_source"] == "config"
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "CONDENSIM_SEED": None,
        }

    def test_each_subcommand_keeps_its_manifest(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=20)
        assert main(["chain-info", str(cfg)]) == 0
        assert main(["verify", str(cfg)]) == 0
        names = sorted(p.name for p in out.glob("run_manifest*.json"))
        assert names == ["run_manifest_chain-info.json", "run_manifest_verify.json"]
        for sub in ("chain-info", "verify"):
            manifest = json.loads((out / f"run_manifest_{sub}.json").read_text())
            assert manifest["subcommand"] == sub


    def test_one_site_subset_keeps_every_row_but_the_trace(self, tmp_path):
        # A trace chain needs two sites; the harmonic extension, the
        # projection and a0 do not.
        config = Path(__file__).resolve().parents[1] / "configs" / "asym3.yaml"
        cfg = tmp_path / "one-site.yaml"
        cfg.write_text(config.read_text().replace("subset: [1, 2]", "subset: [2]"))
        for sub in ("chain-info", "psi4-check"):
            assert main([sub, str(cfg), "--out", str(tmp_path)]) == 0, sub
        _, rows = read_rows(tmp_path / "chain_info.csv")
        assert [r[0] for r in rows].count("u") == 3
        assert [r[0] for r in rows].count("upsilon") == 3
        assert "r_B" not in [r[0] for r in rows]
        header, psi4 = read_rows(tmp_path / "psi4_report.csv")
        a0 = [r[3] for r in rows if r[0] == "a0"]
        assert a0 == [dict(zip(header, psi4[0]))["a0"]] == ["0.35714285714285721"]

    def test_subset_order_does_not_relabel_rows(self, tmp_path):
        # Every row is labelled with its own sites, whatever the order
        # of experiment.subset.
        config = Path(__file__).resolve().parents[1] / "configs" / "asym3.yaml"
        bodies = []
        for subset in ("[1, 2]", "[2, 1]"):
            cfg = tmp_path / "subset.yaml"
            cfg.write_text(config.read_text().replace("subset: [1, 2]", f"subset: {subset}"))
            out = tmp_path / subset
            assert main(["chain-info", str(cfg), "--out", str(out)]) == 0
            bodies.append((out / "chain_info.csv").read_text())
        assert bodies[1] == bodies[0]
        _, rows = read_rows(tmp_path / "[2, 1]" / "chain_info.csv")
        assert ["u", "1", "2", "0"] in rows  # u_2 vanishes at site 1


class TestZrpRun:
    def test_sample_and_condensation_files(self, tmp_path):
        cfg, out = write_config(
            tmp_path, paths=20, n_list="15", sample_times="[0.0, 0.05, 0.1]"
        )
        assert main(["zrp-run", str(cfg)]) == 0
        header, rows = read_rows(out / "zrp_samples_N15.csv")
        assert header == ["path_id", "t", "x_1", "x_2", "x_3"]
        for row in rows:
            coords = np.array([float(v) for v in row[2:]])
            assert coords.sum() == pytest.approx(1.0, abs=1e-12)
        header, rows = read_rows(out / "zrp_condensation_N15.csv")
        assert header == ["path_id", "t_cond", "winner"]
        assert len(rows) == 20

    def test_byte_identical_reruns(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=25, n_list="20")
        assert main(["zrp-run", str(cfg)]) == 0
        first = (out / "zrp_condensation_N20.csv").read_bytes()
        assert main(["zrp-run", str(cfg)]) == 0
        assert (out / "zrp_condensation_N20.csv").read_bytes() == first


class TestDiffRun:
    def test_vertex_start_single_absorption_row(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=3)
        doc = cfg.read_text() + "\n"
        doc = doc.replace("subset: [1, 2]", "subset: [1, 2]\n  x0: [1.0, 0.0, 0.0]")
        cfg.write_text(doc)
        assert main(["diff-run", str(cfg)]) == 0
        header, rows = read_rows(out / "diff_absorption.csv")
        assert header == ["path_id", "n", "sigma_n", "B_n", "trapped_vertex"]
        assert len(rows) == 3
        for row in rows:
            assert float(row[2]) == 0.0
            assert row[3] == "1"  # bitmask of {site 1}
            assert row[4] == "1"

    def test_interior_start_traps_and_masks_decrease(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=15, sample_times="[0.0, 0.1, 0.5]")
        assert main(["diff-run", str(cfg)]) == 0
        header, rows = read_rows(out / "diff_absorption.csv")
        by_path = {}
        for row in rows:
            by_path.setdefault(row[0], []).append(row)
        assert len(by_path) == 15
        for path_rows in by_path.values():
            masks = [int(r[3]) for r in path_rows]
            pops = [bin(m).count("1") for m in masks]
            assert pops == sorted(pops, reverse=True)
            assert pops[-1] == 1
            assert path_rows[-1][4] != ""
        header, rows = read_rows(out / "diff_samples.csv")
        assert header[-1] == "active_B"

    def test_byte_identical_reruns(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=10)
        assert main(["diff-run", str(cfg)]) == 0
        first = (out / "diff_absorption.csv").read_bytes()
        assert main(["diff-run", str(cfg)]) == 0
        assert (out / "diff_absorption.csv").read_bytes() == first


class TestCompare:
    def test_report_columns(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=60, n_list="10, 20")
        assert main(["compare", str(cfg)]) == 0
        header, rows = read_rows(out / "compare_report.csv")
        assert header[0] == "N"
        assert [r[0] for r in rows] == ["10", "20"]
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0


class TestVerify:
    def test_k3_verify_passes(self, tmp_path):
        cfg, out = write_config(tmp_path, paths=300)
        assert main(["verify", str(cfg)]) == 0
        header, rows = read_rows(out / "verify_report.csv")
        checks = {r[0]: r for r in rows}
        assert all(r[-1] == "true" for r in rows)
        assert float(checks["trace_drift_vs_harmonic"][2]) <= 1e-10
        assert float(checks["partition_of_unity"][2]) <= 1e-12
        manifest = json.loads((out / "run_manifest_verify.json").read_text())
        assert all(manifest["checks"].values())
        bound = manifest["check_values"]["hitting_bound"]
        assert bound["value"] == float(checks["hitting_bound"][2])
        assert bound["threshold"] == float(checks["hitting_bound"][3])

    def test_one_path_fails_hitting_bound(self, tmp_path):
        # One sigma1 sample has no confidence interval, so the bound
        # cannot be checked and the row fails instead of passing on NaN.
        cfg, out = write_config(tmp_path, paths=1)
        assert main(["verify", str(cfg)]) == 1
        _, rows = read_rows(out / "verify_report.csv")
        checks = {r[0]: r for r in rows}
        assert checks["hitting_bound"][-1] == "false"
        assert all(r[-1] == "true" for name, r in checks.items() if name != "hitting_bound")
        # The manifest keeps each row's value and threshold; the NaN
        # value is null, so the file is strict JSON.
        text = (out / "run_manifest_verify.json").read_text()

        def no_constant(name):
            raise AssertionError(f"{name} in the manifest")

        manifest = json.loads(text, parse_constant=no_constant)
        values = manifest["check_values"]
        assert set(values) == set(checks) == set(manifest["checks"])
        bound = values["hitting_bound"]
        assert bound["value"] is None
        assert bound["threshold"] == float(checks["hitting_bound"][3])
        assert bound["detail"] == checks["hitting_bound"][1]
        drift = values["trace_drift_vs_harmonic"]
        assert drift["value"] == float(checks["trace_drift_vs_harmonic"][2])
        assert drift["threshold"] == float(checks["trace_drift_vs_harmonic"][3])

    def test_exit_codes_for_bad_configs(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["verify", str(missing)]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("chain:\n  rates: [[0.0, 1.0], [1.0, 0.0]]\n")
        assert main(["verify", str(bad)]) == 2
        # Non-finite numbers are range errors: a NaN step size would
        # never advance the diffusion, a NaN horizon never retires a
        # ZRP path, and NaN jump rates corrupt the event selection.
        # Values the engines reject are range errors too, and so are
        # list entries that are not numbers of the right kind.
        base = write_config(tmp_path, paths=5)[0].read_text()
        corrected = "b: 1.5\n  g_family: corrected\n  g_correction: "
        exp = "delta: 0.05\n  "
        cases = {
            "nan-dt": ("diff-run", base + "diffusion:\n  dt_base: .nan\n"),
            "nan-rate": ("zrp-run", base.replace("b: 1.5", corrected + ".nan").replace(
                "delta: 0.05", exp + "horizon: 0.1"
            )),
            "nan-horizon": ("compare", base.replace("delta: 0.05", exp + "horizon: .nan")),
            "decreasing-times": ("zrp-run", base.replace("times: []", "times: [0.1, 0.05]")),
            "negative-time": ("diff-run", base.replace("times: []", "times: [-0.1, 0.0, 0.05]")),
            "negative-rate": ("zrp-run", base.replace("b: 1.5", corrected + "-10.0")),
            "nan-eta0": ("zrp-run", base.replace("delta: 0.05", exp + "eta0: [4, 4, .nan]")),
            "fractional-subset": ("chain-info", base.replace("subset: [1, 2]", "subset: [1.5, 2]")),
        }
        # An empty list, a repeated or an out-of-range site is a config
        # error for every subcommand that reads the subset.
        for bad in ("[]", "[1, 1]", "[0, 2]", "[2, 9]"):
            for sub in ("chain-info", "psi4-check", "verify"):
                cases[f"subset-{bad}-{sub}"] = (sub, base.replace("subset: [1, 2]", f"subset: {bad}"))
        for name, (sub, doc) in cases.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(doc)
            assert main([sub, str(cfg)]) == 2, name
        # Every key is checked against its annotation: null only where
        # the default is null, strings, booleans and numbers by type.
        # A start the engines reject is a config error too, for every
        # subcommand that runs that engine.  The stderr line names the
        # offending key.
        parse = ("chain-info", "diff-run")
        # eps_abs must stay below 1/L as well as 0.1.
        ring12 = [[1.0 if (j - i) % 12 in (1, 11) else 0.0 for j in range(12)] for i in range(12)]
        typed = {
            "null-b": ("model.b", parse, base.replace("b: 1.5", "b: null")),
            "null-seed": ("experiment.seed", parse, base.replace("seed: 42", "seed: null")),
            "null-dt": ("diffusion.dt_base", parse, base + "diffusion:\n  dt_base: null\n"),
            "int-directory": ("output.directory", parse, base.replace(
                f"directory: {tmp_path / 'out'}", "directory: 5"
            )),
            "string-small-b": ("model.allow_small_b", parse, base.replace(
                "b: 1.5", 'b: 1.5\n  allow_small_b: "no"'
            )),
            "string-rate": ("chain.rates[0][1]", parse, base.replace(
                "[[0.0, 1.0, 1.0]", '[[0.0, "a", 1.0]'
            )),
            "ragged-rates": ("chain: rates", parse, base.replace(
                "[1.0, 1.0, 0.0]]", "[1.0, 1.0]]"
            )),
            "nan-measure": ("chain.m[1]", parse, base.replace(
                "chain:\n", "chain:\n  m: [1, .nan, 1]\n"
            )),
            "short-x0": ("experiment.x0", ("diff-run", "compare", "verify"), base.replace(
                "delta: 0.05", exp + "x0: [0.5, 0.5]"
            )),
            "ring12-eps-abs": ("diffusion.eps_abs", parse, base.replace(
                "[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]", str(ring12)
            ) + "diffusion:\n  eps_abs: 0.09\n"),
            "light-eta0": ("experiment.eta0", ("zrp-run", "compare"), base.replace(
                "delta: 0.05", exp + "eta0: [10, 10, 10]"
            ).replace("N: [20]", "N: [100]")),
            # The sign certificate's region needs eps > 0.
            "zero-eps": ("experiment.eps", parse + ("psi4-check",), base.replace(
                "delta: 0.05", exp + "eps: 0.0"
            )),
            "negative-eps": ("experiment.eps", parse + ("verify",), base.replace(
                "delta: 0.05", exp + "eps: -0.3"
            )),
        }
        capsys.readouterr()
        for name, (key, subs, doc) in typed.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(doc)
            for sub in subs:
                assert main([sub, str(cfg)]) == 2, (name, sub)
                assert f"config error: {key}" in capsys.readouterr().err, (name, sub)

    def test_vertex_start_only_for_diff_run(self, tmp_path, capsys, monkeypatch):
        # A vertex start is never absorbed.  compare and verify read the
        # first absorption time, so they reject it before simulating;
        # diff-run still runs it.
        import condensim.cli as cli

        doc = write_config(tmp_path, paths=5)[0].read_text()
        cfg = tmp_path / "vertex.yaml"
        cfg.write_text(doc.replace("delta: 0.05", "delta: 0.05\n  x0: [1.0, 0.0, 0.0]"))
        runs, simulate = [], cli.simulate_diffusion_ensemble
        monkeypatch.setattr(
            cli, "simulate_diffusion_ensemble", lambda *a: runs.append(a) or simulate(*a)
        )
        capsys.readouterr()
        for sub in ("compare", "verify"):
            assert main([sub, str(cfg)]) == 2, sub
            assert "config error: experiment.x0" in capsys.readouterr().err, sub
        assert runs == []
        assert main(["diff-run", str(cfg)]) == 0
        assert len(runs) == 1
        # One positive entry off the simplex is reported as off the
        # simplex, not as a vertex.
        for x0, reason in (
            ("[1.0]", "point must be a nonnegative vector"),
            ("[2.0, 0.0, 0.0]", "coordinates sum to 2.0"),
        ):
            cfg.write_text(doc.replace("delta: 0.05", f"delta: 0.05\n  x0: {x0}"))
            for sub in ("diff-run", "compare", "verify"):
                assert main([sub, str(cfg)]) == 2, (x0, sub)
                err = capsys.readouterr().err
                assert f"config error: experiment.x0: {reason}" in err, (x0, sub)
                assert "vertex" not in err, (x0, sub)

    def test_one_site_subset_keeps_sign_row(self, tmp_path):
        # verify runs the sign certificate that psi4-check runs, on a
        # one-site B as well.
        cfg, out = write_config(tmp_path, paths=20)
        cfg.write_text(cfg.read_text().replace("subset: [1, 2]", "subset: [1]"))
        assert main(["psi4-check", str(cfg)]) == 0
        header, rows = read_rows(out / "psi4_report.csv")
        psi4 = dict(zip(header, rows[0]))
        main(["verify", str(cfg)])
        _, rows = read_rows(out / "verify_report.csv")
        sign = {r[0]: r for r in rows}["superharmonic_sign"]
        assert sign[1] == "B mask 1"
        assert sign[2] == psi4["max_value"]
        assert sign[-1] == "true"


@pytest.mark.parametrize(
    "n_list, eta0, key",
    [("20, 1000000000", None, "n_particles"), ("30, 20", "[10, 10, 10]", "experiment.eta0")],
)
def test_bad_later_n_runs_no_ensemble(tmp_path, capsys, monkeypatch, n_list, eta0, key):
    # Every engine config and start, one per N, is checked before the
    # first ensemble, so a bad later N writes no CSV.
    import condensim.cli as cli

    cfg, out = write_config(tmp_path, paths=5, n_list=n_list)
    if eta0 is not None:
        cfg.write_text(cfg.read_text().replace("delta: 0.05", f"delta: 0.05\n  eta0: {eta0}"))
    runs = []
    for name in ("simulate_zrp_ensemble", "simulate_diffusion_ensemble"):
        simulate = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, simulate=simulate: runs.append(a) or simulate(*a))
    capsys.readouterr()
    for sub in ("zrp-run", "compare"):
        assert main([sub, str(cfg)]) == 2, sub
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {key}"), (sub, line)
    assert runs == []
    assert list(out.glob("*")) == []


def test_face_table_cap_runs_nothing(tmp_path, capsys, monkeypatch):
    # A 13-site chain exceeds the diffusion's 12-site cap: diff-run,
    # compare and verify exit 2 naming the chain before any identity
    # residual or ensemble; zrp-run has no such cap.
    import condensim.cli as cli

    from _chains import ring

    cfg, out = write_config(tmp_path, paths=10, n_list="13")
    rates = ring(13).rates.tolist()
    doc = cfg.read_text().replace("[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]", str(rates))
    cfg.write_text(doc.replace("subset: [1, 2]", "subset: [1, 2]\n  grid: 2\n  eps: 0.01\n  horizon: 0.01"))
    calls = []
    for name in ("chain_identity_residuals", "simulate_zrp_ensemble", "simulate_diffusion_ensemble"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, f=getattr(cli, name): calls.append(name) or f(*a))
    capsys.readouterr()
    for sub in ("diff-run", "compare", "verify"):
        assert main([sub, str(cfg)]) == 2, sub
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: chain has 13 sites"), (sub, line)
    assert calls == []
    assert list(out.glob("*")) == []
    assert main(["zrp-run", str(cfg)]) == 0
    assert calls == ["simulate_zrp_ensemble"]


class TestExitCodes:
    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        import condensim.cli as cli
        from condensim.experiments import SuperharmonicReport

        def fake_sign_check(chain, subset, b, p, eps, grid):
            return SuperharmonicReport(
                B=tuple(subset), b=b, p=p, eps=eps, a0=0.1,
                resolution=grid, n_points=1, max_value=1.0, argmax=(0.0,) * 3,
            )

        monkeypatch.setattr(cli, "superharmonic_sign_check", fake_sign_check)
        cfg, out = write_config(tmp_path, paths=50)
        assert main(["verify", str(cfg)]) == 1
        manifest = json.loads((out / "run_manifest_verify.json").read_text())
        assert manifest["checks"]["superharmonic_sign"] is False

    def test_runtime_error_exits_three(self, tmp_path, monkeypatch):
        import condensim.cli as cli
        from condensim.errors import StepBlowupError

        def explode(*args, **kwargs):
            raise StepBlowupError("dt too large near the boundary")

        monkeypatch.setattr(cli, "simulate_diffusion_ensemble", explode)
        cfg, out = write_config(tmp_path, paths=5)
        assert main(["diff-run", str(cfg)]) == 3
        # The manifest is still written for failed runs.
        manifest = json.loads((out / "run_manifest_diff-run.json").read_text())
        assert manifest["checks"]["completed"] is False

    def test_output_directory_under_a_file_exits_three(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, paths=3)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["chain-info", str(cfg), "--out", str(blocker / "out")]) == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_non_positive_run_end_is_config_error(self, tmp_path, capsys):
        # A window with no positive end has nothing to run, in either
        # engine, even with a sample at t = 0.
        base = write_config(tmp_path, paths=5, sample_times="[0.0]")[0].read_text()
        for end in ("0.0", "-1.0"):
            doc = base.replace("delta: 0.05", f"delta: 0.05\n  horizon: {end}")
            cfg = tmp_path / f"end{end}.yaml"
            cfg.write_text(doc + f"diffusion:\n  horizon: {end}\n")
            for sub in ("zrp-run", "diff-run"):
                assert main([sub, str(cfg)]) == 2, (end, sub)
                assert "must be positive" in capsys.readouterr().err, (end, sub)


class TestPsi4Check:
    def test_report(self, tmp_path):
        cfg, out = write_config(tmp_path)
        doc = cfg.read_text().replace("b: 1.5", "b: 2.0") + ""
        doc = doc.replace("seed: 42", "seed: 42\n  p: 1.5\n  eps: 0.3\n  grid: 30")
        cfg.write_text(doc)
        assert main(["psi4-check", str(cfg)]) == 0
        header, rows = read_rows(out / "psi4_report.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["a0"]) == pytest.approx(0.25)
        assert float(row["max_value"]) <= 1e-12
        assert row["passed"] == "true"


class TestSeedOverride:
    def test_env_seed_recorded(self, tmp_path, monkeypatch):
        cfg, out = write_config(tmp_path, paths=5)
        monkeypatch.setenv("CONDENSIM_SEED", "777")
        assert main(["diff-run", str(cfg)]) == 0
        manifest = json.loads((out / "run_manifest_diff-run.json").read_text())
        assert manifest["seed"] == 777
        assert manifest["seed_source"] == "env"
        assert manifest["environment"]["CONDENSIM_SEED"] == "777"

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        # The override passes the same 64-bit range check as
        # experiment.seed.
        cfg, _ = write_config(tmp_path, paths=5)
        for value in ("-1", str(2**64), "x"):
            monkeypatch.setenv("CONDENSIM_SEED", value)
            assert main(["diff-run", str(cfg)]) == 2, value
            assert "config error: CONDENSIM_SEED" in capsys.readouterr().err, value

    def test_env_seed_changes_output(self, tmp_path, monkeypatch):
        cfg, out = write_config(tmp_path, paths=10)
        assert main(["diff-run", str(cfg)]) == 0
        base = (out / "diff_absorption.csv").read_bytes()
        monkeypatch.setenv("CONDENSIM_SEED", "777")
        assert main(["diff-run", str(cfg)]) == 0
        assert (out / "diff_absorption.csv").read_bytes() != base


def test_out_flag_overrides_directory(tmp_path):
    cfg, _ = write_config(tmp_path, paths=3)
    alt = tmp_path / "elsewhere"
    assert main(["chain-info", str(cfg), "--out", str(alt)]) == 0
    assert (alt / "chain_info.csv").exists()


def test_overflowing_rates_exit_two(tmp_path):
    # Rates that sum to inf make every wait 0, so a run to a horizon would
    # never end: a config error.  Under a timeout, so a hang fails.
    cfg, _ = write_config(tmp_path, paths=5)
    doc = cfg.read_text().replace("b: 1.5", "b: 1.0e+308")
    cfg.write_text(doc.replace("delta: 0.05", "delta: 0.05\n  q: 1.7e+308\n  horizon: 1.0"))
    script = (
        "from condensim.cli import main\n"
        f"print('exit', main(['zrp-run', {str(cfg)!r}]))\n"
    )
    done = run_python(script, timeout=60)
    assert done.stdout.splitlines()[-1] == "exit 2", done.stderr
    assert "overflow" in done.stderr


def test_huge_particle_count_exits_two(tmp_path):
    # N = 10^9 would ask for tens of GB of rate tables; the child's
    # address space is capped, so a table built before the check fails
    # with a MemoryError instead of taking the host's memory.
    cfg, _ = write_config(tmp_path, paths=5, n_list="1000000000")
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from condensim.cli import main\n"
        f"print('exit', main(['zrp-run', {str(cfg)!r}]))\n"
    )
    done = run_python(script, timeout=60)
    assert done.stdout.splitlines()[-1] == "exit 2", done.stderr
    assert "n_particles" in done.stderr


def test_grid_cap_exits_two(tmp_path):
    # The sign certificate's grid holds up to grid^(L-1) points; above
    # experiment.grid's cap it is rejected before any point is built.
    # The child's address space and time are capped, so a grid built
    # before the check fails with a MemoryError or a timeout instead of
    # taking the host's memory.
    cfg, _ = write_config(tmp_path, paths=5)
    doc = cfg.read_text().replace("subset: [1, 2]", "subset: [1, 2]\n  grid: 100000")
    k3_grid = tmp_path / "k3-grid.yaml"
    k3_grid.write_text(doc)
    complete6 = [[0.0 if i == j else 1.0 for j in range(6)] for i in range(6)]
    doc = cfg.read_text().replace(
        "[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]", str(complete6)
    )
    k6_eps = tmp_path / "k6-eps.yaml"
    k6_eps.write_text(doc.replace("subset: [1, 2]", "subset: [1, 2, 3]\n  eps: 0.1"))
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from condensim.cli import main\n"
        f"for cfg in ({str(k3_grid)!r}, {str(k6_eps)!r}):\n"
        "    for sub in ('psi4-check', 'verify'):\n"
        "        print('exit', main([sub, cfg]))\n"
    )
    done = run_python(script, timeout=60)
    assert done.stdout.splitlines() == ["exit 2"] * 4, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 4 and all(
        line.startswith("config error: experiment.grid") for line in lines
    ), done.stderr


@pytest.mark.parametrize("grid, code", [(512, 0), (513, 2)])
def test_grid_cap_boundary(tmp_path, capsys, grid, code):
    # On K3 the bound grid^2 reaches the cap of 262,144 points at
    # grid: 512 exactly.
    cfg, out = write_config(tmp_path, paths=5)
    cfg.write_text(cfg.read_text().replace("subset: [1, 2]", f"subset: [1, 2]\n  grid: {grid}"))
    assert main(["psi4-check", str(cfg)]) == code
    if code:
        assert "config error: experiment.grid" in capsys.readouterr().err
    else:
        header, rows = read_rows(out / "psi4_report.csv")
        assert dict(zip(header, rows[0]))["resolution"] == "512"


def test_runs_with_scipy_unimportable(tmp_path):
    # scipy is a test oracle only: with it unimportable every subcommand
    # still runs, and compare still reports a p-value.
    config = Path(__file__).resolve().parents[1] / "configs" / "asym3.yaml"
    cfg = tmp_path / "asym3.yaml"
    cfg.write_text(config.read_text().replace("paths: 2000", "paths: 50"))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from condensim.cli import COMMANDS, main\n"
        "for sub in COMMANDS:\n"
        f"    code = main([sub, {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "    print(sub, code, file=sys.stderr)\n"
        "loaded = [n for n, m in sys.modules.items() if n.split('.')[0] == 'scipy' and m]\n"
        "print('scipy', loaded, file=sys.stderr)\n"
    )
    done = run_python(script, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "chain-info 0", "zrp-run 0", "diff-run 0", "compare 0", "verify 0", "psi4-check 0",
        "scipy []",
    ]
    header, rows = read_rows(tmp_path / "compare_report.csv")
    pvalue = float(rows[0][header.index("pvalue")])
    assert 0.0 <= pvalue <= 1.0


def test_cold_start_loads_no_yaml():
    # PyYAML takes about 20 ms to import, and only parse_config needs it:
    # importing condensim and its CLI leaves it out.
    config = Path(__file__).resolve().parents[1] / "configs" / "asym3.yaml"
    script = (
        "import sys\n"
        "import condensim\n"
        "import condensim.cli\n"
        "print('import', 'yaml' in sys.modules)\n"
        f"condensim.parse_config(open({str(config)!r}).read())\n"
        "print('parse', 'yaml' in sys.modules)\n"
    )
    done = run_python(script, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["import False", "parse True"]
