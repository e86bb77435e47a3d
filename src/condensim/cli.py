"""Subcommand dispatch: chain-info, zrp-run, diff-run, compare, verify,
psi4-check.

Every run reads one YAML config, writes CSV tables plus a JSON
manifest ``run_manifest_<subcommand>.json`` into the output directory,
and exits with 0 (success), 1 (an assertion-class check failed),
2 (config error) or 3 (runtime error).  The environment variable
CONDENSIM_SEED overrides the config seed; the override is recorded in
the manifest.  Sites are reported 1-based and subsets as bitmasks
(bit j-1 <-> site j).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .chain import (
    chain_identity_residuals,
    dirichlet_matrix,
    harmonic_extensions,
    superharmonic_radius,
    trace_rates,
)
from .config import RunConfig, __version__, config_hash, parse_config
from .diffusion import DiffusionConfig, DiffusionEnsemble, simulate_diffusion_ensemble
from .errors import (
    CondensimError,
    ConfigRangeError,
    ConfigSchemaError,
)
from .experiments import (
    compare_winner,
    ks_distance,
    superharmonic_sign_check,
    hitting_bound_check,
    winner_distribution,
)
from .reporting import ManifestTimer, fmt, mask_of, write_csv
from .zrp import ZrpConfig, simulate_zrp_ensemble

SIGN_TOL = 1e-12


def default_eta0(size: int, n: int) -> np.ndarray:
    """Balanced start: floor(N/L) everywhere, remainder on the first sites."""
    eta = np.full(size, n // size, dtype=np.int64)
    eta[: n - int(eta.sum())] += 1
    return eta


def _seed(config: RunConfig) -> tuple[int, str]:
    env = os.environ.get("CONDENSIM_SEED")
    if env is not None:
        return int(env), "env"
    return config.experiment.seed, "config"


def _x0(config: RunConfig, size: int) -> np.ndarray:
    if config.experiment.x0 is not None:
        return np.asarray(config.experiment.x0, dtype=float)
    return np.full(size, 1.0 / size)


def _eta0(config: RunConfig, size: int, n: int) -> np.ndarray:
    if config.experiment.eta0 is not None:
        return np.asarray(config.experiment.eta0, dtype=np.int64)
    return default_eta0(size, n)


def _sign_subset(config: RunConfig, size: int) -> tuple[int, ...]:
    """Configured subset for the sign check; the first L-1 sites when it
    is the full set, since the check needs a nonempty complement."""
    subset = config.subset_indices(size)
    return subset if len(subset) < size else tuple(range(size - 1))


def _site_cols(size: int) -> list[str]:
    return [f"x_{j + 1}" for j in range(size)]


def _diffusion_config(
    config: RunConfig, seed: int, sample_times: tuple[float, ...]
) -> DiffusionConfig:
    d = config.diffusion
    return DiffusionConfig(
        chain=config.build_chain(),
        b=config.model.b,
        seed=seed,
        dt_base=d.dt_base,
        eps_abs=d.eps_abs,
        noise_scale=d.noise_scale,
        dt_rule=d.dt_rule,
        horizon=d.horizon,
        t_max=d.t_max,
        sample_times=sample_times,
        cond_delta=config.experiment.delta,
        allow_small_b=config.model.allow_small_b,
    )


def _unsampled_diffusion(
    config: RunConfig, seed: int
) -> tuple[np.ndarray, DiffusionEnsemble]:
    """Start point and diffusion paths without a sample grid, for the
    subcommands that read only absorption and trapping times."""
    dc = _diffusion_config(config, seed, ())
    x0 = _x0(config, dc.chain.size)
    return x0, simulate_diffusion_ensemble(dc, x0, config.experiment.paths)


def _zrp_config(config: RunConfig, n: int, seed: int) -> ZrpConfig:
    return ZrpConfig(
        chain=config.build_chain(),
        n_particles=n,
        b=config.model.b,
        seed=seed,
        g_family=config.model.g_family,
        g_correction=config.model.g_correction,
        sample_times=tuple(config.experiment.sample_times),
        horizon=config.experiment.horizon,
        delta=config.experiment.delta,
    )


def _sample_rows(ens, masks=None) -> list[tuple]:
    """CSV rows ``(path, t, x_1..x_L[, mask])`` of the filled (not NaN)
    samples, path by path and in time order within a path."""
    rows = []
    for i, ti in zip(*np.nonzero(~np.isnan(ens.samples).any(axis=2))):
        extra = () if masks is None else (int(masks[i, ti]),)
        rows.append((int(i), float(ens.times[ti]), *ens.samples[i, ti], *extra))
    return rows


def cmd_chain_info(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    size = chain.size
    rows: list[tuple] = []
    for j in range(size):
        rows.append(("m", j + 1, "", chain.m[j]))
    a_s = dirichlet_matrix(chain)
    for i in range(size):
        for j in range(size):
            rows.append(("a_s", i + 1, j + 1, a_s[i, j]))
    subset = config.subset_indices(size)
    if len(subset) >= 2:
        basis = harmonic_extensions(chain, subset)
        for ki, k in enumerate(subset):
            for j in range(size):
                rows.append(("u", j + 1, k + 1, basis[j, ki]))
        trace = trace_rates(chain, subset)
        for ji, j in enumerate(subset):
            for ki, k in enumerate(subset):
                rows.append(("r_B", j + 1, k + 1, trace.rates[ji, ki]))
        for ki, k in enumerate(subset):
            for j in range(size):
                rows.append(("upsilon", k + 1, j + 1, basis[j, ki]))
        if len(subset) < size:
            p = config.effective_p()
            rows.append(("a0", "", "", superharmonic_radius(chain, subset, config.model.b, p)))
    path = write_csv(outdir / "chain_info.csv", ["quantity", "i", "j", "value"], rows)
    sys.stdout.write(path.read_text())
    return 0


def cmd_zrp_run(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    exp = config.experiment
    size = config.build_chain().size
    for n in config.model.N:
        zc = _zrp_config(config, n, manifest.seed)
        ens = simulate_zrp_ensemble(zc, _eta0(config, size, n), exp.paths)
        if ens.samples is not None:
            write_csv(
                outdir / f"zrp_samples_N{n}.csv",
                ["path_id", "t", *_site_cols(size)],
                _sample_rows(ens),
            )
        cond_rows = [
            (
                i,
                float(ens.t_cond[i]),
                int(ens.winner[i]) + 1 if ens.winner[i] >= 0 else None,
            )
            for i in range(exp.paths)
        ]
        write_csv(
            outdir / f"zrp_condensation_N{n}.csv",
            ["path_id", "t_cond", "winner"],
            cond_rows,
        )
        print(f"N={n}: {exp.paths} paths, condensed {np.sum(~np.isnan(ens.t_cond))}")
    return 0


def cmd_diff_run(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    exp = config.experiment
    dc = _diffusion_config(config, manifest.seed, tuple(exp.sample_times))
    x0 = _x0(config, dc.chain.size)
    ens = simulate_diffusion_ensemble(dc, x0, exp.paths)
    size = dc.chain.size
    if ens.samples is not None:
        write_csv(
            outdir / "diff_samples.csv",
            ["path_id", "t", *_site_cols(size), "active_B"],
            _sample_rows(ens, ens.sample_masks),
        )
    abs_rows = []
    for i in range(exp.paths):
        events = ens.events[i]
        vertex = int(ens.trapped_vertex[i])
        if not events and vertex >= 0:
            # Started at a vertex: a single synthetic row records it.
            abs_rows.append((i, 0, 0.0, 1 << vertex, vertex + 1))
            continue
        for n_ev, (t_ev, mask) in enumerate(events, start=1):
            label = vertex + 1 if n_ev == len(events) and vertex >= 0 else None
            abs_rows.append((i, n_ev, t_ev, mask, label))
    write_csv(
        outdir / "diff_absorption.csv",
        ["path_id", "n", "sigma_n", "B_n", "trapped_vertex"],
        abs_rows,
    )
    trapped = int((ens.trapped_vertex >= 0).sum())
    print(f"{exp.paths} paths, trapped {trapped}")
    return 0


def cmd_compare(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    exp = config.experiment
    chain = config.build_chain()
    _, dens = _unsampled_diffusion(config, manifest.seed)
    hist_d = winner_distribution(
        dens.trapped_vertex, chain.size, engine="diffusion", chain_id=chain.fingerprint()
    )
    rows = []
    for n in config.model.N:
        zc = _zrp_config(config, n, manifest.seed)
        zens = simulate_zrp_ensemble(zc, _eta0(config, chain.size, n), exp.paths)
        hist_z = winner_distribution(
            zens.winner, chain.size, engine="zrp", chain_id=chain.fingerprint()
        )
        cmp = compare_winner(hist_z, hist_d)
        ks_cond = ks_distance(zens.t_cond, dens.t_cond)
        ks_sigma1 = ks_distance(zens.t_cond, dens.sigma1)
        rows.append(
            (n, cmp.tv, cmp.tv_stderr, cmp.chi2, cmp.dof, cmp.pvalue, ks_cond, ks_sigma1)
        )
        print(
            f"N={n}: winner TV={cmp.tv:.4f} (se {cmp.tv_stderr:.4f}), "
            f"KS cond={ks_cond:.4f}, KS sigma1={ks_sigma1:.4f}"
        )
    write_csv(
        outdir / "compare_report.csv",
        [
            "N", "tv_winner", "tv_stderr", "chi2", "dof", "pvalue",
            "ks_condensation", "ks_sigma1_vs_condensation",
        ],
        rows,
    )
    return 0


def cmd_verify(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    report: list[tuple] = []
    for name, detail, value, tol in chain_identity_residuals(chain):
        passed = manifest.record(name, value <= tol)
        report.append((name, detail, value, tol, passed))

    sign_subset = _sign_subset(config, chain.size)
    if len(sign_subset) >= 2:
        psi = superharmonic_sign_check(
            chain, sign_subset, config.model.b, config.effective_p(),
            config.experiment.eps, config.experiment.grid,
        )
        passed = manifest.record("superharmonic_sign", psi.max_value <= SIGN_TOL)
        report.append(
            ("superharmonic_sign", f"B mask {mask_of(sign_subset)}", psi.max_value, SIGN_TOL, passed)
        )

    x0, dens = _unsampled_diffusion(config, manifest.seed)
    check = hitting_bound_check(
        chain,
        tuple(int(j) for j in np.nonzero(x0 > 0)[0]),
        config.model.b,
        config.effective_q(),
        dens.sigma1,
    )
    passed = manifest.record("hitting_bound", not check.violated)
    report.append(
        (
            "hitting_bound",
            f"mean sigma1 {fmt(check.empirical_mean_sigma1)} +- {fmt(check.ci_halfwidth)}",
            check.empirical_mean_sigma1 - check.ci_halfwidth,
            check.bound,
            passed,
        )
    )

    write_csv(
        outdir / "verify_report.csv",
        ["check", "detail", "value", "threshold", "passed"],
        report,
    )
    for name, detail, value, tol, passed in report:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {fmt(value)} vs {fmt(tol)} ({detail})")
    return 0 if manifest.all_passed else 1


def cmd_psi4_check(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    subset = _sign_subset(config, chain.size)
    psi = superharmonic_sign_check(
        chain, subset, config.model.b, config.effective_p(),
        config.experiment.eps, config.experiment.grid,
    )
    passed = manifest.record("superharmonic_sign", psi.max_value <= SIGN_TOL)
    write_csv(
        outdir / "psi4_report.csv",
        [
            "B", "b", "p", "eps", "a0", "resolution", "n_points",
            "max_value", *(f"argmax_x_{j + 1}" for j in range(chain.size)), "passed",
        ],
        [
            (
                mask_of(psi.B), psi.b, psi.p, psi.eps, psi.a0, psi.resolution,
                psi.n_points, psi.max_value, *psi.argmax, passed,
            )
        ],
    )
    print(f"max over region: {fmt(psi.max_value)} ({'PASS' if passed else 'FAIL'})")
    return 0 if passed else 1


COMMANDS = {
    "chain-info": cmd_chain_info,
    "zrp-run": cmd_zrp_run,
    "diff-run": cmd_diff_run,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "psi4-check": cmd_psi4_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condensim",
        description="Simulation laboratory for condensing zero-range processes "
        "and their absorbed-diffusion scaling limit.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to a YAML run configuration")
    parser.add_argument("--out", help="override output.directory", default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except (ConfigSchemaError, ConfigRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        seed, seed_source = _seed(config)
    except ValueError:
        print("config error: CONDENSIM_SEED must be an integer", file=sys.stderr)
        return 2
    manifest = ManifestTimer(args.subcommand, config_hash(config), seed, seed_source)
    outdir = Path(args.out) if args.out else Path(config.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / f"run_manifest_{args.subcommand}.json"

    try:
        code = COMMANDS[args.subcommand](config, outdir, manifest)
    except (ConfigSchemaError, ConfigRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CondensimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        manifest.record("completed", False)
        manifest.write(manifest_path, __version__)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    manifest.write(manifest_path, __version__)
    return code


if __name__ == "__main__":
    sys.exit(main())
