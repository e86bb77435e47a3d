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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .chain import (
    ChainSpec,
    chain_identity_residuals,
    dirichlet_matrix,
    harmonic_extensions,
    mask_of,
    superharmonic_radius,
    trace_rates,
)
from .config import RunConfig, __version__, check_seed, config_hash, parse_config
from .diffusion import (
    DiffusionConfig,
    DiffusionEnsemble,
    simplex_point,
    simulate_diffusion_ensemble,
)
from .errors import (
    BadInitialError,
    CondensimError,
    ConfigRangeError,
    ConfigSchemaError,
    NonSimplexStartError,
)
from .experiments import (
    SuperharmonicReport,
    compare_winner,
    ks_distance,
    superharmonic_sign_check,
    hitting_bound_check,
    winner_distribution,
)
from .reporting import ManifestTimer, fmt, write_csv
from .zrp import ZrpConfig, ZrpEnsemble, simulate_zrp_ensemble

SIGN_TOL = 1e-12


def default_eta0(size: int, n: int) -> np.ndarray:
    """Balanced start: floor(N/L) everywhere, remainder on the first sites."""
    eta = np.full(size, n // size, dtype=np.int64)
    eta[: n - int(eta.sum())] += 1
    return eta


def _seed(config: RunConfig) -> tuple[int, str]:
    env = os.environ.get("CONDENSIM_SEED")
    if env is None:
        return config.experiment.seed, "config"
    try:
        seed = int(env)
    except ValueError:
        raise ConfigSchemaError("CONDENSIM_SEED", "must be an integer") from None
    return check_seed("CONDENSIM_SEED", seed), "env"


def _diffusion(
    config: RunConfig, chain: ChainSpec, seed: int, sampled: bool
) -> DiffusionEnsemble:
    """Diffusion paths from ``_start``, on the sample grid only when ``sampled``."""
    exp = config.experiment
    dc = DiffusionConfig(
        chain=chain,
        b=config.model.b,
        seed=seed,
        **asdict(config.diffusion),
        sample_times=tuple(exp.sample_times),
        cond_delta=exp.delta,
        allow_small_b=config.model.allow_small_b,
    )
    if not sampled:
        dc = replace(dc, sample_times=())
    return simulate_diffusion_ensemble(dc, _start(config, chain), exp.paths)


def _start(config: RunConfig, chain: ChainSpec, absorbing: bool = False):
    """The configured start (the barycenter by default), checked to lie
    on the simplex of ``chain``, and not on a vertex when ``absorbing``."""
    x0 = config.experiment.x0
    x0 = np.full(chain.size, 1.0 / chain.size) if x0 is None else x0
    try:
        point = simplex_point(x0, chain.size)
    except NonSimplexStartError as exc:
        raise ConfigSchemaError("experiment.x0", str(exc)) from exc
    if absorbing and np.count_nonzero(point) == 1:
        raise ConfigSchemaError("experiment.x0", "a vertex is never absorbed; only diff-run runs it")
    return x0


def _zrp(
    config: RunConfig, chain: ChainSpec, n: int, seed: int, sampled: bool
) -> ZrpEnsemble:
    """ZRP paths of ``n`` particles from the configured start (balanced
    by default), on the sample grid only when ``sampled``."""
    exp, model = config.experiment, config.model
    zc = ZrpConfig(
        chain=chain,
        n_particles=n,
        b=model.b,
        seed=seed,
        g_family=model.g_family,
        g_correction=model.g_correction,
        sample_times=tuple(exp.sample_times),
        horizon=exp.horizon,
        delta=exp.delta,
    )
    if not sampled:
        zc = replace(zc, sample_times=())
    eta0 = default_eta0(chain.size, n) if exp.eta0 is None else exp.eta0
    try:
        return simulate_zrp_ensemble(zc, eta0, exp.paths)
    except BadInitialError as exc:
        raise ConfigSchemaError("experiment.eta0", str(exc)) from exc


def _sign_subset(config: RunConfig, size: int) -> tuple[int, ...]:
    """Configured subset for the sign check; the first L-1 sites when it
    is the full set, since the check needs a nonempty complement."""
    subset = config.subset_indices(size)
    return subset if len(subset) < size else tuple(range(size - 1))


def _sign_check(
    config: RunConfig, chain: ChainSpec, subset: tuple[int, ...]
) -> SuperharmonicReport:
    return superharmonic_sign_check(
        chain, subset, config.model.b, config.effective_p(),
        config.experiment.eps, config.experiment.grid,
    )


def _site_cols(size: int) -> list[str]:
    return [f"x_{j + 1}" for j in range(size)]


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
    rows: list[tuple] = [("m", j + 1, "", chain.m[j]) for j in range(size)]
    a_s = dirichlet_matrix(chain)
    rows += [("a_s", i + 1, j + 1, a_s[i, j]) for i in range(size) for j in range(size)]
    subset = config.subset_indices(size)
    if len(subset) >= 2:
        basis = harmonic_extensions(chain, subset)
        for ki, k in enumerate(subset):
            rows += [("u", j + 1, k + 1, basis[j, ki]) for j in range(size)]
        trace = trace_rates(chain, subset)
        for ji, j in enumerate(subset):
            rows += [("r_B", j + 1, k + 1, trace.rates[ji, ki]) for ki, k in enumerate(subset)]
        for ki, k in enumerate(subset):
            rows += [("upsilon", k + 1, j + 1, basis[j, ki]) for j in range(size)]
        if len(subset) < size:
            p = config.effective_p()
            rows.append(("a0", "", "", superharmonic_radius(chain, subset, config.model.b, p)))
    path = write_csv(outdir / "chain_info.csv", ["quantity", "i", "j", "value"], rows)
    sys.stdout.write(path.read_text())
    return 0


def cmd_zrp_run(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    for n in config.model.N:
        ens = _zrp(config, chain, n, manifest.seed, sampled=True)
        if ens.samples is not None:
            write_csv(
                outdir / f"zrp_samples_N{n}.csv",
                ["path_id", "t", *_site_cols(chain.size)],
                _sample_rows(ens),
            )
        cond_rows = [
            (i, float(t), int(w) + 1 if w >= 0 else None)
            for i, (t, w) in enumerate(zip(ens.t_cond, ens.winner))
        ]
        write_csv(
            outdir / f"zrp_condensation_N{n}.csv",
            ["path_id", "t_cond", "winner"],
            cond_rows,
        )
        print(f"N={n}: {ens.n_paths} paths, condensed {np.sum(~np.isnan(ens.t_cond))}")
    return 0


def cmd_diff_run(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    ens = _diffusion(config, chain, manifest.seed, sampled=True)
    if ens.samples is not None:
        write_csv(
            outdir / "diff_samples.csv",
            ["path_id", "t", *_site_cols(chain.size), "active_B"],
            _sample_rows(ens, ens.sample_masks),
        )
    abs_rows = []
    for i, events in enumerate(ens.events):
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
    print(f"{ens.n_paths} paths, trapped {trapped}")
    return 0


def cmd_compare(config: RunConfig, outdir: Path, manifest: ManifestTimer) -> int:
    chain = config.build_chain()
    _start(config, chain, absorbing=True)
    dens = _diffusion(config, chain, manifest.seed, sampled=False)
    hist_d = winner_distribution(
        dens.trapped_vertex, chain.size, engine="diffusion", chain_id=chain.fingerprint()
    )
    rows = []
    for n in config.model.N:
        zens = _zrp(config, chain, n, manifest.seed, sampled=False)
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
    """Each check is a row (name, detail, value, threshold); it passes
    when value <= threshold, so a NaN value fails."""
    chain = config.build_chain()
    _start(config, chain, absorbing=True)
    checks = chain_identity_residuals(chain)
    subset = _sign_subset(config, chain.size)
    if len(subset) >= 2:
        psi = _sign_check(config, chain, subset)
        checks.append(("superharmonic_sign", f"B mask {mask_of(psi.B)}", psi.max_value, SIGN_TOL))
    dens = _diffusion(config, chain, manifest.seed, sampled=False)
    hit = hitting_bound_check(
        chain, np.nonzero(dens.x0 > 0)[0], config.model.b, config.effective_q(), dens.sigma1
    )
    checks.append((
        "hitting_bound",
        f"mean sigma1 {fmt(hit.empirical_mean_sigma1)} +- {fmt(hit.ci_halfwidth)}",
        hit.empirical_mean_sigma1 - hit.ci_halfwidth,
        hit.bound,
    ))
    report = [
        (name, detail, value, tol, manifest.record(name, value <= tol, value, tol, detail))
        for name, detail, value, tol in checks
    ]
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
    psi = _sign_check(config, chain, _sign_subset(config, chain.size))
    passed = manifest.record(
        "superharmonic_sign", psi.max_value <= SIGN_TOL, psi.max_value, SIGN_TOL,
        f"B mask {mask_of(psi.B)}",
    )
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
        seed, seed_source = _seed(config)
    except (ConfigSchemaError, ConfigRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest = ManifestTimer(args.subcommand, config_hash(config), seed, seed_source)
    outdir = Path(args.out) if args.out else Path(config.output.directory)

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        code = COMMANDS[args.subcommand](config, outdir, manifest)
    except (ConfigSchemaError, ConfigRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CondensimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        manifest.record("completed", False)
        code = 3  # the manifest is still written for a failed run
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    manifest.write(outdir / f"run_manifest_{args.subcommand}.json", __version__)
    return code


if __name__ == "__main__":
    sys.exit(main())
