"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them on success).

Expensive ensembles are shared through module fixtures; every tolerance
is pinned here, none is deferred to later calibration.  All runs are
fully seeded, so outcomes are reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from condensim.bumps import standard_bumps
from condensim.chain import chain_identity_residuals, trace_rates
from condensim.cli import default_eta0, main
from condensim.diffusion import (
    DiffusionConfig,
    generator_apply,
    simulate_diffusion_ensemble,
)
from condensim.experiments import (
    compare_winner,
    ks_distance,
    martingale_residual,
    superharmonic_sign_check,
    hitting_bound_check,
    winner_distribution,
)
from condensim.zrp import ZrpConfig, simulate_zrp_ensemble, zrp_generator_apply

from _chains import (
    asym3,
    asym4,
    generator_taylor_residual,
    k3,
    random_irreducible_chain,
    trace_rate_mc,
)

SEED = 20260810
PATHS = 10_000
DELTA = 0.05
N_LIST = (50, 100, 200)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def diff_k3():
    """K3, b = 1.5, run to trap: shared by criteria 4, 5, 8, 10."""
    times = tuple(np.linspace(0.0, 2.0, 26))
    config = DiffusionConfig(
        chain=k3(), b=1.5, seed=SEED, sample_times=times, cond_delta=DELTA
    )
    return simulate_diffusion_ensemble(config, np.full(3, 1 / 3), PATHS)


@pytest.fixture(scope="module")
def zrp_k3():
    """K3, b = 1.5, run to condensation, N in {50, 100, 200}."""
    out = {}
    for n in N_LIST:
        config = ZrpConfig(chain=k3(), n_particles=n, b=1.5, seed=SEED, delta=DELTA)
        out[n] = simulate_zrp_ensemble(config, default_eta0(3, n), PATHS)
    return out


def test_criterion_1_algebraic_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    tol = 1e-10
    worst = 0.0
    n_chains = 0
    for i in range(50):
        size = 3 + i % 6
        chain = random_irreducible_chain(rng, size)
        n_chains += 1
        for _, _, value, _ in chain_identity_residuals(chain):
            worst = max(worst, value)
    elapsed = time.monotonic() - t0
    report(
        1,
        worst <= tol and elapsed < 10.0 and n_chains == 50,
        f"max residual {worst:.3e} over 50 chains (L up to 8), {elapsed:.1f}s",
    )


def test_criterion_2_trace_rate_monte_carlo():
    t0 = time.monotonic()
    cases = [(k3(), (0, 1)), (asym4(), (0, 1, 2))]
    n_exc = 1_000_000
    worst_dev = 0.0
    for chain, subset in cases:
        trace = trace_rates(chain, subset)
        for ji, j in enumerate(subset):
            est = trace_rate_mc(chain, subset, j, n_exc, seed=SEED + j)
            for ki, k in enumerate(est.targets):
                exact = trace.rates[ji, subset.index(k)]
                se = max(est.stderr[ki], chain.holding[j] * np.sqrt(1.0 / n_exc))
                worst_dev = max(worst_dev, abs(est.rates[ki] - exact) / se)
    elapsed = time.monotonic() - t0
    report(
        2,
        worst_dev <= 4.0 and elapsed < 60.0,
        f"max deviation {worst_dev:.2f} standard errors (10^6 excursions), {elapsed:.0f}s",
    )


def test_criterion_3_super_harmonicity_sign():
    t0 = time.monotonic()
    worst = -np.inf
    for chain in (k3(), asym3()):
        for b, p in ((1.5, 1.2), (2.0, 1.5)):
            rep = superharmonic_sign_check(chain, (0, 1), b=b, p=p, eps=0.3, resolution=50)
            worst = max(worst, rep.max_value)
    elapsed = time.monotonic() - t0
    report(
        3,
        worst <= 1e-12 and elapsed < 10.0,
        f"max of the closed-form expression over certified grids {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_hitting_time_bound(diff_k3):
    t0 = time.monotonic()
    failures = []
    margins = []
    for chain, b in ((k3(), 1.5), (k3(), 2.0), (asym3(), 1.5), (asym3(), 2.0)):
        if b == 1.5 and chain == k3():
            ens = diff_k3
        else:
            config = DiffusionConfig(chain=chain, b=b, seed=SEED + 1)
            ens = simulate_diffusion_ensemble(
                config, np.full(chain.size, 1 / chain.size), PATHS
            )
        check = hitting_bound_check(chain, tuple(range(chain.size)), b, b + 0.5, ens.sigma1)
        margins.append(check.bound / check.empirical_mean_sigma1)
        if not check.empirical_mean_sigma1 - check.ci_halfwidth <= check.bound:
            failures.append((b, check))
    elapsed = time.monotonic() - t0
    report(
        4,
        not failures and elapsed < 300.0,
        f"bound respected on 4 configs (bound/mean ratios "
        f"{', '.join(f'{m:.1f}' for m in margins)}), {elapsed:.0f}s",
    )


def test_criterion_5_convergence(diff_k3, zrp_k3):
    t0 = time.monotonic()
    chain = k3()
    hist_d = winner_distribution(diff_k3.trapped_vertex, 3)
    tvs, ses, ks_lit, ks_like = [], [], [], []
    for n in N_LIST:
        ens = zrp_k3[n]
        hist_z = winner_distribution(ens.winner, 3)
        cmp = compare_winner(hist_z, hist_d)
        tvs.append(cmp.tv)
        ses.append(cmp.tv_stderr)
        ks_lit.append(ks_distance(diff_k3.sigma1, ens.t_cond))
        ks_like.append(ks_distance(diff_k3.t_cond, ens.t_cond))
    se_ks = np.sqrt(2.0 / PATHS)
    ok_tv_final = tvs[-1] <= 0.05
    ok_tv_monotone = all(
        tvs[i + 1] <= tvs[i] + max(ses[i], ses[i + 1]) for i in range(len(tvs) - 1)
    )
    ok_ks = all(ks_lit[i + 1] <= ks_lit[i] + se_ks for i in range(len(ks_lit) - 1))
    elapsed = time.monotonic() - t0
    report(
        5,
        ok_tv_final and ok_tv_monotone and ok_ks and elapsed < 900.0,
        f"winner TV {[round(v, 4) for v in tvs]} (final <= 0.05), "
        f"KS(sigma1, t_cond^N) {[round(v, 4) for v in ks_lit]} decreasing, "
        f"KS(t_cond, t_cond^N) {[round(v, 4) for v in ks_like]}, {elapsed:.0f}s",
    )


def test_criterion_6_martingale_residuals():
    t0 = time.monotonic()
    chain = k3()
    horizon = 0.15
    grid = tuple(np.linspace(0.0, horizon, 151))
    bumps = standard_bumps(3, collar=4e-4)

    dconf = DiffusionConfig(
        chain=chain, b=1.5, seed=SEED + 2, horizon=horizon, sample_times=grid,
        dt_base=2.5e-4,
    )
    dens = simulate_diffusion_ensemble(dconf, np.full(3, 1 / 3), PATHS)

    n_zrp = 100
    zconf = ZrpConfig(
        chain=chain, n_particles=n_zrp, b=1.5, seed=SEED + 2,
        sample_times=grid, horizon=horizon,
    )
    zens = simulate_zrp_ensemble(zconf, default_eta0(3, n_zrp), PATHS)

    results = []
    for h in bumps:
        res_d = martingale_residual(
            dens.samples, dens.times, h,
            lambda pts, h=h: generator_apply(chain, 1.5, h, pts),
        )
        res_z = martingale_residual(
            zens.samples, zens.times, h,
            lambda pts, h=h: zrp_generator_apply(zconf, h, pts),
        )
        results.append(("diffusion", res_d))
        results.append(("zrp", res_z))
    within = [abs(r.mean) / r.stderr if r.stderr > 0 else float("inf") for _, r in results]
    worst = max(within)
    elapsed = time.monotonic() - t0
    detail = ", ".join(f"{tag} |mean|/se={w:.2f}" for (tag, _), w in zip(results, within))
    report(6, worst <= 3.0 and elapsed < 300.0, f"{detail}, {elapsed:.0f}s")


def test_criterion_7_generator_taylor_residual():
    t0 = time.monotonic()
    h = standard_bumps(3)[0]
    res = generator_taylor_residual(k3(), 1.5, h, [20, 40, 80, 160])
    values = [res[n] for n in (20, 40, 80, 160)]
    ok = all(values[i + 1] < values[i] * 1.05 for i in range(3))
    elapsed = time.monotonic() - t0
    report(
        7,
        ok and elapsed < 30.0,
        f"residuals {['%.4f' % v for v in values]} decreasing (5% slack), {elapsed:.1f}s",
    )


def test_criterion_8_absorption_structure(diff_k3):
    trapped = int((diff_k3.trapped_vertex >= 0).sum())
    frac = trapped / diff_k3.n_paths
    structure_ok = True
    for i in range(diff_k3.n_paths):
        pops = [bin(mask).count("1") for _, mask in diff_k3.events[i]]
        if pops != sorted(pops, reverse=True) or len(set(pops)) != len(pops):
            structure_ok = False
        times = [t for t, _ in diff_k3.events[i]]
        if times != sorted(times):
            structure_ok = False
    # Coordinates off the active set are exactly zero in every sample,
    # and a coordinate never rejoins the active set.
    zeros_ok = True
    masks = diff_k3.sample_masks
    for j in range(3):
        bit = (masks >> j & 1).astype(bool)
        off = ~bit
        if np.any(diff_k3.samples[..., j][off] != 0.0):
            zeros_ok = False
        rejoined = bit[:, 1:] & ~bit[:, :-1]
        if np.any(rejoined):
            zeros_ok = False
    report(
        8,
        frac >= 0.999 and structure_ok and zeros_ok,
        f"trapped fraction {frac:.4f} before T=100, strictly decreasing faces, "
        "exact zeros off the active set",
    )


CRITERION_9_DOC = """
chain:
  rates: [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.1, 1.0, 0.0]]
model:
  b: 1.5
  N: [30]
experiment:
  seed: 1234
  paths: 200
  delta: 0.05
  subset: [1, 2]
  sample_times: [0.0, 0.05, 0.1]
output:
  directory: PLACEHOLDER
"""


def test_criterion_9_determinism(tmp_path):
    outputs = {}
    for run in ("a", "b"):
        outdir = tmp_path / run
        cfg = tmp_path / f"cfg_{run}.yaml"
        cfg.write_text(CRITERION_9_DOC.replace("PLACEHOLDER", str(outdir)))
        for sub in ("chain-info", "zrp-run", "diff-run", "verify", "psi4-check", "compare"):
            code = main([sub, str(cfg)])
            assert code == 0, f"{sub} exited {code}"
        outputs[run] = {
            p.name: p.read_bytes()
            for p in sorted(outdir.glob("*.csv"))
        }
    same = outputs["a"].keys() == outputs["b"].keys() and all(
        outputs["a"][k] == outputs["b"][k] for k in outputs["a"]
    )
    report(
        9,
        same and len(outputs["a"]) >= 7,
        f"{len(outputs['a'])} CSV bodies byte-identical across repeated runs",
    )


def test_criterion_10_eps_abs_robustness(diff_k3):
    t0 = time.monotonic()
    coarse = DiffusionConfig(
        chain=k3(), b=1.5, seed=SEED, eps_abs=1e-3, cond_delta=DELTA
    )
    ens2 = simulate_diffusion_ensemble(coarse, np.full(3, 1 / 3), PATHS)
    h1 = winner_distribution(diff_k3.trapped_vertex, 3)
    h2 = winner_distribution(ens2.trapped_vertex, 3)
    tv = compare_winner(h1, h2).tv
    elapsed = time.monotonic() - t0
    report(
        10,
        tv <= 0.02 and elapsed < 300.0,
        f"winner TV between eps_abs 1e-4 and 1e-3: {tv:.4f}, {elapsed:.0f}s",
    )
