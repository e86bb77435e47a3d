"""The four benchmark workloads and their correctness gates.

Each workload class fixes its chains and sizes and warms up in
``__init__`` (the set-up the benchmark times), runs one batch on the
input set of a seed in ``run(seed)`` and judges the batch in ``check``,
which returns ``(attempted, failed, digest, notes)``.  An operation is
one simulated path, or one subcommand for ``cli-asym3``.  The
statistical gates (the ZRP winner histogram, the martingale residuals)
are applied in ``run.py`` to the numbers left in ``notes``, pooled over
a fixed number of batches.  The digest is a SHA-256 of the seeded
outputs: it changes when the random streams change.

The chains are fixed here.  condensim is always reached through module
attributes (``zrp.simulate_zrp_ensemble``), so that a traced run sees
the rebound names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np

from condensim import bumps, chain, cli, config, diffusion, experiments, zrp

from spec import CLI_SUBCOMMANDS

K3_RATES = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
B = 1.5
# Criterion 6 of the acceptance suite, at reduced path count.
HORIZON = 0.15
GRID = tuple(np.linspace(0.0, HORIZON, 151))
# Engine seed of the warm-up calls, which do not depend on the input set.
WARM_SEED = 0


def ring8_rates() -> np.ndarray:
    """Non-reversible 8-site ring with chords from even sites.

    i -> i+1 at 1.0 + 0.2 (i mod 5), i+1 -> i at 0.5 + 0.1 (i mod 4),
    i -> i+4 at 0.3 + 0.1 (i mod 3) for even i.
    """
    size = 8
    rates = np.zeros((size, size))
    for i in range(size):
        rates[i, (i + 1) % size] = 1.0 + 0.2 * (i % 5)
        rates[(i + 1) % size, i] = 0.5 + 0.1 * (i % 4)
        if i % 2 == 0:
            rates[i, (i + 4) % size] = 0.3 + 0.1 * (i % 3)
    return rates


def balanced(size: int, n: int) -> np.ndarray:
    """floor(n/size) particles per site, the remainder on the first sites."""
    eta = np.full(size, n // size, dtype=np.int64)
    eta[: n - int(eta.sum())] += 1
    return eta


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class ZrpCondense:
    """ZRP on K3, N=200, balanced start, run to condensation."""

    def __init__(self, paths: int, root: Path):
        self.k3 = chain.validate_chain(K3_RATES)
        self.paths = self.ops = paths
        warm = zrp.ZrpConfig(chain=self.k3, n_particles=12, b=B, seed=WARM_SEED)
        zrp.simulate_zrp_ensemble(warm, balanced(3, 12), 4)

    def run(self, seed: int):
        config = zrp.ZrpConfig(chain=self.k3, n_particles=200, b=B, seed=seed, delta=0.05)
        return zrp.simulate_zrp_ensemble(config, balanced(3, 200), self.paths)

    def check(self, ens):
        # The winner histogram is judged in run.py, pooled over batches.
        bad = (ens.winner < 0) | ~np.isfinite(ens.t_cond)
        notes = {"winners": np.bincount(ens.winner[~bad], minlength=3).tolist()}
        return self.ops, int(bad.sum()), sha256(ens.t_cond, ens.winner), notes


class DiffusionWide:
    """Diffusion on the 8-site ring from the barycenter to the trapped vertex."""

    def __init__(self, paths: int, root: Path):
        self.ring = chain.validate_chain(ring8_rates())
        self.paths = self.ops = paths
        warm = diffusion.DiffusionConfig(chain=chain.validate_chain(K3_RATES), b=B, seed=WARM_SEED)
        diffusion.simulate_diffusion_ensemble(warm, np.full(3, 1 / 3), 4)

    def run(self, seed: int):
        config = diffusion.DiffusionConfig(chain=self.ring, b=B, seed=seed)
        return diffusion.simulate_diffusion_ensemble(config, np.full(8, 1 / 8), self.paths)

    def check(self, ens):
        failed = 0
        for i in range(self.paths):
            mask, ok = 0xFF, bool(ens.trapped_vertex[i] >= 0)
            for _, new in ens.events[i]:
                ok &= new != mask and new & mask == new  # a strictly smaller face
                mask = new
            ok &= mask == 1 << int(ens.trapped_vertex[i])
            failed += not ok
        events = repr(ens.events).encode()
        digest = sha256(ens.trapped_vertex, ens.trapped_time, ens.sigma1, np.frombuffer(events, np.uint8))
        return self.ops, failed, digest, {}


class MartingaleGrid:
    """Both engines on K3 to a fixed horizon, then martingale residuals of
    the three standard bumps under both generators."""

    def __init__(self, paths: int, root: Path):
        self.k3 = chain.validate_chain(K3_RATES)
        self.per_engine = paths
        self.paths = self.ops = 2 * paths
        self.bumps = bumps.standard_bumps(3, collar=4e-4)
        grid = GRID[:4]
        warm_d = diffusion.DiffusionConfig(
            chain=self.k3, b=B, seed=WARM_SEED, horizon=grid[-1], sample_times=grid,
        )
        warm_z = zrp.ZrpConfig(
            chain=self.k3, n_particles=12, b=B, seed=WARM_SEED, sample_times=grid, horizon=grid[-1],
        )
        self._residuals(
            diffusion.simulate_diffusion_ensemble(warm_d, np.full(3, 1 / 3), 4),
            zrp.simulate_zrp_ensemble(warm_z, balanced(3, 12), 4),
            warm_z,
        )

    def _residuals(self, dens, zens, zconf):
        out = []
        for h in self.bumps:
            out.append(("diffusion", experiments.martingale_residual(
                dens.samples, dens.times, h,
                lambda pts, h=h: diffusion.generator_apply(self.k3, B, h, pts),
            )))
            out.append(("zrp", experiments.martingale_residual(
                zens.samples, zens.times, h,
                lambda pts, h=h: zrp.zrp_generator_apply(zconf, h, pts),
            )))
        return out

    def run(self, seed: int):
        dconf = diffusion.DiffusionConfig(
            chain=self.k3, b=B, seed=seed, horizon=HORIZON, sample_times=GRID, dt_base=2.5e-4,
        )
        zconf = zrp.ZrpConfig(
            chain=self.k3, n_particles=100, b=B, seed=seed, sample_times=GRID, horizon=HORIZON,
        )
        dens = diffusion.simulate_diffusion_ensemble(dconf, np.full(3, 1 / 3), self.per_engine)
        zens = zrp.simulate_zrp_ensemble(zconf, balanced(3, 100), self.per_engine)
        return dens, zens, self._residuals(dens, zens, zconf)

    def check(self, result):
        # martingale_residual raises on a NaN sample, so a finished run has
        # none; the residuals are judged in run.py, pooled over batches.
        dens, zens, residuals = result
        moments = [
            [tag, r.n_paths, r.mean, r.stderr**2 * r.n_paths * (r.n_paths - 1)]
            for tag, r in residuals
        ]
        digest = sha256(dens.samples, zens.samples, np.array([m[2:] for m in moments]))
        return self.ops, 0, digest, {"residuals": moments}


class CliAsym3:
    """The six subcommands on configs/asym3.yaml, output to a temp dir."""

    def __init__(self, paths, root: Path):
        self.config_path = root / "configs" / "asym3.yaml"
        parsed = config.parse_config(self.config_path.read_text())
        parsed.build_chain()
        # Engine paths the subcommands simulate: zrp-run and compare run
        # one ZRP ensemble per N; diff-run, compare and verify one diffusion.
        n_list = len(parsed.model.N)
        self.paths = parsed.experiment.paths * (2 * n_list + 3)
        self.ops = len(CLI_SUBCOMMANDS)
        self.scratch = root / "bench" / "_out"

    def run(self, seed: int):
        os.environ["CONDENSIM_SEED"] = str(seed)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        codes, errors = {}, {}
        sink = io.StringIO()
        for sub in CLI_SUBCOMMANDS:
            argv = [sub, str(self.config_path), "--out", str(self.outdir)]
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[sub] = cli.main(argv)
            except Exception:  # one subcommand's crash fails that operation only
                codes[sub] = None
                errors[sub] = traceback.format_exc()
        return codes, errors

    def check(self, result):
        codes, errors = result
        try:
            report = self.outdir / "verify_report.csv"
            rows = report.read_text().splitlines()[1:] if report.exists() else []
            verify_ok = bool(rows) and all(row.endswith(",true") for row in rows)
            h = hashlib.sha256()
            for path in sorted(self.outdir.glob("*.csv")):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)
        failed = sum(code != 0 for code in codes.values())
        if codes.get("verify") == 0 and not verify_ok:
            failed += 1
        return self.ops, failed, h.hexdigest(), {"exit_codes": codes, "errors": errors}


WORKLOADS = {
    "zrp-condense": ZrpCondense,
    "diffusion-wide": DiffusionWide,
    "martingale-grid": MartingaleGrid,
    "cli-asym3": CliAsym3,
}
