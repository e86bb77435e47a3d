"""What the benchmark measures: workloads, metrics, bounds, predictions.

This module is plain data so that ``run.py`` can write ``BENCHMARK.json``
from it without importing numpy or condensim.  The ``moves`` entry of a
layer metric is the end-to-end metric (and the workloads) a change to
that layer is predicted to move; ``README.md`` tabulates the same
mapping.
"""

from typing import NamedTuple


class Workload(NamedTuple):
    why: str  # why it was chosen
    paths: int | None  # engine paths per batch; None: the config's own
    ops: int  # operations per batch
    gate_batches: int  # batches every run runs; the statistical gates pool them


WORKLOADS = {
    "zrp-condense": Workload(
        "ZRP on K3 to condensation at N=200: rng uniform draws and the "
        "lockstep loop, whose width decays to one path, so per-iteration "
        "fixed cost shows",
        2000,
        2000,
        1,
    ),
    "diffusion-wide": Workload(
        "diffusion on a fixed non-reversible 8-site chain to the trapped "
        "vertex: 64 gaussians per step, EM increment, 7 absorptions per "
        "path, 255-face table; no ZRP",
        1500,
        1500,
        1,
    ),
    "martingale-grid": Workload(
        "criterion-6 martingale residuals at reduced size: both engines "
        "full-width to a fixed horizon with sampling on, then generator "
        "evaluation, which sets the memory peak",
        1000,
        2000,
        3,
    ),
    "cli-asym3": Workload(
        "the six CLI subcommands on configs/asym3.yaml as shipped: the "
        "user entry point, and the only workload exercising cli, config, "
        "reporting and the verify identity loop",
        None,
        6,
        1,
    ),
}

# Seconds from the start of a run after which a worker process still
# running is killed; the batch it was running fails.  --seconds may be
# at most MAX_SECONDS, so that a healthy run never meets the limit.
LIMIT_S = 150.0
MAX_SECONDS = 90.0

# Set-up is timed in this many fresh processes per run.
SETUPS = 3

# Statistical gates, applied to a workload's first gate_batches batches
# pooled, so that their power does not depend on how many batches fit in
# --seconds.  Each gate would fail a correct program about once in
# several thousand runs.
# zrp-condense: every site's win count within this many standard errors
# of uniform (exact on K3 by symmetry).
HISTOGRAM_GATE = 4.0
# martingale-grid: |mean| / stderr of each of the six residuals.  The
# acceptance suite's single-shot criterion 6 uses 3; six residuals at 3
# fail a correct program in about 1.6 % of runs.
MARTINGALE_GATE = 4.5

# The six subcommands of the cli-asym3 workload, in the order they run.
CLI_SUBCOMMANDS = ("chain-info", "zrp-run", "diff-run", "compare", "verify", "psi4-check")

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("paths_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_frac", "ratio", "higher", 0.01),
]

_ENGINES = "wall_s on diffusion-wide, zrp-condense"
_ZRP = "wall_s, paths_per_s on zrp-condense (fill low) vs martingale-grid (fill ~1)"
_MART = "wall_s, peak_rss_mb on martingale-grid"
_DIFF = "wall_s on diffusion-wide"
_FACES = "wall_s on diffusion-wide; no change on zrp-condense"
_CLI = "wall_s on cli-asym3"

# (name, unit, better, moves)
PER_LAYER = [
    ("rng.take_s", "s", "lower", _ENGINES),
    ("rng.take_calls", "count", "lower", _ENGINES),
    ("rng.take_rows", "count", "lower", _ENGINES),
    ("rng.take_ns_per_row", "ns", "lower", _ENGINES),
    ("rng.init_s", "s", "lower", _ENGINES),
    ("rng.streams_created", "count", "lower", _ENGINES),
    ("rng.buffer_mb_computed", "MB", "lower", "peak_rss_mb on diffusion-wide"),
    ("zrp.ensemble_s", "s", "lower", _ZRP),
    ("zrp.self_s", "s", "lower", _ZRP),
    ("zrp.iterations", "count", "lower", _ZRP),
    ("zrp.path_events", "count", "lower", _ZRP),
    ("zrp.self_ns_per_event", "ns", "lower", _ZRP),
    ("zrp.lockstep_fill", "ratio", "higher", _ZRP),
    ("zrp.generator_apply_s", "s", "lower", _MART),
    ("diffusion.generator_apply_s", "s", "lower", _MART),
    ("experiments.martingale_self_s", "s", "lower", _MART),
    ("diffusion.ensemble_s", "s", "lower", _DIFF),
    ("diffusion.self_s", "s", "lower", _DIFF),
    ("diffusion.iterations", "count", "lower", _DIFF),
    ("diffusion.path_steps", "count", "lower", _DIFF),
    ("diffusion.self_ns_per_step", "ns", "lower", _DIFF),
    ("diffusion.lockstep_fill", "ratio", "higher", _DIFF),
    ("diffusion.absorptions", "count", "lower", _DIFF),
    ("diffusion.facetable_s", "s", "lower", _FACES),
    ("diffusion.facetable_builds", "count", "lower", _FACES),
    ("chain.trace_rates_calls", "count", "lower", _FACES),
    ("chain.trace_rates_s", "s", "lower", _FACES),
    ("chain.harmonic_extensions_s", "s", "lower", _FACES),
    ("experiments.sign_check_s", "s", "lower", _CLI),
    ("experiments.stats_s", "s", "lower", _CLI),
    ("config.parse_s", "s", "lower", _CLI),
    *((f"cli.{sub}_s", "s", "lower", _CLI) for sub in CLI_SUBCOMMANDS),
    ("cli.self_s", "s", "lower", _CLI),
    ("reporting.write_csv_s", "s", "lower", _CLI),
    ("reporting.csv_rows", "count", "lower", _CLI),
    ("reporting.csv_bytes", "byte", "lower", _CLI),
    ("trace.overhead_frac", "ratio", "lower", "none: traced wall_s over untraced wall_s, minus 1"),
]

# Counts that the seeded workloads must reproduce exactly, run to run.
EXACT_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER if unit in ("count", "byte"))
