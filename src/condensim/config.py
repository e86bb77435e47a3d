"""Run configuration: YAML schema, validation, defaults, manifest data.

The document has five blocks (chain, model, diffusion, experiment,
output); all values have defaults except ``chain.rates`` and
``experiment.seed``.  Sites in configs are 1-based (matching the
``x_1..x_L`` CSV headers); the library uses 0-based indices internally
and the CLI converts at the boundary.

Schema (defaults in parentheses):

  chain:
    rates: LxL nonnegative matrix, zero diagonal      [required]
    m: length-L positive vector or null (computed)
  model:
    b (1.5), g_family ("default"|"corrected"), g_correction (0.0),
    N ([100]), allow_small_b (false)
  diffusion:
    dt_base (1e-3), eps_abs (1e-4), noise_scale (1.0),
    dt_rule ("clamped"|"quadratic"), horizon (null = run to trap),
    t_max (100.0)
  experiment:
    seed [required], paths (1000), sample_times ([]), delta (0.05),
    q (null = b + 0.5), p (null = (1 + b) / 2), eps (0.3), grid (50),
    subset (null = all sites), x0 (null = barycenter),
    eta0 (null = balanced), horizon (null = stop at condensation)
  output:
    directory ("out")
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import yaml

from .chain import ChainSpec, validate_chain
from .errors import ChainValidationError, ConfigRangeError, ConfigSchemaError

__version__ = "0.1.0"


@dataclass
class ChainBlock:
    rates: list
    m: list | None = None


@dataclass
class ModelBlock:
    b: float = 1.5
    g_family: str = "default"
    g_correction: float = 0.0
    N: list = field(default_factory=lambda: [100])
    allow_small_b: bool = False


@dataclass
class DiffusionBlock:
    dt_base: float = 1e-3
    eps_abs: float = 1e-4
    noise_scale: float = 1.0
    dt_rule: str = "clamped"
    horizon: float | None = None
    t_max: float = 100.0


@dataclass
class ExperimentBlock:
    seed: int = 0
    paths: int = 1000
    sample_times: list = field(default_factory=list)
    delta: float = 0.05
    q: float | None = None
    p: float | None = None
    eps: float = 0.3
    grid: int = 50
    subset: list | None = None
    x0: list | None = None
    eta0: list | None = None
    horizon: float | None = None


@dataclass
class OutputBlock:
    directory: str = "out"


@dataclass
class RunConfig:
    chain: ChainBlock
    model: ModelBlock
    diffusion: DiffusionBlock
    experiment: ExperimentBlock
    output: OutputBlock

    def effective_q(self) -> float:
        return self.experiment.q if self.experiment.q is not None else self.model.b + 0.5

    def effective_p(self) -> float:
        return (
            self.experiment.p
            if self.experiment.p is not None
            else (1.0 + self.model.b) / 2.0
        )

    def subset_indices(self, size: int) -> tuple[int, ...]:
        """Configured subset as 0-based indices; all sites when absent.

        Raises ConfigRangeError for a site outside 1..size or a repeated
        site.
        """
        if self.experiment.subset is None:
            return tuple(range(size))
        sites = tuple(int(s) - 1 for s in self.experiment.subset)
        for s in sites:
            if not 0 <= s < size:
                raise ConfigRangeError(f"experiment.subset: site {s + 1} is outside 1..{size}")
        if len(set(sites)) < len(sites):
            raise ConfigRangeError(f"experiment.subset: {list(self.experiment.subset)} repeats a site")
        return sites

    def build_chain(self) -> ChainSpec:
        try:
            return validate_chain(self.chain.rates, self.chain.m)
        except ChainValidationError as exc:
            raise ConfigSchemaError("chain", str(exc)) from exc


_BLOCKS = {
    "chain": ChainBlock,
    "model": ModelBlock,
    "diffusion": DiffusionBlock,
    "experiment": ExperimentBlock,
    "output": OutputBlock,
}

_SCALARS = {
    ("model", "b"): float,
    ("model", "g_correction"): float,
    ("diffusion", "dt_base"): float,
    ("diffusion", "eps_abs"): float,
    ("diffusion", "noise_scale"): float,
    ("diffusion", "horizon"): float,
    ("diffusion", "t_max"): float,
    ("experiment", "delta"): float,
    ("experiment", "q"): float,
    ("experiment", "p"): float,
    ("experiment", "eps"): float,
    ("experiment", "horizon"): float,
    ("experiment", "seed"): int,
    ("experiment", "paths"): int,
    ("experiment", "grid"): int,
}

_LISTS = {
    ("experiment", "sample_times"): float,
    ("experiment", "x0"): float,
    ("experiment", "eta0"): int,
    ("experiment", "subset"): int,
}


def _number(path: str, value, target: type):
    """``value`` as a finite ``target`` (float or int); bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigRangeError(f"{path} = {value} must be finite")
    if target is int and int(value) != value:
        raise ConfigSchemaError(path, "expected an integer")
    return target(value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config document.

    Raises ConfigSchemaError (with the offending key path) on missing
    or unknown keys and type errors, ConfigRangeError on out-of-range
    values.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigSchemaError("<document>", f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigSchemaError("<document>", "top level must be a mapping")

    unknown = set(raw) - set(_BLOCKS)
    if unknown:
        raise ConfigSchemaError(sorted(unknown)[0], "unknown block")
    if "chain" not in raw:
        raise ConfigSchemaError("chain", "missing block")
    if "rates" not in (raw.get("chain") or {}):
        raise ConfigSchemaError("chain.rates", "missing (required)")
    if "seed" not in (raw.get("experiment") or {}):
        raise ConfigSchemaError("experiment.seed", "missing (mandatory; no wall-clock seeding)")

    blocks = {}
    for name, cls in _BLOCKS.items():
        section = raw.get(name, {})
        if section is None:
            section = {}
        if not isinstance(section, dict):
            raise ConfigSchemaError(name, "block must be a mapping")
        fields = cls.__dataclass_fields__
        bad = set(section) - set(fields)
        if bad:
            raise ConfigSchemaError(f"{name}.{sorted(bad)[0]}", "unknown key")
        kwargs = {}
        for key, value in section.items():
            path = f"{name}.{key}"
            if value is not None and (name, key) in _SCALARS:
                value = _number(path, value, _SCALARS[name, key])
            elif value is not None and (name, key) in _LISTS:
                if not isinstance(value, list):
                    raise ConfigSchemaError(path, f"expected a list, got {value!r}")
                target = _LISTS[name, key]
                value = [_number(f"{path}[{i}]", v, target) for i, v in enumerate(value)]
            kwargs[key] = value
        blocks[name] = cls(**kwargs)

    config = RunConfig(**blocks)
    _validate_ranges(config)
    return config


def _validate_ranges(config: RunConfig) -> None:
    model, diff, exp = config.model, config.diffusion, config.experiment
    if model.b <= 1.0 and not model.allow_small_b:
        raise ConfigRangeError(
            f"model.b = {model.b} <= 1: the diffusion is not expected to be "
            "absorbed at the boundary in this regime; set "
            "model.allow_small_b: true to explore it anyway"
        )
    if model.g_family not in ("default", "corrected"):
        raise ConfigSchemaError("model.g_family", f"unknown family {model.g_family!r}")
    if not isinstance(model.N, list) or not model.N or any(
        (isinstance(n, bool)) or not isinstance(n, int) or n < 1 for n in model.N
    ):
        raise ConfigSchemaError("model.N", "must be a nonempty list of positive integers")
    if not diff.dt_base > 0:
        raise ConfigRangeError(f"diffusion.dt_base = {diff.dt_base} must be positive")
    if not 0 < diff.eps_abs < 0.1:
        raise ConfigRangeError(f"diffusion.eps_abs = {diff.eps_abs} out of (0, 0.1)")
    if not 0 <= diff.noise_scale <= 1:
        raise ConfigRangeError(f"diffusion.noise_scale = {diff.noise_scale} out of [0, 1]")
    if diff.dt_rule not in ("clamped", "quadratic"):
        raise ConfigSchemaError("diffusion.dt_rule", f"unknown rule {diff.dt_rule!r}")
    if not 0 < exp.delta < 1:
        raise ConfigRangeError(f"experiment.delta = {exp.delta} out of (0, 1)")
    if exp.paths < 1:
        raise ConfigRangeError("experiment.paths must be positive")
    if exp.grid < 2:
        raise ConfigRangeError("experiment.grid must be at least 2")
    if exp.seed < 0 or exp.seed >= 2**64:
        raise ConfigRangeError("experiment.seed must fit in 64 unsigned bits")
    q, p, b = config.effective_q(), config.effective_p(), model.b
    if model.b > 1.0:
        if not q > b:
            raise ConfigRangeError(f"experiment.q = {q} must exceed b = {b}")
        if not 1.0 < p < b:
            raise ConfigRangeError(f"experiment.p = {p} must satisfy 1 < p < b")


def config_hash(config: RunConfig) -> str:
    """Platform-stable digest of the fully-materialized config."""
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
