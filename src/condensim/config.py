"""Run configuration: YAML schema, validation, defaults, manifest data.

The document has five blocks (chain, model, diffusion, experiment,
output).  The block dataclasses below are the schema: every key is
checked against its field annotation, ``null`` is accepted only where
the default is ``null``, and a field without a default is required
(``chain.rates`` and ``experiment.seed``).  Sites in configs are
1-based (matching the ``x_1..x_L`` CSV headers); the library uses
0-based indices internally and the CLI converts at the boundary.
README's config schema shows every key with its default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .chain import ChainSpec, validate_chain
from .diffusion import DT_RULES, DiffusionConfig, eps_abs_limit
from .errors import ChainValidationError, ConfigRangeError, ConfigSchemaError
from .zrp import ZrpConfig

__version__ = "0.1.0"


@dataclass
class ChainBlock:
    rates: list[list[float]]
    m: list[float] | None = None


@dataclass
class ModelBlock:
    b: float = 1.5
    g_correction: float = ZrpConfig.g_correction
    N: list[int] = field(default_factory=lambda: [100])
    allow_small_b: bool = DiffusionConfig.allow_small_b


@dataclass
class DiffusionBlock:
    dt_base: float = DiffusionConfig.dt_base
    eps_abs: float = DiffusionConfig.eps_abs
    noise_scale: float = DiffusionConfig.noise_scale
    dt_rule: str = DiffusionConfig.dt_rule
    horizon: float | None = DiffusionConfig.horizon


@dataclass
class ExperimentBlock:
    seed: int
    paths: int = 1000
    sample_times: list[float] = field(default_factory=list)
    delta: float = ZrpConfig.delta
    q: float | None = None
    p: float | None = None
    eps: float = 0.3
    grid: int = 50
    subset: list[int] | None = None
    x0: list[float] | None = None
    eta0: list[int] | None = None
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
        """Configured subset as sorted 0-based indices; all sites when absent.

        Raises ConfigRangeError for an empty list, a site outside 1..size
        or a repeated site.
        """
        if self.experiment.subset is None:
            return tuple(range(size))
        sites = tuple(s - 1 for s in self.experiment.subset)
        if not sites:
            raise ConfigRangeError("experiment.subset: [] is empty; null means all sites")
        for s in sites:
            if not 0 <= s < size:
                raise ConfigRangeError(f"experiment.subset: site {s + 1} is outside 1..{size}")
        if len(set(sites)) < len(sites):
            raise ConfigRangeError(f"experiment.subset: {list(self.experiment.subset)} repeats a site")
        return tuple(sorted(sites))

    def build_chain(self) -> ChainSpec:
        try:
            return validate_chain(self.chain.rates, self.chain.m)
        except ChainValidationError as exc:
            raise ConfigSchemaError("chain", str(exc)) from exc


def _number(path: str, value, target: type):
    """``value`` as a finite ``target`` (float or int); bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(path, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the range of a double
        finite = False
    if not finite:
        raise ConfigRangeError(f"{path} = {value} must be finite and fit in a double")
    if target is int and int(value) != value:
        raise ConfigSchemaError(path, "expected an integer")
    return target(value)


def _coerce(path: str, value, hint):
    """``value`` checked against the annotation ``hint`` at key ``path``.

    A block (dataclass) is a mapping of its annotated fields; an absent
    or null block takes its defaults, and an absent field its default.
    ``None`` is accepted only where the annotation allows it, lists are
    checked entry by entry, numbers go through ``_number`` and anything
    else must be an instance of its annotation.
    """
    if is_dataclass(hint):
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ConfigSchemaError(path, "must be a mapping")
        hints = get_type_hints(hint)
        prefix = f"{path}." if path else ""
        unknown = sorted(str(key) for key in value if key not in hints)
        if unknown:
            raise ConfigSchemaError(prefix + unknown[0], "unknown key")
        kwargs = {}
        for f in fields(hint):
            if f.name in value or is_dataclass(hints[f.name]):
                kwargs[f.name] = _coerce(prefix + f.name, value.get(f.name), hints[f.name])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigSchemaError(prefix + f.name, "missing (required)")
        return hint(**kwargs)
    options = get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = (t for t in options if t is not type(None))
    elif value is None:
        raise ConfigSchemaError(path, "must not be null")
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigSchemaError(path, f"expected a list, got {value!r}")
        (item,) = get_args(hint)
        return [_coerce(f"{path}[{i}]", v, item) for i, v in enumerate(value)]
    if hint in (int, float):
        return _number(path, value, hint)
    if not isinstance(value, hint):
        raise ConfigSchemaError(path, f"expected {hint.__name__}, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config document.

    Raises ConfigSchemaError (with the offending key path) on missing,
    unknown or repeated keys and type errors, ConfigRangeError on
    out-of-range values.
    """
    import yaml  # here, not at the top: only parsing pays its import

    class Loader(yaml.SafeLoader):
        """Rejects a key repeated in one mapping, where PyYAML keeps the last."""

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    name = self.construct_object(key)
                    if name in seen:
                        line = key.start_mark.line + 1
                        raise ConfigSchemaError(str(name), f"repeated key on line {line}")
                    seen.add(name)
            return super().construct_mapping(node, deep)

    try:
        raw = yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:
        raise ConfigSchemaError("<document>", f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigSchemaError("<document>", "top level must be a mapping")
    config = _coerce("", raw, RunConfig)
    _validate_ranges(config)
    return config


def check_seed(name: str, seed: int) -> int:
    """``seed`` when it fits in 64 unsigned bits; else ConfigRangeError naming ``name``."""
    if not 0 <= seed < 2**64:
        raise ConfigRangeError(f"{name} = {seed} must fit in 64 unsigned bits")
    return seed


def _validate_ranges(config: RunConfig) -> None:
    model, diff, exp = config.model, config.diffusion, config.experiment
    if model.b <= 1.0 and not model.allow_small_b:
        raise ConfigRangeError(
            f"model.b = {model.b} <= 1: the diffusion is not expected to be "
            "absorbed at the boundary in this regime; set "
            "model.allow_small_b: true to explore it anyway"
        )
    if not model.N or min(model.N) < 1:
        raise ConfigSchemaError("model.N", "must be a nonempty list of positive integers")
    if len(set(model.N)) < len(model.N):
        raise ConfigRangeError(f"model.N: {model.N} repeats a particle count")
    if not diff.dt_base > 0:
        raise ConfigRangeError(f"diffusion.dt_base = {diff.dt_base} must be positive")
    limit = eps_abs_limit(len(config.chain.rates))
    if not 0 < diff.eps_abs < limit:
        raise ConfigRangeError(
            f"diffusion.eps_abs = {diff.eps_abs} out of (0, {limit:g}): below 0.1 and 1/L"
        )
    if not 0 <= diff.noise_scale <= 1:
        raise ConfigRangeError(f"diffusion.noise_scale = {diff.noise_scale} out of [0, 1]")
    if diff.dt_rule not in DT_RULES:
        raise ConfigSchemaError("diffusion.dt_rule", f"unknown rule {diff.dt_rule!r}")
    if not 0 < exp.delta < 1:
        raise ConfigRangeError(f"experiment.delta = {exp.delta} out of (0, 1)")
    if exp.paths < 1:
        raise ConfigRangeError("experiment.paths must be positive")
    if exp.grid < 2:
        raise ConfigRangeError("experiment.grid must be at least 2")
    if not exp.eps > 0:
        raise ConfigRangeError(f"experiment.eps = {exp.eps} must be positive")
    check_seed("experiment.seed", exp.seed)
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
