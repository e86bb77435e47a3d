import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
import yaml

from condensim.config import (
    ChainBlock,
    DiffusionBlock,
    ExperimentBlock,
    ModelBlock,
    OutputBlock,
    RunConfig,
    config_hash,
    parse_config,
)
from condensim.errors import ConfigRangeError, ConfigSchemaError

MINIMAL = """
chain:
  rates: [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
experiment:
  seed: 42
"""


def with_blocks(doc: str) -> str:
    """MINIMAL with each top-level block of ``doc`` in place of its own
    block of that name, or added after it."""
    blocks: dict[str, str] = {}
    for text in (MINIMAL, doc):
        for line in text.strip("\n").split("\n"):
            if not line.startswith(" "):
                key = line.split(":")[0]
                blocks[key] = ""
            blocks[key] += line + "\n"
    return "".join(blocks.values())


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.diffusion.dt_base == 1e-3
        assert cfg.diffusion.eps_abs == 1e-4
        assert cfg.experiment.delta == 0.05
        assert cfg.experiment.seed == 42
        assert cfg.model.b == 1.5
        assert cfg.effective_q() == 2.0
        assert cfg.effective_p() == 1.25

    def test_missing_seed(self):
        with pytest.raises(ConfigSchemaError) as err:
            parse_config("chain:\n  rates: [[0.0, 1.0], [1.0, 0.0]]\n")
        assert "experiment.seed" in str(err.value)

    def test_missing_rates(self):
        with pytest.raises(ConfigSchemaError) as err:
            parse_config("chain: {}\nexperiment:\n  seed: 1\n")
        assert "chain.rates" in str(err.value)

    def test_small_b_needs_override(self):
        doc = with_blocks("model:\n  b: 0.5\n")
        with pytest.raises(ConfigRangeError) as err:
            parse_config(doc)
        assert "not expected to be absorbed" in str(err.value)
        cfg = parse_config(doc.replace("b: 0.5", "b: 0.5\n  allow_small_b: true"))
        assert cfg.model.b == 0.5

    def test_unknown_key_pinpointed(self):
        with pytest.raises(ConfigSchemaError) as err:
            parse_config(with_blocks("diffusion:\n  dt_bass: 0.01\n"))
        assert "diffusion.dt_bass" in str(err.value)

    def test_bad_yaml(self):
        with pytest.raises(ConfigSchemaError):
            parse_config("chain: [unbalanced")

    def test_reducible_chain_reported_at_build(self):
        cfg = parse_config(
            "chain:\n  rates: [[0.0, 1.0], [0.0, 0.0]]\nexperiment:\n  seed: 1\n"
        )
        with pytest.raises(ConfigSchemaError):
            cfg.build_chain()

    def test_range_checks(self):
        with pytest.raises(ConfigRangeError):
            parse_config(with_blocks("experiment:\n  seed: 1\n  delta: 1.5\n"))
        with pytest.raises(ConfigRangeError):
            parse_config(with_blocks("diffusion:\n  dt_base: -0.1\n"))
        with pytest.raises(ConfigRangeError):
            parse_config(with_blocks("experiment:\n  seed: 1\n  q: 1.0\n"))


    def test_list_entries_checked_per_element(self):
        doc = with_blocks(
            "experiment:\n  seed: 7\n  sample_times: [0.0, 0.125, 0.25]\n"
            "  x0: [1, 0, 0]\n  eta0: [4, 3, 3]\n  subset: [1, 2]\n"
        )
        exp = parse_config(doc).experiment
        assert exp.sample_times == [0.0, 0.125, 0.25]
        assert exp.x0 == [1.0, 0.0, 0.0] and all(type(v) is float for v in exp.x0)
        assert exp.eta0 == [4, 3, 3] and exp.subset == [1, 2]
        with pytest.raises(ConfigRangeError) as err:
            parse_config(doc.replace("[4, 3, 3]", "[4, 3, .nan]"))
        assert "experiment.eta0[2]" in str(err.value)
        for bad in ("subset: [1.5, 2]", "subset: [true, 2]", "subset: 2"):
            with pytest.raises(ConfigSchemaError) as err:
                parse_config(doc.replace("subset: [1, 2]", bad))
            assert "experiment.subset" in str(err.value)


    @pytest.mark.parametrize(
        "key, doc",
        [
            ("model.b", "model:\n  b: null\n"),
            ("experiment.seed", "experiment:\n  seed: null\n"),
            ("diffusion.dt_base", "diffusion:\n  dt_base: null\n"),
            ("output.directory", "output:\n  directory: 5\n"),
            ("model.allow_small_b", "model:\n  allow_small_b: \"no\"\n"),
            ("model.N", "model:\n  N: 100\n"),
            ("model.N[0]", "model:\n  N: [true]\n"),
            ("chain.rates[0]", "chain:\n  rates: [1.0, 0.0]\n"),
            ("chain.rates[0][1]", "chain:\n  rates: [[0.0, \"a\"], [1.0, 0.0]]\n"),
            ("chain.rates[1][0]", "chain:\n  rates: [[0.0, 1.0], [true, 0.0]]\n"),
            ("chain.m", "chain:\n  rates: [[0.0, 1.0], [1.0, 0.0]]\n  m: 1.0\n"),
            ("experiment", "experiment: 5\n"),
            ("model.1", "model:\n  1: 2\n  foo: 3\n"),
        ],
    )
    def test_every_key_checked_against_its_type(self, key, doc):
        # The later block replaces MINIMAL's block of the same name.
        with pytest.raises(ConfigSchemaError) as err:
            parse_config(with_blocks(doc))
        assert err.value.path == key

    @pytest.mark.parametrize(
        "key, doc",
        [
            ("chain.m[1]", "chain:\n  rates: [[0.0, 1.0], [1.0, 0.0]]\n  m: [1, .nan]\n"),
            ("model.b", "model:\n  b: 1" + "0" * 400 + "\n"),
        ],
    )
    def test_non_finite_number_is_range_error(self, key, doc):
        with pytest.raises(ConfigRangeError) as err:
            parse_config(with_blocks(doc))
        assert str(err.value).startswith(key + " = ")

    def test_repeated_key_rejected(self):
        # PyYAML keeps the last of two equal keys; the first must not vanish.
        with pytest.raises(ConfigSchemaError, match="^b: repeated key on line 8"):
            parse_config(MINIMAL + "model:\n  b: 2.0\n  b: 3.0\n")
        with pytest.raises(ConfigSchemaError, match="^experiment: repeated key"):
            parse_config(MINIMAL + "experiment:\n  seed: 1\n")

    def test_integral_floats_accepted_as_integers(self):
        cfg = parse_config(with_blocks("model:\n  N: [10.0, 20]\n"))
        assert cfg.model.N == [10, 20] and all(type(n) is int for n in cfg.model.N)

    def test_null_where_default_is_null(self):
        cfg = parse_config(with_blocks("chain:\n  rates: [[0.0, 1], [1, 0.0]]\n  m: null\n"))
        assert cfg.chain.m is None
        assert cfg.chain.rates == [[0.0, 1.0], [1.0, 0.0]]
        assert all(type(r) is float for row in cfg.chain.rates for r in row)
        cfg = parse_config(with_blocks("model:\ndiffusion: null\n"))
        assert cfg.model == ModelBlock() and cfg.diffusion == DiffusionBlock()


class TestRoundTrip:
    def test_schema_round_trip(self):
        # Every key of every block differs from its default, so every
        # annotation is exercised by the parser.
        cfg = RunConfig(
            chain=ChainBlock(rates=[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                             m=[2.0, 2.0, 2.0]),
            model=ModelBlock(b=2.0, g_correction=0.5, N=[10, 20], allow_small_b=True),
            diffusion=DiffusionBlock(dt_base=2e-3, eps_abs=2e-4, noise_scale=0.5,
                                     dt_rule="quadratic", horizon=1.5),
            experiment=ExperimentBlock(seed=7, paths=10, sample_times=[0.0, 0.5], delta=0.1,
                                       q=2.5, p=1.5, eps=0.2, grid=20, subset=[1, 2],
                                       x0=[0.5, 0.25, 0.25], eta0=[4, 3, 3], horizon=0.75),
            output=OutputBlock(directory="elsewhere"),
        )
        required = {ChainBlock: {"rates": []}, ExperimentBlock: {"seed": 0}}
        for slot in fields(RunConfig):
            block = getattr(cfg, slot.name)
            given = required.get(type(block), {})
            default = type(block)(**given)
            for f in fields(block):
                if f.name not in given:
                    assert getattr(block, f.name) != getattr(default, f.name), f.name
        parsed = parse_config(yaml.safe_dump(asdict(cfg)))
        assert parsed == cfg
        assert config_hash(parsed) == config_hash(cfg)

    def test_hash_stable_and_sensitive(self):
        cfg = parse_config(MINIMAL)
        assert config_hash(cfg) == config_hash(parse_config(MINIMAL))
        other = parse_config(MINIMAL.replace("seed: 42", "seed: 43"))
        assert config_hash(cfg) != config_hash(other)



def test_readme_schema_shows_the_defaults():
    # The YAML block under "### Config schema" in README.md lists every
    # key with its default: it parses, and apart from the two required
    # fields each block equals its dataclass defaults.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    cfg = parse_config(block)
    rates = cfg.chain.rates
    assert cfg.chain == ChainBlock(rates=rates)
    assert cfg.model == ModelBlock()
    assert cfg.diffusion == DiffusionBlock()
    assert replace(cfg.experiment, seed=0) == ExperimentBlock(seed=0)
    assert cfg.output == OutputBlock()
    # ... and it lists every key.
    listed = {name: set(keys) for name, keys in yaml.safe_load(block).items()}
    assert listed == {
        slot.name: {f.name for f in fields(getattr(cfg, slot.name))} for slot in fields(RunConfig)
    }
