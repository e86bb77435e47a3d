import pytest

from condensim.config import config_hash, parse_config
from condensim.errors import ConfigRangeError, ConfigSchemaError

MINIMAL = """
chain:
  rates: [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
experiment:
  seed: 42
"""


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
        doc = MINIMAL + "model:\n  b: 0.5\n"
        with pytest.raises(ConfigRangeError) as err:
            parse_config(doc)
        assert "not expected to be absorbed" in str(err.value)
        cfg = parse_config(doc.replace("b: 0.5", "b: 0.5\n  allow_small_b: true"))
        assert cfg.model.b == 0.5

    def test_unknown_key_pinpointed(self):
        with pytest.raises(ConfigSchemaError) as err:
            parse_config(MINIMAL + "diffusion:\n  dt_bass: 0.01\n")
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
            parse_config(MINIMAL + "experiment:\n  seed: 1\n  delta: 1.5\n")
        with pytest.raises(ConfigRangeError):
            parse_config(MINIMAL + "diffusion:\n  dt_base: -0.1\n")
        with pytest.raises(ConfigRangeError):
            parse_config(MINIMAL + "experiment:\n  seed: 1\n  q: 1.0\n")


    def test_list_entries_checked_per_element(self):
        doc = MINIMAL + (
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


class TestRoundTrip:
    def test_hash_stable_and_sensitive(self):
        cfg = parse_config(MINIMAL)
        assert config_hash(cfg) == config_hash(parse_config(MINIMAL))
        other = parse_config(MINIMAL.replace("seed: 42", "seed: 43"))
        assert config_hash(cfg) != config_hash(other)
