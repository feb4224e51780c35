"""Config parsing: defaults, typed values, line-numbered errors, validation."""

from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from fednet import cli
from fednet.config import _SCHEMA, ConfigError, TrainConfig, parse_config

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lesion_example.cfg"


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg == TrainConfig()

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write(tmp_path, "\n# a comment\n  \nlr = 0.1  # inline\n"))
        assert cfg.lr == 0.1

    def test_momentum_and_weight_decay_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-4


class TestParsing:
    def test_momentum_parsed(self, tmp_path):
        cfg = parse_config(write(tmp_path, "momentum = 0.9\n"))
        assert cfg.momentum == 0.9

    def test_network_and_loss_keys_routed(self, tmp_path):
        cfg = parse_config(write(tmp_path, (
            "base_channels = 8\nse_reduction = 8\nenable_duc = false\n"
            "omega1 = 0.25\nomega2 = 0.5\nstage = liver\nbatch_size = 2\n")))
        assert cfg.network.base_channels == 8
        assert cfg.network.channels_per_level == (8, 16, 32, 64)
        assert not cfg.network.enable_duc
        assert cfg.loss.omega1 == 0.25
        assert cfg.stage == "liver"

    @pytest.mark.parametrize("raw,value", [
        ("true", True), ("false", False), ("1", True), ("0", False),
        ("yes", True), ("off", False),
    ])
    def test_boolean_forms(self, tmp_path, raw, value):
        cfg = parse_config(write(tmp_path, f"enable_rcb = {raw}\n"))
        assert cfg.network.enable_rcb is value

    def test_later_assignment_wins(self, tmp_path):
        cfg = parse_config(write(tmp_path, "lr = 0.1\nlr = 0.2\n"))
        assert cfg.lr == 0.2


class TestErrors:
    def test_unparsable_value_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":2: cannot parse 'lr' from 'banana'"):
            parse_config(write(tmp_path, "seed = 1\nlr = banana\n"))

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":3: unknown key 'learning_rate'"):
            parse_config(write(tmp_path, "# c\nseed = 0\nlearning_rate = 1\n"))

    def test_missing_equals_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":1: expected 'key = value'"):
            parse_config(write(tmp_path, "just words\n"))

    @pytest.mark.parametrize("line,fragment", [
        ("lr = -0.5", "lr must be > 0"),
        ("batch_size = 0", "batch_size"),
        ("stage = organ", "stage"),
        ("omega1 = 1.5", "omega1"),
        ("p_pos = 1.5", "p_pos"),
        ("connectivity = 18", "connectivity"),
        ("grad_clip = -1", "grad_clip"),
        ("base_channels = 2", "base_channels must be >= 4"),
        ("momentum = 1.0", "momentum"),
        ("data_dir =", "non-empty"),
    ])
    def test_invariant_violations(self, tmp_path, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(write(tmp_path, line + "\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(write(tmp_path, "enable_ff = maybe\n"))


FLOAT_KEYS = sorted(key for key, (_, caster) in _SCHEMA.items() if caster is float)


class TestNonFinite:
    # NaN fails every comparison: a check written as `lr <= 0` let it through,
    # and a NaN grad_clip turned clipping off
    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_rejected(self, tmp_path, key, text):
        with pytest.raises(ConfigError, match=key):
            parse_config(write(tmp_path, f"{key} = {text}\n"))

    def test_train_exits_one(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(write(tmp_path, "grad_clip = nan\n"))]) == 1
        assert "grad_clip must be >= 0 and finite, got nan" in capsys.readouterr().err

    def test_invalid_cli_override_exits_one(self, tmp_path, capsys):
        # the --seed and --out overrides build the config again, so they are checked
        path = str(write(tmp_path, ""))
        assert cli.main(["train", "--config", path, "--seed", "-1"]) == 1
        assert "seed must be a u64, got -1" in capsys.readouterr().err
        assert cli.main(["train", "--config", path, "--out", ""]) == 1
        assert "non-empty" in capsys.readouterr().err


class TestValidateMethod:
    def test_validate_checks_network_spec(self, tmp_path):
        with pytest.raises(ConfigError, match="se_reduction"):
            parse_config(write(tmp_path, "se_reduction = 7\n"))

    def test_default_config_is_valid(self):
        TrainConfig().validate()


class TestBuiltConfigIsValid:
    def test_invalid_field_cannot_be_built(self):
        # segment would threshold liver probabilities at 7 and find no liver
        with pytest.raises(ConfigError, match="liver_threshold"):
            TrainConfig(liver_threshold=7.0)

    def test_replace_checks_the_variant(self):
        with pytest.raises(ConfigError, match="lr must be > 0"):
            replace(TrainConfig(), lr=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
    def test_fields_cannot_be_assigned(self, name):
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


# every key with a valid non-default value: (key, text, nested dataclass field
# holding it or None for TrainConfig itself, parsed value)
NON_DEFAULT = [
    ("stage", "liver", None, "liver"),
    ("lr", "0.05", None, 0.05),
    ("momentum", "0.5", None, 0.5),
    ("weight_decay", "0.001", None, 0.001),
    ("batch_size", "4", None, 4),
    ("iterations", "7", None, 7),
    ("seed", "11", None, 11),
    ("data_dir", "elsewhere", None, "elsewhere"),
    ("checkpoint_out", "other.fedckpt", None, "other.fedckpt"),
    ("p_pos", "0.8", None, 0.8),
    ("p_neg", "0.2", None, 0.2),
    ("liver_threshold", "0.6", None, 0.6),
    ("lesion_threshold", "0.4", None, 0.4),
    ("connectivity", "26", None, 26),
    ("grad_clip", "1.5", None, 1.5),
    ("base_channels", "32", "network", 32),
    ("se_reduction", "8", "network", 8),
    ("enable_rcb", "false", "network", False),
    ("enable_ff", "false", "network", False),
    ("enable_se", "false", "network", False),
    ("enable_duc", "false", "network", False),
    ("omega1", "0.25", "loss", 0.25),
    ("omega2", "2.0", "loss", 2.0),
    ("epsilon", "1e-9", "loss", 1e-9),
]


class TestSchema:
    @pytest.mark.parametrize("key,text,part,value", NON_DEFAULT,
                             ids=[row[0] for row in NON_DEFAULT])
    def test_each_key_lands_on_its_field(self, tmp_path, key, text, part, value):
        cfg = parse_config(write(tmp_path, f"{key} = {text}\n"))
        default = TrainConfig()
        if part is None:
            expected = replace(default, **{key: value})
        else:
            expected = replace(default, **{part: replace(getattr(default, part), **{key: value})})
        assert cfg == expected
        holder = cfg if part is None else getattr(cfg, part)
        assert type(getattr(holder, key)) is type(value)

    def test_every_key_is_tested(self):
        assert set(_SCHEMA) == {row[0] for row in NON_DEFAULT}

    def test_example_config_shows_the_defaults(self):
        cfg = parse_config(EXAMPLE_CONFIG)
        assert cfg == replace(TrainConfig(), data_dir=cfg.data_dir,
                              checkpoint_out=cfg.checkpoint_out)
        keys = {line.split("=", 1)[0].strip().lstrip("# ")
                for line in EXAMPLE_CONFIG.read_text().splitlines() if "=" in line}
        assert set(_SCHEMA) <= keys
