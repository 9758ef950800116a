import re
from dataclasses import fields

import numpy as np
import pytest

from osslab import cli, config, trainer
from osslab.betamix import BetaParams
from osslab.config import TrainingConfig, load_config, parse_overrides
from osslab.serialize import save_checkpoint


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.resolved_pi() == pytest.approx(0.5)

    def test_pi_defaults_to_id_share(self):
        cfg = TrainingConfig(ood_fraction=0.3)
        assert cfg.resolved_pi() == pytest.approx(0.7)
        assert TrainingConfig(ood_fraction=0.3, pi=0.4).resolved_pi() == 0.4

    def test_invalid_configs_fail_eagerly(self):
        with pytest.raises(ValueError):
            TrainingConfig(K_p=50, K=10)
        with pytest.raises(ValueError):
            TrainingConfig(ood_fraction=1.5)
        with pytest.raises(ValueError):
            TrainingConfig(decision_rule="nope")
        # each of these validated once and then crashed, hung or trained on NaN
        for bad in (dict(K=0, K_p=0), dict(B=0), dict(B=-1), dict(mu=0),
                    dict(eval_every=0)):
            with pytest.raises(ValueError):
                TrainingConfig(**bad)
        # each of these trained with a meaningless value or failed mid-run
        for bad in (dict(decision_rule="otsu_threshold", otsu_momentum=2.0),
                    dict(p_drop=1.5), dict(p_drop=-0.5), dict(lambda_beta=1.5),
                    dict(hidden=(0,)), dict(hidden=(16, 0)), dict(hidden=(-1,)),
                    dict(feature_dim=2, num_id_classes=4), dict(activation="foo"),
                    dict(seed=-1), dict(momentum=1.0), dict(ema_momentum=2.0),
                    dict(lambda_means=2.0)):
            with pytest.raises(ValueError):
                TrainingConfig(**bad)
        # NaN passed the range checks: it trained on NaN, failed mid-run or
        # gated every unlabeled row OOD; infinity failed mid-run
        nan, inf = float("nan"), float("inf")
        for key in ("epsilon", "eta0", "cluster_spread", "cluster_separation"):
            for value in (nan, inf):
                with pytest.raises(ValueError):
                    TrainingConfig(**{key: value})
        # the range checks of the loss weights, the schedule and the augmentation
        for key in ("w_semi", "w_self", "w_sub", "w_reg"):
            for value in (-1.0, nan, inf):
                with pytest.raises(ValueError, match=f"{key} must be a nonnegative finite real"):
                    TrainingConfig(**{key: value})
        for key, values, message in (
                ("tau", (0.0, 1.5, nan), r"tau must be in \(0, 1\]"),
                ("gamma", (0.0, 1.5, nan), r"gamma must be in \(0, 1\]"),
                ("K_p", (-1,), "need 0 <= K_p <= K"),
                ("eta0", (0.0, -1.0, nan), "eta0 must be positive and finite"),
                ("p_drop", (-0.5, 1.5, nan), r"p_drop must be in \[0, 1\]"),
                # the dataset's range checks
                *((key, (0, -1), "all counts must be >= 1")
                  for key in ("input_dim", "num_id_classes", "num_ood_clusters",
                              "samples_per_class", "labeled_per_class")),
                ("ood_fraction", (0.0, 1.0, nan), r"ood_fraction must be strictly inside \(0, 1\)"),
                ("labeled_per_class", (201,), "labeled_per_class must be <= samples_per_class"),
                *((key, (0.0, -1.0, nan, inf),
                   "cluster_spread and cluster_separation must be positive and finite")
                  for key in ("cluster_spread", "cluster_separation")),
                ("seed", (-1,), "seed must be >= 0")):
            for value in values:
                with pytest.raises(ValueError, match=message):
                    TrainingConfig(**{key: value})
        # the dataset's checks run in their old place: after the K, B, mu and
        # eval_every check, before the pool check and the loss checks
        for bad, message in ((dict(K=0, ood_fraction=1.0), "K, B, mu and eval_every"),
                             (dict(ood_fraction=1.0, p_drop=2.0), "ood_fraction"),
                             (dict(seed=-1, B=10_000), "seed"),
                             (dict(cluster_spread=0.0, seed=-1), "cluster_spread")):
            with pytest.raises(ValueError, match=message):
                TrainingConfig(**bad)
        # the mixture, decision, mean-table and optimizer checks run after the
        # loss checks and before the architecture check, each in its old order
        for bad, message in (
                (dict(tau=0.0, pi=1.0), "tau"),
                (dict(pi=1.0, epsilon=-1.0), r"^pi must be strictly inside \(0, 1\)$"),
                (dict(epsilon=-1.0, lambda_beta=1.5), "^epsilon must be nonnegative and finite$"),
                (dict(lambda_beta=1.5, decision_rule="bogus"),
                 r"^Beta EMA weight lambda_beta must be in \[0, 1\]$"),
                (dict(decision_rule="bogus", otsu_momentum=2.0), "'bogus' is not a valid RuleKind"),
                (dict(otsu_momentum=2.0, lambda_means=2.0), r"^Otsu momentum must be in \[0, 1\]$"),
                (dict(lambda_means=2.0, momentum=1.0),
                 r"^class-mean momentum must be in \[0, 1\]$"),
                (dict(momentum=1.0, ema_momentum=2.0), r"^momentum must be in \[0, 1\)$"),
                (dict(ema_momentum=2.0, hidden=(0,)), r"^ema_momentum must be in \[0, 1\]$")):
            with pytest.raises(ValueError, match=message):
                TrainingConfig(**bad)
        TrainingConfig(hidden=())  # a linear backbone is a network
        # batches larger than their pools: 4 x 5 labeled rows, 4 x 20 ID + 80 OOD unlabeled
        pools = dict(num_id_classes=4, samples_per_class=20, labeled_per_class=5)
        for bad in (dict(B=21), dict(B=20, mu=9)):
            with pytest.raises(ValueError, match="pool"):
                TrainingConfig(**pools, **bad)
        TrainingConfig(**pools, B=20, mu=8)  # both pools exactly full

    def test_hash_changes_with_content(self):
        a = TrainingConfig()
        b = a.replace(seed=1)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == TrainingConfig().config_hash()

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            TrainingConfig().replace(pi=2.0)


class TestOverridesAndFiles:
    def test_parse_overrides_types(self):
        cfg = parse_overrides(TrainingConfig(), {
            "K": "500", "K_p": "100", "eta0": "0.1",
            "hidden": "32,16", "pi": "None", "decision_rule": "otsu_threshold",
        })
        assert cfg.K == 500 and isinstance(cfg.K, int)
        assert cfg.eta0 == 0.1
        assert cfg.hidden == (32, 16)
        assert cfg.pi is None
        assert cfg.decision_rule == "otsu_threshold"

    def test_one_parser_per_field_type(self):
        # a parser no field uses, or a field type with no parser, fails here
        assert set(config.PARSERS) == {f.type for f in fields(TrainingConfig)}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'learning_rate'"):
            parse_overrides(TrainingConfig(), {"learning_rate": "0.1"})

    def test_config_file_round_trip(self, tmp_path):
        cfg = TrainingConfig(K=300, K_p=50, seed=9, hidden=(8,), w_sub=0.5)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        back = load_config(str(path))
        assert back == cfg

    def test_config_file_comments_and_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nK = 400  # trailing\n\nK_p = 10\n")
        cfg = load_config(str(path))
        assert cfg.K == 400 and cfg.K_p == 10
        path.write_text("K 400\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_a_key_set_twice_in_a_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("K = 10\nK_p = 5\n# K = 30\nK = 20\n")
        message = f"{path}:4: 'K' is set again, first on line 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(str(path))
        assert cli.main(["--config", str(path), "--out", str(tmp_path), "train"]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_the_last_command_line_flag_wins(self):
        assert cli._split_overrides(["--K", "10", "--K_p", "5", "--K", "20"]) == {
            "K": "20", "K_p": "5"}

    @pytest.mark.parametrize("raw", ["16,,8", "16,", ",16", ",", " , "])
    def test_an_empty_hidden_entry_is_an_error(self, raw, tmp_path, capsys):
        with pytest.raises(ValueError, match=re.escape(f"bad tuple[int, ...] for hidden: {raw!r}")):
            parse_overrides(TrainingConfig(), {"hidden": raw})
        assert cli.main(["--out", str(tmp_path), "train", "--hidden", raw]) == 1
        assert "bad tuple[int, ...] for hidden" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_only_the_empty_string_is_the_linear_backbone(self, tmp_path):
        assert parse_overrides(TrainingConfig(), {"hidden": ""}).hidden == ()
        assert parse_overrides(TrainingConfig(), {"hidden": " 16, 8 "}).hidden == (16, 8)
        linear = TrainingConfig(hidden=())
        path = tmp_path / "config.txt"
        path.write_text(linear.to_text())
        assert "\nhidden = \n" in path.read_text()
        assert load_config(str(path)) == linear


class TestCheckpoint:
    def make_state(self, rng):
        """A mid-run state whose config has non-default mixture and mean values."""
        cfg = TrainingConfig(input_dim=6, hidden=(10,), feature_dim=4, num_id_classes=3,
                             pi=0.42, epsilon=0.05, lambda_means=0.99, lambda_beta=0.9,
                             decision_rule="otsu_threshold")
        state = trainer.RunState.start(cfg)
        for vec in (state.params.theta, state.ema, state.velocity):
            vec[:] = rng.normal(size=vec.size)
        state.table.means[:] = rng.normal(size=(3, 4))
        state.table.initialized[:] = [True, True, False]
        # one logged step, whose row holds the mixture and the Otsu EMA
        state.runlog.steps.append(trainer.StepRecord(
            0, 0.03, *[0.0] * 6, 0, 3.5, 1.25, 0.75, 6.0, 0.5, 0.5, 0.3125, "0" * 16))
        state.mask_rng.random(7)
        state.cursor.labeled.perm = rng.permutation(cfg.n_labeled)
        state.cursor.labeled.pos = 5
        return state

    @staticmethod
    def round_trip(state, run_dir):
        trainer.write_run_outputs(state, str(run_dir))
        return trainer.load_run(str(run_dir))

    def test_round_trip_bitwise(self, rng, tmp_path):
        state = self.make_state(rng)
        back = self.round_trip(state, tmp_path)
        assert back.step == 1
        for get in (lambda s: s.params.theta, lambda s: s.ema, lambda s: s.velocity,
                    lambda s: s.table.means):
            assert get(back).tobytes() == get(state).tobytes()
        assert np.array_equal(back.table.initialized, [True, True, False])
        assert back.beta_model == state.beta_model
        assert (back.beta_model.id, back.beta_model.ood) == (BetaParams(3.5, 1.25),
                                                             BetaParams(0.75, 6.0))
        # the settings come back through config.txt, and pi sets the mixture's weight
        assert back.config == state.config
        assert (back.config.epsilon, back.config.lambda_beta, back.config.lambda_means) == (
            0.05, 0.9, 0.99)
        assert back.beta_model.pi == back.config.pi == 0.42
        assert back.threshold == state.threshold == 0.3125
        assert back.mask_rng.bit_generator.state == state.mask_rng.bit_generator.state
        for pool in ("labeled", "unlabeled"):
            got, want = getattr(back.cursor, pool), getattr(state.cursor, pool)
            assert np.array_equal(got.perm, want.perm) and got.pos == want.pos

    def test_non_finite_velocity_round_trips_bitwise(self, rng, tmp_path):
        state = self.make_state(rng)
        inf = np.array([np.inf])
        with np.errstate(invalid="ignore"):
            default_nan = (inf - inf)[0]  # 0xfff8000000000000 on x86
        bits = np.array([0x7FF0000000000001, 0x0000000000000001], dtype=np.uint64)
        payload_nan, subnormal = bits.view(np.float64)
        special = [np.inf, -np.inf, np.nan, default_nan, payload_nan, -0.0, subnormal]
        arrays = lambda s: (s.params.theta, s.ema, s.velocity, s.table.means.reshape(-1))
        for arr in arrays(state):
            arr[:len(special)] = special
        back = self.round_trip(state, tmp_path)
        for got, want in zip(arrays(back), arrays(state)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_save_load_save_stable(self, rng, tmp_path):
        back = self.round_trip(self.make_state(rng), tmp_path)
        save_checkpoint(back, str(tmp_path / "again.txt"))
        assert (tmp_path / "again.txt").read_text() == (tmp_path / "checkpoint.txt").read_text()
