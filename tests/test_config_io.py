import numpy as np
import pytest

from osslab import nn
from osslab.betamix import BetaMixtureModel
from osslab.config import TrainingConfig, load_config, parse_overrides
from osslab.serialize import Checkpoint, load_checkpoint, save_checkpoint
from osslab.subspace import ClassMeanTable


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

    def test_drop_flags_zero_loss_weights(self):
        w = TrainingConfig(drop_self=True, drop_sub=True).loss_weights()
        assert w.w_self == 0.0 and w.w_sub == 0.0
        assert TrainingConfig().loss_weights().w_self == 1.0

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
            "K": "500", "K_p": "100", "eta0": "0.1", "drop_self": "true",
            "hidden": "32,16", "pi": "None", "decision_rule": "otsu_threshold",
        })
        assert cfg.K == 500 and isinstance(cfg.K, int)
        assert cfg.eta0 == 0.1
        assert cfg.drop_self is True
        assert cfg.hidden == (32, 16)
        assert cfg.pi is None
        assert cfg.decision_rule == "otsu_threshold"

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
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


class TestCheckpoint:
    def make_checkpoint(self, rng):
        params = nn.init_params(6, (10,), 4, 3, rng)
        ema = nn.init_params(6, (10,), 4, 3, rng)
        table = ClassMeanTable.empty(3, 4, momentum=0.99)
        table.means[:] = rng.normal(size=(3, 4))
        table.initialized[:] = [True, True, False]
        beta = BetaMixtureModel.default_init(pi=0.42, epsilon=0.05,
                                             lambda_ema=0.9)
        return Checkpoint(step=123, params=params, ema_params=ema,
                          velocity=rng.normal(size=params.to_vector().size),
                          means=table, beta_model=beta)

    def test_round_trip_bitwise(self, rng, tmp_path):
        ckpt = self.make_checkpoint(rng)
        path = str(tmp_path / "ckpt.txt")
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.step == 123
        assert np.array_equal(back.params.to_vector(), ckpt.params.to_vector())
        assert np.array_equal(back.ema_params.to_vector(),
                              ckpt.ema_params.to_vector())
        assert np.array_equal(back.velocity, ckpt.velocity)
        assert np.array_equal(back.means.means, ckpt.means.means)
        assert np.array_equal(back.means.initialized, ckpt.means.initialized)
        assert back.means.momentum == ckpt.means.momentum
        assert back.beta_model.id == ckpt.beta_model.id
        assert back.beta_model.ood == ckpt.beta_model.ood
        assert back.beta_model.pi == 0.42
        assert back.beta_model.epsilon == 0.05

    def test_save_load_save_stable(self, rng, tmp_path):
        ckpt = self.make_checkpoint(rng)
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert open(p1).read() == open(p2).read()
