import json
import os

import numpy as np
import pytest

from osslab import trainer
from osslab.cli import main as cli_main
from osslab.config import TrainingConfig
from osslab.optim import lr
from osslab.serialize import load_checkpoint, save_checkpoint
from osslab.subspace import ScoreKind


TINY = dict(input_dim=12, num_id_classes=4, num_ood_clusters=4,
            samples_per_class=20, labeled_per_class=5, hidden=(16,),
            feature_dim=8, K=60, K_p=20, B=8, mu=2, eval_every=30, seed=3)


@pytest.fixture(scope="module")
def tiny_result():
    return trainer.train(TrainingConfig(**TINY))


class TestTrain:
    def test_records_every_step(self, tiny_result):
        steps = [r.step for r in tiny_result.runlog.steps]
        assert steps == list(range(60))

    def test_warmup_phases(self, tiny_result):
        for r in tiny_result.runlog.steps:
            if r.step < 20:
                assert r.semi == 0.0 and r.sub == 0.0
                assert r.pseudo_label_count == 0
            assert 0.0 <= r.mask_rate <= 1.0
            assert 0.0 <= r.mean_p_id <= 1.0
            assert np.isfinite(r.total)

    def test_lr_column_matches_schedule(self, tiny_result):
        sched = tiny_result.config.schedule()
        for r in tiny_result.runlog.steps:
            assert r.lr == lr(sched, r.step)

    def test_eval_rows_at_expected_steps(self, tiny_result):
        by_step = {}
        for e in tiny_result.runlog.evals:
            by_step.setdefault(e.step, set()).add(e.score_kind)
        kinds = {k.value for k in ScoreKind}
        assert set(by_step) == {30, 60}
        for got in by_step.values():
            assert got == kinds

    def test_accuracy_shared_across_score_kinds(self, tiny_result):
        final = [e for e in tiny_result.runlog.evals if e.step == 60]
        accs = {e.closed_set_accuracy for e in final}
        assert len(accs) == 1

    def test_summary_contents(self, tiny_result):
        s = tiny_result.summary
        assert s["steps"] == 60
        assert 0.0 <= s["closed_set_accuracy"] <= 1.0
        assert set(s["auroc"]) == {k.value for k in ScoreKind}
        assert s["config_hash"] == tiny_result.config.config_hash()

    def test_one_decision_per_step(self, tiny_result):
        # a fresh mask is sampled each step after warm-up: hashes must not
        # all collapse to a single value
        hashes = {r.mask_hash for r in tiny_result.runlog.steps if r.step >= 20}
        assert len(hashes) > 1

    def test_bitwise_deterministic(self, tiny_result):
        again = trainer.train(TrainingConfig(**TINY))
        assert again.runlog.steps_csv() == tiny_result.runlog.steps_csv()
        assert again.runlog.evals_csv() == tiny_result.runlog.evals_csv()
        assert np.array_equal(again.checkpoint.params.to_vector(),
                              tiny_result.checkpoint.params.to_vector())

    def test_seed_changes_trajectory(self, tiny_result):
        other = trainer.train(TrainingConfig(**{**TINY, "seed": 4}))
        assert other.runlog.steps_csv() != tiny_result.runlog.steps_csv()

    def test_run_outputs_written(self, tiny_result, tmp_path):
        run_dir = str(tmp_path / "run")
        trainer.write_run_outputs(tiny_result, run_dir)
        for name in ("config.txt", "metrics.csv", "evals.csv",
                     "summary.json", "checkpoint.txt"):
            assert os.path.exists(os.path.join(run_dir, name))
        summary = json.load(open(os.path.join(run_dir, "summary.json")))
        assert summary == tiny_result.summary


class TestSweepAblate:
    def test_sweep_rows(self):
        cfg = TrainingConfig(**TINY)
        rows = trainer.sweep(cfg, "pi", [0.4, 0.6])
        assert [r["value"] for r in rows] == [0.4, 0.6]
        assert all("closed_set_accuracy" in r for r in rows)

    def test_sweep_bad_axis(self):
        with pytest.raises(ValueError):
            trainer.sweep(TrainingConfig(**TINY), "eta0", [0.1])

    def test_sweep_records_failures(self):
        rows = trainer.sweep(TrainingConfig(**TINY), "pi", [0.5, 2.0])
        assert "error" in rows[1] and "closed_set_accuracy" in rows[0]

    def test_ablate_structure(self):
        out = trainer.ablate(TrainingConfig(**TINY))
        assert len(out["loss_grid"]) == 4
        grid_flags = {(r["drop_self"], r["drop_sub"]) for r in out["loss_grid"]}
        assert grid_flags == {(a, b) for a in (False, True) for b in (False, True)}
        assert len(out["decision_rules"]) == 3
        assert len(out["score_kinds"]) == len(ScoreKind)


class TestPlotData:
    def test_emit_and_read_back(self, tiny_result, tmp_path):
        out = str(tmp_path / "plots")
        trainer.emit_plot_data(tiny_result, out)
        rows = trainer.read_long_csv(os.path.join(out, "metrics_long.csv"))
        metrics = {m for m, _, _ in rows}
        assert "total" in metrics and "auroc_subspace" in metrics
        total = {(s, v) for m, s, v in rows if m == "total"}
        expect = {(r.step, r.total) for r in tiny_result.runlog.steps}
        assert total == expect
        assert any(name.startswith("hist_step") for name in os.listdir(out))
        assert any(name.startswith("beta_step") for name in os.listdir(out))


class TestCli:
    def args(self, tmp_path, *cmd):
        base = ["--out", str(tmp_path)]
        over = []
        for k, v in TINY.items():
            if k == "hidden":
                v = ",".join(str(h) for h in v)
            over += [f"--{k}", str(v)]
        return base + list(cmd) + over

    def test_generate_and_train(self, tmp_path):
        assert cli_main(self.args(tmp_path, "generate")) == 0
        assert cli_main(self.args(tmp_path, "train")) == 0
        run_dirs = [d for d in os.listdir(tmp_path) if d.startswith("run_")]
        assert run_dirs
        found = set()
        for d in run_dirs:
            found |= set(os.listdir(os.path.join(tmp_path, d)))
        assert {"dataset.txt", "metrics.csv", "summary.json"} <= found

    @staticmethod
    def run_dir(tmp_path):
        (name,) = [d for d in os.listdir(tmp_path) if d.startswith("run_")]
        return os.path.join(tmp_path, name)

    def test_eval_roundtrip(self, tmp_path, capsys):
        assert cli_main(self.args(tmp_path, "generate")) == 0
        assert cli_main(self.args(tmp_path, "train")) == 0
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        rc = cli_main(["eval",
                       "--checkpoint", os.path.join(run_dir, "checkpoint.txt"),
                       "--dataset", os.path.join(run_dir, "dataset.txt")])
        assert rc == 0
        got = [(r["step"], r["score_kind"], repr(r["closed_set_accuracy"]), repr(r["auroc"]))
               for r in json.loads(capsys.readouterr().out)]
        with open(os.path.join(run_dir, "evals.csv")) as fh:
            header, *lines = fh.read().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        want = [(int(r["step"]), r["score_kind"], r["closed_set_accuracy"], r["auroc"])
                for r in rows if int(r["step"]) == TINY["K"]]
        assert got == want

    @pytest.mark.parametrize("eta0", ["1e3", "1e8"])
    def test_blow_up_exits_2_with_checkpoint(self, tmp_path, eta0):
        # 1e3 fails in a forward pass, 1e8 in sgd_step; the last good params
        # may already be infinite, so only the step is checked
        assert cli_main(self.args(tmp_path, "train") + ["--eta0", eta0]) == 2
        ckpt = load_checkpoint(os.path.join(self.run_dir(tmp_path), "checkpoint.txt"))
        assert 1 <= ckpt.step < TINY["K"]

    def test_blow_up_checkpoint_is_end_of_previous_step(self, tmp_path):
        assert cli_main(self.args(tmp_path, "train") + ["--eta0", "1e8"]) == 2
        with open(os.path.join(self.run_dir(tmp_path), "checkpoint.txt")) as fh:
            saved = fh.read()
        step = load_checkpoint(os.path.join(self.run_dir(tmp_path), "checkpoint.txt")).step
        # a failure inside warm-up: a clean run of exactly `step` steps has the
        # same learning rates, so it must end in the same state
        assert step <= TINY["K_p"]
        clean = trainer.train(TrainingConfig(**{**TINY, "eta0": 1e8, "K": step, "K_p": step}))
        save_checkpoint(clean.checkpoint, str(tmp_path / "clean.txt"))
        assert (tmp_path / "clean.txt").read_text() == saved

    def test_unknown_key_is_config_error(self, tmp_path):
        assert cli_main(["--out", str(tmp_path), "train", "--bogus", "1"]) == 1

    def test_config_file(self, tmp_path):
        cfg = TrainingConfig(**TINY)
        path = tmp_path / "tiny.cfg"
        path.write_text(cfg.to_text())
        assert cli_main(["--config", str(path), "--out", str(tmp_path),
                         "train"]) == 0
