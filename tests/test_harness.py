import base64
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from osslab import betamix, data, nn, subspace, trainer
from osslab.betamix import BetaParams, beta_density_grid
from osslab.cli import main as cli_main
from osslab.decide import OTSU_START, RuleKind
from osslab.config import TrainingConfig, load_config
from osslab.data import generate
from osslab.evaluation import accuracy, auroc
from osslab.optim import lr
from osslab.rng import stream
from osslab.serialize import save_checkpoint
from osslab.subspace import ScoreKind

from test_subspace import per_kind_scores


TINY = dict(input_dim=12, num_id_classes=4, num_ood_clusters=4,
            samples_per_class=20, labeled_per_class=5, hidden=(16,),
            feature_dim=8, K=60, K_p=20, B=8, mu=2, eval_every=30, seed=3)


@pytest.fixture(scope="module")
def tiny_result():
    return trainer.train(TrainingConfig(**TINY))


@pytest.fixture(scope="module")
def tiny_otsu_result():
    return trainer.train(TrainingConfig(**TINY, decision_rule="otsu_threshold"))


def cli_args(out, *cmd, **extra):
    """``--out out <cmd> --key value ...`` for the TINY config, updated by ``extra``."""
    over = []
    for k, v in {**TINY, **extra}.items():
        if k == "hidden":
            v = ",".join(str(h) for h in v)
        over += [f"--{k}", str(v)]
    return ["--out", str(out), *cmd, *over]


def only_run_dir(out):
    (name,) = [d for d in os.listdir(out) if d.startswith("run_")]
    return os.path.join(out, name)


class TestTrain:
    def test_records_every_step(self, tiny_result):
        steps = [r.step for r in tiny_result.runlog.steps]
        assert steps == list(range(60))

    def test_warmup_phases(self, tiny_result):
        cfg = tiny_result.config
        for r in tiny_result.runlog.steps:
            if r.step < 20:
                assert r.semi == 0.0 and r.sub == 0.0
                assert r.pseudo_label_count == 0
            # the logged terms, weighted as their gradients are, bit for bit
            assert r.total == (r.sup + cfg.w_semi * r.semi + cfg.w_self * r.self_sup
                               + cfg.w_sub * r.sub + cfg.w_reg * r.reg)
            assert 0.0 <= r.mask_rate <= 1.0
            assert 0.0 <= r.mean_p_id <= 1.0
            assert np.isfinite(r.total)

    def test_lr_column_matches_schedule(self, tiny_result):
        for r in tiny_result.runlog.steps:
            assert r.lr == lr(tiny_result.config, r.step)

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
        assert again.params.theta.tobytes() == tiny_result.params.theta.tobytes()

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


def reference_eval(params, table, dataset, step):
    """Evaluation as it was with both whole splits' traces alive at once and
    each score kind computed from its own formula (``per_kind_scores``)."""
    (Xi, yi), (Xo, _) = dataset.test_id, dataset.test_ood
    tr_id, tr_ood = nn.forward(params, Xi), nn.forward(params, Xo)
    acc = accuracy(tr_id.probs, yi)
    basis = subspace.compute_basis(table)
    s_id, s_ood = (per_kind_scores(tr.z, tr.logits, table, basis) for tr in (tr_id, tr_ood))
    return [trainer.EvalRow(step=step, score_kind=kind.value, closed_set_accuracy=acc,
                            auroc=auroc(s_id[kind], s_ood[kind]), num_id=len(s_id[kind]),
                            num_ood=len(s_ood[kind]))
            for kind in ScoreKind]


@pytest.fixture(scope="module")
def tiny_big_split():
    """TINY with 2,400-row test splits, which evaluation scores in two blocks."""
    return trainer.train(TrainingConfig(**{**TINY, "samples_per_class": 600}))


class TestEvaluateCheckpoint:
    def test_rows_equal_a_reference_holding_both_traces(self, tiny_result, tiny_big_split):
        # one block per split, then two
        for state in (tiny_result, tiny_big_split):
            dataset = generate(state.config)
            for params in (state.params, state.ema_params):
                got = trainer.evaluate_checkpoint(params, state.table, state.step, dataset)
                assert repr(got) == repr(reference_eval(params, state.table, dataset, state.step))

    @pytest.mark.parametrize("samples_per_class", [20, 600, 1100])
    def test_splits_are_forwarded_in_blocks(self, tiny_result, samples_per_class, monkeypatch):
        rows, real = [], nn.forward
        monkeypatch.setattr(nn, "forward", lambda params, X: rows.append(len(X)) or real(params, X))
        cfg = TrainingConfig(**{**TINY, "samples_per_class": samples_per_class})
        dataset = generate(cfg)
        trainer.evaluate_checkpoint(tiny_result.ema_params, tiny_result.table, 0, dataset)
        for n in (len(dataset.test_id[0]), len(dataset.test_ood[0])):
            split = []
            while sum(split) < n:
                split.append(rows.pop(0))
            assert sum(split) == n
            if n < 2 * trainer.EVAL_BLOCK:
                assert split == [n]
            else:
                assert all(trainer.EVAL_BLOCK <= r < 2 * trainer.EVAL_BLOCK for r in split)
        assert rows == []

    def test_peak_memory_is_one_split_of_layer_outputs(self):
        # the wide_mlp benchmark shapes; numpy reports its buffers to
        # tracemalloc, so the peak counts every array the call allocates
        hidden, D, C = (256, 256), 64, 16
        cfg = TrainingConfig(input_dim=128, hidden=hidden, feature_dim=D,
                             num_id_classes=C, num_ood_clusters=C)
        dataset = generate(cfg)
        rng = np.random.default_rng(0)
        params = nn.init_params(128, hidden, D, C, rng)
        table = subspace.ClassMeanTable(means=rng.normal(size=(C, D)),
                                        initialized=np.ones(C, dtype=bool))
        n_test = len(dataset.test_id[0])
        assert len(dataset.test_ood[0]) == n_test == 3200  # three blocks
        # the layers of the largest block that a split can be cut into
        layer_bytes = (2 * trainer.EVAL_BLOCK - 1) * (sum(hidden) + D) * 8
        tracemalloc.start()
        try:
            trainer.evaluate_checkpoint(params, table, 0, dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= layer_bytes, f"peak {peak / layer_bytes:.2f}x one block's layers"

    def test_no_test_split_is_alive_before_the_first_evaluation(self, monkeypatch):
        # wide_mlp's shapes; the only evaluation is at K, and the peak is read
        # as it starts, so it covers generate and every step
        hidden, D, C, B, mu = (256, 256), 64, 16, 128, 7
        cfg = TrainingConfig(input_dim=128, hidden=hidden, feature_dim=D, num_id_classes=C,
                             num_ood_clusters=C, B=B, mu=mu, K=4, K_p=2)
        peaks, real = [], trainer.evaluate_checkpoint
        monkeypatch.setattr(trainer, "evaluate_checkpoint", lambda *args: peaks.append(
            tracemalloc.get_traced_memory()[1]) or real(*args))
        data._cache.clear()  # generate draws inside the trace
        tracemalloc.start()
        try:
            trainer.train(cfg)
        finally:
            tracemalloc.stop()
        dataset = generate(cfg)
        pool_bytes = sum(a.nbytes for split in (dataset.labeled, dataset.unlabeled)
                         for a in split)
        theta_bytes = nn.init_params(128, hidden, D, C, np.random.default_rng(0)).theta.nbytes
        rows = B + 2 * mu * B
        # on top of the pools: the parameters, velocity, EMA, gradients and one
        # temporary of their size; the batch and its three traces; backward's
        # three widest hidden buffers; four (mu * B, D) score and head arrays
        bound = (pool_bytes + 5 * theta_bytes
                 + rows * (cfg.input_dim + sum(hidden) + D + 3 * C) * 8
                 + 3 * mu * B * max(hidden) * 8 + 4 * mu * B * D * 8)
        split_bytes = dataset.test_id[0].nbytes
        assert len(peaks) == 1
        assert peaks[0] <= bound < peaks[0] + split_bytes, \
            f"peak {peaks[0] / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


class TestSweepAblate:
    def test_sweep_rows(self):
        cfg = TrainingConfig(**TINY)
        rows = trainer.sweep(cfg, "pi", [0.4, 0.6])
        assert [r["value"] for r in rows] == [0.4, 0.6]
        assert all("closed_set_accuracy" in r for r in rows)

    def test_cli_sweep_parses_values_by_field_type(self, tmp_path, capsys):
        assert cli_main(cli_args(tmp_path, "sweep", "--axis", "K_p", "--values", "10.7")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        # any config key is an axis; an unknown one is an invalid-input error
        assert cli_main(cli_args(tmp_path, "sweep", "--axis", "bogus", "--values", "1")) == 1
        assert capsys.readouterr().err == "error: unknown config key 'bogus'\n"
        assert not os.listdir(tmp_path)
        assert cli_main(cli_args(tmp_path, "sweep", "--axis", "pi", "--values", "0.4,0.6")) == 0
        with open(os.path.join(only_run_dir(tmp_path), "sweep_pi.json")) as fh:
            got = json.load(fh)
        want = trainer.sweep(TrainingConfig(**TINY), "pi", [0.4, 0.6])
        assert got == json.loads(json.dumps(want))

    def test_seed_sweep_row_is_the_seed_run(self, tiny_result):
        rows = trainer.sweep(TrainingConfig(**TINY), "seed", [3, 4])
        assert rows[0] == {"axis": "seed", "value": 3, **tiny_result.summary}
        assert rows[1]["seed"] == 4 and rows[1] != rows[0]

    def test_sweep_takes_any_config_key(self):
        cfg = TrainingConfig(**TINY)
        rows = trainer.sweep(cfg, "eta0", [0.01, 0.03])
        assert rows == [{"axis": "eta0", "value": v, **trainer.train(cfg.replace(eta0=v)).summary}
                        for v in (0.01, 0.03)]

    def test_sweep_unknown_key_raises_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "train", lambda cfg, **kw: calls.append(cfg))
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            trainer.sweep(TrainingConfig(**TINY), "bogus", [1])
        assert calls == []

    def test_sweep_records_failures(self):
        rows = trainer.sweep(TrainingConfig(**TINY), "pi", [0.5, 2.0])
        assert "error" in rows[1] and "closed_set_accuracy" in rows[0]

    @pytest.fixture(scope="class")
    def ablation(self):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = trainer.train
            mp.setattr(trainer, "train",
                       lambda cfg, **kw: calls.append(cfg) or real(cfg, **kw))
            out = trainer.ablate(TrainingConfig(**TINY))
        return out, calls

    def test_ablate_structure(self, ablation):
        out, _ = ablation
        assert len(out["loss_grid"]) == 4
        grid_flags = {(r["drop_self"], r["drop_sub"]) for r in out["loss_grid"]}
        assert grid_flags == {(a, b) for a in (False, True) for b in (False, True)}
        assert len(out["decision_rules"]) == 3
        assert len(out["score_kinds"]) == len(ScoreKind)

    def test_ablate_trains_base_once(self, ablation):
        out, calls = ablation
        # 4 grid arms + 3 rules + the warm-up checkpoint, base shared by two
        assert len(calls) == 7
        assert calls.count(TrainingConfig(**TINY)) == 1
        full = next(r for r in out["loss_grid"] if not (r["drop_self"] or r["drop_sub"]))
        sampled = next(r for r in out["decision_rules"] if r["decision_rule"] == "sampled_mask")
        strip = ("drop_self", "drop_sub", "decision_rule")
        assert {k: v for k, v in full.items() if k not in strip} == \
            {k: v for k, v in sampled.items() if k not in strip}


def outputs(result, tmp_path) -> tuple:
    """Everything a run writes, as text."""
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(result, str(path))
    return (result.runlog.steps_csv(), result.runlog.evals_csv(),
            json.dumps(result.summary), path.read_text())


def reference_ablate(base: TrainingConfig) -> dict:
    """``ablate`` with every arm trained from step 0."""
    out = {"loss_grid": [], "decision_rules": [], "score_kinds": []}
    for drop_self in (False, True):
        for drop_sub in (False, True):
            cfg = base.replace(w_self=0.0 if drop_self else base.w_self,
                               w_sub=0.0 if drop_sub else base.w_sub)
            out["loss_grid"].append({"drop_self": drop_self, "drop_sub": drop_sub,
                                     **trainer.train(cfg).summary})
    for rule in ("sampled_mask", "otsu_threshold", "direct_weight"):
        out["decision_rules"].append(
            {"decision_rule": rule, **trainer.train(base.replace(decision_rule=rule)).summary})
    if base.K_p:
        warm = trainer.train(base.replace(K=base.K_p, eval_every=base.K_p))
        out["score_kinds"] = [dataclasses.asdict(r) for r in warm.runlog.evals
                              if r.step == base.K_p]
    return out


# 25 is off the eval grid (eval_every 30), 60 is the whole run
@pytest.mark.parametrize("K_p", [0, 20, 25, 60])
class TestResume:
    def test_resumed_arms_equal_full_runs(self, K_p, tmp_path):
        # the stored state carries the base's rule and mask stream, which a
        # resumed arm must replace, so every rule takes a turn as the base's
        for rule in RuleKind:
            base = TrainingConfig(**{**TINY, "K_p": K_p, "decision_rule": rule.value})
            other_grid = base.replace(eval_every=60)
            arms = [base, base.replace(w_semi=0.0, w_sub=0.0), base.replace(tau=0.8, gamma=0.5),
                    base.replace(K=90), *(base.replace(decision_rule=r.value)
                                          for r in RuleKind if r is not rule), other_grid]
            if K_p:
                arms.append(base.replace(K=K_p))
            warmups = {}
            for cfg in arms:
                want = outputs(trainer.train(cfg), tmp_path)
                # twice, so resuming leaves the stored state as it was
                for _ in range(2):
                    assert outputs(trainer.train(cfg, warmups=warmups), tmp_path) == want, cfg
            # base stored the one warm-up on its eval grid; other_grid stored its own
            assert list(warmups) == [trainer.warmup_key(base), trainer.warmup_key(other_grid)]
            assert warmups[trainer.warmup_key(base)][0].config == base

    def test_ablate_equals_training_every_arm_in_full(self, K_p):
        base = TrainingConfig(**{**TINY, "K_p": K_p})
        assert json.dumps(trainer.ablate(base)) == json.dumps(reference_ablate(base))

    def test_ablate_trains_each_warm_up_once(self, K_p, monkeypatch):
        drawn = []
        real = trainer.batches

        def counted(*args, **kwargs):
            for pair in real(*args, **kwargs):
                drawn.append(pair)
                yield pair

        monkeypatch.setattr(trainer, "batches", counted)
        trainer.ablate(TrainingConfig(**{**TINY, "K_p": K_p}))
        # base and drop_self from step 0; drop_sub, drop_both and the two other
        # rules from step K_p; the end-of-warm-up arm trains no step
        K = TINY["K"]
        assert len(drawn) == 2 * K + 4 * (K - K_p)

    def test_another_warm_up_trains_from_step_0_and_adds_its_entry(self, K_p, tmp_path):
        base = TrainingConfig(**{**TINY, "K_p": K_p})
        warmups = {}
        trainer.train(base, warmups=warmups)
        other = base.replace(w_self=0.0)
        assert trainer.warmup_key(other) != trainer.warmup_key(base)
        got = outputs(trainer.train(other, warmups=warmups), tmp_path)
        assert got == outputs(trainer.train(other), tmp_path)
        assert list(warmups) == [trainer.warmup_key(base), trainer.warmup_key(other)]
        # another eval grid is another warm-up, even when only the grid differs
        grid = base.replace(eval_every=7)
        got = outputs(trainer.train(grid, warmups=warmups), tmp_path)
        assert got == outputs(trainer.train(grid), tmp_path)
        assert list(warmups)[2:] == [trainer.warmup_key(grid)]

    def test_no_result_of_ablate_holds_warm_up_inputs(self, K_p, monkeypatch):
        results = []
        real = trainer.train
        monkeypatch.setattr(trainer, "train",
                            lambda cfg, **kw: results.append(real(cfg, **kw)) or results[-1])
        trainer.ablate(TrainingConfig(**{**TINY, "K_p": K_p}))
        assert len(results) == (6 if K_p == 0 else 7)


@pytest.mark.parametrize("K_p", [25, 60])
def test_a_warm_up_stored_by_a_run_that_ends_there_resumes_a_longer_run(K_p, tmp_path):
    # at K_p 25, off the eval grid, the storing run's final eval rows at step
    # 25 are not the longer run's
    base, warmups = TrainingConfig(**{**TINY, "K_p": K_p, "K": 90}), {}
    trainer.train(base.replace(K=K_p), warmups=warmups)
    assert list(warmups) == [trainer.warmup_key(base)]
    assert outputs(trainer.train(base, warmups=warmups), tmp_path) == outputs(
        trainer.train(base), tmp_path)


@pytest.mark.parametrize("rule", list(RuleKind))
def test_stored_state_holds_the_rule_and_mask_stream_of_step_K_p(rule, tmp_path):
    cfg = TrainingConfig(**{**TINY, "decision_rule": rule.value})
    K_p, warmups = cfg.K_p, {}
    trainer.train(cfg, str(tmp_path), warmups=warmups)
    stored, inputs = warmups[trainer.warmup_key(cfg)]
    assert stored.step == len(inputs) == K_p
    with open(tmp_path / "metrics.csv") as fh:
        header, *rows = fh.read().splitlines()
    threshold = float(dict(zip(header.split(","), rows[K_p - 1].split(",")))["threshold"])
    if rule is RuleKind.OTSU_THRESHOLD:
        assert stored.threshold == threshold
    else:  # no Otsu step ran, so the EMA holds its start value
        assert stored.threshold == OTSU_START
    # only the sampled mask draws, mu * B uniforms per step
    mask_rng = stream(cfg.seed, "mask")
    for _ in range(K_p if rule is RuleKind.SAMPLED_MASK else 0):
        mask_rng.random(size=cfg.mu * cfg.B)
    assert stored.mask_rng.bit_generator.state == mask_rng.bit_generator.state


def test_plain_run_keeps_no_warm_up_state(monkeypatch):
    copied = []
    real_deepcopy = trainer.copy.deepcopy
    monkeypatch.setattr(trainer.copy, "deepcopy",
                        lambda x, *a, **kw: copied.append(type(x)) or real_deepcopy(x, *a, **kw))
    state = trainer.train(TrainingConfig(**TINY))
    assert state.step == TINY["K"]
    assert trainer.RunState not in copied


def test_a_steps_traces_die_with_the_step(monkeypatch):
    # counted at every batch draw, which comes before the step's forwards:
    # any trace still alive then is an earlier step's (or an eval block's)
    traces, alive_at_draw = [], []
    real_forward, real_batches = nn.forward, trainer.batches

    def forward(params, X):
        tr = real_forward(params, X)
        traces.append(weakref.ref(tr))
        return tr

    def batches(*args, **kwargs):
        for batch in real_batches(*args, **kwargs):
            alive_at_draw.append(sum(ref() is not None for ref in traces))
            yield batch

    monkeypatch.setattr(nn, "forward", forward)
    monkeypatch.setattr(trainer, "batches", batches)
    base = TrainingConfig(**TINY)
    warmups = {}
    trainer.train(base, warmups=warmups)
    assert alive_at_draw == [0] * TINY["K"] and len(traces) > 3 * TINY["K"]
    alive_at_draw.clear()
    trainer.train(base.replace(tau=0.8), warmups=warmups)  # resumes at K_p
    assert alive_at_draw == [0] * (TINY["K"] - TINY["K_p"])


def test_run_state_holds_exactly_what_a_step_carries():
    assert [f.name for f in dataclasses.fields(trainer.RunState)] == [
        "config", "params", "velocity", "ema", "table", "mask_rng", "cursor", "runlog"]
    assert [f.name for f in dataclasses.fields(subspace.ClassMeanTable)] == [
        "means", "initialized"]
    # no setting is copied into the state; the mixture (pi included) and the
    # Otsu EMA are read from the config and the run log
    settings = {f.name for f in dataclasses.fields(TrainingConfig)}
    held = {f.name for cls in (trainer.RunState, subspace.ClassMeanTable)
            for f in dataclasses.fields(cls)}
    assert settings & held == set()


def assert_same_state(got, want):
    """Every ``RunState`` field equal; float arrays as bit patterns."""
    assert got.config == want.config
    for get in (lambda s: s.params.theta, lambda s: s.ema, lambda s: s.velocity,
                lambda s: s.table.means):
        assert get(got).tobytes() == get(want).tobytes()
    assert np.array_equal(got.table.initialized, want.table.initialized)
    assert got.beta_model == want.beta_model
    assert got.threshold == want.threshold
    for get in (lambda s: s.mask_rng, lambda s: s.cursor.order_rng, lambda s: s.cursor.aug_rng):
        assert get(got).bit_generator.state == get(want).bit_generator.state
    for pool in ("labeled", "unlabeled"):
        a, b = getattr(got.cursor, pool), getattr(want.cursor, pool)
        assert np.array_equal(a.perm, b.perm) and a.pos == b.pos
    assert repr(got.runlog) == repr(want.runlog)
    assert got.summary == want.summary


@pytest.mark.parametrize("rule", list(RuleKind))
def test_a_loaded_run_dir_is_the_live_state(rule, tmp_path):
    cfg = TrainingConfig(**{**TINY, "decision_rule": rule.value})
    live = trainer.train(cfg, str(tmp_path))
    loaded = trainer.load_run(str(tmp_path))
    assert_same_state(loaded, live)
    # the cursor and the mask generator continue where the live ones do
    dataset = generate(cfg)
    got, want = (next(trainer.batches(dataset, cfg, s.cursor))
                 for s in (loaded, live))
    for f in dataclasses.fields(got):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    n = cfg.mu * cfg.B
    assert np.array_equal(loaded.mask_rng.random(n), live.mask_rng.random(n))


@pytest.mark.parametrize("rule", list(RuleKind))
def test_a_loaded_run_continues_as_one_full_run(rule, tmp_path, monkeypatch):
    # K_p on the eval grid: the first run's only eval row is one of the full run's
    full = TrainingConfig(**{**TINY, "K_p": 30, "decision_rule": rule.value})
    trainer.train(full.replace(K=30), str(tmp_path))
    loaded = dataclasses.replace(trainer.load_run(str(tmp_path)), config=full)
    monkeypatch.setattr(trainer.RunState, "start", classmethod(lambda cls, config: loaded))
    assert trainer.train(full) is loaded
    monkeypatch.undo()
    assert_same_state(loaded, trainer.train(full))


def test_one_basis_per_step_and_per_eval(monkeypatch):
    calls = []
    real = subspace.compute_basis
    monkeypatch.setattr(subspace, "compute_basis", lambda table: calls.append(1) or real(table))
    state = trainer.train(TrainingConfig(**TINY))
    evals = {r.step for r in state.runlog.evals}
    assert len(calls) == TINY["K"] + len(evals) == 62


class TestPlotData:
    @pytest.fixture(scope="class")
    def plots(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plots")
        assert cli_main(cli_args(out, "train")) == 0
        assert cli_main(cli_args(out, "emit-plot-data")) == 0
        return os.path.join(only_run_dir(out), "plots")

    @staticmethod
    def read(path):
        with open(path) as fh:
            header, *lines = fh.read().splitlines()
        return header.split(","), [line.split(",") for line in lines]

    def test_every_cell_is_a_number(self, plots):
        for name in os.listdir(plots):
            _, rows = self.read(os.path.join(plots, name))
            for row in rows:
                for cell in row[1:] if name == "metrics_long.csv" else row:
                    float(cell)

    def test_emit_and_read_back(self, plots):
        run_dir = os.path.dirname(plots)
        cols, steps = self.read(os.path.join(run_dir, "metrics.csv"))
        eval_cols, evals = self.read(os.path.join(run_dir, "evals.csv"))
        want = [(c, r[0], v) for r in steps for c, v in zip(cols, r)
                if c not in ("step", "mask_hash")]
        for r in (dict(zip(eval_cols, e)) for e in evals):
            want += [("accuracy", r["step"], r["closed_set_accuracy"]),
                     (f"auroc_{r['score_kind']}", r["step"], r["auroc"])]
        header, got = self.read(os.path.join(plots, "metrics_long.csv"))
        assert header == ["metric", "step", "value"]
        assert [tuple(r) for r in got] == want

    def test_beta_grids_are_the_mixture_each_eval_saw(self, plots, tiny_result):
        for step in (30, 60):
            r = tiny_result.runlog.steps[step - 1]
            want = beta_density_grid(BetaParams(r.alpha_id, r.beta_id),
                                     BetaParams(r.alpha_ood, r.beta_ood))
            header, got = self.read(os.path.join(plots, f"beta_step{step}.csv"))
            assert header == ["s", "p_id", "p_ood"]
            assert np.array_equal(np.array(got, dtype=float), want)

    def test_histogram_of_the_final_checkpoint_only(self, plots):
        assert sorted(n for n in os.listdir(plots) if n.startswith("hist_")) == ["hist_step60.csv"]
        header, rows = self.read(os.path.join(plots, "hist_step60.csv"))
        assert header == ["bin_lo", "bin_hi", "id_count", "ood_count"]
        assert sum(int(r[2]) for r in rows) == 80
        assert sum(int(r[3]) for r in rows) == 80

    def test_splits_are_forwarded_in_blocks(self, tiny_big_split, tmp_path, monkeypatch):
        run_dir = str(tmp_path / "run")
        trainer.write_run_outputs(tiny_big_split, run_dir)
        rows, real = [], nn.forward
        monkeypatch.setattr(nn, "forward", lambda params, X: rows.append(len(X)) or real(params, X))
        trainer.emit_plot_data(run_dir, str(tmp_path / "plots"))
        dataset = generate(tiny_big_split.config)
        assert all(trainer.EVAL_BLOCK <= r < 2 * trainer.EVAL_BLOCK for r in rows)
        for n in (len(dataset.test_id[0]), len(dataset.test_ood[0])):
            assert n == 2400
            split = []
            while sum(split) < n:
                split.append(rows.pop(0))
            assert sum(split) == n
        assert rows == []

    @pytest.mark.parametrize("command", ["eval", "emit-plot-data"])
    def test_missing_run_dir_is_an_error(self, tmp_path, capsys, command):
        assert cli_main(cli_args(tmp_path, command)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.listdir(tmp_path)

    def test_run_dir_of_a_failed_run(self, tmp_path, capsys):
        assert cli_main(cli_args(tmp_path, "train") + ["--eta0", "1e8"]) == 2
        assert cli_main(cli_args(tmp_path, "emit-plot-data") + ["--eta0", "1e8"]) == 0
        run_dir = only_run_dir(tmp_path)
        step = trainer.load_run(run_dir).step
        assert os.path.exists(os.path.join(run_dir, "plots", f"hist_step{step}.csv"))
        capsys.readouterr()
        assert cli_main(cli_args(tmp_path, "eval") + ["--eta0", "1e8"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["step"], r["score_kind"]) for r in rows] == [(step, k.value) for k in ScoreKind]

    def test_run_dir_whose_params_overflow_gets_no_plot_file(self, tmp_path, capsys):
        # step 0's update at this rate overflows every later forward pass
        assert cli_main(cli_args(tmp_path, "train", eta0=1e200)) == 2
        capsys.readouterr()
        for command in ("eval", "emit-plot-data"):
            assert cli_main(cli_args(tmp_path, command, eta0=1e200)) == 2
            assert capsys.readouterr().err.startswith("runtime failure: non-finite values")
        assert not os.path.exists(os.path.join(only_run_dir(tmp_path), "plots"))


class TestCli:
    args = staticmethod(cli_args)

    def test_generate_and_train(self, tmp_path):
        # the dataset is generated inside train; no copy of it is written
        assert cli_main(self.args(tmp_path, "train")) == 0
        found = set(os.listdir(self.run_dir(tmp_path)))
        assert found == {"config.txt", "metrics.csv", "evals.csv", "summary.json",
                         "checkpoint.txt"}

    run_dir = staticmethod(only_run_dir)

    def test_eval_roundtrip(self, tmp_path, capsys):
        assert cli_main(self.args(tmp_path, "train")) == 0
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        assert cli_main(self.args(tmp_path, "eval")) == 0
        got = [(r["step"], r["score_kind"], repr(r["closed_set_accuracy"]), repr(r["auroc"]))
               for r in json.loads(capsys.readouterr().out)]
        with open(os.path.join(run_dir, "evals.csv")) as fh:
            header, *lines = fh.read().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        want = [(int(r["step"]), r["score_kind"], r["closed_set_accuracy"], r["auroc"])
                for r in rows if int(r["step"]) == TINY["K"]]
        assert got == want

    # 1e3 fails in a forward pass, 1e8 in sgd_step. Step 0's update at 1e200
    # overflows the next forward pass: step 1's, or the evaluation of the end
    # of step 0, a periodic one or the final one.
    @pytest.mark.parametrize("extra", [dict(eta0=1e3), dict(eta0=1e8), dict(eta0=1e200),
                                       dict(eta0=1e200, eval_every=1),
                                       dict(eta0=1e200, K=1, K_p=0)],
                             ids=["1e3", "1e8", "1e200", "1e200-eval_every1", "1e200-K1"])
    def test_blow_up_exits_2_with_checkpoint(self, tmp_path, monkeypatch, extra):
        cfg = TrainingConfig(**{**TINY, **extra})
        assert cli_main(self.args(tmp_path, "train", **extra)) == 2
        run_dir = self.run_dir(tmp_path)
        assert sorted(os.listdir(run_dir)) == ["checkpoint.txt", "config.txt", "evals.csv",
                                               "metrics.csv", "summary.json"]
        state = trainer.load_run(run_dir)
        assert (state.step == 1) if cfg.eta0 == 1e200 else (1 <= state.step < cfg.K)
        # the completed steps are recorded like a finished run's
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            header, *rows = fh.read().splitlines()
        assert [int(r.split(",")[0]) for r in rows] == list(range(state.step))
        assert load_config(os.path.join(run_dir, "config.txt")) == cfg
        with open(os.path.join(run_dir, "summary.json")) as fh:
            assert json.load(fh)["steps"] == state.step
        if cfg.eta0 < 1e200:  # the last good params may already be infinite
            return
        assert state.runlog.evals == []  # the failed evaluation logs no row
        # the end of step 0, generators and shuffles included, as a one-step
        # run leaves it when nothing evaluates it
        monkeypatch.setattr(trainer, "evaluate_checkpoint", lambda *args: [])
        clean = trainer.train(cfg.replace(K=1, K_p=min(cfg.K_p, 1)))
        save_checkpoint(clean, str(tmp_path / "clean.txt"))
        with open(os.path.join(run_dir, "checkpoint.txt")) as fh:
            assert fh.read() == (tmp_path / "clean.txt").read_text()

    # 1e200 overflows the evaluation after step 0, 1e8 fails in a step
    @pytest.mark.parametrize("eta0, eval_every", [(1e200, 1), (1e8, 30)])
    def test_blow_up_log_names_the_failed_phase(self, tmp_path, caplog, eta0, eval_every):
        cfg = TrainingConfig(**{**TINY, "eta0": eta0, "eval_every": eval_every})
        run_dir = str(tmp_path / "run")
        with pytest.raises(nn.NumericalError):
            trainer.train(cfg, run_dir)
        step = trainer.load_run(run_dir).step
        phase = "the evaluation after step 0" if eta0 == 1e200 else f"step {step}"
        assert [r.getMessage() for r in caplog.records if r.name == "osslab.trainer"] == [
            f"numerical blow-up in {phase}; aborting with last checkpoint"]
        if eta0 == 1e8:
            assert 1 <= step < cfg.K

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainingConfig)
                                     if f.type in ("float", "float | None")])
    def test_unparsable_float_is_config_error(self, tmp_path, capsys, key):
        assert cli_main(self.args(tmp_path, "train") + [f"--{key}", "abc"]) == 1
        assert "invalid config" in capsys.readouterr().err
        assert not any(d.startswith("run_") for d in os.listdir(tmp_path))

    # TINY has 20 labeled and 160 unlabeled rows
    @pytest.mark.parametrize("batch", [["--B", "100"], ["--B", "20", "--mu", "9"]])
    def test_oversized_batch_is_config_error(self, tmp_path, capsys, batch):
        assert cli_main(self.args(tmp_path, "train") + batch) == 1
        assert "invalid config" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_blow_up_checkpoint_is_end_of_previous_step(self, tmp_path):
        # every rule, since each moves another part of the state before the
        # step fails: the mask generator, the Otsu EMA, or neither
        for rule in RuleKind:
            out = tmp_path / rule.value
            flags = ["--eta0", "1e8", "--decision_rule", rule.value]
            assert cli_main(self.args(out, "train") + flags) == 2
            with open(os.path.join(self.run_dir(out), "checkpoint.txt")) as fh:
                saved = fh.read()
            step = trainer.load_run(self.run_dir(out)).step
            # a failure inside warm-up: a clean run of exactly `step` steps has
            # the same learning rates, so it must end in the same state
            assert 1 <= step <= TINY["K_p"]
            clean = trainer.train(TrainingConfig(**{**TINY, "eta0": 1e8, "K": step, "K_p": step,
                                                    "decision_rule": rule.value}))
            save_checkpoint(clean, str(out / "clean.txt"))
            assert (out / "clean.txt").read_text() == saved, rule

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        assert cli_main(["--out", str(tmp_path), "train", "--bogus", "1"]) == 1
        assert capsys.readouterr().err == "error: invalid config: unknown config key 'bogus'\n"

    def test_config_file(self, tmp_path):
        cfg = TrainingConfig(**TINY)
        path = tmp_path / "tiny.cfg"
        path.write_text(cfg.to_text())
        assert cli_main(["--config", str(path), "--out", str(tmp_path),
                         "train"]) == 0

    def test_run_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a long dot product over its threads (one of 20,000
        # elements was split, one of 10,000 was not), so this net is wider
        extra = dict(hidden=(160, 120), K=20, K_p=5, eval_every=10)
        state = trainer.RunState.start(TrainingConfig(**{**TINY, **extra}))
        assert state.params.theta.size > 20_000
        src = os.path.dirname(os.path.dirname(trainer.__file__))
        found = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "osslab.cli", *self.args(out, "train", **extra)],
                           env=env, check=True, capture_output=True)
            run_dir = out / os.path.basename(only_run_dir(out))
            found.append({name: (run_dir / name).read_bytes()
                          for name in ("metrics.csv", "evals.csv", "checkpoint.txt")})
        for name in found[0]:
            assert found[0][name] == found[1][name], f"{name} differs at 1 and 2 BLAS threads"


def _json_edit(edit):
    """A text edit that applies ``edit`` to the checkpoint's JSON object in place."""
    def apply(text: str) -> str:
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return apply


def _bytes_edit(key: str, edit):
    """A checkpoint edit of the float64 bytes stored as base64 under ``key``."""
    def apply(obj):
        obj[key] = base64.b64encode(edit(base64.b64decode(obj[key]))).decode("ascii")
    return _json_edit(apply)


def _means_edit(edit):
    """An edit of the class means as 4 rows of 8 floats (TINY)."""
    return _bytes_edit("means", lambda raw: edit(np.frombuffer(raw, "<f8").reshape(4, 8)).tobytes())


def _perm_edit(edit):
    """A checkpoint edit of the labeled pool's permutation (20 rows in TINY)."""
    return _json_edit(lambda obj: edit(obj["labeled"]["perm"]))


def _retype(value, new):
    """A perm edit that replaces the index ``value`` with ``new``, another JSON type."""
    return _perm_edit(lambda perm: perm.__setitem__(perm.index(value), new))


# edits of a saved TINY checkpoint (4 classes, feature_dim 8)
_CHECKPOINT_EDITS = {
    "last_line_missing": lambda text: "\n".join(text.splitlines()[:-1]),
    "truncated_not_json": lambda text: text[:len(text) // 2],
    "version_2": _json_edit(lambda obj: obj.update(version="osslab-checkpoint v2")),
    "initialized_one_short": _json_edit(lambda obj: obj["initialized"].pop()),
    "no_class_initialized": _json_edit(
        lambda obj: obj.update(initialized=[False] * len(obj["initialized"]))),
    "means_rows_one_column_short": _means_edit(lambda rows: rows[:, :-1]),
    "means_one_row_one_column_short": _bytes_edit("means", lambda raw: raw[:-8]),
    "means_fewer_classes_than_arch": _means_edit(lambda rows: rows[:-1]),  # one row short
    "means_narrower_than_arch": _means_edit(lambda rows: rows[:, :4]),  # 4 rows of 4
    "pos_not_an_int": _json_edit(lambda obj: obj["labeled"].update(pos="x")),
    "pos_past_the_end": _json_edit(lambda obj: obj["labeled"].update(pos=21)),
    "perm_one_short": _perm_edit(lambda perm: perm.pop()),
    "perm_repeats_an_index": _perm_edit(lambda perm: perm.__setitem__(0, perm[1])),
    "perm_holds_bool": _retype(1, True),
    "perm_holds_string": _retype(3, "3"),
    "perm_holds_float": _retype(2, 2.0),
    "mask_rng_of_another_bit_generator": _json_edit(
        lambda obj: obj["mask_rng"].update(bit_generator="MT19937")),
    # numpy's setter would truncate the float and take the bool
    "mask_rng_state_is_float": _json_edit(lambda obj: obj["mask_rng"]["state"].update(state=1.5)),
    "aug_rng_has_uint32_is_bool": _json_edit(lambda obj: obj["aug_rng"].update(has_uint32=True)),
    "order_rng_not_a_dict": _json_edit(lambda obj: obj.update(order_rng=[1, 2])),
    "key_missing": _json_edit(lambda obj: obj.pop("velocity")),
    # a float array is a base64 string of exactly 8 bytes per value
    "theta_not_a_list": _json_edit(lambda obj: obj.update(theta={})),
    "velocity_not_numbers": _json_edit(lambda obj: obj.update(velocity=["abc"])),
    "theta_holds_null": _json_edit(lambda obj: obj.update(theta=None)),
    "velocity_holds_bool": _json_edit(lambda obj: obj.update(velocity=True)),
    "theta_holds_huge_int": _json_edit(lambda obj: obj.update(theta=10**400)),
    "theta_holds_float_list": _json_edit(  # the v3 form
        lambda obj: obj.update(theta=np.frombuffer(base64.b64decode(obj["theta"])).tolist())),
    "means_holds_string": _json_edit(lambda obj: obj.update(means="2.5")),  # decimal text
    "ema_outside_the_alphabet": _json_edit(
        lambda obj: obj.update(ema=obj["ema"][:40] + "*" + obj["ema"][41:])),
    "means_broken_padding": _json_edit(lambda obj: obj.update(means=obj["means"][:-1])),
    "velocity_bytes_not_a_multiple_of_8": _bytes_edit("velocity", lambda raw: raw[:-1]),
    "theta_one_value_short": _bytes_edit("theta", lambda raw: raw[:-8]),
    "version_3": _json_edit(lambda obj: obj.update(version="osslab-checkpoint v3")),
    "version_4": _json_edit(lambda obj: obj.update(version="osslab-checkpoint v4")),
}


def _lines_edit(edit):
    """A text edit that applies ``edit`` to the list of lines, header first."""
    return lambda text: "".join(edit(text.splitlines(keepends=True)))


def _cells_edit(row, **cells):
    """A ``metrics.csv`` edit that sets the named cells of line ``row``, or
    deletes those set to None (the header is line 0, so step s is line
    s + 1, and -1 is the last step)."""
    def apply(lines):
        header, values = (lines[i].rstrip("\n").split(",") for i in (0, row))
        values = [cells.get(name, value) for name, value in zip(header, values)]
        lines[row] = ",".join(value for value in values if value is not None) + "\n"
        return lines
    return _lines_edit(apply)


# edits of the run dir's other files: (file, text edit or None to delete it, file named)
_RUN_DIR_EDITS = {
    # a 16-wide hidden layer's theta does not fit an 8-wide one
    "config_narrower_than_checkpoint": (
        "config.txt", lambda text: text.replace("hidden = 16", "hidden = 8"), "checkpoint.txt"),
    # a key set twice, even to the same value
    "config_key_twice": ("config.txt", lambda text: text + "seed = 3\n", "config.txt"),
    "metrics_missing": ("metrics.csv", None, "metrics.csv"),
    "metrics_row_unparsable": (
        "metrics.csv", lambda text: text.replace("\n0,", "\nzero,", 1), "metrics.csv"),
    # a run log that disagrees with itself: metrics.csv row i must be step i,
    # of at most K = 60 steps, and each eval step must name one of those rows
    "metrics_first_row_deleted": ("metrics.csv", _lines_edit(lambda rows: rows[:1] + rows[2:]),
                                  "metrics.csv"),
    "metrics_rows_swapped": (
        "metrics.csv", _lines_edit(lambda rows: [rows[0], rows[2], rows[1], *rows[3:]]),
        "metrics.csv"),
    "metrics_row_past_K": (  # a copy of the last row as step 60
        "metrics.csv", _lines_edit(lambda rows: rows + ["60" + rows[-1][rows[-1].index(","):]]),
        "metrics.csv"),
    "metrics_last_row_deleted": ("metrics.csv", _lines_edit(lambda rows: rows[:-1]),
                                 "evals.csv"),
    "evals_step_past_run": (
        "evals.csv", lambda text: text.replace("\n60,", "\n61,"), "evals.csv"),
    # every row's mixture is read: the last one by a resumed run, the one
    # before each eval step by emit-plot-data
    "alpha_id_is_nan": ("metrics.csv", _cells_edit(-1, alpha_id="nan"), "metrics.csv"),
    "alpha_id_before_an_eval_is_nan": (
        "metrics.csv", _cells_edit(30, alpha_id="nan"), "metrics.csv"),
    "beta_ood_is_0": ("metrics.csv", _cells_edit(-1, beta_ood="0.0"), "metrics.csv"),
    "beta_one_value_short": ("metrics.csv", _cells_edit(-1, alpha_ood=None), "metrics.csv"),
    # every Otsu EMA a run can reach lies in [0, 1]; a NaN one gates every row OOD
    **{f"threshold_{name}": ("metrics.csv", _cells_edit(-1, threshold=value), "metrics.csv")
       for name, value in (("not_a_number", "x"), ("is_nan", "nan"), ("is_infinity", "inf"),
                           ("below_0", "-5"))},
}
# the run dir edits that act on an Otsu run, where the last threshold is read
_OTSU_RUN_EDITS = {name for name in _RUN_DIR_EDITS if name.startswith("threshold_")}


class TestCheckpointShape:
    @pytest.mark.parametrize("edit", sorted(_CHECKPOINT_EDITS.keys() | _RUN_DIR_EDITS.keys()))
    def test_eval_rejects_mismatched_means(self, request, tmp_path, capsys, edit):
        extra = {"decision_rule": "otsu_threshold"} if edit in _OTSU_RUN_EDITS else {}
        result = request.getfixturevalue("tiny_otsu_result" if extra else "tiny_result")
        run_dir = tmp_path / trainer.run_dir_name(result.config)
        trainer.write_run_outputs(result, str(run_dir))
        name, text_edit, named = _RUN_DIR_EDITS.get(
            edit, ("checkpoint.txt", _CHECKPOINT_EDITS.get(edit), "checkpoint.txt"))
        path = run_dir / name
        if text_edit is None:
            path.unlink()
        else:
            text = path.read_text()
            edited = text_edit(text)
            assert edited != text
            path.write_text(edited)
        with pytest.raises((ValueError, OSError), match=re.escape(str(run_dir / named))):
            trainer.load_run(str(run_dir))
        capsys.readouterr()
        for command in ("eval", "emit-plot-data"):
            assert cli_main(cli_args(tmp_path, command, **extra)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(run_dir / named) in err
        assert not (run_dir / "plots").exists()


@pytest.mark.parametrize("rule", ["sampled_mask", "otsu_threshold"])
def test_a_loaded_run_reads_its_mixture_and_otsu_ema_from_the_last_row(rule, request, tmp_path):
    result = request.getfixturevalue("tiny_otsu_result" if rule == "otsu_threshold"
                                     else "tiny_result")
    trainer.write_run_outputs(result, str(tmp_path))
    path = tmp_path / "metrics.csv"
    path.write_text(_cells_edit(-1, alpha_id="3.5", beta_id="1.25", alpha_ood="0.75",
                                beta_ood="6.0", threshold="0.3125")(path.read_text()))
    loaded = trainer.load_run(str(tmp_path))
    assert loaded.beta_model == betamix.BetaMixtureModel(
        BetaParams(3.5, 1.25), BetaParams(0.75, 6.0), result.config.resolved_pi())
    # only the Otsu rule reads its EMA back; the others keep the start value
    assert loaded.threshold == (0.3125 if rule == "otsu_threshold" else OTSU_START)
    assert loaded.summary["beta"] == {"alpha_id": 3.5, "beta_id": 1.25, "alpha_ood": 0.75,
                                      "beta_ood": 6.0, "pi": result.config.resolved_pi()}
