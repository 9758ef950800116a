"""The training loop and the experiment drivers (sweep, ablation).

A run is one ``RunState``, which ``train`` builds, advances in place and
returns. Its settings live in ``state.config`` alone, and its Beta mixture
and Otsu EMA in its last logged row. Pass k evaluates the state after k
steps (every ``eval_every`` steps and at ``K``), then runs step k: forward
passes; the basis of the class means carried over from the previous step;
subspace scores; one ``betamix.imm_batch_step``, which gives the decision's
posterior and the next Beta mixture; one ``decide`` with the Otsu EMA; losses
and the SGD update; then the class-mean update and the parameter EMA. At step
0 the class means are bootstrapped from the first labeled batch, as none is set.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import betamix, decide, losses, nn, optim, subspace
from .config import PARSERS, TrainingConfig, load_config
from .data import BatchCursor, OpenSetDataset, batches, generate
from .evaluation import accuracy, auroc, score_snapshot
from .rng import stream
from .serialize import load_checkpoint, save_checkpoint
from .subspace import ScoreKind

log = logging.getLogger(__name__)


@dataclass
class StepRecord:
    step: int
    lr: float
    sup: float
    semi: float
    self_sup: float
    sub: float
    reg: float
    total: float
    pseudo_label_count: int
    alpha_id: float
    beta_id: float
    alpha_ood: float
    beta_ood: float
    mask_rate: float
    mean_p_id: float
    threshold: float
    mask_hash: str

    def beta_params(self) -> tuple[betamix.BetaParams, betamix.BetaParams]:
        """The ID and OOD components after this step."""
        return (betamix.BetaParams(self.alpha_id, self.beta_id),
                betamix.BetaParams(self.alpha_ood, self.beta_ood))


@dataclass
class EvalRow:
    step: int
    score_kind: str
    closed_set_accuracy: float
    auroc: float
    num_id: int
    num_ood: int


_STEP_COLS = list(StepRecord.__dataclass_fields__)
_EVAL_COLS = list(EvalRow.__dataclass_fields__)


def _csv_text(header: list[str], rows) -> str:
    """One comma-joined line per row. ``str`` of a Python float is its
    ``repr``, so reloads are bit-exact."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


@dataclass
class RunLog:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRow] = field(default_factory=list)

    def steps_csv(self) -> str:
        return _csv_text(_STEP_COLS, ([getattr(r, c) for c in _STEP_COLS] for r in self.steps))

    def evals_csv(self) -> str:
        return _csv_text(_EVAL_COLS, ([getattr(r, c) for c in _EVAL_COLS] for r in self.evals))


@dataclass
class RunState:
    """Everything a run carries from one step to the next, and nothing
    derived from it: arrays, generators and the run log, whose last row holds
    the Beta mixture and the Otsu EMA. Every setting is read from ``config``.
    A copy of it at the top of step ``config.K_p`` lets another run with the
    same warm-up (``warmup_key``) start there."""
    config: TrainingConfig
    params: nn.MlpParams
    velocity: np.ndarray  # the SGD velocity, in the layout of params.theta
    ema: np.ndarray       # the EMA shadow of params.theta
    table: subspace.ClassMeanTable
    mask_rng: np.random.Generator
    cursor: BatchCursor
    runlog: RunLog

    @classmethod
    def start(cls, config: TrainingConfig) -> "RunState":
        """The state at the top of step 0."""
        params = nn.init_params(config.input_dim, config.hidden, config.feature_dim,
                                config.num_id_classes, stream(config.seed, "init"),
                                config.activation)
        return cls(config, params, np.zeros_like(params.theta), params.theta.copy(),
                   subspace.ClassMeanTable.empty(config.num_id_classes, config.feature_dim),
                   stream(config.seed, "mask"), BatchCursor.start(config.seed), RunLog())

    @property
    def step(self) -> int:
        """The number of completed steps."""
        return len(self.runlog.steps)

    @property
    def beta_model(self) -> betamix.BetaMixtureModel:
        """The Beta mixture after the last step, with the config's ``pi``."""
        steps, pi = self.runlog.steps, self.config.resolved_pi()
        return (betamix.BetaMixtureModel(*steps[-1].beta_params(), pi) if steps
                else betamix.BetaMixtureModel.default_init(pi))

    @property
    def threshold(self) -> float:
        """The Otsu EMA after the last step; only the Otsu rule moves it."""
        otsu = self.config.decision_rule == decide.RuleKind.OTSU_THRESHOLD.value
        return self.runlog.steps[-1].threshold if otsu and self.runlog.steps else decide.OTSU_START

    @property
    def summary(self) -> dict:
        final_evals = {r.score_kind: r for r in self.runlog.evals if r.step == self.step}
        beta = self.beta_model
        return {
            "config_hash": self.config.config_hash(), "seed": self.config.seed, "steps": self.step,
            "closed_set_accuracy": next(iter(final_evals.values())).closed_set_accuracy
            if final_evals else None,
            "auroc": {kind: row.auroc for kind, row in final_evals.items()},
            "beta": {"alpha_id": beta.id.alpha, "beta_id": beta.id.beta,
                     "alpha_ood": beta.ood.alpha, "beta_ood": beta.ood.beta, "pi": beta.pi},
        }

    @property
    def ema_params(self) -> nn.MlpParams:
        """The EMA shadow of the parameters, the ones that are evaluated; a view."""
        return self.params.from_vector(self.ema)


# Config fields that act only after the warm-up, or on the logged decision
# columns that a resumed run replays.
_POST_WARMUP_FIELDS = ("w_semi", "w_sub", "tau", "gamma", "K", "decision_rule")


def warmup_key(config: TrainingConfig) -> tuple:
    """Equal for two configs whose first ``K_p`` steps update the same state."""
    return tuple((k, v) for k, v in asdict(config).items() if k not in _POST_WARMUP_FIELDS)


# Evaluation cuts an N-row split into max(1, N // EVAL_BLOCK) nearly equal row
# blocks. Not fewer rows: blocks of a few hundred rows do not always get the
# whole split's matmul bits from OpenBLAS; blocks of 1,024 or more matched.
EVAL_BLOCK = 1024


def score_split(params: nn.MlpParams, table: subspace.ClassMeanTable,
                basis: subspace.IdSubspaceBasis, X: np.ndarray,
                ) -> tuple[np.ndarray, dict[ScoreKind, np.ndarray]]:
    """``(probs, {kind: scores})`` of the rows of ``X`` under ``params``.

    The rows are forwarded in blocks (``EVAL_BLOCK``), with one block's
    forward trace alive at a time.
    """
    probs, scores = [], []
    for block in np.array_split(X, max(1, len(X) // EVAL_BLOCK)):
        tr = nn.forward(params, block)
        probs.append(tr.probs)
        scores.append(subspace.alt_scores(tr.z, tr.logits, tr.log_probs, table, basis))
        del tr  # freed before the next block is forwarded
    return np.concatenate(probs), {kind: np.concatenate([s[kind] for s in scores])
                                   for kind in ScoreKind}


def evaluate_checkpoint(params: nn.MlpParams, table: subspace.ClassMeanTable, step: int,
                        dataset: OpenSetDataset) -> list[EvalRow]:
    """Closed-set accuracy plus AUROC of ``params`` at ``step`` for every score kind.

    All kinds are evaluated on the same parameters, so the closed-set
    accuracy is shared across rows.
    """
    basis = subspace.compute_basis(table)
    probs, s_id = score_split(params, table, basis, dataset.test_id[0])
    acc = accuracy(probs, dataset.test_id[1])
    _, s_ood = score_split(params, table, basis, dataset.test_ood[0])
    return [EvalRow(step=step, score_kind=kind.value, closed_set_accuracy=acc,
                    auroc=auroc(s_id[kind], s_ood[kind]), num_id=len(s_id[kind]),
                    num_ood=len(s_ood[kind]))
            for kind in ScoreKind]


def _decision_cols(gate: np.ndarray, threshold: float) -> dict:
    """A step's logged decision columns, from its ID gate and Otsu EMA."""
    return {"mask_rate": float(gate.mean()), "threshold": threshold,
            "mask_hash": decide.mask_hash(gate)}


def train(config: TrainingConfig, run_dir: str | None = None, *,
          warmups: dict[tuple, tuple[RunState, list]] | None = None) -> RunState:
    """Run the two-phase training loop (see the module docstring); return
    its final state.

    A blow-up in a pass's evaluation or step raises ``nn.NumericalError``
    after writing ``run_dir`` for the completed steps, if there are any.

    ``warmups`` maps a ``warmup_key`` to a copy of a state at the top of step
    ``K_p`` and each warm-up step's decision inputs ``(scores_u, p_reg)``. If
    it holds this config's key, the run resumes from a deep copy of that
    state with this config and a fresh mask stream, and replays its own rule
    over the inputs from a fresh Otsu EMA. Otherwise the run stores its own
    entry there. Either way the result equals ``train(config)``'s.
    """
    dataset = generate(config)
    kind = decide.RuleKind(config.decision_rule)

    warm = None if warmups is None else warmups.get(key := warmup_key(config))
    keep = warmups is not None and warm is None  # store this run's warm-up
    inputs: list = []  # this run's warm-up decision inputs, if it stores them
    if warm is None:
        state = RunState.start(config)
    else:
        state = replace(copy.deepcopy(warm[0]), config=config, mask_rng=stream(config.seed, "mask"))
        # a stored run with K == K_p logged its final evaluation; off the grid, it goes
        state.runlog.evals = [e for e in state.runlog.evals if e.step % config.eval_every == 0]
        threshold = decide.OTSU_START  # the replay's Otsu EMA; the other rules ignore it
        for rec, (scores_u, p_reg) in zip(state.runlog.steps, warm[1]):
            gate, threshold = decide.decide(kind, scores_u, p_reg, state.mask_rng, threshold,
                                            config.otsu_momentum)
            vars(rec).update(_decision_cols(gate, threshold))
    params, table, runlog = state.params, state.table, state.runlog
    beta_model = state.beta_model  # live here; each row logs it
    grads = params.zeros_like()
    batch_iter = batches(dataset, config, state.cursor)
    shuffles = (state.cursor.labeled, state.cursor.unlabeled)
    rngs = (state.mask_rng, state.cursor.order_rng, state.cursor.aug_rng)

    # one pass more than there are steps: pass K evaluates the end, and a run
    # with K == K_p stores it
    for k in range(state.step, config.K + 1):
        warmup = k < config.K_p
        # a failed pass writes these back (a shuffle's perm is replaced, never written)
        top = ([dict(vars(s)) for s in shuffles], [g.bit_generator.state for g in rngs])
        try:
            logged = runlog.evals[-1].step if runlog.evals else 0  # k if a stored state has it
            if k > logged and (k % config.eval_every == 0 or k == config.K):
                phase = f"the evaluation after step {k - 1}"  # k >= 1 here
                runlog.evals.extend(evaluate_checkpoint(state.ema_params, table, k, dataset))
            if keep and k == config.K_p:  # the top of step K_p, with its eval rows
                warmups[key] = (copy.deepcopy(state), inputs)
            if k == config.K:
                break
            phase = f"step {k}"
            batch = next(batch_iter)
            trace_l = nn.forward(params, batch.labeled_weak)
            trace_w = nn.forward(params, batch.unlabeled_weak)
            trace_s = nn.forward(params, batch.unlabeled_strong)

            if k == 0:  # no class mean is set yet; initialize them from this batch
                subspace.update_class_means(table, trace_l.z, batch.labels, config.lambda_means)
            basis = subspace.compute_basis(table)

            sub_on = not warmup and config.w_sub > 0.0
            # the weak view is scored once; the gradients come along only when
            # the subspace loss will use them
            scores_u, d_scores_u = (losses.subspace_score_grads(trace_w.z, basis) if sub_on
                                    else (subspace.subspace_scores(trace_w.z, basis), None))
            scores_l = subspace.subspace_scores(trace_l.z, basis)
            p_reg, beta_model = betamix.imm_batch_step(beta_model, scores_u, scores_l,
                                                       config.epsilon, config.lambda_beta)
            gate, threshold = decide.decide(kind, scores_u, p_reg, state.mask_rng,
                                            state.threshold, config.otsu_momentum)
            if keep and warmup:
                inputs.append((scores_u, p_reg))

            grads.theta.fill(0.0)
            sup_val, d_logits_l = losses.loss_sup(trace_l.log_probs, batch.labels)
            nn.backward(params, trace_l, grads, d_logits=d_logits_l)

            self_val, d_z_strong = 0.0, None
            if config.w_self > 0.0:
                h_out = nn.h_forward(params, trace_s.z)
                self_val, d_hout, _ = losses.loss_self(h_out, trace_w.z)
                d_z_strong = nn.h_backward(params, trace_s.z, config.w_self * d_hout, grads)
                del h_out, d_hout

            semi_val, sub_val, pseudo_count, d_logits_s = 0.0, 0.0, 0, None
            if not warmup and config.w_semi > 0.0:
                semi_val, d_logits_s, pseudo_count = losses.loss_semi(
                    trace_w.probs, trace_s.log_probs, gate, config.tau)
                d_logits_s *= config.w_semi
            if d_z_strong is not None or d_logits_s is not None:
                nn.backward(params, trace_s, grads, d_z=d_z_strong, d_logits=d_logits_s)
            if sub_on:
                sub_val, d_zw = losses.loss_sub(scores_u, d_scores_u, gate)
                nn.backward(params, trace_w, grads, d_z=config.w_sub * d_zw)

            reg_val, d_reg = losses.loss_reg(params.theta)
            grads.theta += config.w_reg * d_reg
            total = (sup_val + config.w_semi * semi_val + config.w_self * self_val
                     + config.w_sub * sub_val + config.w_reg * reg_val)

            step_lr = optim.lr(config, k)
            optim.sgd_step(params.theta, grads.theta, state.velocity, config.momentum, step_lr)
        except nn.NumericalError:
            # Nothing above changes params or velocity before it raises
            # (sgd_step checks the gradient before it writes), the means change
            # only at the step-0 bootstrap, and no row is logged. The batch draw
            # and decide moved the generators and the cursor, written back here,
            # so for k >= 1 the saved state is exactly the end of step k - 1.
            log.exception("numerical blow-up in %s; aborting with last checkpoint", phase)
            for shuffle, saved in zip(shuffles, top[0]):
                vars(shuffle).update(saved)
            for g, saved in zip(rngs, top[1]):
                g.bit_generator.state = saved
            if run_dir and k > 0:
                write_run_outputs(state, run_dir)
            raise

        if k > 0:
            subspace.update_class_means(table, trace_l.z, batch.labels, config.lambda_means)
        optim.ema_update(state.ema, params.theta, config.ema_momentum)

        runlog.steps.append(StepRecord(
            step=k, lr=step_lr, sup=sup_val, semi=semi_val, self_sup=self_val,
            sub=sub_val, reg=reg_val, total=total, pseudo_label_count=pseudo_count,
            alpha_id=beta_model.id.alpha, beta_id=beta_model.id.beta,
            alpha_ood=beta_model.ood.alpha, beta_ood=beta_model.ood.beta,
            mean_p_id=float(p_reg.mean()), **_decision_cols(gate, threshold)))
        # Freed before the next pass. d_zw, allocated last, lives on until the
        # next step's loss_sub: freed too, it would leave the top of the heap
        # free, glibc would return the step's pages to the kernel, and the
        # next step would fault them back in (on wide_mlp, 320,000 minor page
        # faults in 100 steps against 40,000, and about 20% more wall time).
        del batch, trace_l, trace_w, trace_s, d_scores_u, d_logits_l, d_z_strong, d_logits_s

    if run_dir:
        write_run_outputs(state, run_dir)
    return state


def run_dir_name(config: TrainingConfig) -> str:
    return f"run_{config.config_hash()}_seed{config.seed}"


def write_run_outputs(state: RunState, run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    _write(os.path.join(run_dir, "config.txt"), state.config.to_text())
    _write(os.path.join(run_dir, "metrics.csv"), state.runlog.steps_csv())
    _write(os.path.join(run_dir, "evals.csv"), state.runlog.evals_csv())
    _write(os.path.join(run_dir, "summary.json"), json.dumps(state.summary, indent=2))
    save_checkpoint(state, os.path.join(run_dir, "checkpoint.txt"))


def sweep(base: TrainingConfig, axis: str, values) -> list[dict]:
    """Independent seeded runs along one config field; failures recorded."""
    if axis not in {f.name for f in fields(base)}:
        raise ValueError(f"unknown config key {axis!r}")
    rows = []
    for v in values:
        try:
            rows.append({"axis": axis, "value": v, **train(base.replace(**{axis: v})).summary})
        except Exception as exc:  # keep sweeping past individual failures
            log.exception("sweep member %s=%r failed", axis, v)
            rows.append({"axis": axis, "value": v, "error": str(exc)})
    return rows


def ablate(base: TrainingConfig) -> dict:
    """The three ablation matrices, all on the base seed.

    - 2x2 grid over dropping (zero weight) the self-supervision and
      subspace losses;
    - the three ID/OOD decision rules, all else fixed;
    - the seven score kinds, evaluated on one shared end-of-warm-up
      checkpoint (so closed-set accuracy is identical across score rows).

    ``base`` itself is trained once; every arm equal to it reuses that run.
    Arms that differ only in what acts after the warm-up share it: every
    arm trains with one ``warmups`` dict (see ``train``), so the first arm
    of each ``warmup_key`` trains from step 0 and stores its state at step
    ``K_p``, and the others resume from a copy of it. Each distinct warm-up
    is trained once, and every arm's result equals that of training it from
    step 0.
    """
    out: dict = {"loss_grid": [], "decision_rules": [], "score_kinds": []}
    warmups: dict[tuple, tuple[RunState, list]] = {}
    base_summary = train(base, warmups=warmups).summary

    def summary(cfg: TrainingConfig) -> dict:
        return base_summary if cfg == base else train(cfg, warmups=warmups).summary

    for drop_self in (False, True):
        for drop_sub in (False, True):
            cfg = base.replace(w_self=0.0 if drop_self else base.w_self,
                               w_sub=0.0 if drop_sub else base.w_sub)
            out["loss_grid"].append({"drop_self": drop_self, "drop_sub": drop_sub,
                                     **summary(cfg)})
    for rule in decide.RuleKind:
        cfg = base.replace(decision_rule=rule.value)
        out["decision_rules"].append({"decision_rule": rule.value, **summary(cfg)})

    if base.K_p == 0:
        return out  # no warm-up, so no end-of-warm-up checkpoint to score
    for row in train(base.replace(K=base.K_p), warmups=warmups).runlog.evals:
        if row.step == base.K_p:
            out["score_kinds"].append(asdict(row))
    return out


def _read_rows(path: str, row_type) -> list:
    """A ``RunLog`` CSV's rows, each cell parsed by its field's type."""
    parse = [PARSERS[f.type] for f in fields(row_type)]
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        if lines[:1] != [",".join(f.name for f in fields(row_type))]:
            raise ValueError(f"the header is not the {row_type.__name__} fields")
        return [row_type(*(f(cell) for f, cell in zip(parse, line.split(","), strict=True)))
                for line in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_run(run_dir: str) -> RunState:
    """The ``RunState`` that ``write_run_outputs`` wrote to ``run_dir``.

    Row i of ``metrics.csv`` must be step i, with at most ``K`` rows, and
    every ``evals.csv`` step must name one of those rows (1-based).
    """
    state = RunState.start(load_config(os.path.join(run_dir, "config.txt")))
    steps_path, evals_path = (os.path.join(run_dir, name) for name in ("metrics.csv", "evals.csv"))
    state.runlog = RunLog(_read_rows(steps_path, StepRecord), _read_rows(evals_path, EvalRow))
    n = state.step
    if n > state.config.K or any(r.step != i for i, r in enumerate(state.runlog.steps)):
        raise ValueError(f"{steps_path}: the rows are not steps 0, 1, ... of at most "
                         f"K = {state.config.K} steps")
    for r in state.runlog.steps:  # the mixtures that the plots and a resumed run read
        try:
            r.beta_params()
        except ValueError as exc:
            raise ValueError(f"{steps_path}: step {r.step}: {exc}") from None
    if not 0.0 <= state.threshold <= 1.0:  # NaN included; every Otsu EMA a run reaches lies there
        raise ValueError(f"{steps_path}: the last threshold {state.threshold} is outside [0, 1]")
    if any(not 1 <= e.step <= n for e in state.runlog.evals):
        raise ValueError(f"{evals_path}: an eval step lies outside [1, {n}], "
                         "the steps of metrics.csv")
    load_checkpoint(os.path.join(run_dir, "checkpoint.txt"), state)
    return state


def emit_plot_data(run_dir: str, out_dir: str) -> None:
    """Plot files from a run dir that ``train`` wrote; nothing is retrained.

    - ``metrics_long.csv``: every ``metrics.csv`` and ``evals.csv`` cell,
      in tidy long format;
    - ``beta_step{s}.csv`` for each eval step s: the ID and OOD Beta
      densities of ``metrics.csv`` row s - 1, the mixture that eval saw;
    - ``hist_step{s}.csv`` for the last step s alone: subspace-score histograms
      of the EMA params and means on the test splits (from ``config.txt``).
    """
    state = load_run(run_dir)
    steps, evals = state.runlog.steps, state.runlog.evals
    basis = subspace.compute_basis(state.table)
    dataset = generate(state.config)
    # scored before any file is written, so a blow-up here leaves no plot file
    edges, id_hist, ood_hist = score_snapshot(*(
        score_split(state.ema_params, state.table, basis, X)[1][ScoreKind.SUBSPACE]
        for X, _ in (dataset.test_id, dataset.test_ood)))
    os.makedirs(out_dir, exist_ok=True)

    long_rows = [(col, r.step, getattr(r, col)) for r in steps for col in _STEP_COLS
                 if col not in ("step", "mask_hash")]
    for e in evals:
        long_rows.append(("accuracy", e.step, e.closed_set_accuracy))
        long_rows.append((f"auroc_{e.score_kind}", e.step, e.auroc))
    _write(os.path.join(out_dir, "metrics_long.csv"),
           _csv_text(["metric", "step", "value"], long_rows))

    for s in sorted({e.step for e in evals}):
        grid = betamix.beta_density_grid(*steps[s - 1].beta_params())
        _write(os.path.join(out_dir, f"beta_step{s}.csv"),
               _csv_text(["s", "p_id", "p_ood"], grid.tolist()))

    _write(os.path.join(out_dir, f"hist_step{state.step}.csv"), _csv_text(
        ["bin_lo", "bin_hi", "id_count", "ood_count"],
        zip(edges[:-1].tolist(), edges[1:].tolist(), id_hist.tolist(), ood_hist.tolist())))
