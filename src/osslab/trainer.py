"""The training loop and the experiment drivers (sweep, ablation).

Per-step order: forward passes; subspace scores and masks computed from
the basis and Beta parameters carried over from the end of the previous
step; losses and the SGD update; then the class-mean/basis update, the
streaming IMM update (using this step's scores), and the parameter EMA.
At step 0 the class means are bootstrapped from the first labeled batch
before scoring, since no basis exists yet.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import betamix, decide, losses, nn, optim, subspace
from .config import TrainingConfig
from .data import OpenSetDataset, batches, generate
from .evaluation import ScoreSnapshot, accuracy, auroc, beta_density_grid, score_snapshot
from .rng import stream
from .serialize import Checkpoint, save_checkpoint
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


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


@dataclass
class RunLog:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRow] = field(default_factory=list)
    snapshots: list[ScoreSnapshot] = field(default_factory=list)

    def steps_csv(self) -> str:
        rows = [",".join(_STEP_COLS)]
        for r in self.steps:
            d = asdict(r)
            rows.append(",".join(_csv_cell(d[c]) for c in _STEP_COLS))
        return "\n".join(rows) + "\n"

    def evals_csv(self) -> str:
        rows = [",".join(_EVAL_COLS)]
        for r in self.evals:
            d = asdict(r)
            rows.append(",".join(_csv_cell(d[c]) for c in _EVAL_COLS))
        return "\n".join(rows) + "\n"


@dataclass
class TrainResult:
    config: TrainingConfig
    checkpoint: Checkpoint
    runlog: RunLog
    summary: dict


def evaluate_checkpoint(params: nn.MlpParams, table: subspace.ClassMeanTable,
                        dataset: OpenSetDataset, step: int,
                        beta_model: betamix.BetaMixtureModel | None = None,
                        ) -> tuple[list[EvalRow], ScoreSnapshot]:
    """Closed-set accuracy plus AUROC for every score kind.

    All kinds are evaluated on the same parameters, so the closed-set
    accuracy is shared across rows.
    """
    Xi, yi = dataset.test_id
    Xo, _ = dataset.test_ood
    tr_id = nn.forward(params, Xi)
    tr_ood = nn.forward(params, Xo)
    acc = accuracy(tr_id.probs, yi)
    basis = subspace.compute_basis(table)
    rows = []
    snap = None
    for kind in ScoreKind:
        s_id = subspace.alt_scores(kind, Z=tr_id.z, logits=tr_id.logits,
                                   table=table, basis=basis)
        s_ood = subspace.alt_scores(kind, Z=tr_ood.z, logits=tr_ood.logits,
                                    table=table, basis=basis)
        rows.append(EvalRow(step=step, score_kind=kind.value,
                            closed_set_accuracy=acc, auroc=auroc(s_id, s_ood),
                            num_id=len(s_id), num_ood=len(s_ood)))
        if kind is ScoreKind.SUBSPACE:
            snap = score_snapshot(s_id, s_ood, step, kind, beta_model)
    return rows, snap


def _snapshot(step: int, params: nn.MlpParams, opt_state: optim.OptimizerState,
              table: subspace.ClassMeanTable, beta_model: betamix.BetaMixtureModel,
              ) -> Checkpoint:
    """The training state as a checkpoint; shares the live arrays, so save it
    before the run moves on."""
    return Checkpoint(step=step, params=params,
                      ema_params=params.from_vector(opt_state.ema_params),
                      velocity=opt_state.velocity, means=table, beta_model=beta_model)


def train(config: TrainingConfig, run_dir: str | None = None) -> TrainResult:
    """Run the full two-phase training loop; see the module docstring."""
    spec = config.dataset_spec()
    schedule = config.schedule()
    weights = config.loss_weights()
    pi = config.resolved_pi()
    dataset = generate(spec)

    init_rng = stream(config.seed, "init")
    params = nn.init_params(config.input_dim, config.hidden, config.feature_dim,
                            config.num_id_classes, init_rng, config.activation)
    opt_state = optim.OptimizerState.init(params.to_vector(), config.momentum,
                                          config.ema_momentum)
    table = subspace.ClassMeanTable.empty(config.num_id_classes, config.feature_dim,
                                          config.lambda_means)
    beta_model = betamix.BetaMixtureModel.default_init(pi, config.epsilon,
                                                       config.lambda_beta)
    rule = config.decision()
    mask_rng = stream(config.seed, "mask")
    batch_iter = batches(dataset, config.B, config.mu, config.seed,
                         config.augment_config())

    runlog = RunLog()
    basis = None
    for k in range(config.K):
        warmup = k < config.K_p
        batch = next(batch_iter)
        try:
            trace_l = nn.forward(params, batch.labeled_weak)
            trace_w = nn.forward(params, batch.unlabeled_weak)
            trace_s = nn.forward(params, batch.unlabeled_strong)

            bootstrapped = False
            if basis is None:
                # step 0: no basis exists yet; initialize from this batch
                subspace.update_class_means(table, trace_l.z, batch.labels)
                basis = subspace.compute_basis(table)
                bootstrapped = True

            scores_u = subspace.subspace_scores(trace_w.z, basis)
            scores_l = subspace.subspace_scores(trace_l.z, basis)
            s_u = betamix.clamp_scores(scores_u)
            s_l = betamix.clamp_scores(scores_l)
            p_reg = np.asarray(betamix.posterior_id(beta_model, s_u, regularized=True))
            decision = decide.decide(rule, scores_u, p_reg, mask_rng)

            grads = params.zeros_like()
            sup_val, d_logits_l = losses.loss_sup(trace_l.log_probs, batch.labels)
            nn.backward(params, trace_l, grads, d_logits=d_logits_l)

            self_val = 0.0
            d_z_strong = None
            if weights.w_self > 0.0:
                h_out = nn.h_forward(params, trace_s.z)
                self_val, d_hout, _ = losses.loss_self(h_out, trace_w.z)
                d_z_strong = nn.h_backward(params, trace_s.z, weights.w_self * d_hout, grads)

            semi_val = 0.0
            sub_val = 0.0
            pseudo_count = 0
            d_logits_s = None
            if not warmup and weights.w_semi > 0.0:
                semi_val, d_ls, pseudo_count = losses.loss_semi(
                    trace_w.probs, trace_s.log_probs, decision.semi_gate, weights.tau)
                d_logits_s = weights.w_semi * d_ls
            if d_z_strong is not None or d_logits_s is not None:
                nn.backward(params, trace_s, grads, d_z=d_z_strong, d_logits=d_logits_s)
            if not warmup and weights.w_sub > 0.0:
                sub_val, d_zw = losses.loss_sub(trace_w.z, basis, decision.sub_weights)
                nn.backward(params, trace_w, grads, d_z=weights.w_sub * d_zw)

            theta = params.to_vector()
            reg_val, d_reg = losses.loss_reg(theta)
            grad_vec = grads.to_vector() + weights.w_reg * d_reg
            breakdown = losses.total_loss(sup_val, semi_val, self_val, sub_val, reg_val,
                                          weights, pseudo_count, warmup=warmup)

            step_lr = optim.lr(schedule, k)
            theta = optim.sgd_step(theta, grad_vec, opt_state, step_lr)
        except nn.NumericalError:
            # Nothing above changes params, velocity or the mixture before it
            # raises, and the means change only at the step-0 bootstrap, so for
            # k >= 1 the live state is exactly the end of step k - 1.
            log.exception("numerical blow-up at step %d; aborting with last checkpoint", k)
            if run_dir and k > 0:
                os.makedirs(run_dir, exist_ok=True)
                save_checkpoint(_snapshot(k, params, opt_state, table, beta_model),
                                os.path.join(run_dir, "checkpoint.txt"))
            raise
        params = params.from_vector(theta)

        if not bootstrapped:
            subspace.update_class_means(table, trace_l.z, batch.labels)
        basis = subspace.compute_basis(table)
        beta_model = betamix.imm_batch_step(beta_model, s_u, s_l)
        optim.ema_update(opt_state, theta)

        runlog.steps.append(StepRecord(
            step=k, lr=step_lr, sup=breakdown.sup, semi=breakdown.semi,
            self_sup=breakdown.self_sup, sub=breakdown.sub, reg=breakdown.reg,
            total=breakdown.total, pseudo_label_count=breakdown.pseudo_label_count,
            alpha_id=beta_model.id.alpha, beta_id=beta_model.id.beta,
            alpha_ood=beta_model.ood.alpha, beta_ood=beta_model.ood.beta,
            mask_rate=decision.id_rate, mean_p_id=float(p_reg.mean()),
            threshold=decision.threshold if decision.threshold is not None else float("nan"),
            mask_hash=decision.hash()))

        if (k + 1) % config.eval_every == 0 or k == config.K - 1:
            ema_params = params.from_vector(opt_state.ema_params)
            rows, snap = evaluate_checkpoint(ema_params, table, dataset, k + 1,
                                             beta_model)
            runlog.evals.extend(rows)
            runlog.snapshots.append(snap)

    final_evals = {r.score_kind: r for r in runlog.evals if r.step == config.K}
    summary = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "steps": config.K,
        "closed_set_accuracy": next(iter(final_evals.values())).closed_set_accuracy
        if final_evals else None,
        "auroc": {kind: row.auroc for kind, row in final_evals.items()},
        "beta": {"alpha_id": beta_model.id.alpha, "beta_id": beta_model.id.beta,
                 "alpha_ood": beta_model.ood.alpha, "beta_ood": beta_model.ood.beta,
                 "pi": beta_model.pi},
    }
    result = TrainResult(config=config,
                         checkpoint=_snapshot(config.K, params, opt_state, table, beta_model),
                         runlog=runlog, summary=summary)
    if run_dir:
        write_run_outputs(result, run_dir)
    return result


def run_dir_name(config: TrainingConfig) -> str:
    return f"run_{config.config_hash()}_seed{config.seed}"


def write_run_outputs(result: TrainResult, run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.txt"), "w") as fh:
        fh.write(result.config.to_text())
    with open(os.path.join(run_dir, "metrics.csv"), "w") as fh:
        fh.write(result.runlog.steps_csv())
    with open(os.path.join(run_dir, "evals.csv"), "w") as fh:
        fh.write(result.runlog.evals_csv())
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(result.summary, fh, indent=2)
    save_checkpoint(result.checkpoint, os.path.join(run_dir, "checkpoint.txt"))


SWEEP_AXES = ("pi", "ood_fraction", "w_self", "w_sub", "K_p")


def sweep(base: TrainingConfig, axis: str, values) -> list[dict]:
    """Independent seeded runs along one config axis; failures recorded."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unsupported sweep axis {axis!r}; choose from {SWEEP_AXES}")
    rows = []
    for v in values:
        try:
            res = train(base.replace(**{axis: v}))
            rows.append({"axis": axis, "value": v, **res.summary})
        except Exception as exc:  # keep sweeping past individual failures
            log.exception("sweep member %s=%r failed", axis, v)
            rows.append({"axis": axis, "value": v, "error": str(exc)})
    return rows


def ablate(base: TrainingConfig) -> dict:
    """The three ablation matrices, all on the base seed.

    - 2x2 grid over dropping the self-supervision and subspace losses;
    - the three ID/OOD decision rules, all else fixed;
    - the seven score kinds, evaluated on one shared end-of-warm-up
      checkpoint (so closed-set accuracy is identical across score rows).
    """
    out: dict = {"loss_grid": [], "decision_rules": [], "score_kinds": []}
    for drop_self in (False, True):
        for drop_sub in (False, True):
            cfg = base.replace(drop_self=drop_self, drop_sub=drop_sub)
            res = train(cfg)
            out["loss_grid"].append({"drop_self": drop_self, "drop_sub": drop_sub,
                                     **res.summary})
    for rule in decide.RuleKind:
        cfg = base.replace(decision_rule=rule.value)
        res = train(cfg)
        out["decision_rules"].append({"decision_rule": rule.value, **res.summary})

    if base.K_p == 0:
        return out  # no warm-up, so no end-of-warm-up checkpoint to score
    warm_cfg = base.replace(K=base.K_p, eval_every=base.K_p)
    warm = train(warm_cfg)
    for row in warm.runlog.evals:
        if row.step == warm_cfg.K:
            out["score_kinds"].append(asdict(row))
    return out


def emit_plot_data(result: TrainResult, out_dir: str) -> None:
    """Tidy long-format metric files plus histogram/density files."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics_long.csv"), "w") as fh:
        fh.write("metric,step,value\n")
        for r in result.runlog.steps:
            d = asdict(r)
            for col in _STEP_COLS:
                if col in ("step", "mask_hash"):
                    continue
                fh.write(f"{col},{r.step},{_csv_cell(d[col])}\n")
        for e in result.runlog.evals:
            fh.write(f"accuracy,{e.step},{_csv_cell(e.closed_set_accuracy)}\n")
            fh.write(f"auroc_{e.score_kind},{e.step},{_csv_cell(e.auroc)}\n")
    for snap in result.runlog.snapshots:
        path = os.path.join(out_dir, f"hist_step{snap.step}.csv")
        with open(path, "w") as fh:
            fh.write("bin_lo,bin_hi,id_count,ood_count\n")
            for lo, hi, ic, oc in zip(snap.bin_edges[:-1], snap.bin_edges[1:],
                                      snap.id_hist, snap.ood_hist):
                fh.write(f"{lo!r},{hi!r},{int(ic)},{int(oc)}\n")
        if snap.beta_model is not None:
            grid = beta_density_grid(snap.beta_model)
            path = os.path.join(out_dir, f"beta_step{snap.step}.csv")
            with open(path, "w") as fh:
                fh.write("s,p_id,p_ood\n")
                for s, pi_d, po_d in grid:
                    fh.write(f"{s!r},{pi_d!r},{po_d!r}\n")


def read_long_csv(path: str) -> list[tuple[str, int, float]]:
    """Parser for the tidy long format written by emit_plot_data."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["metric", "step", "value"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for line in fh:
            metric, step, value = line.strip().split(",")
            rows.append((metric, int(step), float(value)))
    return rows
