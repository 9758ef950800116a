"""Outside-in instrumentation of osslab for the benchmark's child process.

Nothing here edits osslab: :func:`install` replaces public functions with
wrappers in the module namespace where the caller looks them up (``trainer``
binds ``batches``, ``generate``, ``accuracy``, ``auroc``, ``score_snapshot``
and ``save_checkpoint`` by name, ``losses`` binds ``subspace_score_grads``)
and returns a function that puts the originals back.

Untraced runs get only the step clocks: one read of the wall clock and one
of the thread CPU clock per step at the ``batches`` boundary, plus one
wall-clock read at entry and exit of each ``train`` call. Traced runs also
get spans. Spans nest through a stack, so a span's self time is its duration
minus the time covered by the spans it caused (``loss_sub`` ->
``subspace_score_grads``, ``posterior_id`` -> ``beta_pdf``,
``evaluate_checkpoint`` -> ``forward``/``alt_scores``). Whatever ``train``
does outside every span is its own self time, reported as trainer glue.

This module imports neither numpy nor osslab at import time, so the parent
process can use its metric tables without paying for them.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import time
from collections import defaultdict

# (module, attribute, span name). A dotted attribute patches a method on a
# class. The span name is "<osslab module>.<function>" of the wrapped code.
SPANS = [
    ("osslab.trainer", "generate", "data.generate"),
    ("osslab.nn", "forward", "nn.forward"),
    ("osslab.nn", "backward", "nn.backward"),
    ("osslab.nn", "h_forward", "nn.h_forward"),
    ("osslab.nn", "h_backward", "nn.h_backward"),
    ("osslab.nn", "MlpParams.to_vector", "nn.MlpParams.to_vector"),
    ("osslab.nn", "MlpParams.from_vector", "nn.MlpParams.from_vector"),
    ("osslab.nn", "MlpParams.zeros_like", "nn.MlpParams.zeros_like"),
    ("osslab.nn", "MlpParams.copy", "nn.MlpParams.copy"),
    ("osslab.subspace", "subspace_scores", "subspace.subspace_scores"),
    ("osslab.losses", "subspace_score_grads", "subspace.subspace_score_grads"),
    ("osslab.subspace", "compute_basis", "subspace.compute_basis"),
    ("osslab.subspace", "update_class_means", "subspace.update_class_means"),
    ("osslab.subspace", "alt_scores", "subspace.alt_scores"),
    ("osslab.betamix", "posterior_id", "betamix.posterior_id"),
    ("osslab.betamix", "beta_pdf", "betamix.beta_pdf"),
    ("osslab.betamix", "imm_batch_step", "betamix.imm_batch_step"),
    ("osslab.decide", "decide", "decide.decide"),
    ("osslab.decide", "otsu_threshold", "decide.otsu_threshold"),
    ("osslab.losses", "loss_sup", "losses.loss_sup"),
    ("osslab.losses", "loss_semi", "losses.loss_semi"),
    ("osslab.losses", "loss_self", "losses.loss_self"),
    ("osslab.losses", "loss_sub", "losses.loss_sub"),
    ("osslab.losses", "loss_reg", "losses.loss_reg"),
    ("osslab.optim", "sgd_step", "optim.sgd_step"),
    ("osslab.optim", "ema_update", "optim.ema_update"),
    ("osslab.trainer", "evaluate_checkpoint", "trainer.evaluate_checkpoint"),
    ("osslab.trainer", "accuracy", "evaluation.accuracy"),
    ("osslab.trainer", "auroc", "evaluation.auroc"),
    ("osslab.trainer", "score_snapshot", "evaluation.score_snapshot"),
    ("osslab.trainer", "save_checkpoint", "serialize.save_checkpoint"),
    ("osslab.trainer", "write_run_outputs", "trainer.write_run_outputs"),
]
BATCH_SPAN = "data.batches"   # the batch iterator's __next__
TRAIN_SPAN = "trainer.train"  # root span; its self time is the glue

# Per-step self time: metric -> the spans whose self time it sums. Every span
# above belongs to exactly one entry, so these plus trainer.glue_ms add up to
# the traced step time.
SELF_MS = {
    "data.batch_ms": [BATCH_SPAN],
    "data.generate_ms": ["data.generate"],
    "nn.forward_ms": ["nn.forward"],
    "nn.backward_ms": ["nn.backward"],
    "nn.head_ms": ["nn.h_forward", "nn.h_backward"],
    "nn.param_copy_ms": ["nn.MlpParams.to_vector", "nn.MlpParams.from_vector",
                         "nn.MlpParams.zeros_like", "nn.MlpParams.copy"],
    "subspace.score_ms": ["subspace.subspace_scores", "subspace.subspace_score_grads"],
    "subspace.basis_ms": ["subspace.compute_basis"],
    "subspace.means_ms": ["subspace.update_class_means"],
    "betamix.posterior_ms": ["betamix.posterior_id", "betamix.beta_pdf"],
    "betamix.imm_ms": ["betamix.imm_batch_step"],
    "decide.ms": ["decide.decide"],
    "decide.otsu_ms": ["decide.otsu_threshold"],
    "losses.sup_ms": ["losses.loss_sup"],
    "losses.semi_ms": ["losses.loss_semi"],
    "losses.self_ms": ["losses.loss_self"],
    "losses.sub_ms": ["losses.loss_sub"],
    "losses.reg_ms": ["losses.loss_reg"],
    "optim.sgd_ms": ["optim.sgd_step"],
    "optim.ema_ms": ["optim.ema_update"],
    "evaluation.self_ms": ["trainer.evaluate_checkpoint", "subspace.alt_scores",
                           "evaluation.accuracy", "evaluation.score_snapshot"],
    "evaluation.auroc_ms": ["evaluation.auroc"],
    "serialize.checkpoint_ms": ["serialize.save_checkpoint"],
    "trainer.outputs_ms": ["trainer.write_run_outputs"],
    "trainer.glue_ms": [TRAIN_SPAN],
}

# Every per-layer metric: name -> (unit, better). The order is the print order.
PER_LAYER = {
    "data.batch_ms": ("ms", "lower"),
    "data.rows_per_step": ("count", "higher"),
    "data.generate_ms": ("ms", "lower"),
    "nn.forward_ms": ("ms", "lower"),
    "nn.forward_calls": ("count", "lower"),
    "nn.backward_ms": ("ms", "lower"),
    "nn.backward_calls": ("count", "lower"),
    "nn.head_ms": ("ms", "lower"),
    "nn.param_copy_ms": ("ms", "lower"),
    "nn.param_copy_calls": ("count", "lower"),
    "nn.mflop_per_step": ("MFLOP_computed", "lower"),
    "nn.gflop_per_s": ("GFLOP/s_computed", "higher"),
    "subspace.score_ms": ("ms", "lower"),
    "subspace.score_calls": ("count", "lower"),
    "subspace.basis_ms": ("ms", "lower"),
    "subspace.basis_rank_min": ("count", "higher"),
    "subspace.means_ms": ("ms", "lower"),
    "betamix.posterior_ms": ("ms", "lower"),
    "betamix.pdf_calls": ("count", "lower"),
    "betamix.imm_ms": ("ms", "lower"),
    "betamix.underflow_events": ("count", "lower"),
    "betamix.mom_clamp_events": ("count", "lower"),
    "decide.ms": ("ms", "lower"),
    "decide.otsu_ms": ("ms", "lower"),
    "losses.sup_ms": ("ms", "lower"),
    "losses.semi_ms": ("ms", "lower"),
    "losses.self_ms": ("ms", "lower"),
    "losses.sub_ms": ("ms", "lower"),
    "losses.reg_ms": ("ms", "lower"),
    "losses.degenerate_cos": ("count", "lower"),
    "optim.sgd_ms": ("ms", "lower"),
    "optim.ema_ms": ("ms", "lower"),
    "evaluation.evals": ("count", "lower"),
    "evaluation.eval_ms": ("ms", "lower"),
    "evaluation.self_ms": ("ms", "lower"),
    "evaluation.auroc_ms": ("ms", "lower"),
    "serialize.checkpoint_ms": ("ms", "lower"),
    "serialize.checkpoint_bytes": ("bytes", "lower"),
    "trainer.outputs_ms": ("ms", "lower"),
    "trainer.output_bytes": ("bytes", "lower"),
    "trainer.glue_ms": ("ms", "lower"),
    "trainer.step_ms": ("ms", "lower"),
    "trainer.trace_overhead_pct": ("%", "lower"),
}


class Tracer:
    """Span stack with self-time bookkeeping, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []  # per open span: time covered by its children

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(args, kwargs, result)``
        runs after the span closes, to count work from arguments and results."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                covered = self._child_s.pop()
                self.self_s[name] += elapsed - covered
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced


class Counters:
    """Work counted at span boundaries and from osslab.betamix log records."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.rank_min: int | None = None

    def add(self, key: str, amount: float) -> None:
        self.sums[key] += amount

    # -- observers ---------------------------------------------------------

    def forward(self, args, kwargs, trace):
        params = args[0]
        macs = sum(w.size for w in params.f_weights) + params.g_weight.size
        self.add("nn.flop", 2.0 * trace.x.shape[0] * macs)

    def backward(self, args, kwargs, _):
        params, trace = args[0], args[1]
        weights = params.f_weights
        # weight gradient for every layer, input gradient for all but the first
        macs = weights[0].size + 2 * sum(w.size for w in weights[1:])
        d_logits = args[4] if len(args) > 4 else kwargs.get("d_logits")
        if d_logits is not None:
            macs += 2 * params.g_weight.size
        self.add("nn.flop", 2.0 * trace.x.shape[0] * macs)

    def h_forward(self, args, kwargs, _):
        self.add("nn.flop", 2.0 * args[1].shape[0] * args[0].h_weight.size)

    def h_backward(self, args, kwargs, _):
        self.add("nn.flop", 4.0 * args[1].shape[0] * args[0].h_weight.size)

    def batch(self, args, kwargs, pair):
        self.add("data.rows", pair.labeled_weak.shape[0] + pair.unlabeled_weak.shape[0]
                 + pair.unlabeled_strong.shape[0])

    def basis(self, args, kwargs, basis):
        self.rank_min = basis.rank if self.rank_min is None else min(self.rank_min, basis.rank)

    def loss_self(self, args, kwargs, result):
        self.add("losses.degenerate_cos", result[2])

    def checkpoint(self, args, kwargs, _):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.add("serialize.checkpoint_bytes", os.path.getsize(path))

    def outputs(self, args, kwargs, _):
        run_dir = args[1] if len(args) > 1 else kwargs["run_dir"]
        self.add("trainer.output_bytes", sum(
            os.path.getsize(os.path.join(run_dir, name)) for name in os.listdir(run_dir)
            if name != "checkpoint.txt"))


class BetamixLogCounter(logging.Filter):
    """Counts posterior-underflow WARNINGs and method-of-moments clamp DEBUG
    records on the ``osslab.betamix`` logger. DEBUG records are dropped after
    counting, so the run prints what an uninstrumented run prints."""

    def __init__(self, counters: Counters):
        super().__init__()
        self.counters = counters

    def filter(self, record: logging.LogRecord) -> bool:
        if record.funcName == "posterior_id" and record.levelno == logging.WARNING:
            self.counters.add("betamix.underflow_events", 1)
        elif record.funcName == "method_of_moments" and record.levelno == logging.DEBUG:
            self.counters.add("betamix.mom_clamp_events", 1)
        return record.levelno >= logging.INFO


_OBSERVERS = {
    "nn.forward": "forward",
    "nn.backward": "backward",
    "nn.h_forward": "h_forward",
    "nn.h_backward": "h_backward",
    "subspace.compute_basis": "basis",
    "losses.loss_self": "loss_self",
    "serialize.save_checkpoint": "checkpoint",
    "trainer.write_run_outputs": "outputs",
}


class _ClockedBatches:
    """The batch iterator, with the clock reads that mark each step's start.

    ``marks`` gets the wall clock and ``cpu_marks`` the calling thread's CPU
    clock, which does not run while the thread is descheduled.
    """

    def __init__(self, call: dict, next_fn):
        self._marks = call["marks"]
        self._cpu_marks = call["cpu_marks"]
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        self._marks.append(time.monotonic())
        self._cpu_marks.append(time.thread_time())
        return self._next()


class Probe:
    """What one child process records: train calls, step marks, and, when
    traced, spans and counters."""

    def __init__(self, trace: bool):
        self.calls: list[dict] = []  # one per train call, in call order
        self.tracer = Tracer() if trace else None
        self.counters = Counters() if trace else None

    def install(self):
        """Patch osslab; returns a function that undoes every patch."""
        undo = []

        def patch(owner, attr, new):
            old = owner.__dict__[attr]
            setattr(owner, attr, new)
            undo.append(lambda: setattr(owner, attr, old))

        trainer = importlib.import_module("osslab.trainer")
        real_train, real_batches = trainer.train, trainer.batches
        tracer, counters = self.tracer, self.counters
        inner_train = real_train if tracer is None else tracer.wrap(TRAIN_SPAN, real_train)

        @functools.wraps(real_train)
        def train(config, *args, **kwargs):
            call = {"K": config.K, "marks": [], "cpu_marks": [], "error": None, "result": None,
                    "run_dir": kwargs.get("run_dir", args[0] if args else None)}
            self.calls.append(call)
            call["t0"] = time.monotonic()
            try:
                result = inner_train(config, *args, **kwargs)
            except BaseException as exc:
                call["error"] = repr(exc)
                raise
            finally:
                call["t1"] = time.monotonic()
            call["result"] = result
            return result

        @functools.wraps(real_batches)
        def batches(*args, **kwargs):
            it = real_batches(*args, **kwargs)
            next_fn = it.__next__
            if tracer is not None:
                next_fn = tracer.wrap(BATCH_SPAN, next_fn,
                                      lambda a, k, pair: counters.batch(a, k, pair))
            return _ClockedBatches(self.calls[-1], next_fn)

        patch(trainer, "train", train)
        patch(trainer, "batches", batches)
        if tracer is not None:
            for module, attr, name in SPANS:
                owner = importlib.import_module(module)
                *cls, attr = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                observe = getattr(counters, _OBSERVERS[name]) if name in _OBSERVERS else None
                patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))
            logger = logging.getLogger("osslab.betamix")
            log_filter = BetamixLogCounter(counters)
            old_level = logger.level
            logger.setLevel(logging.DEBUG)
            logger.addFilter(log_filter)
            undo.append(lambda: logger.setLevel(old_level))
            undo.append(lambda: logger.removeFilter(log_filter))

        def uninstall():
            while undo:
                undo.pop()()

        return uninstall

    def trace_totals(self) -> dict | None:
        if self.tracer is None:
            return None
        return {"self_s": dict(self.tracer.self_s), "total_s": dict(self.tracer.total_s),
                "calls": dict(self.tracer.calls), "counters": dict(self.counters.sums),
                "rank_min": self.counters.rank_min}


def merge_totals(parts: list[dict]) -> dict:
    """Sum the trace totals of several child processes."""
    merged = {"self_s": defaultdict(float), "total_s": defaultdict(float),
              "calls": defaultdict(int), "counters": defaultdict(float), "rank_min": None}
    for part in parts:
        for key in ("self_s", "total_s", "calls", "counters"):
            for name, value in part[key].items():
                merged[key][name] += value
        if part["rank_min"] is not None:
            merged["rank_min"] = (part["rank_min"] if merged["rank_min"] is None
                                  else min(merged["rank_min"], part["rank_min"]))
    return merged


def layer_metrics(totals: dict, steps: int, baseline_step_s: float) -> dict[str, float]:
    """Per-layer metrics from merged trace totals over ``steps`` steps.

    ``baseline_step_s`` is the untraced time per step inside ``train``; the
    traced one is compared with it for the tracing overhead.
    """
    self_s, total_s, calls = totals["self_s"], totals["total_s"], totals["calls"]
    counters = totals["counters"]

    def per_step(value):
        return value / steps

    def mean(value, count):
        return value / count if count else 0.0

    out = {name: 1e3 * per_step(sum(self_s.get(s, 0.0) for s in spans))
           for name, spans in SELF_MS.items()}
    nn_s = sum(self_s.get(s, 0.0) for s in ("nn.forward", "nn.backward",
                                            "nn.h_forward", "nn.h_backward"))
    step_s = per_step(total_s[TRAIN_SPAN])
    n_evals = calls.get("trainer.evaluate_checkpoint", 0)
    out.update({
        "data.rows_per_step": per_step(counters.get("data.rows", 0.0)),
        "nn.forward_calls": per_step(calls.get("nn.forward", 0)),
        "nn.backward_calls": per_step(calls.get("nn.backward", 0)),
        "nn.param_copy_calls": per_step(sum(calls.get(s, 0) for s in SELF_MS["nn.param_copy_ms"])),
        "nn.mflop_per_step": per_step(counters.get("nn.flop", 0.0)) / 1e6,
        "nn.gflop_per_s": mean(counters.get("nn.flop", 0.0), nn_s) / 1e9,
        "subspace.score_calls": per_step(sum(calls.get(s, 0) for s in SELF_MS["subspace.score_ms"])),
        "subspace.basis_rank_min": float(totals["rank_min"] or 0),
        "betamix.pdf_calls": per_step(calls.get("betamix.beta_pdf", 0)),
        "betamix.underflow_events": counters.get("betamix.underflow_events", 0.0),
        "betamix.mom_clamp_events": counters.get("betamix.mom_clamp_events", 0.0),
        "losses.degenerate_cos": counters.get("losses.degenerate_cos", 0.0),
        "evaluation.evals": float(n_evals),
        "evaluation.eval_ms": 1e3 * mean(total_s.get("trainer.evaluate_checkpoint", 0.0), n_evals),
        "serialize.checkpoint_bytes": mean(counters.get("serialize.checkpoint_bytes", 0.0),
                                           calls.get("serialize.save_checkpoint", 0)),
        "trainer.output_bytes": mean(counters.get("trainer.output_bytes", 0.0),
                                     calls.get("trainer.write_run_outputs", 0)),
        "trainer.step_ms": 1e3 * step_s,
        "trainer.trace_overhead_pct": 100.0 * (step_s / baseline_step_s - 1.0),
    })
    return {name: out[name] for name in PER_LAYER}
