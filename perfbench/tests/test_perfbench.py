"""Tests of the benchmark harness itself (not of osslab)."""

import importlib
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from osslab import cli, trainer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {"K": 40, "K_p": 10, "input_dim": 12, "num_id_classes": 4, "num_ood_clusters": 4,
        "samples_per_class": 20, "labeled_per_class": 5, "hidden": "16", "feature_dim": 8,
        "B": 8, "mu": 2, "eval_every": 20, "seed": 3}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf(dt):
            clock.now += dt

        inner = tracer.wrap("inner", leaf)

        def middle():
            clock.now += 1.0
            inner(2.0)
            clock.now += 0.5
            inner(3.0)

        outer = tracer.wrap("outer", lambda: (middle(), leaf(4.0)))
        outer()
        assert tracer.total_s["outer"] == 10.5
        assert tracer.self_s["outer"] == 5.5
        assert tracer.self_s["inner"] == tracer.total_s["inner"] == 5.0
        assert tracer.calls == {"outer": 1, "inner": 2}

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise ValueError

        outer = tracer.wrap("outer", lambda: pytest.raises(ValueError, tracer.wrap("boom", boom)))
        outer()
        assert tracer.self_s["boom"] == 1.0
        assert tracer.self_s["outer"] == 0.0

    def test_every_span_counts_in_exactly_one_self_time_metric(self):
        spans = [name for _, _, name in tracing.SPANS] + [tracing.BATCH_SPAN, tracing.TRAIN_SPAN]
        assigned = [s for group in tracing.SELF_MS.values() for s in group]
        assert sorted(assigned) == sorted(spans)


class TestMetricNames:
    @pytest.fixture(scope="class")
    def spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)

    def test_names_and_units_follow_the_pattern(self, spec):
        entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
        names = [e["name"] for e in entries]
        assert len(set(names)) == len(names)
        assert all(NAME.match(n) for n in names)
        assert all(UNIT.match(e["unit"]) for e in spec["end_to_end"] + spec["per_layer"])

    def test_declared_metrics_are_the_printed_ones(self, spec):
        assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
        assert ({e["name"]: (e["unit"], e["better"]) for e in spec["per_layer"]}
                == tracing.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def run_cli(trace, out_dir):
    probe_ = tracing.Probe(trace)
    undo = probe_.install()
    try:
        argv = ["--out", str(out_dir), "train"]
        for key, value in TINY.items():
            argv += [f"--{key}", str(value)]
        assert cli.main(argv) == 0
    finally:
        undo()
    return probe_


class TestProbe:
    def test_untraced_run_patches_only_the_step_clock(self):
        owners = {}
        for module, attr, _ in tracing.SPANS:
            owner = importlib.import_module(module)
            *cls, attr = attr.split(".")
            owners[(owner, attr)] = getattr(owner, cls[0]) if cls else owner
        originals = {key: owner.__dict__[key[1]] for key, owner in owners.items()}
        train, batches = trainer.train, trainer.batches

        undo = tracing.Probe(trace=False).install()
        try:
            for key, owner in owners.items():
                assert owner.__dict__[key[1]] is originals[key], key
            assert trainer.train is not train and trainer.batches is not batches
        finally:
            undo()
        assert trainer.train is train and trainer.batches is batches

    def test_tracing_does_not_perturb_outputs(self, tmp_path):
        plain = run_cli(False, tmp_path / "plain")
        traced = run_cli(True, tmp_path / "traced")
        a, b = (probe.check_result(p.calls[0]["result"]) for p in (plain, traced))
        assert a["ok"] and b["ok"] and a["rows"] == TINY["K"]
        assert (a["metrics_sha256"], a["evals_sha256"]) == (b["metrics_sha256"], b["evals_sha256"])
        for p in (plain, traced):
            assert len(p.calls[0]["marks"]) == len(p.calls[0]["cpu_marks"]) == TINY["K"]

        tracer = traced.tracer
        assert plain.tracer is None and tracer.calls[tracing.TRAIN_SPAN] == 1
        # every span nests inside train, so self times add up to its duration
        assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s[tracing.TRAIN_SPAN])
        metrics = tracing.layer_metrics(traced.trace_totals(), TINY["K"], 1.0)
        assert sum(metrics[m] for m in tracing.SELF_MS) == pytest.approx(metrics["trainer.step_ms"])
        assert metrics["data.rows_per_step"] == TINY["B"] * (1 + 2 * TINY["mu"])
        assert metrics["evaluation.evals"] == 2


class TestTally:
    @staticmethod
    def child(seed, digest, calls=1):
        train = {"error": None, "ok": True, "metrics_sha256": digest, "evals_sha256": "e"}
        return {"seed": seed, "exit_code": 0, "report": {"trains": [train] * calls}}

    def test_differing_digest_for_one_seed_counts_as_failed(self):
        children = [self.child(1, "a"), self.child(1, "b"), self.child(2, "c")]
        attempted, failed, problems = run.tally(children, "paper_default")
        assert (attempted, failed) == (3, 1) and len(problems) == 1

    def test_child_without_report_counts_its_expected_calls(self):
        children = [self.child(1, "a", calls=8), {"seed": 2, "exit_code": 1, "report": None}]
        attempted, failed, _ = run.tally(children, "ablate_small")
        assert (attempted, failed) == (16, 8)


class TestStepTimes:
    @staticmethod
    def child(cpu_steps, wall_step=1.0):
        cpu = [0.0]
        for s in cpu_steps:
            cpu.append(cpu[-1] + s)
        train = {"K": len(cpu), "t0": 0.0, "t1": 1.0, "accuracy": 0.5, "auroc_subspace": 0.5,
                 "marks": [1.0 + i * wall_step for i in range(len(cpu))], "cpu_marks": cpu}
        return {"seed": 1, "t_spawn": 0.0, "wall_s": 2.0, "cpu_s": 1.0, "peak_rss_mb": 1.0,
                "report": {"trains": [train]}}

    def test_step_percentiles_use_the_cpu_clock_per_child(self):
        # the wall clock says 1 s per step; the CPU clock is what counts
        calm = [0.001] * 90 + [0.003] * 10
        burst = [0.001] * 90 + [0.020] * 10
        values = run.end_to_end([self.child(calm), self.child(calm), self.child(burst)])
        assert values["step_samples"] == 100
        assert values["step_ms_p50"] == pytest.approx(1.0)
        # the median over children leaves out the one whose tail a burst stretched
        assert values["step_ms_p99"] == pytest.approx(3.0)
