"""The osslab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each child process (``probe.py``) calls
``osslab.cli.main`` with the workload's flags, one ``train`` at a time, and
children run one after another until the next one would end past
``--seconds`` (a run has at least four). The workload seed picks the osslab
``--seed`` of each child: the first two children share one seed, so their
outputs must be identical, and every later child gets a fresh seed, so
quality is a median over seeds. BLAS runs on one thread in every child.

``--trace 0`` reports the end-to-end metrics; the only instrumentation is
one read of the wall and the thread CPU clock per step. ``--trace 1`` runs
one untraced child, then traced children, and reports per-layer self times
and counts. Every run checks the outputs of each ``train`` call. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give the environment, the
configs, the output digests and each metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (sibling module; imports neither numpy nor osslab)

BLAS_THREADS = 1
RUN_LIMIT_S = 170.0   # a run must end within 180 s, child kills included

# Why each workload: see BENCHMARK.json. The flags are all the program sees
# besides --seed and --out.
WORKLOADS = {
    "paper_default": ("train", {"K": 2000, "K_p": 200}),
    "wide_mlp": ("train", {"K": 100, "K_p": 10, "input_dim": 128, "hidden": "256,256",
                           "feature_dim": 64, "num_id_classes": 16, "num_ood_clusters": 16,
                           "B": 128, "mu": 7}),
    # the acceptance gate's ABLATION config, shortened, with frequent evaluation
    "ablate_small": ("ablate", {"cluster_separation": 3.0, "labeled_per_class": 8,
                                "samples_per_class": 100, "w_self": 5.0, "K": 200,
                                "K_p": 100, "eval_every": 50}),
}
TRAINS_PER_CHILD = {"train": 1, "ablate": 8}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "auroc_subspace": "fraction",
}
QUALITY = ("accuracy", "auroc_subspace")
# Quality comes from the first children only, so it depends on --seed alone
# and not on how many children fit in --seconds: children 0 and 1 share a
# seed, so four children give three seeds.
QUALITY_CHILDREN = 4


def osslab_seed(seed: int, child: int) -> int:
    """Children 0 and 1 repeat one seed; later children get fresh ones."""
    return seed * 100 + max(child - 1, 0)


def osslab_argv(workload: str, seed: int, out_dir: str) -> list[str]:
    command, flags = WORKLOADS[workload]
    argv = ["--out", out_dir, command]
    for key, value in {**flags, "seed": seed}.items():
        argv += [f"--{key}", str(value)]
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def run_child(workload: str, seed: int, trace: bool, work_dir: str, timeout_s: float) -> dict:
    """Run one probe child to completion; returns timings, rusage and report."""
    os.makedirs(work_dir)
    report_path = os.path.join(work_dir, "report.json")
    argv = [sys.executable, os.path.join(HERE, "probe.py"), report_path, str(int(trace)), "--",
            *osslab_argv(workload, seed, os.path.join(work_dir, "out"))]
    with open(os.path.join(work_dir, "stdout"), "wb") as out, \
            open(os.path.join(work_dir, "stderr"), "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=work_dir)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"seed": seed, "exit_code": proc.returncode, "t_spawn": t_spawn,
             "wall_s": t_exit - t_spawn, "cpu_s": usage.ru_utime + usage.ru_stime,
             "peak_rss_mb": usage.ru_maxrss / 1024.0, "report": None}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            child["report"] = json.load(fh)
    if proc.returncode != 0:
        with open(os.path.join(work_dir, "stderr"), errors="replace") as fh:
            sys.stderr.write(f"child seed {seed} exited {proc.returncode}:\n{fh.read()[-2000:]}\n")
    shutil.rmtree(work_dir)
    return child


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def tally(children: list[dict], workload: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every train call of every child.

    A call fails if it raised, if its outputs fail the checks, or if its
    digests differ from an earlier call with the same seed and position.
    """
    expected = TRAINS_PER_CHILD[WORKLOADS[workload][0]]
    attempted = failed = 0
    problems = []
    first_digest = {}
    for child in children:
        trains = child["report"]["trains"] if child["report"] else []
        attempted += max(len(trains), expected)
        bad = expected - len(trains) if child["exit_code"] != 0 else 0
        for i, t in enumerate(trains):
            if t["error"] or not t.get("ok"):
                bad += 1
                problems.append(f"seed {child['seed']} call {i}: error={t['error']} ok={t.get('ok')}")
                continue
            digest = (t["metrics_sha256"], t["evals_sha256"])
            if first_digest.setdefault((child["seed"], i), digest) != digest:
                bad += 1
                problems.append(f"seed {child['seed']} call {i}: digest differs between runs")
        if child["exit_code"] != 0:
            bad = max(bad, 1)
            problems.append(f"seed {child['seed']}: exit code {child['exit_code']}")
        failed += bad
    return attempted, failed, problems


def step_times(child: dict) -> list[float]:
    """Ascending step times of one child, in seconds of its thread's CPU time.

    A step is the interval between two ``batches`` clock reads. The thread
    CPU clock stops while the host deschedules the thread; on a shared VM
    that happens to about 1% of steps and adds several ms to each, so on
    the wall clock the 99th percentile would measure the host's load rather
    than the program. BLAS runs on the calling thread, so the CPU clock sees
    all of a step's work.
    """
    return sorted(b - a for t in child["report"]["trains"]
                  for a, b in zip(t["cpu_marks"], t["cpu_marks"][1:]))


def child_metrics(child: dict) -> dict[str, float]:
    """End-to-end metrics of one child process."""
    trains = child["report"]["trains"]
    steps = step_times(child)
    first = trains[0]  # in an ablation, the full/sampled-mask arm
    return {
        "setup_s": first["marks"][0] - child["t_spawn"],
        "wall_s": child["wall_s"],
        "steps_per_s": sum(t["K"] for t in trains) / sum(t["t1"] - t["t0"] for t in trains),
        "step_ms_p50": 1e3 * percentile(steps, 0.50),
        "step_ms_p99": 1e3 * percentile(steps, 0.99),
        "cpu_s": child["cpu_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "accuracy": first["accuracy"],
        "auroc_subspace": first["auroc_subspace"],
        "step_samples": len(steps),
    }


def end_to_end(children: list[dict]) -> dict[str, float]:
    """Each metric over the run's children; quality counts each seed once.

    The machine's speed switches between two levels about 1.5x apart for
    seconds to minutes at a time, so one child's timings are one sample. A
    child's median step time sits at one level or the other, so the run
    reports its mean over children, which moves in proportion to the time
    spent at each level; every other metric is the median over children,
    so a child whose tail a burst of host load stretched does not move
    ``step_ms_p99``.
    """
    per_child = [child_metrics(c) for c in children]
    per_seed = list({c["seed"]: m for c, m in
                     zip(children[:QUALITY_CHILDREN], per_child)}.values())
    out = {name: statistics.median(m[name] for m in
                                   (per_seed if name in QUALITY else per_child))
           for name in [*END_TO_END, "step_samples"]}
    out["step_ms_p50"] = statistics.mean(m["step_ms_p50"] for m in per_child)
    return out


def steps_and_seconds(children: list[dict]) -> tuple[int, float]:
    trains = [t for c in children for t in c["report"]["trains"]]
    return sum(t["K"] for t in trains), sum(t["t1"] - t["t0"] for t in trains)


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def src_sha256() -> str:
    """Digest of the osslab sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "osslab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, work_root: str) -> dict:
    # compile osslab's bytecode and warm the file cache outside the timed children
    subprocess.run([sys.executable, "-c", "import osslab.cli"], env=child_env(),
                   check=True, cwd=work_root)
    start = time.monotonic()
    deadline = start + seconds
    children: list[dict] = []
    while True:
        index = len(children)
        traced = trace and index > 0   # a traced run starts with one untraced child
        timeout = start + RUN_LIMIT_S - time.monotonic()
        children.append(run_child(workload, osslab_seed(seed, index), traced,
                                  os.path.join(work_root, f"child{index}"), timeout))
        if children[-1]["report"] is None or children[-1]["exit_code"] != 0:
            break
        longest = max(c["wall_s"] for c in children)
        enough = len(children) >= (2 if trace else QUALITY_CHILDREN)
        if enough and time.monotonic() + longest > deadline:
            break
    return {"children": children, "measured_s": time.monotonic() - start}


def emit(line: str = "") -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "osslab", "cli.py")):
        print(f"error: no osslab sources at {SRC}; run from an osslab checkout",
              file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(work_root)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still uses it
    children = run["children"]
    attempted, failed, problems = tally(children, args.workload)
    reports = [c["report"] for c in children if c["report"]]
    usable = [c for c in children if c["report"] and c["report"]["trains"]
              and c["exit_code"] == 0]

    first = reports[0] if reports else {}
    command, flags = WORKLOADS[args.workload]
    emit("env " + json.dumps({
        "git_sha": git_sha(), "src_sha256": src_sha256(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **first.get("versions", {}), "blas_threads": BLAS_THREADS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "children": len(children),
        "osslab_seeds": [c["seed"] for c in children],
        "measured_s": round(run["measured_s"], 3),
    }))
    emit(f"workload {args.workload}: osslab {command} "
         + " ".join(f"--{k} {v}" for k, v in flags.items()))
    emit(f"config_hash {first.get('config_hash')}")
    for line in first.get("config_text", "").splitlines():
        emit(f"  {line}")
    for c in children:
        for i, t in enumerate((c["report"] or {}).get("trains", [])):
            emit(f"digest seed={c['seed']} call={i} metrics.csv={t.get('metrics_sha256')} "
                 f"evals.csv={t.get('evals_sha256')}")
    for p in problems:
        emit(f"problem {p}")

    correct = not problems and len(usable) == len(children)
    metrics: dict[str, dict] = {}
    if correct and not args.trace:
        values = end_to_end(children)
        emit(f"step-time samples per child (median) {values['step_samples']}, "
             f"on the thread CPU clock")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif correct:
        base_steps, base_s = steps_and_seconds(children[:1])
        steps, _ = steps_and_seconds(children[1:])
        totals = tracing.merge_totals([c["report"]["trace"] for c in children[1:]])
        values = tracing.layer_metrics(totals, steps, base_s / base_steps)
        accounted = sum(values[name] for name in tracing.SELF_MS) / values["trainer.step_ms"]
        eval_share = (values["evaluation.evals"] * values["evaluation.eval_ms"]
                      / (steps * values["trainer.step_ms"]))
        nn_share = (values["nn.forward_ms"] + values["nn.backward_ms"]) / values["trainer.step_ms"]
        emit(f"traced steps {steps}; self times + glue = {100 * accounted:.2f}% of step time; "
             f"nn forward+backward {100 * nn_share:.1f}% of step time; "
             f"evaluation {100 * eval_share:.2f}% of train time")
        correct = abs(accounted - 1.0) <= 0.02
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    for name, m in metrics.items():
        emit(f"metric {name} = {m['value']:.6g} {m['unit']}")
    emit(f"failed_ops {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
