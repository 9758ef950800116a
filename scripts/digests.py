"""Digests of every file that a fixed set of osslab commands writes.

    python3 scripts/digests.py [--tiny] [--against REV]

Each case is a list of ``osslab`` commands run in order through
``osslab.cli.main`` in one fresh temporary ``--out`` directory, each command
in its own child process with BLAS on one thread, as separate ``osslab``
invocations would run. The script prints one line per output file, ``case
path sha256[:16]``. A command's stdout counts as a file, named with the
command's exit code, with the output directory written as ``<out>``. So do
its stderr lines that start with ``error: `` or ``runtime failure: `` (the
CLI's messages for exit codes 1 and 2), if there are any; log records and
tracebacks are left out, since they carry source paths and line numbers.

A case one of whose child processes fails (an uncaught exception, or an
argparse usage error from a command that side does not know) is reported as
one file, ``child-failed``, whose digest is ``exit<code>``; the case's later
commands are not run, the other cases still run, and the script exits 1.

``--tiny`` runs only the cases on the small test config. ``--against REV``
also runs the cases on the ``src/`` of git revision REV of this repository,
exported with ``git archive`` (nothing is fetched), prints each file whose
digest differs or that only one side wrote, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

TINY = {"input_dim": 12, "num_id_classes": 4, "num_ood_clusters": 4,
        "samples_per_class": 20, "labeled_per_class": 5, "hidden": "16",
        "feature_dim": 8, "K": 60, "K_p": 20, "B": 8, "mu": 2, "eval_every": 30, "seed": 3}


def flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", str(value))]


def workload_cases() -> dict:
    """The benchmark's workloads (perfbench/run.py), at its first child's seed."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run  # imports neither numpy nor osslab
    return {name: [[command, *flags({**values, "seed": run.osslab_seed(5, 0)})]]
            for name, (command, values) in run.WORKLOADS.items()}


CHILD_FAILED = "child-failed"

# case name -> commands
TINY_CASES = {
    "tiny": [["train", *flags(TINY)], ["emit-plot-data", *flags(TINY)]],
    "tiny_eval": [["train", *flags(TINY)], ["eval", *flags(TINY)]],
    # 2,400-row test splits: evaluation and the plot histogram score each one
    # in two blocks
    "tiny_big_split": [[command, *flags({**TINY, "samples_per_class": 600})]
                       for command in ("train", "eval", "emit-plot-data")],
    "tiny_sweep": [["sweep", "--axis", "seed", "--values", "3,4", *flags(TINY)]],
    # any config key is a sweep axis
    "tiny_sweep_eta0": [["sweep", "--axis", "eta0", "--values", "0.01,0.03", *flags(TINY)]],
    **{f"tiny_ablate_Kp{k_p}": [["ablate", *flags({**TINY, "K_p": k_p})]]
       for k_p in (0, 20, 25, 60)},
    # a stored warm-up whose rule is not the default one
    "tiny_ablate_otsu": [["ablate", *flags(TINY), "--decision_rule", "otsu_threshold"]],
    # no evaluation before K: the test splits are first drawn by the final one
    "tiny_eval_at_end": [[command, *flags({**TINY, "eval_every": 100})]
                         for command in ("train", "eval", "emit-plot-data")],
    # an evaluation after every step: 60 evaluations' rows
    "tiny_eval_every1": [[command, *flags({**TINY, "eval_every": 1})]
                         for command in ("train", "eval", "emit-plot-data")],
}


SHORT = ["--K", "300", "--K_p", "100"]

# one out-of-range value per range check of TrainingConfig's loss weights,
# schedule, augmentation, dataset, mixture, decision rule, class means and
# optimizer; each train exits 1 before it writes anything
REJECTED = {"p_drop": 1.5, "eta0": "nan", "K_p": 61, "gamma": 0, "w_semi": -1,
            "w_self": "nan", "w_sub": -1, "w_reg": "inf", "tau": 0,
            "ood_fraction": 1.0, "labeled_per_class": 21, "cluster_spread": 0,
            "cluster_separation": "inf", "num_ood_clusters": 0, "seed": -1,
            "pi": 1.0, "epsilon": -1, "lambda_beta": 1.5, "decision_rule": "bogus",
            "otsu_momentum": 2, "lambda_means": 2, "momentum": 1.0, "ema_momentum": 2}

# every setting that the mixture, the decision, the class means and the
# optimizer read, each off its default
SETTINGS = {"decision_rule": "otsu_threshold", "pi": 0.6, "epsilon": 0.05,
            "lambda_beta": 0.99, "otsu_momentum": 0.99, "lambda_means": 0.99,
            "momentum": 0.8, "ema_momentum": 0.99}


def all_cases() -> dict:
    return {**TINY_CASES, **workload_cases(),
            "tiny_relu": [["train", *flags(TINY), "--activation", "relu"]],  # exits 2
            # a run that blows up (train exits 2), and what reads its run dir
            "tiny_blowup": [[command, *flags({**TINY, "eta0": 1e8})]
                            for command in ("train", "eval", "emit-plot-data")],
            # the same under the Otsu rule, whose EMA the failed step writes back
            "tiny_blowup_otsu": [[command, *flags({**TINY, "eta0": 1e8,
                                                    "decision_rule": "otsu_threshold"})]
                                 for command in ("train", "eval", "emit-plot-data")],
            # a blow-up in the evaluation after step 0 (every command exits 2)
            "tiny_blowup_eval": [[command, *flags({**TINY, "eta0": 1e200, "eval_every": 1})]
                                 for command in ("train", "eval", "emit-plot-data")],
            "default_K2000": [["train", "--K", "2000", "--K_p", "200", "--seed", "0"]],
            "short_otsu": [["train", *SHORT, "--decision_rule", "otsu_threshold"]],
            "short_direct": [["train", *SHORT, "--decision_rule", "direct_weight"]],
            "short_no_self_no_sub": [["train", *SHORT, "--w_self", "0", "--w_sub", "0"]],
            "short_epsilon0": [["train", *SHORT, "--epsilon", "0"]],
            "short_relu": [["train", *SHORT, "--activation", "relu"]],
            "short_settings": [["train", *SHORT, *flags(SETTINGS)]],
            "readme_ablate": [["ablate", "--K", "2000", "--K_p", "1000"]],
            "config_rejections": [["train", *flags({**TINY, key: value})]
                                  for key, value in REJECTED.items()],
            "unknown_key": [["train", "--bogus", "1"],
                            ["sweep", "--axis", "bogus", "--values", "1"]]}


# the stderr lines that are saved: the CLI's messages for exit codes 1 and 2
MESSAGE_PREFIXES = ("error: ", "runtime failure: ")


def run_command(out_dir: str, i: int, argv: list[str]) -> None:
    """The child process: run a case's command ``i``, saving its stdout, and
    its stderr's ``MESSAGE_PREFIXES`` lines if it printed any."""
    import osslab
    from osslab import cli
    if not os.path.abspath(osslab.__file__).startswith(os.environ["PYTHONPATH"] + os.sep):
        raise ImportError(f"osslab imported from {osslab.__file__}")
    # bound to the real stderr here, so cli.main's basicConfig adds no handler
    # and log records (which carry source paths) stay out of the captured text
    logging.basicConfig(level=logging.INFO)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["--out", out_dir, *argv])
    files = {"stdout": stdout.getvalue()}
    messages = [line for line in stderr.getvalue().splitlines(keepends=True)
                if line.startswith(MESSAGE_PREFIXES)]
    if messages:
        files["stderr"] = "".join(messages)
    for stream, text in files.items():
        with open(os.path.join(out_dir, f"{stream}{i}_{argv[0]}_exit{code}.txt"), "w") as fh:
            fh.write(text.replace(out_dir, "<out>"))


def digest_case(src: str, commands: list[list[str]]) -> dict[str, str]:
    """path -> sha256[:16] of every file the commands write, run on ``src``;
    ``{CHILD_FAILED: "exit<code>"}`` if a child process fails."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as out_dir:
        for i, argv in enumerate(commands):
            child = subprocess.run([sys.executable, __file__, "--child", out_dir, str(i),
                                    json.dumps(argv)], env=env, cwd=out_dir,
                                   stderr=subprocess.PIPE, text=True)
            if child.returncode:
                print(f"{argv} on {src} failed:\n{child.stderr[-2000:]}", file=sys.stderr)
                return {CHILD_FAILED: f"exit{child.returncode}"}
        found = {}
        for parent, _, names in os.walk(out_dir):
            for name in names:
                path = os.path.join(parent, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return dict(sorted(found.items()))


def digests(src: str, cases: dict) -> dict[tuple[str, str], str]:
    return {(case, path): digest for case, commands in cases.items()
            for path, digest in digest_case(src, commands).items()}


def export_src(rev: str, into: str) -> str:
    """REV's ``src/`` under ``into``, from the local repository."""
    tar = os.path.join(into, "src.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "-o", tar, rev, "src"], check=True)
    subprocess.run(["tar", "-xf", tar, "-C", into], check=True)
    return os.path.join(into, "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="the small-config cases only")
    parser.add_argument("--against", metavar="REV", help="compare with git revision REV")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        out_dir, i, command = args.child
        run_command(out_dir, int(i), json.loads(command))
        return 0

    cases = TINY_CASES if args.tiny else all_cases()
    here = digests(SRC, cases)
    for (case, path), digest in here.items():
        print(f"{case} {path} {digest}")
    failed = any(path == CHILD_FAILED for _, path in here)
    if not args.against:
        return 1 if failed else 0
    with tempfile.TemporaryDirectory() as tmp:
        there = digests(export_src(args.against, tmp), cases)
    differ = [key for key in sorted(here.keys() | there.keys()) if here.get(key) != there.get(key)]
    for case, path in differ:
        print(f"differs {case} {path}: {there.get((case, path))} at {args.against}, "
              f"{here.get((case, path))} here")
    print(f"{len(here)} files here, {len(there)} at {args.against}, {len(differ)} differ")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
