"""``scripts/digests.py``: the small-config cases give the same bytes twice.

No digest is pinned: they depend on the numpy and BLAS build.
"""

import hashlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "scripts" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_cases_are_byte_identical_across_runs():
    digests = load_script()
    first = digests.digests(digests.SRC, digests.TINY_CASES)
    assert first == digests.digests(digests.SRC, digests.TINY_CASES)
    # every command of every case exited 0 and wrote its outputs
    writes = {"train": {"metrics.csv", "evals.csv", "checkpoint.txt"}, "eval": set(),
              "emit-plot-data": {"metrics_long.csv"}, "ablate": {"ablation.json"},
              "sweep": set()}
    for case, commands in digests.TINY_CASES.items():
        names = {path.rsplit("/", 1)[-1] for c, path in first if c == case}
        assert {f"stdout{i}_{argv[0]}_exit0.txt" for i, argv in enumerate(commands)} <= names
        assert set().union(*(writes[argv[0]] for argv in commands)) <= names
        # a sweep writes its rows to a file named by its axis
        assert {f"sweep_{argv[argv.index('--axis') + 1]}.json"
                for argv in commands if argv[0] == "sweep"} <= names


def test_a_failed_child_is_reported_and_the_other_cases_run(monkeypatch, capsys):
    digests = load_script()
    # an unknown subcommand is an argparse usage error: the child exits 2
    cases = {"bad": [["no-such-command"]], "good": [["train", *digests.flags(digests.TINY)]]}
    monkeypatch.setattr(digests, "TINY_CASES", cases)
    assert digests.main(["--tiny"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"bad {digests.CHILD_FAILED} exit2" in out
    assert any(line.startswith("good ") and "/metrics.csv " in line for line in out)


def test_an_error_message_is_a_file(monkeypatch, capsys):
    digests = load_script()
    cases = {"rejected": [["train", *digests.flags({**digests.TINY, "p_drop": 1.5})]]}
    monkeypatch.setattr(digests, "TINY_CASES", cases)
    assert digests.main(["--tiny"]) == 0
    message = b"error: invalid config: p_drop must be in [0, 1]\n"
    assert capsys.readouterr().out.splitlines() == [
        f"rejected stderr0_train_exit1.txt {hashlib.sha256(message).hexdigest()[:16]}",
        f"rejected stdout0_train_exit1.txt {hashlib.sha256(b'').hexdigest()[:16]}"]
