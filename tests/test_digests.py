"""``scripts/digests.py``: the small-config cases give the same bytes twice.

No digest is pinned: they depend on the numpy and BLAS build.
"""

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
    for case, commands in digests.TINY_CASES.items():
        names = {path.rsplit("/", 1)[-1] for c, path in first if c == case}
        assert {f"stdout{i}_{argv[0]}_exit0.txt" for i, argv in enumerate(commands)} <= names
        assert ({"ablation.json"} if commands[0][0] == "ablate" else
                {"metrics.csv", "evals.csv", "checkpoint.txt", "metrics_long.csv"}) <= names
