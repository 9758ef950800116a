"""One benchmark child process: run ``osslab.cli.main`` once, instrumented.

    python3 perfbench/probe.py REPORT TRACE -- OSSLAB_ARGS...

TRACE is 0 (step clock only) or 1 (spans and counters too). After the CLI
returns, the probe checks every ``train`` call's outputs and writes a JSON
report to REPORT; the process exits with the CLI's exit code. The osslab
package must come from ``src/`` of the checkout holding this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def check_result(result) -> dict:
    """Output checks and digests for one TrainResult.

    ``metrics.csv`` must have K rows whose numeric cells are finite; the
    ``threshold`` column is NaN by design unless the Otsu rule runs. Every
    accuracy and AUROC in ``evals.csv`` must lie in [0, 1], and the final
    step must be evaluated.
    """
    config = result.config
    steps_csv = result.runlog.steps_csv()
    evals_csv = result.runlog.evals_csv()
    header, *rows = steps_csv.splitlines()
    columns = header.split(",")
    otsu = config.decision_rule == "otsu_threshold"
    numeric = [i for i, c in enumerate(columns)
               if c != "mask_hash" and (c != "threshold" or otsu)]
    finite = all(math.isfinite(float(cells[i]))
                 for cells in (r.split(",") for r in rows) for i in numeric)

    header, *eval_rows = evals_csv.splitlines()
    columns = header.split(",")
    acc_i, auroc_i, step_i = (columns.index(c) for c in ("closed_set_accuracy", "auroc", "step"))
    evals = [r.split(",") for r in eval_rows]
    in_unit = all(0.0 <= float(e[i]) <= 1.0 for e in evals for i in (acc_i, auroc_i))
    final = any(int(e[step_i]) == config.K for e in evals)
    return {
        "K": config.K,
        "rows": len(rows),
        "ok": len(rows) == config.K and finite and in_unit and final,
        "metrics_sha256": hashlib.sha256(steps_csv.encode()).hexdigest(),
        "evals_sha256": hashlib.sha256(evals_csv.encode()).hexdigest(),
        "accuracy": result.summary["closed_set_accuracy"],
        "auroc_subspace": result.summary["auroc"]["subspace"],
    }


def _file_sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run(report_path: str, trace: bool, argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    import osslab
    if not os.path.abspath(osslab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"osslab imported from {osslab.__file__}, not from {SRC}")
    from osslab import cli
    from tracing import Probe

    probe = Probe(trace)
    uninstall = probe.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        uninstall()
        trains = [{k: call[k] for k in ("K", "t0", "t1", "marks", "cpu_marks", "error")}
                  for call in probe.calls]
        results = [call["result"] for call in probe.calls if call["result"] is not None]
        for entry, call in zip(trains, probe.calls):
            if call["result"] is None:
                continue
            entry.update(check_result(call["result"]))
            run_dir = call["run_dir"]
            if run_dir:
                # what the CLI wrote must be what the run logged
                entry["ok"] = entry["ok"] and (
                    _file_sha256(os.path.join(run_dir, "metrics.csv")) == entry["metrics_sha256"]
                    and _file_sha256(os.path.join(run_dir, "evals.csv")) == entry["evals_sha256"])
        report = {"exit_code": code, "trains": trains, "trace": probe.trace_totals(),
                  "versions": versions()}
        if results:
            config = results[0].config
            report["config_text"] = config.to_text()
            report["config_hash"] = config.config_hash()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] not in ("0", "1") or sys.argv[3] != "--":
        sys.exit("usage: probe.py REPORT TRACE -- OSSLAB_ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
