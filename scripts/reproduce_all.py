#!/usr/bin/env python
"""One-command reproduction: repo benchmark + eval slice -> one manifest.

Stage one runs the repo benchmark (``benchmarks/e2e/run.py``, unmodified)
and reads its ``out/results.json`` back: every workload's ``correct`` /
``attempted`` / ``failed`` and four end-to-end metrics.  Stage two
scores a scaled-down slice of the eval tables.  Both are folded into a
single machine-readable **run manifest** (schema in
:mod:`repro.obs.manifest`): environment and host provenance, the
benchmark block and the eval rows.

Usage::

    python scripts/reproduce_all.py --smoke            # CI: toy scale
    python scripts/reproduce_all.py                    # full scale (slow)
    python scripts/reproduce_all.py --smoke --out m.json --skip-eval

Exit status is the manifest verdict, which reads the benchmark block
only: 0 when the benchmark exited clean with every output check
passing; 1 otherwise.  The benchmark's own output stays in
``benchmarks/e2e/out/``, so a failing run leaves its evidence behind.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.manifest import (  # noqa: E402 - path bootstrap above
    build_manifest,
    new_run_id,
    provenance,
    save_manifest,
)

#: Eval slice: dataset name -> registry scale.  Small enough for the CI
#: slow lane, real enough to expose a scoring regression.
_EVAL_DATASETS_SMOKE = {"WT": 0.05, "Syn": 0.2, "JAB": 0.1}
_EVAL_DATASETS_FULL = {"WT": 0.2, "SS": 0.05, "Syn": 0.5, "JAB": 0.5}


def _read_json(path: Path) -> dict | None:
    """The JSON object at ``path``, or ``None`` when it is not one."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def run_benchmark(smoke: bool) -> dict:
    """Run the repo benchmark as a subprocess; returns its manifest block.

    ``run.py`` checks its own outputs (brute joiner sample, full-prefix
    decode, direct pipeline calls and, at full scale, golden digests)
    and says so per workload in ``out/results.json``; this only reads
    that back.  A result file left by an earlier run is removed first,
    so a run that dies before writing one cannot pass on stale numbers.
    """
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    results_path = REPO_ROOT / contract["paths"][0] / "out" / "results.json"
    results_path.unlink(missing_ok=True)
    cmd = list(contract["command"]) + (["--smoke"] if smoke else [])
    print(f"[reproduce] benchmark: {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, cwd=REPO_ROOT)
    results = _read_json(results_path) or {}
    workloads = {}
    for name, outcome in (results.get("workloads") or {}).items():
        run = outcome["end_to_end"]
        workloads[name] = {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {m: v["value"] for m, v in run["metrics"].items()},
        }
    return {
        "exit_code": proc.returncode,
        "git_commit": results.get("git_commit"),
        "seed": results.get("seed"),
        "workloads": workloads,
    }


def run_eval(datasets: dict[str, float], seed: int = 0) -> list[dict]:
    """Score the DTT surrogate on scaled registry datasets."""
    from repro.datagen.benchmarks.registry import get_dataset
    from repro.eval.runner import (
        DTTJoinerAdapter,
        evaluate_on_dataset,
        manifest_rows,
    )
    from repro.surrogate.pretrained import PretrainedDTT

    reports = []
    for name, scale in datasets.items():
        print(f"[reproduce] eval: {name} (scale {scale})", flush=True)
        tables = get_dataset(name, seed=seed, scale=scale)
        adapter = DTTJoinerAdapter(
            PretrainedDTT(seed=seed), name="DTT", seed=seed
        )
        reports.append(evaluate_on_dataset(adapter, tables))
    return manifest_rows(reports)


def _render_summary(manifest: dict) -> str:
    lines = [
        f"run {manifest['run_id']} ({manifest['mode']}) on "
        f"{manifest['environment']['platform']} "
        f"[{manifest['environment']['cpu_affinity']} cores granted]"
    ]
    for name, outcome in manifest["benchmark"]["workloads"].items():
        checks = (
            f"{outcome['attempted']} checks ok"
            if outcome["correct"]
            else f"{outcome['failed']} of {outcome['attempted']} CHECKS FAILED"
        )
        metrics = "  ".join(
            f"{metric} {value:.4g}"
            for metric, value in outcome["metrics"].items()
        )
        lines.append(f"  {name:<24s} {checks}  {metrics}")
    for row in manifest["eval"]:
        lines.append(
            f"  eval {row['dataset']:<9s} {row['method']}: "
            f"F1 {row['f1']:.3f} over {row['tables']} tables"
        )
    verdict = manifest["verdict"]
    lines.append(
        "VERDICT: PASS"
        if verdict["passed"]
        else "VERDICT: FAIL\n    " + "\n    ".join(verdict["failures"])
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the benchmark's toy-scale run and the smaller eval slice",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "run_manifest.json",
        help="manifest destination",
    )
    parser.add_argument(
        "--skip-eval",
        action="store_true",
        help="skip the eval-table slice",
    )
    args = parser.parse_args(argv)

    environment = provenance()
    benchmark = run_benchmark(args.smoke)
    eval_rows: list[dict] = []
    if not args.skip_eval:
        datasets = (
            _EVAL_DATASETS_SMOKE if args.smoke else _EVAL_DATASETS_FULL
        )
        eval_rows = run_eval(datasets)

    manifest = build_manifest(
        run_id=new_run_id(),
        environment=environment,
        benchmark=benchmark,
        eval_rows=eval_rows,
        mode="smoke" if args.smoke else "full",
    )
    save_manifest(manifest, args.out)
    print(_render_summary(manifest))
    print(f"[reproduce] manifest written to {args.out}")
    return 0 if manifest["verdict"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
