#!/usr/bin/env python
"""One-command reproduction: benchmark + gated benches + eval -> one manifest.

Stage one runs the repo benchmark (``benchmarks/e2e/run.py``, unmodified)
and reads its ``out/results.json`` back: every workload's ``correct`` /
``attempted`` / ``failed`` and four end-to-end metrics.  Then the three
``BENCH_*.json`` emitters that measure what no workload reaches (via
their shared ``--smoke`` / ``--json-out`` CLI) and a scaled-down slice
of the eval tables.  Everything is folded into a single machine-readable
**run manifest** (schema in :mod:`repro.obs.manifest`): environment and
host provenance, the benchmark block, per-bench seeds and key metrics,
deltas against the committed artifacts at the repository root, per-bench
floor verdicts, and self-describing flags for committed artifacts whose
recorded host invalidates a class of claims (e.g. parallel speedups
recorded on a single-core runner).

Floor verdicts come from two independent gates: the emitter's own exit
status and the shared :data:`repro.obs.manifest.BENCH_FLOORS` schema
re-applied to the fresh key metrics (so the manifest names the exact
bar that failed or was skipped on a starved host).  ``--against`` adds
run-over-run trend history: per-metric deltas versus a previous
manifest, recorded in the new manifest's ``trends`` block.

Usage::

    python scripts/reproduce_all.py --smoke            # CI: seconds-scale
    python scripts/reproduce_all.py                    # full sweeps (slow)
    python scripts/reproduce_all.py --smoke --out m.json --skip-eval
    python scripts/reproduce_all.py --smoke --against run_manifest.json

Exit status is the manifest verdict: 0 when the benchmark exited clean
with every output check passing, every bench ran, every committed
artifact was found and readable, and every floor held; 1 otherwise.  The
fresh reports are written next to the manifest (``<out>.reports/``) and
the benchmark's own output stays in ``benchmarks/e2e/out/``, so a failing
run leaves its evidence behind.  Committed ``BENCH_*.json`` artifacts
are **never** overwritten by this script — refreshing the trajectory
stays an explicit per-bench act.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.manifest import (  # noqa: E402 - path bootstrap above
    BENCH_FLOORS,
    GATED_BENCHES,
    artifact_flags,
    bench_deltas,
    build_manifest,
    check_floors,
    key_metrics,
    load_manifest,
    manifest_trends,
    new_run_id,
    provenance,
    save_manifest,
)

#: Eval slice: dataset name -> registry scale.  Small enough for the CI
#: slow lane, real enough to expose a scoring regression.
_EVAL_DATASETS_SMOKE = {"WT": 0.05, "Syn": 0.2, "JAB": 0.1}
_EVAL_DATASETS_FULL = {"WT": 0.2, "SS": 0.05, "Syn": 0.5, "JAB": 0.5}


def _bench_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


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


def run_bench(
    name: str, smoke: bool, report_dir: Path, cores: int | None = None
) -> dict:
    """Run one emitter subprocess; returns its manifest block.

    The emitter writes its fresh report to ``report_dir`` via
    ``--json-out`` (which never touches the committed artifact) and
    enforces its own floors by exit status — the report is emitted
    *before* the floors are judged, so a floor regression still leaves
    the numbers behind for the delta section.  On top of the emitter's
    exit status, the :data:`~repro.obs.manifest.BENCH_FLOORS` schema is
    re-applied here to the fresh key metrics, so the manifest records
    *which* bar failed (or was skipped on a starved host), not just that
    the subprocess exited non-zero.
    """
    script = REPO_ROOT / "benchmarks" / f"bench_{name}.py"
    report_path = report_dir / f"BENCH_{name}.json"
    cmd = [sys.executable, str(script), "--json-out", str(report_path)]
    if smoke:
        cmd.append("--smoke")
    print(f"[reproduce] {name}: {' '.join(cmd[1:])}", flush=True)
    proc = subprocess.run(
        cmd,
        cwd=REPO_ROOT,
        env=_bench_env(),
        capture_output=True,
        text=True,
    )
    block: dict = {"ran": False, "committed_artifact": "missing"}
    report = _read_json(report_path)
    if report is not None:
        block["ran"] = True
        block["seed"] = report.get("seed")
        block["metrics"] = key_metrics(report)
        block["flags"] = artifact_flags(report)
        block["provenance"] = report.get("provenance")
    schema = check_floors(name, block.get("metrics") or {}, cores=cores)
    emitter_ok = proc.returncode == 0 and report is not None
    if not emitter_ok:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()
        detail = " | ".join(tail[-3:]) if tail else "emitter failed"
    elif not schema["passed"]:
        detail = f"schema floors failed: {schema['detail']}"
    else:
        detail = f"emitter ok; schema: {schema['detail']}"
    block["floors"] = {
        "passed": emitter_ok and schema["passed"],
        "detail": detail,
        "schema": schema,
    }

    committed_path = REPO_ROOT / f"BENCH_{name}.json"
    committed = _read_json(committed_path)
    if committed is None:
        if committed_path.exists():
            block["committed_artifact"] = "unreadable"
        return block
    committed_metrics = key_metrics(committed)
    block["committed_artifact"] = "found"
    block["committed"] = {
        "metrics": committed_metrics,
        "provenance": committed.get("provenance"),
        "flags": artifact_flags(committed),
    }
    if report is not None:
        deltas = bench_deltas(block["metrics"], committed_metrics)
        deltas["scale_matches_committed"] = not (
            deltas["only_current"] or deltas["only_committed"]
        )
        block["deltas"] = deltas
    return block


def run_eval(datasets: dict[str, float], seed: int = 0) -> list[dict]:
    """Score the DTT surrogate on scaled registry datasets."""
    from repro.datagen.benchmarks.registry import get_dataset
    from repro.eval.runner import (
        DTTJoinerAdapter,
        evaluate_on_dataset,
        manifest_rows,
    )
    from repro.surrogate import PretrainedDTT

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
    for name, block in manifest["benches"].items():
        if not block.get("ran"):
            lines.append(f"  {name:<14s} DID NOT RUN")
            continue
        floors = "ok" if block["floors"]["passed"] else "FLOOR FAILED"
        flag_note = ""
        flags = (block.get("committed") or {}).get("flags") or []
        if flags:
            flag_note = f"  [committed artifact flags: {'; '.join(flags)}]"
        lines.append(
            f"  {name:<14s} {floors}  {block['floors']['detail']}{flag_note}"
        )
    for row in manifest["eval"]:
        lines.append(
            f"  eval {row['dataset']:<9s} {row['method']}: "
            f"F1 {row['f1']:.3f} over {row['tables']} tables"
        )
    trends = manifest.get("trends")
    if trends is not None:
        note = "" if trends["comparable"] else " [DIFFERENT MODE]"
        lines.append(
            f"trends vs {trends['against_run_id']} "
            f"({trends['against_mode']}){note}"
        )
        for name, block in trends["benches"].items():
            for spec in BENCH_FLOORS[name]:
                row = block["metrics"].get(spec["metric"])
                if row is None:
                    continue
                lines.append(
                    f"  {name:<14s} {spec['metric']} {row['current']:.2f} "
                    f"was {row['previous']:.2f} (delta {row['delta']:+.2f})"
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
        help="seconds-scale sweeps with the emitters' CI floors enforced",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "run_manifest.json",
        help="manifest destination (fresh bench reports land in "
        "<out>.reports/)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=GATED_BENCHES,
        help="run only these benches (repeatable; missing ones still "
        "fail the verdict — a partial run is not a reproduction)",
    )
    parser.add_argument(
        "--skip-eval",
        action="store_true",
        help="skip the eval-table slice",
    )
    parser.add_argument(
        "--against",
        type=Path,
        default=None,
        help="previous manifest to trend against; the new manifest "
        "gains a 'trends' block with per-metric run-over-run deltas "
        "(read before --out is written, so trending against the "
        "manifest being replaced works)",
    )
    args = parser.parse_args(argv)

    # Load the trend baseline up front: it fails fast on a schema
    # mismatch, and --against may name the very file --out overwrites.
    previous = (
        load_manifest(args.against) if args.against is not None else None
    )

    report_dir = args.out.with_name(args.out.name + ".reports")
    report_dir.mkdir(parents=True, exist_ok=True)
    selected = args.bench or list(GATED_BENCHES)
    environment = provenance()

    benchmark = run_benchmark(args.smoke)
    benches = {
        name: run_bench(
            name,
            smoke=args.smoke,
            report_dir=report_dir,
            cores=environment["cpu_affinity"],
        )
        for name in selected
    }
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
        benches=benches,
        eval_rows=eval_rows,
        mode="smoke" if args.smoke else "full",
    )
    if previous is not None:
        manifest["trends"] = manifest_trends(manifest, previous)
    save_manifest(manifest, args.out)
    print(_render_summary(manifest))
    print(f"[reproduce] manifest written to {args.out}")
    return 0 if manifest["verdict"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
