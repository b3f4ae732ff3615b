"""The repo benchmark: four workloads, end to end and layer by layer.

Driver form (one workload, one JSON object as the last line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Human form (every workload unless one is named)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--traced]
                                  [--repeat N] [--smoke]

Every metric is printed as ``workload metric value unit``.  ``--trace 0``
measures the end-to-end metrics with sampling off; ``--trace 1`` (or
``--traced``) repeats the workload with spans recorded and prints the
per-layer ledger.  ``--repeat N`` runs two sets of N untraced runs and
exits non-zero when their medians disagree by more than a metric's
bound.  ``--smoke`` runs everything at toy scale.

Each run is executed in child processes of this script: set-up is
timed from process launch to ready, in fresh interpreters, several
times per run (the median is ``setup_s``); the last child goes on to
measure.  See README.md in this directory for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
OUT_DIR = _HERE / "out"
GOLDEN_PATH = _HERE / "golden" / "digests.json"

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3
#: A child that has not finished by then is stopped and the run fails.
CHILD_LIMIT_S = 170.0
SMOKE_SECONDS = 2.0
DEFAULT_SEED = 11


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds in force."""
    with open(_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- the child: set-up, then (maybe) the measurement ---------------------------


def child_main(args: argparse.Namespace) -> None:
    """Set up one workload, say READY, then measure and say RESULT."""
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_HERE))

    def on_term(signum, frame):  # unwinds through every finally/with
        raise SystemExit(1)

    signal.signal(signal.SIGTERM, on_term)

    def emit(line: str) -> None:
        print(f"NOTE {line}", flush=True)

    import offline
    import serving

    trace = bool(args.trace)
    if args.workload in offline.SPECS:
        run = offline.OfflineRun(
            offline.SPECS[args.workload], args.seed, args.seconds, args.smoke
        )
        print("READY", flush=True)
        if args.child == "setup":
            return
        if trace:
            result = offline.per_layer(run, emit, OUT_DIR)
        else:
            result = offline.end_to_end(run, emit)
    else:
        run = serving.ServeRun(
            serving.SPECS[args.workload], args.seed, args.seconds, args.smoke
        )
        try:
            if trace:
                # The traced run starts its own pair of servers.
                print("READY", flush=True)
                result = serving.per_layer(run, emit, OUT_DIR)
            else:
                run.start_server(0.0)
                print("READY", flush=True)
                if args.child == "setup":
                    return
                result = serving.end_to_end(run, emit)
        finally:
            run.close()
    print("RESULT " + json.dumps(result), flush=True)


# -- the parent: spawn children, collect, check, print ------------------------


def _spawn(role: str, args: argparse.Namespace, workload: str, trace: int):
    command = [
        sys.executable, str(_HERE / "run.py"),
        "--child", role,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env.pop("REPRO_INDEX_CACHE_DIR", None)
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env
    )


def _run_child(
    role: str, args: argparse.Namespace, workload: str, trace: int
) -> tuple[float, dict | None, list[str]]:
    """``(launch-to-ready seconds, result or None, notes)`` of one child."""
    launched = time.monotonic()
    child = _spawn(role, args, workload, trace)
    watchdog = threading.Timer(CHILD_LIMIT_S, child.terminate)
    watchdog.start()
    ready_s: float | None = None
    result: dict | None = None
    notes: list[str] = []
    try:
        assert child.stdout is not None
        for line in child.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                ready_s = time.monotonic() - launched
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif line.startswith("NOTE "):
                notes.append(line[len("NOTE "):])
        code = child.wait()
    except BaseException:
        child.terminate()
        raise
    finally:
        watchdog.cancel()
        try:
            child.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        if child.stdout is not None:
            child.stdout.close()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"{workload} child ({role}) exited with code {code}")
    return ready_s, result, notes


def run_workload(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """One full run of one workload; returns the child's result, completed."""
    n_setups = 1 if (trace or args.smoke) else N_SETUPS
    setups = [
        _run_child("setup", args, workload, trace)[0]
        for _ in range(n_setups - 1)
    ]
    ready_s, result, notes = _run_child("run", args, workload, trace)
    if result is None:
        raise RuntimeError(f"{workload} produced no result")
    setups.append(ready_s)
    result["setups_s"] = setups
    result["child_notes"] = notes
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def environment() -> dict:
    """What the recorded digests depend on besides the code.

    The untrained model's decoded bytes follow BLAS rounding, which
    follows the numpy build and the CPU kernels OpenBLAS picked.
    """
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas": blas.get("openblas configuration"),
    }


def load_golden(args: argparse.Namespace) -> dict:
    """The digests on file, if they were recorded under these conditions."""
    if args.smoke or not GOLDEN_PATH.exists():
        return {}
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["environment"] != environment() or golden["seconds"] != args.seconds:
        return {}
    return golden["digests"]


def record_golden(args: argparse.Namespace, outcomes: dict) -> None:
    """Merge this run's digests into ``golden/digests.json``."""
    digests = load_golden(args)
    for workload, outcome in outcomes.items():
        digests.setdefault(workload, {})[str(args.seed)] = outcome["end_to_end"][
            "digest"
        ]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "environment": environment(),
                "seconds": args.seconds,
                "digests": digests,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


def report(
    args: argparse.Namespace, contract: dict, workload: str, trace: int
) -> dict:
    """Run, check, print the text lines; returns the driver's JSON object."""
    result = run_workload(args, workload, trace)
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    notes = list(result["notes"])
    if not trace:
        want = load_golden(args).get(workload, {}).get(str(args.seed))
        if want is not None:
            attempted += 1
            if want != result["digest"]:
                failed += 1
                notes.append(f"digest {result['digest']} != golden {want}")
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"{workload}: metrics not declared: {unknown}")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise RuntimeError(f"{workload}: metrics not produced: {missing}")
    # A layer the workload never enters reads zero in the ledger.
    metrics.update(dict.fromkeys(missing, 0.0))
    for note in result["child_notes"]:
        print(f"# {workload} {note}")
    for note in notes:
        print(f"# {workload} FAILED {note}")
    print(f"# {workload} digest {result['digest']}")
    print(f"# {workload} sizes {json.dumps(result['sizes'])}")
    print(f"# {workload} setups_s {[round(s, 3) for s in result['setups_s']]}")
    for name, unit in units.items():
        print(f"{workload} {name} {metrics[name]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "digest": result["digest"],
        "sizes": result["sizes"],
    }


# -- repeatability ---------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args: argparse.Namespace, contract: dict, workloads: list[str]) -> int:
    """Two sets of ``--repeat`` runs; non-zero when their medians disagree."""
    sets: list[dict[tuple[str, str], list[float]]] = [{}, {}]
    correct = True
    for values in sets:
        for _ in range(args.repeat):
            for workload in workloads:
                outcome = report(args, contract, workload, 0)
                correct = correct and outcome["correct"]
                for name, metric in outcome["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
    disagreements = 0
    for spec in contract["end_to_end"]:
        for workload in workloads:
            key = (workload, spec["name"])
            first, second = (_quartiles(values[key]) for values in sets)
            worse = (second[1] - first[1]) / first[1]
            if spec["better"] == "higher":
                worse = -worse
            spread = (first[2] - first[0]) / first[1]
            verdict = "ok" if worse <= spec["bound"] else "DISAGREE"
            disagreements += verdict != "ok"
            print(
                f"repeat {workload} {spec['name']} "
                f"set1 q1={first[0]:.4g} med={first[1]:.4g} q3={first[2]:.4g} "
                f"set2 q1={second[0]:.4g} med={second[1]:.4g} q3={second[2]:.4g} "
                f"spread={spread:.4f} worse_by={worse:.4f} "
                f"bound={spec['bound']} {verdict}"
            )
    return 0 if correct and not disagreements else 1


# -- provenance ------------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_results(args: argparse.Namespace, outcomes: dict) -> None:
    """``out/results.json``: the numbers plus what produced them."""
    sys.path.insert(0, str(_ROOT / "src"))
    from repro.obs.manifest import provenance

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = []
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "provenance": provenance(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": outcomes,
    }
    (OUT_DIR / "results.json").write_text(json.dumps(payload, indent=1))


# -- entry point -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"{_ROOT / 'src' / 'repro'}: no program to measure\n")
    contract = load_contract()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.child:
        child_main(args)
        return 0

    workloads = [args.workload] if args.workload else names
    if args.trace is not None:
        # Driver form: one workload, one mode, JSON object last.
        if args.workload is None:
            parser.error("--trace needs --workload")
        outcome = report(args, contract, args.workload, args.trace)
        print(
            json.dumps(
                {k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}
            )
        )
        return 0 if outcome["correct"] else 1
    if args.repeat:
        return repeat(args, contract, workloads)
    outcomes: dict = {}
    correct = True
    for workload in workloads:
        outcomes[workload] = {"end_to_end": report(args, contract, workload, 0)}
        correct = correct and outcomes[workload]["end_to_end"]["correct"]
        if args.traced:
            outcomes[workload]["per_layer"] = report(args, contract, workload, 1)
            correct = correct and outcomes[workload]["per_layer"]["correct"]
    write_results(args, outcomes)
    if args.record_golden:
        record_golden(args, outcomes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
