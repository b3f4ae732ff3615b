"""Experiment definitions for every table and figure in the paper.

Each ``run_*`` function regenerates one artifact of the evaluation
section (§5.5-§5.10) and returns plain data structures the benchmark
harness renders.  All functions accept ``scale`` (shrinks table/row
counts for quick runs) and ``seed``.

Index:
    run_table1          Table 1  — DTT vs CST/AFJ/Ditto (+DataXFormer)
    run_table2          Table 2  — GPT-3 raw vs GPT-3-in-DTT, k examples
    run_figure3         Figure 3 — F1 bars (derived from Table 2 runs)
    run_table3          Table 3  — multi-model aggregator
    run_figure4         Figure 4 — F1/ANED vs #training groupings
    run_figure5         Figure 5 — F1 drop vs example-noise ratio
    run_figure6         Figure 6 — F1/ANED vs #trials, clean vs noisy
    run_runtime         §5.5     — runtime scaling in length and rows
    run_input_length    §5.9     — accuracy vs input length
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.afj import AFJJoiner
from repro.baselines.cst import CSTJoiner
from repro.baselines.dataxformer import DataXFormerJoiner
from repro.baselines.ditto import DittoJoiner
from repro.datagen.benchmarks.registry import get_dataset
from repro.datagen.benchmarks.synthetic import build_syn_rp, build_syn_st
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset
from repro.metrics.report import DatasetReport
from repro.surrogate.llm import GPT3Surrogate
from repro.surrogate.pretrained import PretrainedDTT
from repro.surrogate.profiles import TrainingProfile

TABLE1_DATASETS = ("WT", "SS", "KBWT", "Syn", "Syn-RP", "Syn-ST", "Syn-RV")


def _dtt_adapter(seed: int = 0, **kwargs) -> DTTJoinerAdapter:
    return DTTJoinerAdapter(PretrainedDTT(seed=seed), name="DTT", seed=seed, **kwargs)


def run_table1(
    scale: float = 1.0,
    seed: int = 0,
    datasets: tuple[str, ...] = TABLE1_DATASETS,
    include_dataxformer: bool = True,
) -> dict[str, dict[str, DatasetReport]]:
    """Table 1: P/R/F (+AED/ANED for DTT) for DTT and all baselines."""
    methods = [_dtt_adapter(seed), CSTJoiner(), AFJJoiner(), DittoJoiner()]
    results: dict[str, dict[str, DatasetReport]] = {}
    for name in datasets:
        tables = get_dataset(name, seed=seed, scale=scale)
        per_method: dict[str, DatasetReport] = {}
        for method in methods:
            per_method[method.name] = evaluate_on_dataset(method, tables)
        if include_dataxformer and name == "KBWT":
            per_method["DataXFormer"] = evaluate_on_dataset(
                DataXFormerJoiner(), tables
            )
        results[name] = per_method
    return results


def run_table2(
    scale: float = 1.0,
    seed: int = 0,
    example_counts: tuple[int, ...] = (1, 2, 3, 5),
    datasets: tuple[str, ...] = TABLE1_DATASETS,
) -> dict[str, dict[str, DatasetReport]]:
    """Table 2: GPT3-{k}e (raw, 1 trial) and GPT3-DTT-{k}e (5 trials)."""
    results: dict[str, dict[str, DatasetReport]] = {}
    for name in datasets:
        tables = get_dataset(name, seed=seed, scale=scale)
        per_method: dict[str, DatasetReport] = {}
        for k in example_counts:
            raw = DTTJoinerAdapter(
                GPT3Surrogate(seed=seed),
                context_size=k,
                n_trials=1,
                seed=seed,
                name=f"GPT3-{k}e",
            )
            per_method[raw.name] = evaluate_on_dataset(raw, tables)
            framed = DTTJoinerAdapter(
                GPT3Surrogate(seed=seed),
                context_size=k,
                n_trials=5,
                seed=seed,
                name=f"GPT3-DTT-{k}e",
            )
            per_method[framed.name] = evaluate_on_dataset(framed, tables)
        results[name] = per_method
    return results


def run_figure3(
    scale: float = 1.0, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Figure 3: F1 of DTT-2e, GPT3-1e/2e, GPT3-DTT-1e/2e per dataset."""
    table2 = run_table2(scale=scale, seed=seed, example_counts=(1, 2))
    bars: dict[str, dict[str, float]] = {}
    for name in TABLE1_DATASETS:
        tables = get_dataset(name, seed=seed, scale=scale)
        dtt = evaluate_on_dataset(_dtt_adapter(seed), tables)
        bars[name] = {
            "DTT-2e": dtt.f1,
            "GPT3-1e": table2[name]["GPT3-1e"].f1,
            "GPT3-DTT-1e": table2[name]["GPT3-DTT-1e"].f1,
            "GPT3-2e": table2[name]["GPT3-2e"].f1,
            "GPT3-DTT-2e": table2[name]["GPT3-DTT-2e"].f1,
        }
    return bars


def run_table3(
    scale: float = 1.0, seed: int = 0
) -> dict[str, dict[str, DatasetReport]]:
    """Table 3: DTT alone, GPT-3-in-DTT, and the two-model ensemble."""
    results: dict[str, dict[str, DatasetReport]] = {}
    for name in TABLE1_DATASETS:
        tables = get_dataset(name, seed=seed, scale=scale)
        dtt_model = PretrainedDTT(seed=seed)
        gpt_model = GPT3Surrogate(seed=seed)
        methods = [
            DTTJoinerAdapter(dtt_model, seed=seed, name="DTT"),
            DTTJoinerAdapter(gpt_model, seed=seed, name="GPT3"),
            DTTJoinerAdapter(
                [PretrainedDTT(seed=seed), GPT3Surrogate(seed=seed)],
                seed=seed,
                name="DTT+GPT3",
            ),
        ]
        results[name] = {
            m.name: evaluate_on_dataset(m, tables) for m in methods
        }
    return results


@dataclass(frozen=True)
class CurvePoint:
    """One point on a sweep curve."""

    x: float
    f1: float
    aned: float


def run_figure4(
    scale: float = 1.0,
    seed: int = 0,
    sample_counts: tuple[int, ...] = (0, 500, 1000, 2000, 5000, 10000),
    long_lengths: bool = False,
    datasets: tuple[str, ...] = ("WT", "SS", "Syn", "Syn-RP", "Syn-ST", "Syn-RV"),
) -> dict[str, list[CurvePoint]]:
    """Figure 4: F1 and ANED vs number of training groupings.

    Args:
        long_lengths: False = train lengths 8-35 (panels a/c); True =
            5-60 (panels b/d).
    """
    min_len, max_len = (5, 60) if long_lengths else (8, 35)
    curves: dict[str, list[CurvePoint]] = {name: [] for name in datasets}
    for count in sample_counts:
        profile = TrainingProfile(
            n_groupings=count, min_length=min_len, max_length=max_len
        )
        adapter = DTTJoinerAdapter(
            PretrainedDTT(profile=profile, seed=seed),
            seed=seed,
            name=f"DTT@{count}",
        )
        for name in datasets:
            tables = get_dataset(name, seed=seed, scale=scale)
            report = evaluate_on_dataset(adapter, tables)
            curves[name].append(
                CurvePoint(x=count, f1=report.f1, aned=report.aned)
            )
    return curves


def run_figure5(
    scale: float = 1.0,
    seed: int = 0,
    noise_ratios: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8),
    datasets: tuple[str, ...] = ("WT", "SS", "Syn"),
) -> dict[str, dict[str, list[CurvePoint]]]:
    """Figure 5: F1 *drop* vs example-noise ratio, DTT vs CST."""
    methods = {"DTT": _dtt_adapter(seed), "CST": CSTJoiner()}
    results: dict[str, dict[str, list[CurvePoint]]] = {}
    for method_name, method in methods.items():
        per_dataset: dict[str, list[CurvePoint]] = {}
        for name in datasets:
            tables = get_dataset(name, seed=seed, scale=scale)
            baseline_f1: float | None = None
            points: list[CurvePoint] = []
            for ratio in noise_ratios:
                report = evaluate_on_dataset(
                    method, tables, noise_ratio=ratio, noise_seed=seed
                )
                if baseline_f1 is None:
                    baseline_f1 = report.f1
                points.append(
                    CurvePoint(
                        x=ratio,
                        f1=max(0.0, baseline_f1 - report.f1),  # drop
                        aned=report.aned,
                    )
                )
            per_dataset[name] = points
        results[method_name] = per_dataset
    return results


def run_figure6(
    scale: float = 1.0,
    seed: int = 0,
    trial_counts: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    noise_ratio: float = 0.6,
) -> dict[str, list[CurvePoint]]:
    """Figure 6: F1 and ANED vs number of trials, clean and noisy.

    Returns curves keyed ``"<dataset>"`` (clean) and ``"<dataset>-n"``
    (with ``noise_ratio`` noise), as in the paper's legend.
    """
    datasets = ("WT", "SS", "Syn-RP", "Syn-ST")
    curves: dict[str, list[CurvePoint]] = {}
    for name in datasets:
        tables = get_dataset(name, seed=seed, scale=scale)
        for noisy in (False, True):
            key = f"{name}-n" if noisy else name
            curves[key] = []
            for trials in trial_counts:
                adapter = DTTJoinerAdapter(
                    PretrainedDTT(seed=seed),
                    n_trials=trials,
                    seed=seed,
                    name=f"DTT-{trials}t",
                )
                report = evaluate_on_dataset(
                    adapter,
                    tables,
                    noise_ratio=noise_ratio if noisy else 0.0,
                    noise_seed=seed,
                )
                curves[key].append(
                    CurvePoint(x=trials, f1=report.f1, aned=report.aned)
                )
    return curves


@dataclass(frozen=True)
class RuntimePoint:
    """One timing measurement."""

    method: str
    x: int
    seconds: float


def run_runtime(
    seed: int = 0,
    row_lengths: tuple[int, ...] = (5, 15, 30, 50),
    row_counts: tuple[int, ...] = (7, 25, 50, 100),
    base_rows: int = 40,
    base_length: int = 17,
) -> dict[str, list[RuntimePoint]]:
    """§5.5 runtime experiment: wall-clock vs row length and row count.

    Mirrors the paper's two sweeps: a synthetic table with growing row
    *length* (DTT grows ~linearly, CST polynomially) and a phone-style
    table with growing row *count* (CST quadratically).
    """
    from repro.datagen.benchmarks.synthetic import build_syn

    methods = {
        "DTT": lambda: _dtt_adapter(seed),
        "CST": lambda: CSTJoiner(),
        "AFJ": lambda: AFJJoiner(),
        "Ditto": lambda: DittoJoiner(),
    }
    results: dict[str, list[RuntimePoint]] = {"by_length": [], "by_rows": []}
    for length in row_lengths:
        tables = build_syn(
            seed=seed,
            n_tables=1,
            rows=base_rows,
            min_length=max(3, length - 2),
            max_length=length + 2,
        )
        for name, factory in methods.items():
            method = factory()
            started = time.perf_counter()
            evaluate_on_dataset(method, tables)
            results["by_length"].append(
                RuntimePoint(
                    method=name, x=length, seconds=time.perf_counter() - started
                )
            )
    for rows in row_counts:
        tables = build_syn(
            seed=seed,
            n_tables=1,
            rows=rows,
            min_length=base_length - 4,
            max_length=base_length + 4,
        )
        for name, factory in methods.items():
            method = factory()
            started = time.perf_counter()
            evaluate_on_dataset(method, tables)
            results["by_rows"].append(
                RuntimePoint(
                    method=name, x=rows, seconds=time.perf_counter() - started
                )
            )
    return results


def run_input_length(
    seed: int = 0,
    lengths: tuple[int, ...] = (10, 20, 35, 45, 60),
    rows: int = 30,
) -> dict[str, dict[str, list[CurvePoint]]]:
    """§5.9: accuracy vs input length, short- vs long-trained model.

    Sweeps regenerated Syn-RP (easy), Syn-ST (medium), and Syn (hard)
    datasets at each input length, for a model trained on lengths 8-35
    and one trained on 5-60.
    """
    profiles = {
        "trained-8-35": TrainingProfile(min_length=8, max_length=35),
        "trained-5-60": TrainingProfile(min_length=5, max_length=60),
    }
    builders = {
        "Syn-RP": lambda length: build_syn_rp(
            seed=seed,
            n_tables=2,
            rows=rows,
            min_length=max(4, length - 3),
            max_length=length + 3,
        ),
        "Syn-ST": lambda length: build_syn_st(
            seed=seed,
            n_tables=2,
            rows=rows,
            min_length=max(6, length - 3),
            max_length=length + 3,
        ),
    }
    results: dict[str, dict[str, list[CurvePoint]]] = {}
    for profile_name, profile in profiles.items():
        per_dataset: dict[str, list[CurvePoint]] = {}
        for dataset_name, builder in builders.items():
            points: list[CurvePoint] = []
            for length in lengths:
                tables = builder(length)
                adapter = DTTJoinerAdapter(
                    PretrainedDTT(profile=profile, seed=seed),
                    seed=seed,
                    name=profile_name,
                )
                report = evaluate_on_dataset(adapter, tables)
                points.append(
                    CurvePoint(x=length, f1=report.f1, aned=report.aned)
                )
            per_dataset[dataset_name] = points
        results[profile_name] = per_dataset
    return results


def curves_to_text(
    curves: dict[str, list[CurvePoint]], x_label: str, title: str
) -> str:
    """Render sweep curves as an aligned text table."""
    lines = [title] if title else []
    xs = sorted({point.x for points in curves.values() for point in points})
    header = [x_label.ljust(12)] + [f"{x:>8g}" for x in xs]
    lines.append("".join(header))
    for name in sorted(curves):
        by_x = {p.x: p for p in curves[name]}
        f1_row = [f"{name} F1".ljust(12)] + [
            f"{by_x[x].f1:8.3f}" if x in by_x else " " * 8 for x in xs
        ]
        aned_row = [f"{name} ANED".ljust(12)] + [
            f"{by_x[x].aned:8.3f}" if x in by_x else " " * 8 for x in xs
        ]
        lines.append("".join(f1_row))
        lines.append("".join(aned_row))
    return "\n".join(lines)
