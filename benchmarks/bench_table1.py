"""Table 1 — heterogeneous join: DTT vs CST, AFJ, Ditto (+DataXFormer).

Regenerates the paper's main result table.  Shape targets: DTT wins on
WT/SS/Syn/Syn-RV, ties on Syn-RP, baselines win/tie Syn-ST, every
method is weak on KBWT with DTT competitive, and CST scores 0 on the
reversal dataset.
"""

from __future__ import annotations

from conftest import persist

from repro.eval.experiments import run_table1
from repro.eval.tables import render_dataset_table

_SCALE = 0.5
_SEED = 7


def test_table1_join_quality(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_table1(scale=_SCALE, seed=_SEED), rounds=1, iterations=1
    )
    text = render_dataset_table(
        result,
        methods=["DTT", "CST", "AFJ", "Ditto"],
        columns=("P", "R", "F"),
        title=f"Table 1 (scale={_SCALE}, seed={_SEED}): join P/R/F1",
    )
    text += "\n\n" + render_dataset_table(
        {name: {"DTT": result[name]["DTT"]} for name in result},
        methods=["DTT"],
        columns=("AED", "ANED"),
        title="Table 1 (cont.): DTT AED/ANED",
    )
    kbwt = result["KBWT"]
    if "DataXFormer" in kbwt:
        text += "\n\n" + render_dataset_table(
            {"KBWT": kbwt},
            methods=["DTT", "DataXFormer"],
            columns=("P", "R", "F"),
            title="§5.5 extra KBWT baseline: DataXFormer",
        )
    persist(results_dir, "table1", text)

    # Shape assertions.
    f1 = {d: {m: r.f1 for m, r in per.items()} for d, per in result.items()}
    assert f1["WT"]["DTT"] == max(f1["WT"].values())
    assert f1["Syn"]["DTT"] == max(f1["Syn"].values())
    assert f1["Syn-RV"]["DTT"] > 0.3
    assert f1["Syn-RV"]["CST"] < 0.1
    assert f1["KBWT"]["DTT"] < 0.5  # everyone is weak on KBWT
