"""Dataset registry: build any benchmark by name, optionally scaled down.

``scale`` shrinks both the number of tables and the rows per table, so
tests and quick benches can run in seconds while the full-size defaults
match the paper's dataset statistics.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.datagen.benchmarks.journals import build_journals
from repro.datagen.benchmarks.kbwt import build_kbwt
from repro.datagen.benchmarks.spreadsheet import build_spreadsheet
from repro.datagen.benchmarks.synthetic import (
    build_syn,
    build_syn_rp,
    build_syn_rv,
    build_syn_st,
)
from repro.datagen.benchmarks.webtables import build_webtables
from repro.exceptions import DatasetError
from repro.types import TablePair

_BUILDERS: dict[str, tuple[Callable[..., list[TablePair]], int, int]] = {
    # name -> (builder, default n_tables, default rows)
    "WT": (build_webtables, 31, 60),
    "SS": (build_spreadsheet, 108, 34),
    "KBWT": (build_kbwt, 81, 40),
    "Syn": (build_syn, 10, 100),
    "Syn-RP": (build_syn_rp, 5, 50),
    "Syn-ST": (build_syn_st, 5, 50),
    "Syn-RV": (build_syn_rv, 5, 50),
    "JAB": (build_journals, 24, 40),
}


def get_dataset(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    **overrides: object,
) -> list[TablePair]:
    """Build a benchmark dataset by name.

    Args:
        name: A benchmark name: a Table 1 dataset or ``JAB``.
        seed: Base seed for generation.
        scale: Multiplier in (0, 1] applied to the default table and row
            counts (minimums: 2 tables, 12 rows).
        **overrides: Passed through to the builder (e.g. ``rows=...``).

    Raises:
        DatasetError: For unknown names or invalid scales.
    """
    if name not in _BUILDERS:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(_BUILDERS)}"
        )
    if not 0.0 < scale <= 1.0:
        raise DatasetError(f"scale must be in (0, 1], got {scale}")
    builder, default_tables, default_rows = _BUILDERS[name]
    kwargs: dict[str, object] = {
        "seed": seed,
        "n_tables": max(2, int(round(default_tables * scale))),
        "rows": max(12, int(round(default_rows * scale))),
    }
    kwargs.update(overrides)
    return builder(**kwargs)
