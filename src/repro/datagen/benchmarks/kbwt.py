"""Simulated Knowledge Base Web Tables benchmark (KBWT, paper §5.2).

Tables whose source->target mapping is a *semantic* KB relation rather
than a textual transformation — state to abbreviation, country to
citizen, ISBN to author, and so on (Abedjan et al.'s DataXFormer
benchmark).  Textual transformers largely fail here; systems with KB or
world knowledge succeed on the general-knowledge relations, and only
KB-lookup systems succeed on the *parametric* ones.
"""

from __future__ import annotations

from repro.kb.builtin import build_default_kb
from repro.kb.store import KnowledgeBase
from repro.types import TablePair
from repro.utils.rng import derive_rng


def build_kbwt(
    seed: int = 0,
    n_tables: int = 81,
    rows: int = 40,
    kb: KnowledgeBase | None = None,
) -> list[TablePair]:
    """Build the simulated KBWT benchmark.

    Args:
        seed: Base seed for row sampling.
        n_tables: Number of table pairs (paper: 81).
        rows: Maximum rows per table (capped by relation size; the
            paper's average is 113 over mostly larger KB relations).
        kb: Knowledge base to draw from; defaults to the built-in KB
            seeded identically to the one the LLM surrogate and the
            DataXFormer baseline use.
    """
    kb = kb or build_default_kb()
    # Most KBWT relations are semantically hard (no textual similarity
    # between subject and object); a minority (abbreviations, codes,
    # element symbols, demonyms) happen to be textually close.  The
    # cycle weights hard relations heavier to mirror that profile.
    cycle = [
        "country_to_capital",
        "isbn_to_author",
        "country_to_citizen",
        "city_to_zip",
        "month_to_number",
        "country_to_currency",
        "isbn_to_author",
        "state_to_abbreviation",
        "city_to_zip",
        "country_to_capital",
        "country_to_code",
        "element_to_symbol",
    ]
    tables: list[TablePair] = []
    for i in range(n_tables):
        relation = kb.relation(cycle[i % len(cycle)])
        rng = derive_rng(seed, "kbwt", i)
        subjects = sorted(relation.pairs)
        count = min(rows, len(subjects))
        picks = rng.choice(len(subjects), size=count, replace=False)
        chosen = [subjects[int(p)] for p in picks]
        tables.append(
            TablePair(
                name=f"kbwt-{i}-{relation.name}",
                sources=tuple(chosen),
                targets=tuple(relation.pairs[s] for s in chosen),
                dataset="KBWT",
                topic=relation.name,
                metadata={"parametric": relation.parametric},
            )
        )
    return tables
