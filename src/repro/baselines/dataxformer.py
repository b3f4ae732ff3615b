"""DataXFormer baseline — Abedjan et al. [1].

DataXFormer discovers transformations by querying web tables and
knowledge bases: given example pairs it finds the KB relation(s) that
explain them and applies the relation to the remaining rows, with
voting across sources.  Our re-implementation grounds it in
:mod:`repro.kb` — including the *parametric* relations (ISBN → author,
city → zip) that pure textual or general-knowledge systems cannot
recover, which is exactly where the paper says DataXFormer retains an
edge over DTT (§5.5).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.base import JoinOutput
from repro.kb.builtin import build_default_kb
from repro.kb.store import KnowledgeBase, knows_fact
from repro.types import ExamplePair


class DataXFormerJoiner:
    """KB-relation lookup joiner (the extra KBWT baseline).

    Args:
        kb: Knowledge base to query; defaults to the built-in KB.
        kb_coverage: Fraction of facts the harvested web-table/KB corpus
            actually contains.  DataXFormer's corpus is broad but far
            from complete (the paper reports it roughly on par with DTT
            on KBWT overall); coverage is deterministic per fact.
    """

    def __init__(
        self, kb: KnowledgeBase | None = None, kb_coverage: float = 0.35
    ) -> None:
        self.kb = kb or build_default_kb()
        self.kb_coverage = kb_coverage

    @property
    def name(self) -> str:
        return "DataXFormer"

    def join_table(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> JoinOutput:
        """Infer the explaining relation, then join by KB lookup."""
        pairs = [(e.source, e.target) for e in examples]
        relation = self.kb.infer_from_examples(pairs)
        target_set = set(targets)
        matches: list[str | None] = []
        predictions: list[str] = []
        for source in sources:
            value = relation.lookup(source) if relation is not None else None
            if value is not None and not knows_fact(
                "dataxformer", relation.name, source, self.kb_coverage
            ):
                value = None
            predictions.append(value or "")
            if value is not None and value in target_set:
                matches.append(value)
            else:
                matches.append(None)
        return JoinOutput(matches=tuple(matches), predictions=tuple(predictions))
