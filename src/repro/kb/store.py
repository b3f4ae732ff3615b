"""Knowledge-base triple store: named binary relations over strings."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import KnowledgeBaseError
from repro.utils.rng import stable_hash


def knows_fact(model_name: str, relation: str, subject: str, coverage: float) -> bool:
    """Whether a language model 'remembers' one specific KB fact.

    A pretrained LM's world knowledge is parametric: it either recalls a
    fact or it does not, deterministically — more trials do not create
    knowledge (unlike sampling noise, which aggregation can vote away).
    The fraction of facts known is the model's ``coverage``; which facts
    fall inside it is a stable hash of (model, relation, subject).
    """
    if coverage <= 0.0:
        return False
    if coverage >= 1.0:
        return True
    bucket = stable_hash(f"{model_name}|{relation}|{subject}") % 10_000
    return bucket < coverage * 10_000


@dataclass
class Relation:
    """A named functional relation subject -> object.

    Attributes:
        name: Relation identifier, e.g. ``"state_to_abbreviation"``.
        pairs: Mapping from subject to object.
        parametric: True when the relation is arbitrary (e.g. ISBN →
            author): recoverable only by lookup, never by textual rules
            or general world knowledge.  The GPT-3 surrogate *cannot*
            answer parametric relations; DataXFormer (a KB system) can.
    """

    name: str
    pairs: dict[str, str] = field(default_factory=dict)
    parametric: bool = False

    def lookup(self, subject: str) -> str | None:
        """Return the object for ``subject``, or None when absent."""
        return self.pairs.get(subject)

    def __len__(self) -> int:
        return len(self.pairs)


class KnowledgeBase:
    """A collection of named relations with forward/reverse lookup."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    def add_relation(self, relation: Relation) -> None:
        """Register a relation, rejecting duplicates."""
        if relation.name in self._relations:
            raise KnowledgeBaseError(f"duplicate relation: {relation.name!r}")
        self._relations[relation.name] = relation

    def relation(self, name: str) -> Relation:
        """Return a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise KnowledgeBaseError(f"unknown relation: {name!r}") from None

    def relation_names(self) -> list[str]:
        """All registered relation names, sorted."""
        return sorted(self._relations)

    def lookup(self, relation_name: str, subject: str) -> str | None:
        """Forward lookup in a named relation."""
        return self.relation(relation_name).lookup(subject)

    def find_relation(self, subject: str, obj: str) -> list[str]:
        """Return names of relations containing the exact (subject, obj) pair.

        This is how DataXFormer-style systems discover which relation
        explains a set of examples.
        """
        return [
            name
            for name, relation in sorted(self._relations.items())
            if relation.pairs.get(subject) == obj
        ]

    def infer_from_examples(
        self, examples: list[tuple[str, str]]
    ) -> Relation | None:
        """Return the relation consistent with *all* example pairs, if any.

        Ties are broken towards the relation covering the most examples
        exactly, then alphabetically for determinism.
        """
        if not examples:
            return None
        candidates: dict[str, int] = {}
        for subject, obj in examples:
            for name in self.find_relation(subject, obj):
                candidates[name] = candidates.get(name, 0) + 1
        if not candidates:
            return None
        best_name = max(sorted(candidates), key=lambda n: candidates[n])
        if candidates[best_name] < len(examples):
            # Tolerate at most one noisy example out of >= 3.
            if len(examples) < 3 or candidates[best_name] < len(examples) - 1:
                return None
        return self._relations[best_name]
