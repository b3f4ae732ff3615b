"""A general-purpose-LLM stand-in for GPT-3 (paper §5.6).

The surrogate reproduces the mechanisms behind GPT-3's behaviour in the
paper, without looking up any paper numbers:

* **World knowledge** — when the context examples instantiate a known
  (non-parametric) KB relation, the model answers from the KB, which is
  why GPT-3 beats the fine-tuned model on KBWT-style data.  *Parametric*
  relations (ISBN → author, city → zip) are answered with a
  plausible-format hallucination — GPT-3 cannot recall arbitrary keys.
* **Few-shot scaling** — with one example the induced mapping is
  under-determined and the model over-fits the example's literal content
  (GPT3-1e is weak); each additional example both verifies the program
  and 'grounds' the character operations (error shrinks with k).
* **Tokenizer blindness** — per-character errors scale with how
  *unnatural* the text is: GPT-3's subword tokenizer and natural-text
  prior handle names and addresses well but random character strings
  poorly (weak on Syn-*).
* **No character reversal** — reversing a string is a notorious
  weakness of subword LLMs; the surrogate copies instead of reversing.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.serializer import PromptSerializer
from repro.exceptions import SerializationError
from repro.kb import KnowledgeBase, build_default_kb
from repro.kb.store import Relation, knows_fact
from repro.surrogate.errors import Pending, corrupt, generate_batch
from repro.surrogate.induction import InductionEngine, explain_pair
from repro.surrogate.programs import ReverseProgram
from repro.text.naturalness import naturalness
from repro.types import ExamplePair
from repro.utils.rng import derive_rng

_LLM_FAMILIES = frozenset({"case", "substring", "replace", "general"})


class GPT3Surrogate:
    """Simulated GPT-3 implementing the ``SequenceModel`` protocol.

    Args:
        kb: World-knowledge store; defaults to the built-in KB.
        seed: Seed for deterministic corruption.
        base_error: Per-character error floor on perfectly natural text.
        max_context_tokens: Documented context budget (GPT-3 Curie:
            2048 subword tokens); prompts are not truncated here but the
            attribute drives the example-count configuration in
            experiments.
    """

    def __init__(
        self,
        kb: KnowledgeBase | None = None,
        seed: int = 0,
        base_error: float = 0.015,
        fact_coverage: float = 0.45,
        max_context_tokens: int = 2048,
    ) -> None:
        self.kb = kb or build_default_kb()
        self.seed = seed
        self.base_error = base_error
        self.fact_coverage = fact_coverage
        self.max_context_tokens = max_context_tokens
        self._engine = InductionEngine(enabled_families=_LLM_FAMILIES)
        self._serializer = PromptSerializer()

    @property
    def name(self) -> str:
        return "GPT3"

    def fingerprint(self) -> str:
        """Content fingerprint of the deterministic parameter set.

        Same contract as ``PretrainedDTT.fingerprint``: the surrogate
        is a pure function of these parameters plus its KB, so hashing
        them identifies its outputs exactly.
        """
        kb_summary = [
            (name, len(self.kb.relation(name)))
            for name in self.kb.relation_names()
        ]
        parts = (
            "repro.gpt3-surrogate",
            self.seed,
            self.base_error,
            self.fact_coverage,
            self.max_context_tokens,
            kb_summary,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    def generate(self, prompts: list[str]) -> list[str]:
        """Predict one output string per serialized prompt.

        Repeated prompts draw independent samples (temperature-style),
        mirroring API sampling; first occurrences are deterministic.
        """
        return generate_batch(prompts, self._predict)

    def _predict(self, prompt: str, occurrence: int) -> str | Pending:
        try:
            context, query = self._serializer.parse(prompt)
        except SerializationError:
            return ""
        rng = derive_rng(self.seed, "gpt3", prompt, occurrence)

        kb_answer = self._answer_from_knowledge(context, query, rng)
        if kb_answer is not None:
            return kb_answer
        return self._answer_textually(context, query, rng)

    # -- world knowledge --------------------------------------------------

    def _answer_from_knowledge(
        self,
        context: list[ExamplePair],
        query: str,
        rng: np.random.Generator,
    ) -> str | None:
        pairs = [(p.source, p.target) for p in context]
        relation = self.kb.infer_from_examples(pairs)
        if relation is None:
            return None
        if relation.parametric:
            return self._hallucinate(relation, rng)
        answer = relation.lookup(query)
        if answer is None:
            return None
        # Parametric world knowledge: a fact is either retained or not,
        # deterministically (re-prompting does not create knowledge).
        if not knows_fact("gpt3-curie", relation.name, query, self.fact_coverage):
            return self._hallucinate(relation, rng)
        return corrupt(answer, self.base_error, rng)

    def _hallucinate(self, relation: Relation, rng: np.random.Generator) -> str:
        """A fluent but fabricated answer in the relation's format."""
        values = sorted(set(relation.pairs.values()))
        if not values:
            return ""
        return values[int(rng.integers(0, len(values)))]

    # -- textual pattern following ----------------------------------------

    def _answer_textually(
        self,
        context: list[ExamplePair],
        query: str,
        rng: np.random.Generator,
    ) -> str | Pending:
        # Reversal regime: subword LLMs cannot reliably reverse character
        # order, whether the mapping is recognized as ReverseProgram or
        # reconstructed piecewise by the synthesizer.
        if len(context) >= 1 and all(
            p.target == p.source[::-1] and len(p.source) >= 3 for p in context
        ):
            # Roughly half the attempts come back empty — the model
            # "gives up" on the instruction — and the rest are heavily
            # corrupted echoes.  Abstentions matter for the multi-model
            # ensemble: they leave the vote to the other model (§5.7).
            if rng.random() < 0.5:
                return ""
            return corrupt(query, 0.50, rng, truncate_rate=0.06)

        program = None
        exact = True
        if len(context) == 1:
            # One example under-determines the mapping.  Many programs
            # are consistent with it; the model commits to an arbitrary
            # one, frequently over-fitting the example's literal content
            # (the paper: GPT-3 "struggles on the task with just one
            # example", §5.6).
            pair = context[0]
            explanations = explain_pair(pair.source, pair.target)
            if explanations:
                program = explanations[int(rng.integers(0, len(explanations)))]
        else:
            result = self._engine.induce(context)
            program = result.program
            exact = result.exact
        if program is None:
            # Nothing understood: abstain or echo with uncertainty.
            if rng.random() < 0.3:
                return ""
            return corrupt(query, 0.35, rng, truncate_rate=0.03)
        if isinstance(program, ReverseProgram):
            # Subword LLMs cannot reliably reverse character order; the
            # attempt degrades into abstention or a corrupted echo.
            if rng.random() < 0.5:
                return ""
            return corrupt(query, 0.50, rng, truncate_rate=0.06)
        raw = program.apply(query)
        if raw is None:
            return corrupt(query, 0.35, rng, truncate_rate=0.03)

        def char_error_rate(difficulty: float) -> float:
            rate = self._char_error_rate(context, query, raw, difficulty, len(context))
            if not exact:
                rate += 0.10
            return rate

        return Pending(query, raw, rng, char_error_rate)

    def _char_error_rate(
        self,
        context: list[ExamplePair],
        query: str,
        output: str,
        difficulty: float,
        n_examples: int,
    ) -> float:
        texts = [query, output]
        for pair in context:
            texts.extend((pair.source, pair.target))
        nat = sum(naturalness(t) for t in texts) / len(texts)
        # More examples ground the character-level operation; the
        # unnatural-text penalty shrinks roughly like 1/k.
        grounding = 2.5 / (n_examples + 1.5)
        # The tokenizer penalty is sharply nonlinear: natural text is
        # nearly free, random character soup is near-hopeless.
        tokenizer_penalty = 2.5 * (1.0 - nat) ** 2
        return self.base_error + tokenizer_penalty * difficulty * grounding
