"""The pretrained-DTT model stand-in.

Implements the :class:`~repro.core.interface.SequenceModel` protocol: it
consumes serialized DTT prompts and emits predicted target strings.  Per
prompt it:

1. parses the context examples and the query (§4.1 markup),
2. induces a program explaining the context (:mod:`.induction`),
3. applies the program to the query,
4. corrupts the output with the auto-regressive error model, whose rate
   depends on mapping difficulty, input length vs. the training range,
   and the training profile's maturity (:mod:`.profiles`).  Difficulty
   is scored for the whole batch at once, by one DP over the distinct
   ``(query, output)`` pairs between steps 3 and 4
   (:func:`~repro.surrogate.errors.generate_batch`).

An induced *reversal* is only acted on with the profile's detection
rate — reversal is absent from the training units, so the paper's model
recognizes it only sometimes (Syn-RV: ANED 0.85 yet join F1 0.63); the
remaining trials emit a scrambled copy whose character multiset still
lets the edit-distance join rescue many rows.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.serializer import PromptSerializer
from repro.exceptions import SerializationError
from repro.kb import KnowledgeBase, build_default_kb
from repro.kb.store import knows_fact
from repro.surrogate.errors import Pending, corrupt, generate_batch, scrambled_copy
from repro.surrogate.induction import InductionEngine, InductionResult
from repro.surrogate.profiles import DEFAULT_PROFILE, TrainingProfile
from repro.surrogate.programs import Program, ReverseProgram
from repro.text.naturalness import naturalness
from repro.utils.rng import derive_rng


class PretrainedDTT:
    """Example-driven induction model standing in for fine-tuned ByT5.

    The paper observes that, although fine-tuned only on textual
    transformations, the model "can cover some semantic transformations
    that require information from a knowledge base because of its prior
    knowledge of natural language and web data" (§5.5).  That residual
    world knowledge is modelled as a small, *deterministic* fact
    coverage over the built-in KB: when no textual program explains the
    context, the model answers the ~30% of general-knowledge facts its
    pretraining retained (never the parametric relations).

    Args:
        profile: Training profile (defaults to the released-checkpoint
            configuration: 2,000 groupings, lengths 8-35).
        seed: Seed for the deterministic corruption sampling.
        beam_width: Beam width of the general program synthesizer.
        kb: World-knowledge store backing the pretraining prior.
        fact_coverage: Fraction of general-knowledge facts retained.
    """

    def __init__(
        self,
        profile: TrainingProfile | None = None,
        seed: int = 0,
        beam_width: int = 6,
        kb: KnowledgeBase | None = None,
        fact_coverage: float = 0.30,
    ) -> None:
        self.profile = profile or DEFAULT_PROFILE
        self.seed = seed
        self.beam_width = beam_width
        self.kb = kb or build_default_kb()
        self.fact_coverage = fact_coverage
        families = set(self.profile.enabled_families())
        # Reversal detection is probabilistic per trial, so the engine
        # always checks for it cheaply; the model gates the result below.
        families.add("reverse")
        self._engine = InductionEngine(
            beam_width=beam_width, enabled_families=frozenset(families)
        )
        self._serializer = PromptSerializer()

    @property
    def name(self) -> str:
        return "DTT"

    def fingerprint(self) -> str:
        """Content fingerprint of the deterministic parameter set.

        The stand-in is a pure function of its profile, seed, beam
        width, fact coverage, and knowledge base, so hashing those
        identifies its outputs exactly.  The KB is covered by its
        relation names and sizes — relations are built-in and immutable
        in practice, and the names pin which default was wired in.
        """
        kb_summary = [
            (name, len(self.kb.relation(name)))
            for name in self.kb.relation_names()
        ]
        parts = (
            "repro.pretrained-dtt",
            repr(self.profile),
            self.seed,
            self.beam_width,
            self.fact_coverage,
            kb_summary,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    def generate(self, prompts: list[str]) -> list[str]:
        """Predict one output string per serialized prompt.

        Repeated prompts within one batch draw independent corruption
        samples (the analogue of sampling-temperature decoding when the
        example pool is too small for distinct contexts); a prompt's
        first occurrence is always deterministic.
        """
        return generate_batch(prompts, self._predict)

    def _predict(self, prompt: str, occurrence: int) -> str | Pending:
        try:
            context, query = self._serializer.parse(prompt)
        except SerializationError:
            return ""
        rng = derive_rng(self.seed, "dtt", prompt, occurrence)

        if self.profile.is_untrained:
            # No fine-tuning: ByT5 without task training mostly degrades
            # into copy/garbage behaviour (Figure 4 at x = 0: ANED > 0.8).
            return corrupt(query, 0.85, rng, truncate_rate=0.04)

        result = self._engine.induce(context)
        if not result.exact:
            # No textual program explains the whole context; the model
            # may still recognize the mapping from its pretraining.
            recalled = self._recall_fact(context, query)
            if recalled is not None:
                return corrupt(recalled, self.profile.base_error, rng)
        if result.program is None:
            return self._fallback(query, rng)

        program = self._gate_reversal(result, rng)
        raw = program.apply(query)
        if raw is None:
            return self._fallback(query, rng)
        if isinstance(program, ReverseProgram) and program is not result.program:
            # Confused-reversal path (gated off): scrambled copy.
            return raw

        return Pending(
            query, raw, rng, lambda difficulty: self._char_error_rate(query, difficulty)
        )

    def _gate_reversal(
        self, result: InductionResult, rng: np.random.Generator
    ) -> Program:
        program = result.program
        assert program is not None
        if not isinstance(program, ReverseProgram):
            return program
        if rng.random() < self.profile.reverse_detection_rate:
            return program
        # Not recognized this trial: behave like a confused decoder.
        return _ConfusedReversal(rng)

    def _char_error_rate(self, query: str, difficulty: float) -> float:
        profile = self.profile
        rate = profile.base_error * (0.25 + 1.75 * difficulty)
        rate += profile.length_penalty(len(query), difficulty)
        if profile.overfit_bias > 0.0 and naturalness(query) > 0.6:
            rate += profile.overfit_bias
        return rate

    def _recall_fact(self, context: list, query: str) -> str | None:
        """Answer from pretraining world knowledge, when retained."""
        if self.profile.is_untrained or self.fact_coverage <= 0.0:
            return None
        pairs = [(p.source, p.target) for p in context]
        relation = self.kb.infer_from_examples(pairs)
        if relation is None or relation.parametric:
            return None
        answer = relation.lookup(query)
        if answer is None:
            return None
        if not knows_fact("byt5-dtt", relation.name, query, self.fact_coverage):
            return None
        return answer

    def _fallback(self, query: str, rng: np.random.Generator) -> str:
        """No explanation found: echo-with-errors, or abstain."""
        if rng.random() < 0.05:
            return ""  # only <eos> — footnote 2
        return corrupt(query, 0.30, rng, truncate_rate=0.02)


class _ConfusedReversal(ReverseProgram):
    """A reversal the model failed to recognize: emits a scrambled copy."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(case="none")
        object.__setattr__(self, "_rng", rng)

    def apply(self, source: str) -> str | None:
        return scrambled_copy(source, self._rng)
