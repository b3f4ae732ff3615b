"""The ``SequenceModel`` protocol shared by every model in the framework.

The paper swaps its fine-tuned ByT5 model for GPT-3 inside the same
framework (§5.6) and even ensembles the two (§5.7).  We capture that
pluggability with a minimal protocol: a model maps serialized prompts to
predicted target strings.  The numpy transformer, the pretrained-DTT
induction engine, and the GPT-3 surrogate all implement it.

Models that can decode *incrementally* — token by token against a KV
cache instead of re-running the full prefix — additionally implement
:class:`IncrementalSequenceModel`.  The generation engine
(:mod:`repro.infer`) detects that capability at runtime and takes over
their decode loop (dedupe, micro-batching, compaction); anything else
keeps its own ``generate``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class SequenceModel(Protocol):
    """Anything that maps serialized DTT prompts to output strings."""

    @property
    def name(self) -> str:
        """Short identifier used in reports and multi-model aggregation."""
        ...

    def generate(self, prompts: list[str]) -> list[str]:
        """Predict one output string per serialized prompt.

        Args:
            prompts: Serialized sub-task prompts in the §4.1 markup form
                (``<sos> s1 <tr> t1 <eoe> ... q <tr> <eos>``).

        Returns:
            One predicted target string per prompt.  The empty string
            denotes an abstention (the model emitted only ``<eos>``).
        """
        ...


@runtime_checkable
class IncrementalSequenceModel(SequenceModel, Protocol):
    """A sequence model whose decode loop the engine can own.

    The two methods split ``generate`` at the point the scheduler needs:
    tokenization happens up front (the engine dedupes and sorts on
    token sequences), then each scheduled micro-batch is opened as one
    decode session.
    """

    def tokenize_prompts(self, prompts: list[str]) -> list[list[int]]:
        """Tokenize (and truncate) prompts for scheduling."""
        ...

    def start_decode(self, prompt_ids: Sequence[Sequence[int]]) -> Any:
        """Encode a tokenized micro-batch and open a decode session.

        Called once per micro-batch, with up to ``MAX_BATCH_SIZE``
        prompts of **any mix of lengths** (sorted by length, but not
        grouped by it): the engine runs one step loop over whatever
        comes back, so keeping short prompts from paying the longest
        one's padding — where that costs — is the session's business.

        Returns:
            A session exposing ``sos_id``, ``eos_id``, ``max_steps``,
            ``step(token_ids) -> logits``, ``compact(keep)``, and
            ``decode_tokens(ids) -> str`` — see
            :class:`repro.infer.session.DecodeSession`, the reference
            implementation.
        """
        ...
