"""Model surrogates standing in for GPU-scale checkpoints.

The paper's experiments require (a) a fine-tuned ByT5-base checkpoint
and (b) GPT-3 API access — neither is available offline.  This package
provides behaviour-faithful stand-ins that implement the same
:class:`~repro.core.interface.SequenceModel` protocol as the from-scratch
numpy transformer in :mod:`repro.model`:

* :class:`PretrainedDTT` — an example-driven *program induction engine*
  plus an auto-regressive corruption model.  It genuinely induces the
  character-level mapping from the two in-context examples (it is not a
  lookup table of paper numbers) and degrades with mapping difficulty,
  input length, and training-profile maturity, mirroring §5.8-§5.9.
* :class:`GPT3Surrogate` — a general-purpose-LLM stand-in: strong world
  knowledge (backed by :mod:`repro.kb`), few-shot scaling with the
  number of examples, weak on non-natural character strings (§5.6).
"""
