"""The trainable byte-level seq2seq model (paper §4.2 at laptop scale).

:class:`ByteSeq2SeqModel` wraps the numpy transformer with the byte
tokenizer and implements the same ``SequenceModel`` protocol as the
surrogates, so a freshly trained model drops into the DTT pipeline
unchanged.  :class:`Trainer` runs the §5.1 training recipe over
synthetic transformation groupings.
"""

# Kept only because benchmarks/e2e imports these names from the package.
from repro.model.seq2seq import ByteSeq2SeqModel

__all__ = ["ByteSeq2SeqModel"]
