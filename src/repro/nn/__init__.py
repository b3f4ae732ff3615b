"""A from-scratch numpy deep-learning stack.

Implements everything needed to train the paper's model class — a
byte-level encoder-decoder transformer — with no autograd framework:
each module implements an explicit ``forward``/``backward`` pair, and
gradients flow through the same object graph in reverse.  The stack is
deliberately small but complete: embeddings, layer norm, multi-head
self/cross attention (with causal masking), position-wise FFNs, pre-LN
transformer blocks, masked cross-entropy, Adam, gradient clipping, and
weight (de)serialization.

It exists because the paper fine-tunes ByT5-base on a GPU; this CPU
re-implementation exercises the identical training/decoding code path
at laptop scale.
"""

from repro.nn.parameter import Module, Parameter
from repro.nn.layers import Dense, Embedding, LayerNorm
from repro.nn.attention import KVCache, MultiHeadAttention, causal_bias
from repro.nn.transformer import (
    DecoderBlock,
    DecoderBlockState,
    DecoderState,
    EncoderBlock,
    FeedForward,
    Seq2SeqTransformer,
)
from repro.nn.loss import masked_cross_entropy
from repro.nn.optim import SGD, Adam, clip_gradients
from repro.nn.serialization import load_weights, save_weights

__all__ = [
    "Parameter",
    "Module",
    "Dense",
    "Embedding",
    "LayerNorm",
    "MultiHeadAttention",
    "KVCache",
    "causal_bias",
    "FeedForward",
    "EncoderBlock",
    "DecoderBlock",
    "DecoderBlockState",
    "DecoderState",
    "Seq2SeqTransformer",
    "masked_cross_entropy",
    "Adam",
    "SGD",
    "clip_gradients",
    "save_weights",
    "load_weights",
]
