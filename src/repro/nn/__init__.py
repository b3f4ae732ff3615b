"""A from-scratch numpy deep-learning stack.

Implements everything needed to train the paper's model class — a
byte-level encoder-decoder transformer — with no autograd framework:
each module implements an explicit ``forward``/``backward`` pair, and
gradients flow through the same object graph in reverse.  The stack is
deliberately small but complete: embeddings, layer norm, multi-head
self/cross attention (with causal masking), position-wise FFNs, pre-LN
transformer blocks, masked cross-entropy, Adam and gradient clipping.

It exists because the paper fine-tunes ByT5-base on a GPU; this CPU
re-implementation exercises the identical training/decoding code path
at laptop scale.
"""
