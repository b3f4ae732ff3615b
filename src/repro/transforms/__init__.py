"""String transformation units and their composition (paper §5.1.2).

The synthetic training data is produced by applying randomly composed
*transformations* to random source strings.  A transformation is a
sequence of *units* — ``substring``, ``split``, ``lowercase``,
``uppercase``, ``literal`` — whose outputs are concatenated.  Units may
additionally be *stacked* (the output of one fed into another) up to
depth 3.  ``replace`` and ``reverse`` exist only for building the
Syn-RP / Syn-RV evaluation datasets and never appear in training data,
mirroring the paper's unseen-transformation setup.
"""
