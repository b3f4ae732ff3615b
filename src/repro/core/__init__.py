"""The DTT framework core (paper §4, Figure 2).

The pipeline has four stages: decompose a column-transformation problem
into per-row sub-tasks with small example contexts, serialize each
sub-task into a prompt, run a sequence model over the prompts, and
aggregate the per-trial predictions into one output per row.  A joiner
then matches predictions into the target column (Eq. 5).
"""
