"""String algorithms: edit distance, similarity functions and naturalness.

These are the substrate for the joiner (Eq. 5), the evaluation metrics
(AED/ANED, §5.4), the AFJ/Ditto similarity features, and the
surrogates' scoring of candidate outputs.  The CST baseline anchors on
common substrings with its own unit search (``baselines/_units.py``).
"""
