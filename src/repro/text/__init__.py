"""String algorithms: edit distance, alignment, and similarity functions.

These are the substrate for the joiner (Eq. 5), the evaluation metrics
(AED/ANED, §5.4), the CST baseline's common-substring search, and the
AFJ/Ditto similarity features.
"""
