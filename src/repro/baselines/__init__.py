"""Baseline systems the paper compares against (§5.5).

* :class:`CSTJoiner` — Common String-based Transformer (Nobari et al.):
  per-example transformation synthesis over the basic units, coverage
  ranking, exact-match joining.
* :class:`AFJJoiner` — Auto-FuzzyJoin (Li et al.): similarity-function
  fuzzy join with an automatically tuned precision threshold; uses no
  examples.
* :class:`DittoJoiner` — Ditto (Li et al.): a learned entity matcher;
  our stand-in for its DistilBERT backbone is a numpy logistic
  classifier over string-similarity features, trained per table on the
  provided examples.
* :class:`DataXFormerJoiner` — DataXFormer (Abedjan et al.): KB-backed
  transformation discovery, used as the extra KBWT baseline.
"""
