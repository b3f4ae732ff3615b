"""A small in-memory knowledge base.

Two consumers:

* the **KBWT benchmark** (paper §5.2) — table pairs whose mapping is a
  semantic KB relation (state → abbreviation, country → citizen, ...)
  rather than a textual transformation;
* the **GPT-3 surrogate** and the **DataXFormer baseline** — both are
  systems the paper credits with KB/world knowledge, which we ground in
  this store.
"""
