"""Evaluation benchmarks (paper §5.2, plus the JAB extension).

Eight datasets, via :func:`repro.datagen.benchmarks.registry.get_dataset`:

* ``WT`` — simulated Web Tables: 31 pairs over 17 topics, natural noise
  and per-row conditional rules.
* ``SS`` — simulated Spreadsheet tasks: 108 pairs, low noise, simple
  syntactic rules.
* ``KBWT`` — 81 pairs whose mapping is a knowledge-base relation.
* ``Syn`` — random 3-6-unit transformations (10 x 100 rows).
* ``Syn-RP`` — single character replacement (easy; unseen unit).
* ``Syn-ST`` — single substring (medium; seen unit).
* ``Syn-RV`` — full reversal (hard; unseen unit).
* ``JAB`` — journal-abbreviation joins with ADS-style noise (dotted
  truncations, initialisms, dropped stopwords, ligature/case variants)
  and aligned ISSN metadata columns.
"""
