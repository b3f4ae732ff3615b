"""Synthetic data generation: training corpora and evaluation benchmarks.

* :mod:`repro.datagen.random_text` — random source-string sampling.
* :mod:`repro.datagen.training` — transformation *groupings* for model
  training (paper §5.1).
* :mod:`repro.datagen.benchmarks` — the seven evaluation datasets
  (WT, SS, KBWT, Syn, Syn-RP, Syn-ST, Syn-RV) and noise injection.
"""
