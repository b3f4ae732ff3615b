"""Byte-level tokenization (ByT5-style), paper §4.2.

DTT rejects subword tokenizers because table cells are short, often not
natural-language words, and every character may independently contribute
to the output.  The paper adopts ByT5's byte-level scheme: each UTF-8
byte is one token, plus a handful of special tokens for the tabular
serialization (``<sos>``, ``<tr>``, ``<eoe>``, ``<eos>``, ``<pad>``).
"""
