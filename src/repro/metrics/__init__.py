"""Evaluation metrics (paper §5.4): join P/R/F1 and AED/ANED."""
