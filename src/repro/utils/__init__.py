"""Shared utilities: seeded randomness, timing, and simple logging."""
