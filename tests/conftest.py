"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.surrogate.pretrained import PretrainedDTT
from repro.tokenizer.byte_tokenizer import ByteTokenizer
from repro.types import ExamplePair


@pytest.fixture(scope="session")
def tokenizer() -> ByteTokenizer:
    return ByteTokenizer()


@pytest.fixture(scope="session")
def pretrained_model() -> PretrainedDTT:
    """One shared induction-engine model (stateless across prompts)."""
    return PretrainedDTT(seed=0)


@pytest.fixture()
def pm_examples() -> list[ExamplePair]:
    """The paper's §2 running example: prime ministers to user ids."""
    return [
        ExamplePair("Justin Trudeau", "jtrudeau"),
        ExamplePair("Stephen Harper", "sharper"),
        ExamplePair("Paul Martin", "pmartin"),
    ]
