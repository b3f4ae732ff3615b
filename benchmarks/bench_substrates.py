"""Micro-benchmarks of the substrates DTT is built on.

These are conventional pytest-benchmark timings (multiple rounds) for
the inner-loop primitives: edit distance, tokenizer round-trips,
program induction, and a transformer training step.
"""

from __future__ import annotations

from repro.datagen.random_text import RandomTextSampler
from repro.model.config import TINY_CONFIG
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.surrogate.induction import InductionEngine
from repro.text.edit_distance import edit_distance, edit_distance_capped
from repro.tokenizer.byte_tokenizer import ByteTokenizer
from repro.types import ExamplePair
from repro.utils.rng import derive_rng


def test_bench_edit_distance(benchmark):
    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown cat leaps over the lazy god"
    benchmark(edit_distance, a, b)


def test_bench_edit_distance_capped(benchmark):
    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown cat leaps over the lazy god"
    benchmark(edit_distance_capped, a, b, 5)


def test_bench_tokenizer_roundtrip(benchmark):
    tokenizer = ByteTokenizer()
    prompt = "<sos>Justin Trudeau<tr>jtrudeau<eoe>Paul Martin<tr>pmartin<eoe>Jean Chretien<tr><eos>"

    def roundtrip() -> str:
        ids = tokenizer.encode(prompt)
        return tokenizer.decode(ids, strip_special=False)

    assert benchmark(roundtrip) == prompt


def test_bench_induction(benchmark):
    engine = InductionEngine()
    sampler = RandomTextSampler()
    rng = derive_rng(0, "bench-induction")
    sources = sampler.sample_many(rng, 2)
    context = [
        ExamplePair(s, s.lower()[2:10] + s.upper()) for s in sources
    ]
    result = benchmark(engine.induce, context)
    assert result.program is not None


def test_bench_transformer_step(benchmark):
    model = ByteSeq2SeqModel(TINY_CONFIG)
    prompts = ["<sos>abc<tr>ABC<eoe>def<tr><eos>"] * 4
    labels = ["DEF"] * 4

    def step() -> float:
        model.network.zero_grad()
        return model.loss_and_backward(prompts, labels)

    benchmark(step)
