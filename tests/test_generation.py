"""Equivalence and scheduling tests for the incremental generation engine.

The contract mirrors the join engine's: the incremental greedy decode
must be byte-identical to the pre-refactor full-prefix greedy decode
(``ByteSeq2SeqModel.generate_full_prefix``) on every prompt, across
random prompts, early-EOS batches, max-length truncation, and single-row
batches.  Scheduling behaviour (dedupe, micro-batching, compaction, the
non-incremental fallback) is unit-tested against a scripted fake model;
the step path's own contract (one session per micro-batch over length
slabs, per-session constants, exact step counts) against the real one.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import DTTPipeline, IncrementalSequenceModel, MultiModelAggregator
from repro.exceptions import ModelError
from repro.datagen.benchmarks.synthetic import build_syn
from repro.infer import EngineStats, GenerationEngine
from repro.infer import session as session_module
from repro.infer.session import SLAB_WIDTH
from repro.model import ByteSeq2SeqModel, DTTModelConfig, Trainer
from repro.model.config import TINY_CONFIG
from repro.nn.attention import (
    KVCache,
    MultiHeadAttention,
    causal_bias,
    key_mask_bias,
)
from repro.nn.loss import masked_cross_entropy
from repro.types import ExamplePair

_ALPHABET = "abcdefgh 0123456789-_./"


def _random_prompt(rng: random.Random, max_piece: int = 20) -> str:
    def piece(limit: int) -> str:
        return "".join(
            rng.choice(_ALPHABET) for _ in range(rng.randint(1, limit))
        )

    return (
        f"<sos>{piece(max_piece)}<tr>{piece(12)}<eoe>"
        f"{piece(max_piece)}<tr>{piece(12)}<eoe>{piece(max_piece)}<tr><eos>"
    )


def _random_prompts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [_random_prompt(rng) for _ in range(count)]


@pytest.fixture(scope="module")
def trained_model() -> ByteSeq2SeqModel:
    """A tiny model trained on the copy task, so rows emit early EOS."""
    from repro.datagen.training import TrainingInstance

    items = "abcdefgh"
    instances = [
        TrainingInstance(
            prompt=f"<sos>{a}<tr>{a}<eoe>{b}<tr>{b}<eoe>{c}<tr><eos>",
            label=c,
        )
        for a in items
        for b in items
        for c in items[:4]
        if a != b
    ]
    model = ByteSeq2SeqModel(TINY_CONFIG)
    Trainer(model, learning_rate=3e-3, batch_size=32).fit(instances, epochs=6)
    return model


class TestIncrementalEquivalence:
    """Incremental greedy decode is byte-identical to full-prefix decode."""

    def test_random_prompts_byte_identical(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(11, 30)
        prompts += prompts[:8]  # exact duplicates across "trials"
        engine = GenerationEngine(max_batch_size=16)
        assert engine.generate(model, prompts) == model.generate_full_prefix(
            prompts
        )
        # The claim covers padded micro-batches: the 30 unique prompts
        # are two step loops, and their lengths span several slabs.
        slabs = {len(ids) // SLAB_WIDTH for ids in model.tokenize_prompts(prompts)}
        assert len(slabs) >= 3
        assert engine.last_stats.chunks == 2

    def test_model_generate_routes_through_engine(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(12, 10)
        assert model.generate(prompts) == model.generate_full_prefix(prompts)

    def test_early_eos_batches(self, trained_model):
        # Copy-task rows emit <eos> after a couple of tokens, at
        # different steps per row, exercising live compaction.
        prompts = [
            f"<sos>{a}<tr>{a}<eoe>{b}<tr>{b}<eoe>{q}<tr><eos>"
            for a, b, q in [
                ("a", "b", "c"),
                ("d", "e", "f"),
                ("g", "h", "ab"),
                ("b", "c", "dd"),
                ("e", "f", "a"),
            ]
        ]
        engine = GenerationEngine()
        got = engine.generate(trained_model, prompts)
        assert got == trained_model.generate_full_prefix(prompts)
        # Every row emitted <eos> well before the step budget, so the
        # decode terminated early (exact per-step compaction accounting
        # is covered by the scripted-fake test below).
        stats = engine.last_stats
        max_steps = trained_model.config.max_output_length - 1
        assert stats.steps < max_steps * stats.chunks

    def test_max_length_truncation(self):
        config = DTTModelConfig(
            dim=32,
            n_heads=2,
            encoder_layers=1,
            decoder_layers=1,
            ffn_hidden=32,
            max_input_length=64,
            max_output_length=4,
        )
        model = ByteSeq2SeqModel(config)
        prompts = _random_prompts(13, 12)
        engine = GenerationEngine(max_batch_size=4)
        assert engine.generate(model, prompts) == model.generate_full_prefix(
            prompts
        )

    def test_single_row_batches(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(14, 6)
        engine = GenerationEngine(max_batch_size=1)
        got = engine.generate(model, prompts)
        assert got == model.generate_full_prefix(prompts)
        assert engine.last_stats.chunks == len(set(prompts))

    def test_one_prompt(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(15, 1)
        assert model.generate(prompts) == model.generate_full_prefix(prompts)

    def test_empty_prompt_list(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        assert model.generate([]) == []

    def test_zero_token_prompts_decode_without_crashing(self):
        # "" tokenizes to zero tokens and lands alone in the length-0
        # bucket; the session pads the encoder input to width 1 and the
        # degeneracy guard takes over (documented divergence from the
        # batch path, which is why it is excluded from the
        # byte-identical claim).
        model = ByteSeq2SeqModel(TINY_CONFIG)
        engine = GenerationEngine()
        prompts = ["", "<sos>ab<tr><eos>"]
        outputs = engine.generate(model, prompts)
        assert len(outputs) == 2
        assert all(isinstance(o, str) for o in outputs)
        assert outputs == engine.generate(model, prompts)  # deterministic
        # Non-empty prompts keep the byte-identical contract.
        assert outputs[1] == model.generate_full_prefix([prompts[1]])[0]

    def test_trained_model_still_copies(self, trained_model):
        outputs = trained_model.generate(
            ["<sos>a<tr>a<eoe>b<tr>b<eoe>c<tr><eos>"]
        )
        assert outputs == ["c"]

    def test_decode_step_matches_full_decode(self):
        # nn-level: stepping the decoder token by token reproduces the
        # teacher-forcing decode at every position, not just the last.
        from repro.nn.transformer import Seq2SeqTransformer

        net = Seq2SeqTransformer(
            vocab_size=40,
            dim=32,
            n_heads=2,
            encoder_layers=2,
            decoder_layers=2,
            ffn_hidden=64,
            max_length=64,
            seed=3,
        )
        rng = np.random.default_rng(0)
        input_ids = rng.integers(0, 40, size=(3, 11))
        mask = np.ones((3, 11))
        mask[0, 7:] = 0.0
        mask[2, 4:] = 0.0
        target_ids = rng.integers(0, 40, size=(3, 9))
        memory = net.encode(input_ids, mask)
        full = net.decode(target_ids, memory, mask)

        state = net.start_decoder_state(memory, mask, capacity=9)
        stepped = np.stack(
            [net.decode_step(target_ids[:, t], state) for t in range(9)],
            axis=1,
        )
        np.testing.assert_allclose(stepped, full, rtol=0, atol=1e-12)
        assert np.array_equal(stepped.argmax(-1), full.argmax(-1))


class _FakeSession:
    """Scripted decode session: row i emits ``scripts[i]`` then EOS."""

    sos_id = 1
    eos_id = 2

    def __init__(self, scripts: list[list[int]], max_steps: int) -> None:
        self.scripts = [list(s) for s in scripts]
        self.max_steps = max_steps
        self.clock = 0
        self.batch_sizes: list[int] = []

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        self.batch_sizes.append(len(token_ids))
        logits = np.zeros((len(token_ids), 300))
        for slot, script in enumerate(self.scripts):
            token = script[self.clock] if self.clock < len(script) else self.eos_id
            logits[slot, token] = 1.0
        self.clock += 1
        return logits

    def compact(self, keep: np.ndarray) -> None:
        self.scripts = [s for s, k in zip(self.scripts, keep) if k]

    def decode_tokens(self, token_ids) -> str:
        return "".join(chr(t) for t in token_ids if t != self.eos_id)


class _FakeIncrementalModel:
    """Maps each prompt to a scripted output; decodes only via sessions."""

    name = "fake"

    def __init__(self, outputs: dict[str, str], max_steps: int = 10) -> None:
        self.outputs = outputs
        self.max_steps = max_steps
        self.sessions: list[_FakeSession] = []

    def generate(self, prompts):
        raise AssertionError("engine must own the incremental decode loop")

    def tokenize_prompts(self, prompts):
        return [[ord(c) for c in p] for p in prompts]

    def start_decode(self, prompt_ids):
        scripts = [
            [ord(c) for c in self.outputs["".join(chr(i) for i in ids)]]
            for ids in prompt_ids
        ]
        session = _FakeSession(scripts, self.max_steps)
        self.sessions.append(session)
        return session


class _StaticModel:
    """A plain SequenceModel without the incremental interface."""

    name = "static"

    def __init__(self, answer: str = "fixed") -> None:
        self.answer = answer
        self.calls = 0

    def generate(self, prompts):
        self.calls += 1
        return [self.answer for _ in prompts]


class TestEngineScheduling:
    def test_fake_model_satisfies_protocol(self):
        model = _FakeIncrementalModel({})
        assert isinstance(model, IncrementalSequenceModel)
        assert not isinstance(_StaticModel(), IncrementalSequenceModel)

    def test_dedupe_decodes_each_unique_prompt_once(self):
        model = _FakeIncrementalModel({"aa": "xy", "bb": "z"})
        engine = GenerationEngine()
        outputs = engine.generate(model, ["aa", "bb", "aa", "aa", "bb"])
        assert outputs == ["xy", "z", "xy", "xy", "z"]
        assert engine.last_stats.prompts == 5
        assert engine.last_stats.decoded_rows == 2

    def test_dedupe_disabled_decodes_every_row(self):
        model = _FakeIncrementalModel({"aa": "xy"})
        engine = GenerationEngine(dedupe=False)
        engine.generate(model, ["aa", "aa", "aa"])
        assert engine.last_stats.decoded_rows == 3

    def test_compaction_shrinks_live_batch(self):
        # Rows finish at steps 1, 2, 3, and 6: the live batch must
        # shrink as each row emits EOS instead of dragging along.
        model = _FakeIncrementalModel(
            {"a": "", "b": "x", "c": "xy", "d": "xyzzy"}
        )
        engine = GenerationEngine()
        outputs = engine.generate(model, ["a", "b", "c", "d"])
        assert outputs == ["", "x", "xy", "xyzzy"]
        (session,) = model.sessions
        assert session.batch_sizes == [4, 3, 2, 1, 1, 1]

    def test_length_bucketing_chunks_by_prompt_length(self, monkeypatch):
        # Length slabs belong to the encode, not to the schedule: prompts
        # spanning three slabs open ONE session, whose encoder pass runs
        # once per slab at that slab's own padded width.
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = [
            f"<sos>{'x' * n}<tr><eos>" for n in (40, 2, 20, 37, 5, 17)
        ]
        lengths = [len(ids) for ids in model.tokenize_prompts(prompts)]
        assert lengths == [43, 5, 23, 40, 8, 20]
        encoded: list[tuple[int, int]] = []
        sessions: list[int] = []
        infer_encode, start_decode = model.network.infer_encode, model.start_decode

        def counting_encode(input_ids, input_mask):
            encoded.append(input_ids.shape)
            return infer_encode(input_ids, input_mask)

        def counting_start(prompt_ids):
            sessions.append(len(prompt_ids))
            return start_decode(prompt_ids)

        monkeypatch.setattr(model.network, "infer_encode", counting_encode)
        monkeypatch.setattr(model, "start_decode", counting_start)
        engine = GenerationEngine()
        got = engine.generate(model, prompts)
        assert sessions == [6]
        assert sorted(encoded) == [(2, 8), (2, 23), (2, 43)]
        assert engine.last_stats.chunks == 1
        # Outputs come back in caller order.
        assert got == model.generate_full_prefix(prompts)
        assert got == [model.generate_full_prefix([p])[0] for p in prompts]

    def test_max_batch_size_splits_buckets(self):
        # The batch cap is the only cut: prompt lengths 1..5 x 20 tokens
        # would have been five buckets, and are ceil(5 / 2) step loops.
        outputs = {"p" * (20 * i + 1): str(i) for i in range(5)}
        model = _FakeIncrementalModel(outputs)
        engine = GenerationEngine(max_batch_size=2)
        assert engine.generate(model, list(outputs)) == list(outputs.values())
        assert engine.last_stats.chunks == 3
        assert [len(s.scripts) for s in model.sessions] == [2, 2, 1]

    def test_fallback_for_non_incremental_models(self):
        model = _StaticModel("out")
        engine = GenerationEngine()
        assert engine.generate(model, ["p1", "p2"]) == ["out", "out"]
        assert model.calls == 1

    def test_fallback_refreshes_stats(self):
        engine = GenerationEngine()
        engine.generate(_FakeIncrementalModel({"aa": "x"}), ["aa", "aa"])
        engine.generate(_StaticModel("s"), ["p1", "p2", "p3"])
        assert engine.last_stats.prompts == 3
        assert engine.last_stats.decoded_rows == 0

    def test_model_level_engine_overrides_scheduler(self):
        # A model configured with its own (sampling) engine keeps that
        # behaviour even when a greedy scheduler drives the ensemble:
        # the most specific engine wins.
        model = ByteSeq2SeqModel(
            TINY_CONFIG, engine=GenerationEngine(mode="sample", seed=4)
        )
        scheduler = GenerationEngine()
        prompts = _random_prompts(19, 1) * 3
        outputs = scheduler.generate(model, prompts)
        assert outputs == model.engine.generate(model, prompts)
        # Sampling never dedupes, so all three duplicates decoded.
        assert model.engine.last_stats.decoded_rows == 3
        assert scheduler.last_stats == model.engine.last_stats

    def test_run_schedules_mixed_ensembles(self):
        incremental = _FakeIncrementalModel({"p": "inc"})
        static = _StaticModel("sur")
        engine = GenerationEngine()
        outputs = engine.run([(incremental, ["p", "p"]), (static, ["p", "p"])])
        assert outputs == [["inc", "inc"], ["sur", "sur"]]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            GenerationEngine(mode="beam")
        with pytest.raises(ValueError):
            GenerationEngine(mode="sample", temperature=0.0)
        with pytest.raises(ValueError):
            GenerationEngine(max_batch_size=0)
        with pytest.raises(TypeError):  # not a knob: slabs are the session's
            GenerationEngine(bucket_width=16)


class TestSampledMode:
    def test_sampling_is_deterministic_given_seed(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(16, 6)
        engine = GenerationEngine(mode="sample", temperature=1.0, seed=5)
        assert engine.generate(model, prompts) == engine.generate(
            model, prompts
        )

    def test_different_seeds_differ(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _random_prompts(17, 6)
        first = GenerationEngine(mode="sample", seed=1).generate(model, prompts)
        second = GenerationEngine(mode="sample", seed=2).generate(model, prompts)
        assert first != second

    def test_sampling_never_dedupes(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        engine = GenerationEngine(mode="sample", seed=3, dedupe=True)
        prompts = _random_prompts(18, 1) * 4
        engine.generate(model, prompts)
        assert engine.last_stats.decoded_rows == 4


class TestEngineInPipeline:
    def test_pipeline_with_neural_model(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        pipeline = DTTPipeline(
            model, n_trials=2, engine=GenerationEngine(max_batch_size=16)
        )
        examples = [
            ExamplePair("aa", "AA"),
            ExamplePair("bb", "BB"),
            ExamplePair("cc", "CC"),
        ]
        predictions = pipeline.transform_column(["dd", "ee"], examples)
        assert len(predictions) == 2
        assert pipeline.engine.last_stats.prompts > 0

    def test_mixed_ensemble_pools_candidates(self):
        ensemble = MultiModelAggregator(
            [_FakeIncrementalModel({"p": "inc"}), _StaticModel("sur")]
        )
        assert ensemble.generate_candidates(["p", "p"]) == [
            ["inc", "sur"],
            ["inc", "sur"],
        ]


class TestAttentionIncrementals:
    def test_causal_bias_cached_and_readonly(self):
        first = causal_bias(5, 5)
        # Views over one shared backing mask, never rebuilt per shape.
        assert causal_bias(5, 5).base is first.base
        assert causal_bias(3, 7).base is first.base
        assert not first.flags.writeable
        assert first[2, 3] < -1e8 and first[3, 2] == 0.0
        # Top-aligned slices match the np.tril the decoder used to build.
        np.testing.assert_array_equal(
            causal_bias(3, 7),
            (1.0 - np.tril(np.ones((3, 7)))) * -1e9,
        )

    def test_kv_cache_overflow_raises(self):
        cache = KVCache(batch=1, n_heads=2, capacity=1, head_dim=4)
        step = np.zeros((1, 2, 1, 4))
        cache.append(step, step)
        with pytest.raises(ModelError):
            cache.append(step, step)

    def test_kv_cache_select_keeps_rows(self):
        cache = KVCache(batch=3, n_heads=2, capacity=4, head_dim=4)
        step = np.arange(3 * 2 * 4, dtype=float).reshape(3, 2, 1, 4)
        cache.append(step, step)
        cache.select(np.array([True, False, True]))
        keys, _ = cache.view()
        assert keys.shape == (2, 2, 1, 4)
        np.testing.assert_array_equal(keys, step[[0, 2]])

    def test_fully_padded_rows_yield_zero_context(self):
        # Degenerate masked softmax: with zero real keys the incremental
        # path must not average over padding — the context is defined as
        # zero, so only the output projection's bias survives.
        rng = np.random.default_rng(0)
        attention = MultiHeadAttention(dim=8, n_heads=2, rng=rng)
        memory = rng.normal(size=(2, 5, 8))
        queries = rng.normal(size=(2, 8))
        keys, values = attention.project_kv(memory)
        key_mask = np.ones((2, 5))
        key_mask[1, :] = 0.0  # row 1 has no real keys
        key_mask[0, 3:] = 0.0
        out = attention.attend_step(
            attention.query_proj.infer(queries),
            keys,
            values,
            key_mask_bias(key_mask),
            ~key_mask.any(axis=-1),
        )
        np.testing.assert_array_equal(out[1], attention.output_proj.bias.value)
        assert np.isfinite(out).all()
        # A padded column carries exactly zero weight: row 0 over its
        # three real keys alone is the same context.
        alone = attention.attend_step(
            attention.query_proj.infer(queries[:1]), keys[:1, :, :3], values[:1, :, :3]
        )
        np.testing.assert_allclose(out[:1], alone, rtol=0, atol=1e-12)


def _token_prompts(lengths: list[int], seed: int = 0) -> list[list[int]]:
    """Byte-token prompts of the given lengths (ids clear of the specials)."""
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(10, 250, size=n)] for n in lengths]


def _greedy_logits(session, steps: int) -> np.ndarray:
    """Step ``session`` greedily; returns ``(steps, batch, vocab)`` logits."""
    current = np.full(session.batch_size, session.sos_id, dtype=np.int64)
    logits = []
    for _ in range(steps):
        logits.append(session.step(current))
        current = logits[-1].argmax(axis=-1)
    return np.stack(logits)


class TestStepPathContract:
    """One session per micro-batch: slabs, per-session constants, counts."""

    def test_mixed_length_session_equals_one_session_per_slab(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        lengths = [40, 3, 18, 33, 12, 30, 47, 16]  # three slabs, unsorted
        prompts = _token_prompts(lengths)
        mixed = _greedy_logits(model.start_decode(prompts), 10)
        for slab in {n // SLAB_WIDTH for n in lengths}:
            rows = [i for i, n in enumerate(lengths) if n // SLAB_WIDTH == slab]
            alone = _greedy_logits(
                model.start_decode([prompts[i] for i in rows]), 10
            )
            np.testing.assert_allclose(mixed[:, rows], alone, rtol=0, atol=1e-12)
            assert np.array_equal(
                mixed[:, rows].argmax(axis=-1), alone.argmax(axis=-1)
            )

    def test_empty_rows_keep_zero_context_through_compaction(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _token_prompts([35, 0, 20, 0, 6])
        session = model.start_decode(prompts)
        state = session.state
        block = state.blocks[0]
        fused = block.qkv_weight.copy()
        assert state.memory_bias.shape == (5, 1, 1, 35)
        assert state.memory_empty.tolist() == [False, True, False, True, False]
        # The zero-token row decodes as it would alone (zero context),
        # whatever the memory its slab-mates left beside it.
        lonely = _greedy_logits(model.start_decode([[]]), 2)
        first = session.step(np.full(5, session.sos_id, dtype=np.int64))
        np.testing.assert_allclose(first[[1, 3]], lonely[[0, 0], 0], rtol=0, atol=1e-12)

        bias, keys = state.memory_bias, block.self_kv.view()[0]
        keep = np.array([False, True, True, False, True])
        session.compact(keep)
        assert session.batch_size == state.batch_size == 3
        assert state.memory_empty.tolist() == [True, False, False]
        np.testing.assert_array_equal(state.memory_bias, bias[keep])
        np.testing.assert_array_equal(block.self_kv.view()[0], keys[keep])
        assert block.cross_keys.shape[0] == 3
        np.testing.assert_array_equal(block.qkv_weight, fused)
        second = session.step(first[keep].argmax(axis=-1))
        np.testing.assert_allclose(second[0], lonely[1, 0], rtol=0, atol=1e-12)
        session.compact(np.array([False, True, True]))
        assert state.memory_empty.tolist() == [False, False]
        assert np.isfinite(session.step(second[1:].argmax(axis=-1))).all()

    def test_rows_retire_at_different_steps_from_a_padded_batch(
        self, trained_model
    ):
        prompts = [
            f"<sos>{a}<tr>{a}<eoe>{b}<tr>{b}<eoe>{q}<tr><eos>"
            for a, b, q in [
                ("g", "h", "ab"),
                ("abcdefgh", "hgfedcba", "cab"),
                ("g" * 20, "h" * 20, "a"),
                ("b", "c", "dd"),
                ("abcdefgh" * 3, "h", "b"),
            ]
        ]
        lengths = [len(ids) for ids in trained_model.tokenize_prompts(prompts)]
        assert len({n // SLAB_WIDTH for n in lengths}) >= 3
        engine = GenerationEngine()
        got = engine.generate(trained_model, prompts)
        assert got == trained_model.generate_full_prefix(prompts)
        stats = engine.last_stats
        assert stats.chunks == 1
        # Some row left the padded batch before the last one did.
        assert len(set(map(len, got))) > 1
        assert stats.row_steps < stats.steps * stats.decoded_rows

    def test_session_between_forward_and_backward_keeps_gradients(self):
        # The fused q/k/v weight is a copy on the session's state, not a
        # view of the parameters the optimizer updates in place.
        prompts = ["<sos>ab<tr>AB<eoe>cd<tr><eos>", "<sos>efg<tr>EFG<eoe>h<tr><eos>"]
        labels = ["CD", "H"]

        def gradients(interleave: bool) -> list[np.ndarray]:
            model = ByteSeq2SeqModel(TINY_CONFIG)
            input_ids, input_mask, decoder_in, targets, target_mask = (
                model.prepare_batch(prompts, labels)
            )
            logits = model.network.forward(input_ids, decoder_in, input_mask)
            if interleave:
                session = model.start_decode(_token_prompts([30, 4, 19]))
                _greedy_logits(session, 3)
                attn = model.network.decoder_blocks[0].self_attention
                fused = session.state.blocks[0].qkv_weight
                for proj in (attn.query_proj, attn.key_proj, attn.value_proj):
                    assert not np.shares_memory(fused, proj.weight.value)
                fused[:] = 0.0
            _, grad_logits = masked_cross_entropy(logits, targets, target_mask)
            model.network.backward(grad_logits)
            return [p.grad.copy() for p in model.network.parameters()]

        for plain, interleaved in zip(
            gradients(False), gradients(True), strict=True
        ):
            assert np.array_equal(plain, interleaved)

    @pytest.mark.parametrize(
        ("n_rows", "decoded_rows", "encodes"), ((1, 5, 3), (20, 99, 17))
    )
    def test_step_loops_match_the_recorded_counts(
        self, monkeypatch, n_rows, decoded_rows, encodes
    ):
        # The repo benchmark's transform shape, rebuilt here (dim 64,
        # 3+1 layers, 48-token budget, 5 trials, 8 Syn examples; the
        # untrained model never emits <eos>).  Recorded in the commit
        # that made a micro-batch one session: a one-row request used to
        # be 2-3 length-bucketed chunks of 47 steps each and is one; 20
        # rows were 4 chunks / 188 steps and are 2 / 94, over the same
        # 47 steps per decoded row.  ``encodes`` counts encoder tiles,
        # re-recorded when slabs became tiles of at most TILE_CELLS
        # cells: the one-row request's 3 slabs are 3 tiles, the 20-row
        # call's 5 slab encodes are 17 tiles.  Counts, not timings: a
        # change that moves them re-records them on purpose or is wrong.
        model = ByteSeq2SeqModel(
            DTTModelConfig(
                dim=64,
                n_heads=4,
                encoder_layers=3,
                decoder_layers=1,
                ffn_hidden=128,
                max_input_length=192,
                max_output_length=48,
                seed=0,
            )
        )
        table = build_syn(seed=20240, n_tables=1, rows=28)[0]
        examples = [
            ExamplePair(source, target)
            for source, target in zip(table.sources[:8], table.targets[:8])
        ]
        calls = {"start_decode": 0, "infer_encode": 0}
        lock = threading.Lock()  # tiles encode on helper threads

        def counting(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args):
                with lock:
                    calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(model, "start_decode")
        counting(model.network, "infer_encode")
        pipeline = DTTPipeline(model, n_trials=5)
        pipeline.transform_column(table.sources[8 : 8 + n_rows], examples)
        stats = pipeline.engine.last_stats
        chunks = -(-decoded_rows // pipeline.engine.max_batch_size)
        assert stats == EngineStats(
            prompts=5 * n_rows,
            decoded_rows=decoded_rows,
            chunks=chunks,
            steps=47 * chunks,
            row_steps=47 * decoded_rows,
        )
        assert calls == {"start_decode": chunks, "infer_encode": encodes}


def _session_memory(monkeypatch, model, prompt_ids):
    """The ``(memory, memory_mask)`` a session hands the decoder."""
    opened = []
    start_decoder_state = model.network.start_decoder_state

    def recording(memory, memory_mask, capacity=None):
        opened.append((memory, memory_mask))
        return start_decoder_state(memory, memory_mask, capacity=capacity)

    monkeypatch.setattr(model.network, "start_decoder_state", recording)
    model.start_decode(prompt_ids)
    (memory_and_mask,) = opened
    return memory_and_mask


def _fork_child_logits(model, prompts, conn) -> None:
    """Fork-started child: encode and step a multi-tile session, send logits."""
    conn.send(_greedy_logits(model.start_decode(prompts), 3))
    conn.close()


class TestEncodeTiles:
    """Each slab encodes as row tiles on the caller plus helper threads."""

    # Lengths straddling slab edges (31 | 32, 47 | 48), two one-row
    # slabs (48, 64), and zero-token prompts in a slab of their own.
    LENGTHS = [16, 31, 0, 32, 17, 47, 0, 30, 16, 33, 31, 20, 48, 64]

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("tile_cells", [session_module.TILE_CELLS, 1 << 11, 1])
    def test_tiled_memory_equals_one_encode_per_slab(
        self, monkeypatch, cores, tile_cells
    ):
        # 1 core: the caller runs every tile, no helper is started.
        # 3 cores: two helpers drain beside it.  At 1 << 11 cells the
        # widths 31..64 split into tiles of two rows or one; at 1
        # every row is its own tile.  The default puts each slab in one.
        started = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(session_module, "_CORES", cores)
        monkeypatch.setattr(session_module, "TILE_CELLS", tile_cells)
        monkeypatch.setattr(session_module, "ThreadPoolExecutor", SpyExecutor)
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _token_prompts(self.LENGTHS)
        memory, memory_mask = _session_memory(monkeypatch, model, prompts)
        assert started == ([] if cores == 1 else [2])

        assert memory.shape[:2] == memory_mask.shape == (len(prompts), 64)
        for slab in {n // SLAB_WIDTH for n in self.LENGTHS}:
            rows = [i for i, n in enumerate(self.LENGTHS) if n // SLAB_WIDTH == slab]
            input_ids, input_mask = model.tokenizer.pad_batch(
                [prompts[i] for i in rows]
            )
            if input_ids.shape[1] == 0:
                input_ids = np.full((len(rows), 1), model.tokenizer.vocab.pad_id)
                input_mask = np.zeros((len(rows), 1))
            width = input_ids.shape[1]
            whole = model.network.infer_encode(input_ids, input_mask)
            assert np.array_equal(memory[rows, :width], whole)
            assert np.array_equal(memory_mask[rows, :width], input_mask)
            assert not memory[rows, width:].any()
            assert not memory_mask[rows, width:].any()

    def test_helpers_do_not_outlive_the_encode(self, monkeypatch):
        # A helper left idle after the encode would make every later
        # process pool in this process give up fork.
        from repro.index.parallel import pool_context

        monkeypatch.setattr(session_module, "_CORES", 2)
        monkeypatch.setattr(session_module, "TILE_CELLS", 1)
        before = threading.active_count()
        model = ByteSeq2SeqModel(TINY_CONFIG)
        model.start_decode(_token_prompts([20, 21, 22, 23]))
        assert threading.active_count() == before
        if before == 1 and "fork" in multiprocessing.get_all_start_methods():
            assert pool_context().get_start_method() == "fork"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_encodes_multi_tile_sessions(self, monkeypatch):
        # Encode with helpers in the parent, then fork: the child's
        # multi-tile session must finish (no inherited executor whose
        # threads are gone) and return the parent's bytes.
        monkeypatch.setattr(session_module, "_CORES", 2)
        monkeypatch.setattr(session_module, "TILE_CELLS", 1 << 11)
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = _token_prompts(self.LENGTHS)
        expected = _greedy_logits(model.start_decode(prompts), 3)

        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(
            target=_fork_child_logits, args=(model, prompts, send), daemon=True
        )
        child.start()
        send.close()
        try:
            assert receive.poll(60), "forked child hung in its encode"
            got = receive.recv()
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert np.array_equal(got, expected)
