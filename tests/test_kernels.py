"""Kernel backends: registry semantics and byte equivalence everywhere.

The kernel layer (``repro.index.kernels``) claims the Myers
bit-parallel backend is *byte-identical* to the reference numpy DP —
and, transitively, to the scalar
:func:`repro.text.edit_distance.edit_distance` oracle.  These tests
enforce that claim with randomized cross-backend fuzz (caps 0-8, empty
strings, multi-block queries past 64 characters, pad-boundary lengths
63/64/65), end-to-end joiner equivalence on every registered dataset,
backend inheritance by worker processes, registry/env resolution
semantics, and the
per-backend pairs-scored accounting surfaced through ``JoinStats`` and
the serving layer.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index
from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.datagen.benchmarks.journals import JOURNAL_TITLES
from repro.datagen.benchmarks.registry import get_dataset
from repro.eval.experiments import TABLE1_DATASETS
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner
from repro.index.kernel import encode_strings
from repro.index.kernels import (
    KERNEL_BACKENDS,
    KernelBackend,
    bitparallel,
    get_backend,
    pairs_scored_snapshot,
    resolve_backend,
)
from repro.text.edit_distance import edit_distance

from fuzz import FUZZ_ALPHABET, random_edits, random_unicode_string

#: Every registered benchmark: the Table 1 datasets, then JAB.
_DATASETS = (*TABLE1_DATASETS, "JAB")

_SEED = 987


def _oracle(query: str, candidates: list[str], cap: int) -> list[int]:
    """The scalar uncapped DP, clamped to the capped contract."""
    return [min(edit_distance(query, c), cap + 1) for c in candidates]


def _score_one(kernel, query: str, candidates: list[str], cap: int) -> np.ndarray:
    """One query against ``candidates`` through the pair door: ``p = 1``."""
    query_rows, query_lengths = encode_strings([query])
    cand_codes, cand_lengths = encode_strings(candidates)
    ids = np.zeros(len(candidates), dtype=np.int64)
    return kernel.edit_distance_pairs(
        query_rows, query_lengths, ids, cand_codes, cand_lengths, cap
    )


class TestRegistry:
    def test_every_declared_backend_resolves(self):
        for name in KERNEL_BACKENDS:
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("simd9000")

    def test_join_config_validates_backend(self, monkeypatch):
        # The backend is not a config field any more: JoinConfig refuses
        # it, and the name is validated where it is read, the environment.
        with pytest.raises(TypeError):
            JoinConfig(kernel_backend="bitparallel")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "simd9000")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            IndexedJoiner(cache=IndexCache())

    def test_env_var_selects_the_backend(self, monkeypatch):
        for name in KERNEL_BACKENDS:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            assert resolve_backend().name == name
            assert IndexedJoiner(cache=IndexCache()).kernel.name == name
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert resolve_backend().name == "bitparallel"

    def test_empty_env_var_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "")
        assert resolve_backend().name == "bitparallel"

    def test_env_var_typo_rejected(self, monkeypatch):
        # A misspelling, and the two backends that were deleted.
        for name in ("bitparalel", "banded", "auto"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            with pytest.raises(
                ValueError, match=r"unknown kernel backend.*'reference', 'bitparallel'"
            ):
                resolve_backend()


class TestScalarOracleFuzz:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_randomized_columns(self, backend):
        rng = random.Random(_SEED)
        kernel = get_backend(backend)
        for trial in range(25):
            max_len = rng.choice((6, 14, 63, 64, 65, 90))
            candidates = [
                random_unicode_string(rng, max_length=max_len)
                for _ in range(rng.randint(1, 60))
            ]
            candidates.append("")  # always cover the empty candidate
            base = rng.choice(candidates)
            query = random_edits(rng, base, rng.randint(0, 3))
            cap = rng.randint(0, 8)
            got = _score_one(kernel, query, candidates, cap)
            assert got.dtype == np.int64
            assert got.tolist() == _oracle(query, candidates, cap), (
                backend,
                trial,
                query,
                cap,
            )

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_pad_boundary_and_multiblock_queries(self, backend):
        # Queries straddling the 64-bit word boundary exercise the
        # multi-block chaining.
        rng = random.Random(_SEED + 1)
        kernel = get_backend(backend)
        for m in (63, 64, 65, 128, 130):
            query = "".join(
                rng.choice(FUZZ_ALPHABET) for _ in range(m)
            )
            candidates = [
                query,
                query[:-1],
                query + "x",
                random_edits(rng, query, 3),
                random_edits(rng, query, 9),
                query[: m // 2],
                "",
            ]
            for cap in (0, 1, 4, 8):
                got = _score_one(kernel, query, candidates, cap)
                assert got.tolist() == _oracle(query, candidates, cap), (
                    backend,
                    m,
                    cap,
                )

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_empty_query_and_empty_batch(self, backend):
        kernel = get_backend(backend)
        assert _score_one(kernel, "", ["", "ab", "abcd"], 2).tolist() == [0, 2, 3]
        assert _score_one(kernel, "abc", [], 2).size == 0

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_pairs_lockstep_matches_oracle(self, backend):
        rng = random.Random(_SEED + 2)
        kernel = get_backend(backend)
        for m in (3, 17, 64, 80):
            queries = [
                "".join(rng.choice(FUZZ_ALPHABET) for _ in range(m))
                for _ in range(40)
            ]
            candidates = [
                random_edits(rng, q, rng.randint(0, 4)) for q in queries
            ]
            query_codes, query_lengths = encode_strings(queries)
            cand_codes, cand_lengths = encode_strings(candidates)
            for cap in (0, 2, 5):
                got = kernel.edit_distance_pairs(
                    query_codes,
                    query_lengths,
                    np.arange(len(queries)),
                    cand_codes,
                    cand_lengths,
                    cap,
                )
                want = [
                    min(edit_distance(q, c), cap + 1)
                    for q, c in zip(queries, candidates, strict=True)
                ]
                assert got.tolist() == want, (backend, m, cap)

    @pytest.mark.parametrize("backend", ("bitparallel",))
    def test_compaction_under_large_batches(self, backend):
        # Enough settled candidates to trip the batch-compaction path.
        rng = random.Random(_SEED + 3)
        kernel = get_backend(backend)
        query = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(30))
        candidates = [random_edits(rng, query, rng.randint(0, 2)) for _ in range(300)]
        candidates += [
            random_unicode_string(rng, max_length=34, min_length=26)
            for _ in range(1500)
        ]
        for cap in (1, 3):
            got = _score_one(kernel, query, candidates, cap)
            assert got.tolist() == _oracle(query, candidates, cap), cap


def _edited(text: str, edits: list[tuple[int, int, str]]) -> str:
    """``text`` after ``(op, position, char)`` edits: 0 sub, 1 insert, 2 delete."""
    chars = list(text)
    for op, position, char in edits:
        at = position % (len(chars) + 1)
        if op == 1 or not chars:
            chars.insert(at, char)
        elif op == 0:
            chars[at % len(chars)] = char
        else:
            del chars[at % len(chars)]
    return "".join(chars)


@st.composite
def _mixed_length_calls(draw):
    """``(queries, ids, candidates, cap)``: one pair-door call, any lengths mixed."""
    # Astral, combining and lone-surrogate characters beside ASCII; few
    # symbols, so random strings still share characters.
    char = st.sampled_from("ab\U0001F600\ud800e\u0301")
    length = st.sampled_from((0, 1, 2, 5, 20, 63, 64, 65, 100, 128, 129))
    queries = [
        "".join(draw(st.lists(char, min_size=m, max_size=m)))
        for m in draw(st.lists(length, min_size=1, max_size=4))
    ]
    ids = draw(st.lists(st.integers(0, len(queries) - 1), min_size=1, max_size=8))
    edit = st.tuples(st.integers(0, 2), st.integers(0, 200), char)
    candidates = [
        _edited(queries[i], draw(st.lists(edit, max_size=6)))
        if draw(st.booleans())
        else "".join(draw(st.lists(char, max_size=len(queries[i]) + 3)))
        for i in ids
    ]
    return queries, ids, candidates, draw(st.sampled_from((0, 1, 2, 5, 300)))


# Astral-plane characters next to lone surrogates, which cannot be
# utf-32 encoded and push ``encode_strings`` onto its per-string path.
_HOSTILE_ALPHABET = "ab\U0001F600\U0001F680\U00010348\ud800\udbff\udc00\udfff"


def _same_length_queries(rng, p, m, alphabet=FUZZ_ALPHABET):
    return ["".join(rng.choice(alphabet) for _ in range(m)) for _ in range(p)]


def _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap):
    """``edit_distance_pairs`` on (table, ids) vs the scalar DP per pair."""
    query_rows, query_lengths = encode_strings(queries)
    cand_codes, cand_lengths = encode_strings(candidates)
    got = kernel.edit_distance_pairs(
        query_rows,
        query_lengths,
        np.asarray(ids, dtype=np.int64),
        cand_codes,
        cand_lengths,
        cap,
    )
    want = [
        min(edit_distance(queries[i], c), cap + 1)
        for i, c in zip(ids, candidates, strict=True)
    ]
    assert got.dtype == np.int64
    assert got.tolist() == want, (kernel.name, [len(q) for q in queries], cap)


# Lengths either side of the one- and two-word boundaries, in one table.
_MIXED_LENGTHS = (1, 63, 64, 65, 128, 129)
# Lone surrogates and astral characters plus combining marks.
_DIFF_ALPHABET = _HOSTILE_ALPHABET + "e\u0301o\u0308 J"


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
class TestPairIdentityContract:
    """Probe identity is an argument: a padded table, its lengths, one id per pair."""

    @pytest.mark.parametrize(
        "alphabet", (FUZZ_ALPHABET, _DIFF_ALPHABET), ids=("plain", "hostile")
    )
    def test_mixed_lengths_in_one_call(self, backend, alphabet):
        # One table holding every boundary length at once: each pair is
        # scored at its own row's length.  For bit-parallel this is also
        # the regression test for pad reaching the alphabet — a row past
        # 64 characters beside short rows pads the short ones, and a
        # symbol table sized by the pad value is a 32 GiB allocation.
        rng = random.Random(_SEED + 14 + len(alphabet))
        kernel = get_backend(backend)
        queries = [
            "".join(rng.choice(alphabet) for _ in range(m))
            for m in (*_MIXED_LENGTHS, 7, 40)
        ]
        # Out of order, repeated non-adjacently; rows 6 and 7 never named.
        ids = [5, 0, 3, 1, 4, 2, 0, 5, 2, 1, 3, 4, 4, 1, 0, 3, 5, 2]
        candidates = [
            random_edits(rng, queries[i], rng.randint(0, 4), alphabet) for i in ids
        ]
        candidates[1] = ""  # empty candidate against the 1-character row
        candidates[4] = ""  # ... and against a two-word row
        candidates[8] = queries[2][:20]  # far below its row's length window
        candidates[11] = queries[4]  # an exact match at m = 128
        candidates[13] = queries[1] + "x" * 3  # just past the one-word edge
        for cap in (0, 2, 129 + 12):
            _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap)

    def test_mixed_lengths_with_an_empty_row_and_compaction(self, backend):
        # Enough doomed pairs to compact mid-sweep while rows of three
        # word counts (and an empty query) share the call.
        rng = random.Random(_SEED + 15)
        kernel = get_backend(backend)
        queries = ["", *_same_length_queries(rng, 2, 30), "y" * 70, "z" * 130]
        queries[2] = queries[2][:24]
        ids, candidates = [], []
        for n in range(1600):
            row = rng.randrange(len(queries))
            ids.append(row)
            if n % 5 == 0:
                candidates.append(random_edits(rng, queries[row], rng.randint(0, 2)))
            else:
                candidates.append(
                    random_unicode_string(rng, max_length=34, min_length=22)
                )
        for cap in (1, 3):
            _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap)

    @pytest.mark.parametrize("m", (1, 63, 64, 65, 128, 129))
    def test_ids_in_any_order_over_a_subset_of_rows(self, backend, m):
        rng = random.Random(_SEED + 10 + m)
        kernel = get_backend(backend)
        queries = _same_length_queries(rng, 7, m)
        queries[4] = queries[1]  # one probe twice, under two ids
        # Unsorted, ids repeated non-adjacently, rows 0 and 2 never named.
        ids = [5, 6, 3, 6, 5, 1, 4, 6, 3, 1, 4, 5, 6]
        candidates = [random_edits(rng, queries[i], rng.randint(0, 4)) for i in ids]
        candidates[2] = ""  # zero-length candidate
        candidates[6] = queries[4][: m // 3]  # far below the length window
        candidates[9] = queries[1] + "x" * 12  # far above it
        # The last cap is wide enough to make the band vacuous.
        for cap in (0, 2, 5, m + 12):
            _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap)

    def test_single_row_table(self, backend):
        rng = random.Random(_SEED + 11)
        kernel = get_backend(backend)
        queries = _same_length_queries(rng, 1, 20)
        candidates = [random_edits(rng, queries[0], n) for n in (0, 1, 3, 6, 2)]
        candidates.append("")
        for cap in (0, 3, 40):
            _assert_pairs_match_oracle(
                kernel, queries, [0] * len(candidates), candidates, cap
            )

    def test_compaction_keeps_ids_aligned(self, backend):
        # Mostly doomed pairs, interleaved across four probes: the sweep
        # compacts mid-way and the survivors must keep their own query.
        rng = random.Random(_SEED + 12)
        kernel = get_backend(backend)
        queries = _same_length_queries(rng, 5, 30)
        ids, candidates = [], []
        for n in range(1800):
            row = rng.choice((0, 1, 3, 4))
            ids.append(row)
            if n % 6 == 0:
                candidates.append(random_edits(rng, queries[row], rng.randint(0, 2)))
            else:
                candidates.append(
                    random_unicode_string(rng, max_length=34, min_length=26)
                )
        for cap in (1, 3):
            _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap)

    @pytest.mark.parametrize("m", (5, 70))
    def test_astral_and_lone_surrogate_alphabet(self, backend, m):
        rng = random.Random(_SEED + 13 + m)
        kernel = get_backend(backend)
        queries = _same_length_queries(rng, 4, m, _HOSTILE_ALPHABET)
        ids = [3, 1, 0, 3, 2, 1, 0, 2]
        candidates = [
            random_edits(rng, queries[i], rng.randint(0, 3), _HOSTILE_ALPHABET)
            for i in ids
        ]
        for cap in (0, 2, 6):
            _assert_pairs_match_oracle(kernel, queries, ids, candidates, cap)


class TestScalarOracleProperty:
    @settings(max_examples=200, deadline=None)
    @given(_mixed_length_calls())
    def test_every_backend_equals_the_scalar_dp(self, call):
        # The scalar DP in repro.text shares no code with index/, so it
        # is the one oracle the kernels cannot drift along with.
        queries, ids, candidates, cap = call
        for backend in KERNEL_BACKENDS:
            _assert_pairs_match_oracle(
                get_backend(backend), queries, ids, candidates, cap
            )


# The same journals under ADS and ISI abbreviation rules (*Astronomers
# and the Science Citation Index*, PAPERS.md): truncations of one title
# that share few grams with each other.
_ADS_ISI = (
    ("ApJ", "ASTROPHYS J"),
    ("ApJS", "ASTROPHYS J SUPPL S"),
    ("AJ", "ASTRON J"),
    ("A&A", "ASTRON ASTROPHYS"),
    ("MNRAS", "MON NOT R ASTRON SOC"),
    ("PASP", "PUBL ASTRON SOC PAC"),
)
@functools.cache
def _hostile_column():
    """``(targets, probes, brute answers)`` for the single-column differential.

    The brute side is a pure-Python scan, so it is computed once for
    all backends and the long values stay few.
    """
    rng = random.Random(_SEED + 20)
    values = ["", *(name for pair in _ADS_ISI for name in pair)]
    values += [
        "".join(rng.choice(_DIFF_ALPHABET) for _ in range(length))
        for length in (1, 63, 64, 65, 127, 128, 129)
    ]
    probes = [random_edits(rng, v, rng.randint(0, 3), _DIFF_ALPHABET) for v in values]
    for _ in range(3):
        # Two values exactly tied for one probe: the earlier row wins.
        base = "".join(rng.choice(_DIFF_ALPHABET) for _ in range(12))
        values += [base[:5] + "X" + base[6:], base[:5] + "Y" + base[6:]]
        probes.append(base[:5] + "Z" + base[6:])
    probes += ["", "Astrophys. J.", "zq" * 20]
    targets = values * 2  # every value at two rows
    rng.shuffle(targets)
    brute = EditDistanceJoiner(JoinConfig())
    want = {
        "join_many": brute.join_many(probes, targets),
        "topk_many": brute.topk_many(probes, targets, k=3),
        "reverse_many": brute.reverse_many(probes, targets),
    }
    return targets, probes, want


def _joiner_worker(inherited):
    """Worker handler: join one shard of probes with a fresh joiner."""
    joiner = IndexedJoiner(cache=IndexCache())

    def handle(op, payload):
        if op != "join":
            return None
        probes, targets = payload
        matches = joiner.join_many(probes, targets)
        stats = joiner.last_join_stats
        return matches, stats.kernel_backend, dict(stats.kernel_pairs)

    return handle


class TestJoinerEquivalence:
    """Forcing each backend must leave every join surface byte-identical."""

    @pytest.mark.parametrize("backend", ("bitparallel",))
    @pytest.mark.parametrize("name", _DATASETS)
    def test_backends_match_brute_on_dataset(self, monkeypatch, backend, name):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        rng = random.Random(_SEED + 4)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner(JoinConfig())
        for table in tables:
            targets = list(table.targets)
            probes = [
                random_edits(rng, t, rng.randint(0, 2))
                for t in targets[: max(4, len(targets) // 3)]
            ]
            joiner = IndexedJoiner(cache=IndexCache())
            assert joiner.join_many(probes, targets) == brute.join_many(
                probes, targets
            ), (backend, name, table.name)
            assert joiner.topk_many(probes, targets, k=3) == brute.topk_many(
                probes, targets, k=3
            ), (backend, name, table.name)

    @pytest.mark.parametrize("backend", ("bitparallel",))
    @pytest.mark.parametrize("n_workers", (2, 4))
    def test_workers_inherit_backend(self, monkeypatch, backend, n_workers):
        # Workers get no backend name with their shards: the joiner each
        # builds reads the environment it inherited from the parent.
        from repro import procs

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        rng = random.Random(_SEED + 5)
        targets = [
            random_unicode_string(rng, max_length=20, min_length=4) + f"#{i}"
            for i in range(240)
        ]
        probes = [random_edits(rng, t, 1) for t in targets[:40]]
        brute = EditDistanceJoiner(JoinConfig())
        pool = procs.WorkerPool(_joiner_worker, n_workers, name="join-test")
        try:
            # Submitted together, the shards land one per worker.
            shards = [probes[i::n_workers] for i in range(n_workers)]
            futures = [pool.submit("join", (s, targets)) for s in shards]
            replies = [future.result(timeout=60) for future in futures]
        finally:
            pool.close()
        for shard, (matches, kernel_backend, kernel_pairs) in zip(
            shards, replies
        ):
            assert matches == brute.join_many(shard, targets)
            assert kernel_backend == backend
            # The inherited backend is the only one that scored.
            assert set(kernel_pairs) == {backend}

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_hostile_single_column_matches_brute(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        targets, probes, want = _hostile_column()
        # Its probes span well over ten lengths, several past one word,
        # so every kernel call of the join mixes lengths.
        lengths = {len(probe) for probe in probes}
        assert len(lengths) >= 10 and sum(m > 64 for m in lengths) >= 2
        joiner = IndexedJoiner(cache=IndexCache())
        got = {
            "join_many": joiner.join_many(probes, targets),
            "topk_many": joiner.topk_many(probes, targets, k=3),
            "reverse_many": joiner.reverse_many(probes, targets),
        }
        for query in want:
            assert got[query] == want[query], (backend, query)


def _recorded_column():
    """The column and probes the join's counts were first recorded on."""
    rng = random.Random(20160)
    targets = [
        random_unicode_string(rng, max_length=24, min_length=6) + f"#{i}"
        for i in range(400)
    ]
    probes = [random_edits(rng, t, rng.randint(1, 4)) for t in targets[:30]]
    probes += [
        random_unicode_string(rng, max_length=20, min_length=8) for _ in range(6)
    ]
    return targets, probes


def _serve_join_request():
    """The ``serve_join`` shape: two abbreviations into a 500-row title column.

    The column is built the way the benchmark builds its own — the
    canonical titles, scaled past them by recombining their words — and
    the probes are ApJ under the dotted profile and MNRAS under the
    initials one.
    """
    rng = random.Random(500)
    words = sorted({word for title in JOURNAL_TITLES for word in title.split()})
    targets = list(JOURNAL_TITLES)
    seen = set(targets)
    while len(targets) < 500:
        title = " ".join(rng.choice(words) for _ in range(rng.randint(2, 5)))
        if title not in seen:
            seen.add(title)
            targets.append(title)
    return targets, ["Astrop. Journ.", "MNRAS"]


_ACCOUNTING_INPUTS = {"ladder": _recorded_column, "serve_join": _serve_join_request}


class _DoorCalls(ast.NodeVisitor):
    """Names of the functions that call ``<something>.edit_distance_pairs(...)``."""

    def __init__(self):
        self.stack = ["<module>"]
        self.callers = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "edit_distance_pairs"
        ):
            self.callers.append(self.stack[-1])
        self.generic_visit(node)


class TestPairsAccounting:
    def test_join_stats_record_pairs_scored(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bitparallel")
        rng = random.Random(_SEED + 7)
        targets = [
            random_unicode_string(rng, max_length=18, min_length=6) + f"#{i}"
            for i in range(150)
        ]
        probes = [random_edits(rng, t, 1) for t in targets[:25]]
        joiner = IndexedJoiner(cache=IndexCache())
        joiner.join_many(probes, targets)
        stats = joiner.last_join_stats
        scored = dict(stats.kernel_pairs)
        assert scored.get("bitparallel", 0) > 0
        assert stats.as_dict()["kernel_pairs"] == scored

    @pytest.mark.parametrize(
        ("method", "args", "shape", "kernel_calls", "pairs"),
        (
            ("join_many", (), "ladder", 3, 1203),
            ("topk_many", (3,), "ladder", 3, 7919),
            ("join_many", (), "serve_join", 2, 79),
        ),
    )
    def test_pairs_and_sweeps_match_the_recorded_ladder(
        self, monkeypatch, method, args, shape, kernel_calls, pairs
    ):
        # Re-recorded in the commit (PR 22) that put probe lengths on
        # the kernel door: a rung used to be one call per probe-length
        # bucket and is now one call for every pending probe (one per
        # distinct bound in the two waves, where the cap is per call),
        # over exactly the same pairs — so the pair counts stand and
        # the calls drop, 51 -> 16 and 81 -> 29 on the recorded column,
        # 7 -> 6 on the serve_join shape.  Re-recorded again in the
        # commit that put the bag-distance bound in front of the kernel:
        # a pair whose character-histogram bound exceeds the cap gets
        # cap + 1 without a sweep, so pairs drop 2235 -> 1247,
        # 12991 -> 9051 and 181 -> 37, and the serve_join shape loses
        # the two calls whose every pair the bound settles (6 -> 4).
        # Re-recorded again in the commit that replaced the ladder (a
        # cap-2 round, an upper-bound batch and two waves, one call per
        # distinct bound) with one bound-ordered verification loop: one
        # call scores every probe's seeds, then one call per stratum at
        # the largest cap among its probes, so calls drop 16 -> 3,
        # 29 -> 3 and 4 -> 2.  Pairs follow the bound order instead of
        # the waves: 1247 -> 1203 and 9051 -> 7919, while the serve_join
        # shape's 16 seeds, scored exactly, lift it 37 -> 79.  A change
        # that moves these numbers re-records them on purpose or is
        # wrong.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bitparallel")
        targets, probes = _ACCOUNTING_INPUTS[shape]()
        joiner = IndexedJoiner(cache=IndexCache())
        inner = joiner.kernel.edit_distance_pairs
        calls = []

        def counting(*call_args):
            calls.append(call_args)
            return inner(*call_args)

        monkeypatch.setattr(joiner.kernel, "edit_distance_pairs", counting)
        before = pairs_scored_snapshot()
        getattr(joiner, method)(probes, targets, *args)
        after = pairs_scored_snapshot()
        assert len(calls) == kernel_calls
        assert dict(joiner.last_join_stats.kernel_pairs) == {"bitparallel": pairs}
        assert {name: after[name] - before[name] for name in after} == {
            "reference": 0,
            "bitparallel": pairs,
        }

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_single_query_adapters_credit_once_at_the_door(self, backend):
        # One query against n candidates is the p = 1 pair call: it
        # credits its n candidates once, to its own backend and to
        # nothing else.
        kernel = get_backend(backend)
        candidates = ["abcd", "abce", "xbcd", "", "abcdefgh"]
        before = pairs_scored_snapshot()
        got = _score_one(kernel, "abcf", candidates, 2)
        after = pairs_scored_snapshot()
        assert got.tolist() == _oracle("abcf", candidates, 2)
        assert {name: after[name] - before[name] for name in after} == {
            name: len(candidates) * (name == backend) for name in KERNEL_BACKENDS
        }

    def test_the_pair_function_is_the_only_door(self):
        # A second scoring entry point cannot grow back unnoticed: the
        # backend modules export the pair function alone, nothing under
        # repro.index carries a single-query form, and outside the
        # kernels package the door has one caller.
        assert bitparallel.__all__ == ["edit_distance_pairs"]
        for name in KERNEL_BACKENDS:
            assert isinstance(get_backend(name), KernelBackend)
        gone = ("edit_distance_codes", "edit_distance_many", "one_query")
        for info in pkgutil.walk_packages(repro.index.__path__, "repro.index."):
            module = importlib.import_module(info.name)
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in (module, *classes):
                for attribute in gone:
                    assert not hasattr(owner, attribute), (owner, attribute)
        src = Path(repro.__file__).parent
        callers = []
        for path in sorted(src.rglob("*.py")):
            if (src / "index" / "kernels") in path.parents:
                continue
            finder = _DoorCalls()
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            callers += [(path.relative_to(src).as_posix(), fn) for fn in finder.callers]
        assert callers == [("index/joiner.py", "_pair_distances")]

    def test_concurrent_callers_conserve_the_tally(self):
        # Kernel entry points are reachable from several serving threads
        # at once; they share no state but the tally, and a lost update
        # there would break the sum.
        kernel = get_backend("bitparallel")
        candidates = ["abcd", "abce", "xbcd", ""]
        n_threads, n_calls = 6, 400
        failures = []

        def worker(thread):
            try:
                for i in range(n_calls):
                    query = f"q{thread}-{i}abc"
                    got = _score_one(kernel, query, candidates, 99)
                    if got.tolist() != _oracle(query, candidates, 99):
                        failures.append((query, got.tolist()))
            except Exception as error:  # surfaced by the assert below
                failures.append(repr(error))

        before = pairs_scored_snapshot()["bitparallel"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        scored = pairs_scored_snapshot()["bitparallel"] - before
        assert scored == n_threads * n_calls * len(candidates)

    def test_snapshot_is_cumulative_and_resettable(self):
        before = pairs_scored_snapshot()
        _score_one(get_backend("reference"), "abcdef", ["abcdxf"] * 7, 2)
        after = pairs_scored_snapshot()
        assert after["reference"] - before["reference"] == 7


class TestServeExport:
    def test_service_metrics_surface_kernel_pairs(self):
        from repro.core.pipeline import DTTPipeline
        from repro.serve.service import TransformService, kernel_pairs_total
        from repro.surrogate.pretrained import PretrainedDTT
        from repro.types import ExamplePair

        examples = [
            ExamplePair("Justin Trudeau", "jtrudeau"),
            ExamplePair("Stephen Harper", "sharper"),
        ]
        targets = ["jtrudeax", "sharpex", "pmartin"] + [
            f"filler-{i:03d}" for i in range(400)
        ]
        pipeline = DTTPipeline(PretrainedDTT(seed=0), n_trials=3, seed=1)
        with TransformService(pipeline) as service:
            service.join(["Justin Trudeau"], targets, examples)
            assert service.last_join_stats is not None
            pairs = kernel_pairs_total(service.metrics_snapshot())
            assert sum(pairs.values()) > 0
            text = service.metrics_text()
        assert "serve_join_kernel_pairs_" in text
