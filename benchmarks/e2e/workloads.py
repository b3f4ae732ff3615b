"""Seeded inputs and pipeline builders for the four e2e workloads.

Inputs have two parts, drawn from two random streams:

* the **fixed trace** (constant ``DATASET_SEED``): the canonical-title
  column, the example pools, the arrival schedule, which requests are
  replays of which, the join mode of each request, and the *shape* of
  each probe (which length quantile of the column it abbreviates, with
  which noise profile; how long each Syn row is);
* the **content** (the run's ``--seed``): which title inside the
  quantile, where its words are cut, case and ligature noise, the
  characters of each Syn row.

So a seed changes every string the program sees but not how hard the
workload is.  This split is measured, not assumed: with everything on
the run seed, ``rows_per_s`` of ``offline_join`` moved by +-28 % from
seed to seed (the surrogate's induced program, hence the length of what
it predicts and the cost of joining it, is a function of the example
pool), plain probe sampling still left +-10 %, and a per-seed Poisson
schedule moved the p90 of the serve workloads by 2x.  No regression
bound survives that.

Why JAB noise and not random strings: abbreviations share word prefixes
with many canonical titles (the ADS-vs-ISI situation), so the q-gram
filter admits thousands of candidates per probe; uniformly random
probes block almost perfectly and would leave the kernels idle.

The pipeline builders are module-level so the serve worker pool can
pickle them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import DTTPipeline
from repro.datagen.benchmarks.journals import JOURNAL_TITLES, PROFILES
from repro.datagen.benchmarks.synthetic import build_syn
from repro.datagen.random_text import RandomTextSampler
from repro.index import IndexCache, IndexedJoiner
from repro.model import ByteSeq2SeqModel
from repro.model.config import DTTModelConfig
from repro.serve.router import build_pipeline
from repro.types import ExamplePair

DATASET_SEED = 20240

#: Example pairs handed to every request (the paper uses small pools).
N_EXAMPLES = 8

#: The neural model both transform workloads share (fixed weights: the
#: run seed varies the inputs, never the program).
NEURAL_CONFIG = DTTModelConfig(
    dim=64,
    n_heads=4,
    encoder_layers=3,
    decoder_layers=1,
    ffn_hidden=128,
    max_input_length=192,
    max_output_length=48,
    seed=0,
)
NEURAL_TRIALS = 5

#: ``serve_join`` query mix per block of 20 requests.
_MODE_BLOCK = ["argmin"] * 12 + ["topk"] * 5 + ["reverse"] * 3
TOPK_K = 5
TOPK_MARGIN = 0.1

#: A replay repeats an original at least this many positions back, so the
#: original has been answered (and cached) even with every client busy.
_REPLAY_MIN_GAP = 8

#: Words of the canonical titles, for scaling the column past them.
_VOCABULARY = sorted({word for title in JOURNAL_TITLES for word in title.split()})

#: Syn source lengths (the family's sampler range).
_SYN_LENGTHS = range(14, 27)


def _trace_rng(*tag: int) -> np.random.Generator:
    return np.random.default_rng([DATASET_SEED, *tag])


# -- the fixed dataset ---------------------------------------------------------


def jab_dataset(n_rows: int) -> tuple[list[str], list[ExamplePair]]:
    """The canonical-title column and the abbreviation example pool.

    The column starts with the real titles and is scaled past them by
    recombining their words, so synthetic titles stay in the domain.
    """
    rng = _trace_rng(0, n_rows)
    targets = list(JOURNAL_TITLES[:n_rows])
    seen = set(targets)
    while len(targets) < n_rows:
        n_words = int(rng.integers(2, 6))
        title = " ".join(
            _VOCABULARY[int(i)]
            for i in rng.integers(0, len(_VOCABULARY), size=n_words)
        )
        if title not in seen:
            seen.add(title)
            targets.append(title)
    probes, bases = jab_probes(rng, targets, N_EXAMPLES)
    examples = [ExamplePair(p, b) for p, b in zip(probes, bases, strict=True)]
    return targets, examples


def syn_examples() -> list[ExamplePair]:
    """The transform workloads' example pool."""
    table = build_syn(seed=DATASET_SEED, n_tables=1, rows=N_EXAMPLES)[0]
    return [
        ExamplePair(s, t)
        for s, t in zip(table.sources, table.targets, strict=True)
    ]


# -- seeded content on a fixed shape -----------------------------------------------


def jab_probes(
    rng: np.random.Generator, targets: list[str], n: int, group_size: int = 1
) -> tuple[list[str], list[str]]:
    """``n`` noisy abbreviations of titles from ``targets``, with their bases.

    The column is cut into ``n`` length-quantile cells and every cell is
    abbreviated once; probe ``i`` always gets the same cell and noise
    profile (fixed trace), ``rng`` picks the title inside the cell and
    the noise itself.  Consecutive groups of ``group_size`` probes take
    one cell from each of ``group_size`` coarse strata and rotate the
    profiles, so every request of a stream carries a comparable mix.
    """
    if n % group_size:
        raise ValueError("n must be a multiple of group_size")
    n_groups = n // group_size
    trace = _trace_rng(1, n, group_size)
    orders = [trace.permutation(n_groups) for _ in range(group_size)]
    by_length = sorted(range(len(targets)), key=lambda i: (len(targets[i]), i))
    profiles = list(PROFILES.values())
    probes: list[str] = []
    bases: list[str] = []
    for group in range(n_groups):
        for j in range(group_size):
            cell = j * n_groups + int(orders[j][group])
            position = int((cell + rng.random()) / n * len(by_length))
            base = targets[by_length[min(position, len(by_length) - 1)]]
            abbreviate = profiles[(group + j) % len(profiles)]
            probes.append(abbreviate(base, rng))
            bases.append(base)
    return probes, bases


def syn_rows(seed: int, n_rows: int, shuffle: bool = False) -> list[str]:
    """``n_rows`` distinct Syn source strings; characters from ``seed``.

    Row ``i`` always has the same length (the sampler's range is swept
    evenly), so prompt lengths - hence batch shapes and decode cost -
    do not depend on the seed.  ``shuffle`` puts the rows in a fixed
    mixed order for request streams.
    """
    rng = np.random.default_rng([seed, 5])
    rows: list[str] = []
    seen: set[str] = set()
    for i in range(n_rows):
        length = _SYN_LENGTHS[(i * len(_SYN_LENGTHS)) // n_rows]
        sampler = RandomTextSampler(length, length)
        row = sampler.sample(rng)
        while row in seen:
            row = sampler.sample(rng)
        seen.add(row)
        rows.append(row)
    if shuffle:
        rows = [rows[int(i)] for i in _trace_rng(2, n_rows).permutation(n_rows)]
    return rows


# -- pipelines ---------------------------------------------------------------------


def build_join_pipeline() -> DTTPipeline:
    """``build_pipeline("pretrained")`` on the blocked joiner, cold cache.

    A private :class:`IndexCache` per pipeline: the batch user pays the
    index build, so every timed call starts without one.
    """
    pipeline = build_pipeline("pretrained")
    pipeline.joiner = IndexedJoiner(cache=IndexCache())
    return pipeline


def build_neural_pipeline() -> DTTPipeline:
    """The untrained byte-level transformer behind ``GenerationEngine``.

    Untrained weights never emit ``<eos>``, so every row decodes its
    full 47-step budget: the workload measures step cost, not
    compaction.
    """
    return DTTPipeline(ByteSeq2SeqModel(NEURAL_CONFIG), n_trials=NEURAL_TRIALS)


# -- request streams -----------------------------------------------------------------


@dataclass
class Request:
    """One pre-encoded HTTP request of a serve workload.

    ``replay_of`` is the index of the earlier request this one repeats
    byte for byte (``None`` for a first occurrence); ``mode`` is the
    join mode or ``"transform"``.
    """

    index: int
    path: str
    body: bytes
    mode: str
    rows: int
    payload: dict = field(repr=False, default_factory=dict)
    replay_of: int | None = None


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _replay(index: int, first: Request) -> Request:
    return Request(
        index, first.path, first.body, first.mode, first.rows,
        first.payload, first.index,
    )


def arrival_offsets(rate_rps: float, n: int) -> list[float]:
    """Offsets (seconds from phase start) of ``n`` Poisson arrivals.

    A fixed count on a fixed trace: the gaps are exponential, the phase
    lasts about ``n / rate_rps`` seconds, and the bursts - which decide
    the latency tail - fall in the same places on every run.
    """
    gaps = _trace_rng(3, n).exponential(1.0 / rate_rps, size=n)
    return np.cumsum(gaps).tolist()


def _replay_plan(n: int, replay_share: float) -> list[int | None]:
    """For each request index, the earlier *original* it replays.

    Replays sit on an even grid, so the cache hit ratio the workload
    produces is the replay share by construction.
    """
    rng = _trace_rng(4, n)
    plan: list[int | None] = []
    originals: list[int] = []
    owed = 0.0
    for i in range(n):
        owed += replay_share
        eligible = [o for o in originals if o <= i - _REPLAY_MIN_GAP]
        if owed >= 1.0 and eligible:
            owed -= 1.0
            plan.append(eligible[int(rng.integers(0, len(eligible)))])
        else:
            plan.append(None)
            originals.append(i)
    return plan


def _mode_cycle(n: int) -> list[str]:
    """``n`` join modes: the fixed mix, shuffled within blocks of 20."""
    rng = _trace_rng(5, n)
    modes: list[str] = []
    while len(modes) < n:
        modes.extend(_MODE_BLOCK[int(i)] for i in rng.permutation(len(_MODE_BLOCK)))
    return modes[:n]


def join_requests(
    seed: int,
    n: int,
    n_warm: int,
    n_targets: int,
    probes_per_request: int,
    replay_share: float,
) -> tuple[list[Request], list[Request], list[str], list[ExamplePair]]:
    """``n`` ``/v1/join`` requests over one shared target column.

    Returns ``(requests, warm_up, targets, examples)``; the ``n_warm``
    warm-up requests are originals of their own (same column, so they
    warm the index cache, never the result caches).
    """
    rng = np.random.default_rng([seed, 1])
    targets, examples = jab_dataset(n_targets)
    wire_examples = [[e.source, e.target] for e in examples]
    plan = _replay_plan(n, replay_share) + [None] * n_warm
    modes = iter(_mode_cycle(n + n_warm))
    n_originals = sum(1 for p in plan if p is None)
    pool, _ = jab_probes(
        rng, targets, n_originals * probes_per_request, probes_per_request
    )
    groups = iter(range(0, len(pool), probes_per_request))
    requests: list[Request] = []
    for i, replay_of in enumerate(plan):
        if replay_of is not None:
            requests.append(_replay(i, requests[replay_of]))
            continue
        start = next(groups)
        mode = next(modes)
        payload = {
            "sources": pool[start : start + probes_per_request],
            "targets": targets,
            "examples": wire_examples,
            "mode": mode,
        }
        if mode == "topk":
            payload["k"] = TOPK_K
            payload["margin"] = TOPK_MARGIN
        requests.append(
            Request(
                i, "/v1/join", _encode(payload), mode, probes_per_request, payload
            )
        )
    return requests[:n], requests[n:], targets, examples


def transform_requests(
    seed: int, n: int, n_warm: int, replay_share: float
) -> tuple[list[Request], list[Request], list[ExamplePair]]:
    """``n`` one-row ``/v1/transform`` requests, plus ``n_warm`` warm-ups."""
    plan = _replay_plan(n, replay_share) + [None] * n_warm
    n_originals = sum(1 for p in plan if p is None)
    fresh = iter(syn_rows(seed, n_originals, shuffle=True))
    examples = syn_examples()
    wire_examples = [[e.source, e.target] for e in examples]
    requests: list[Request] = []
    for i, replay_of in enumerate(plan):
        if replay_of is not None:
            requests.append(_replay(i, requests[replay_of]))
            continue
        payload = {"sources": [next(fresh)], "examples": wire_examples}
        requests.append(
            Request(i, "/v1/transform", _encode(payload), "transform", 1, payload)
        )
    return requests[:n], requests[n:], examples
