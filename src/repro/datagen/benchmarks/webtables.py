"""Simulated Web Tables benchmark (WT, paper §5.2).

The original WT benchmark pairs 31 Google Fusion tables from 17 topics
that present the same entities in different formats, with natural noise,
inconsistencies, and rows that no string transformation covers.  This
simulator reproduces that profile: 17 topic *factories* (per-table
parameters such as the e-mail domain are drawn once per table, per-row
content varies), per-row *conditional* rules (the user-id topic follows
the paper's Figure 1 with middle-name and missing-first-name variants),
plus natural noise — typos in targets, occasional untransformable rows,
and one deliberately semantic topic (month name → month number) that no
string program covers.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.datagen.benchmarks import _pools as pools
from repro.types import TablePair
from repro.utils.rng import derive_rng

_TYPO_RATE = 0.04
_UNTRANSFORMABLE_RATE = 0.03
_TYPO_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

RowGenerator = Callable[[np.random.Generator], tuple[str, str]]
TopicFactory = Callable[[np.random.Generator], RowGenerator]


def _make_userid(table_rng: np.random.Generator) -> RowGenerator:
    """Figure 1 of the paper: names to user ids, with conditional rules."""

    def generate(rng: np.random.Generator) -> tuple[str, str]:
        first, middle, last = pools.pick_name(rng)
        roll = rng.random()
        if roll < 0.08:  # missing first name, like '. Kumar'
            return f". {last}", last.lower()
        if roll < 0.16:  # trailing comma artifact, like 'Julian ,'
            return f"{first} ,", first.lower()
        if middle:
            source = f"{first} {middle} {last}"
            target = f"{first[0]}.{middle[0]}.{last[:4]}".lower()
        else:
            source = f"{first} {last}"
            target = f"{first[0]}.{last[:7]}".lower()
        return source, target

    return generate


def _make_last_first(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        first, _, last = pools.pick_name(rng)
        return f"{first} {last}", f"{last}, {first}"

    return generate


def _make_date_rearrange(table_rng: np.random.Generator) -> RowGenerator:
    """'March 5, 2019' -> '5 March 2019' — a pure token rearrangement."""

    def generate(rng: np.random.Generator) -> tuple[str, str]:
        month = pools.MONTH_NAMES[int(rng.integers(0, 12))]
        day = int(rng.integers(1, 29))
        year = int(rng.integers(1995, 2024))
        return f"{month} {day}, {year}", f"{day} {month} {year}"

    return generate


def _make_month_number(table_rng: np.random.Generator) -> RowGenerator:
    """'March 5, 2019' -> '2019-03-05' — needs month-name semantics.

    The deliberately hard WT topic: the month-name-to-number mapping is
    not a string transformation, mirroring the paper's note that not
    all WT rows are coverable by textual transformations.
    """

    def generate(rng: np.random.Generator) -> tuple[str, str]:
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 29))
        year = int(rng.integers(1995, 2024))
        name = pools.MONTH_NAMES[month - 1]
        return f"{name} {day}, {year}", f"{year}-{month:02d}-{day:02d}"

    return generate


def _make_phone(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        area = pools.random_digits(rng, 3)
        mid = pools.random_digits(rng, 3)
        tail = pools.random_digits(rng, 4)
        return f"({area}) {mid}-{tail}", f"{area}-{mid}-{tail}"

    return generate


def _make_url_domain(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        domain = str(pools.pick(rng, pools.DOMAINS))
        page = str(pools.pick(rng, pools.PRODUCT_WORDS))
        num = pools.random_digits(rng, 3)
        return f"https://www.{domain}/{page}/{num}", domain

    return generate


def _make_email(table_rng: np.random.Generator) -> RowGenerator:
    # One organization per table: the domain is a table-level constant.
    domain = str(pools.pick(table_rng, pools.DOMAINS))

    def generate(rng: np.random.Generator) -> tuple[str, str]:
        first, _, last = pools.pick_name(rng)
        return f"{first} {last}", f"{first.lower()}.{last.lower()}@{domain}"

    return generate


def _make_address_city(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        number = int(rng.integers(1, 9999))
        street = str(pools.pick(rng, pools.STREETS))
        city = str(pools.pick(rng, pools.CITIES))
        province, _ = pools.PROVINCES[int(rng.integers(0, len(pools.PROVINCES)))]
        return f"{number} {street}, {city}, {province}", f"{city} ({province})"

    return generate


def _make_city_upper(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        city = str(pools.pick(rng, pools.CITIES))
        province, _ = pools.PROVINCES[int(rng.integers(0, len(pools.PROVINCES)))]
        return f"{city}, {province}", city.upper()

    return generate


def _make_score(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        home = str(pools.pick(rng, pools.TEAMS))
        away = str(pools.pick(rng, pools.TEAMS))
        home_score = int(rng.integers(0, 9))
        away_score = int(rng.integers(0, 9))
        return (
            f"{home} {home_score} - {away} {away_score}",
            f"{home_score}-{away_score} {home}",
        )

    return generate


def _make_datetime_time(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        year = int(rng.integers(2000, 2024))
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 29))
        hour = int(rng.integers(0, 24))
        minute = int(rng.integers(0, 60))
        return (
            f"{year}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:00",
            f"{hour:02d}:{minute:02d}",
        )

    return generate


def _make_currency(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        dollars = int(rng.integers(1, 999))
        thousands = int(rng.integers(0, 999))
        cents = int(rng.integers(0, 100))
        return (
            f"${dollars},{thousands:03d}.{cents:02d}",
            f"{dollars}{thousands:03d}.{cents:02d} CAD",
        )

    return generate


def _make_initials(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        first, _, last = pools.pick_name(rng)
        return f"{first} {last}", f"{first[0]}.{last[0]}."

    return generate


def _make_movie(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        word_a = str(pools.pick(rng, pools.COMPANY_WORDS))
        word_b = str(pools.pick(rng, pools.PRODUCT_WORDS)).title()
        year = int(rng.integers(1980, 2024))
        return f"{word_a} {word_b} ({year})", f"{year} - {word_a} {word_b}"

    return generate


def _make_coordinates(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        lat_whole = int(rng.integers(40, 60))
        lat_frac = pools.random_digits(rng, 4)
        lon_whole = int(rng.integers(60, 130))
        lon_frac = pools.random_digits(rng, 4)
        return (
            f"{lat_whole}.{lat_frac},-{lon_whole}.{lon_frac}",
            f"{lat_whole}.{lat_frac} N",
        )

    return generate


def _make_product_code(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        prefix = "".join(
            chr(ord("A") + int(c)) for c in rng.integers(0, 26, size=2)
        )
        body = pools.random_digits(rng, 4)
        suffix = "".join(
            chr(ord("A") + int(c)) for c in rng.integers(0, 26, size=2)
        )
        return f"{prefix}-{body}-{suffix}", body

    return generate


def _make_citation(table_rng: np.random.Generator) -> RowGenerator:
    def generate(rng: np.random.Generator) -> tuple[str, str]:
        last = str(pools.pick(rng, pools.LAST_NAMES))
        venue = str(pools.pick(rng, pools.PAPER_VENUES))
        year = int(rng.integers(2005, 2024))
        return f"{last} et al., {venue} {year}", f"{last.lower()}{year % 100:02d}"

    return generate


TOPICS: dict[str, TopicFactory] = {
    "userid": _make_userid,
    "last-first": _make_last_first,
    "date-rearrange": _make_date_rearrange,
    "month-number": _make_month_number,
    "phone": _make_phone,
    "url-domain": _make_url_domain,
    "email": _make_email,
    "address-city": _make_address_city,
    "city-upper": _make_city_upper,
    "score": _make_score,
    "datetime-time": _make_datetime_time,
    "currency": _make_currency,
    "initials": _make_initials,
    "movie": _make_movie,
    "coordinates": _make_coordinates,
    "product-code": _make_product_code,
    "citation": _make_citation,
}


def _apply_typo(text: str, rng: np.random.Generator) -> str:
    if len(text) < 2:
        return text
    position = int(rng.integers(0, len(text)))
    kind = rng.random()
    if kind < 0.5:
        replacement = _TYPO_ALPHABET[int(rng.integers(0, len(_TYPO_ALPHABET)))]
        return text[:position] + replacement + text[position + 1 :]
    if kind < 0.8:
        return text[:position] + text[position + 1 :]
    doubled = text[position]
    return text[:position] + doubled + text[position:]


def build_webtables(
    seed: int = 0,
    n_tables: int = 31,
    rows: int = 60,
    typo_rate: float = _TYPO_RATE,
    untransformable_rate: float = _UNTRANSFORMABLE_RATE,
) -> list[TablePair]:
    """Build the simulated WT benchmark.

    Args:
        seed: Base seed.
        n_tables: Number of table pairs (paper: 31).
        rows: Rows per table (paper average: 92; default reduced for
            CPU-tractable benches).
        typo_rate: Per-row probability of a natural typo in the target.
        untransformable_rate: Per-row probability that the target is not
            derivable from the source at all.
    """
    topic_names = list(TOPICS)
    tables: list[TablePair] = []
    for i in range(n_tables):
        topic = topic_names[i % len(topic_names)]
        rng = derive_rng(seed, "wt", i)
        generator = TOPICS[topic](rng)
        sources: list[str] = []
        targets: list[str] = []
        seen: set[str] = set()
        attempts = 0
        while len(sources) < rows and attempts < rows * 50:
            attempts += 1
            source, target = generator(rng)
            if source in seen:
                continue
            seen.add(source)
            if rng.random() < typo_rate:
                target = _apply_typo(target, rng)
            if rng.random() < untransformable_rate:
                target = f"{pools.random_digits(rng, 2)}?{target[::-1][:6]}"
            sources.append(source)
            targets.append(target)
        tables.append(
            TablePair(
                name=f"wt-{i}-{topic}",
                sources=tuple(sources),
                targets=tuple(targets),
                dataset="WT",
                topic=topic,
            )
        )
    return tables
