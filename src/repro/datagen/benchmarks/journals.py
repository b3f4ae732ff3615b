"""Journal-abbreviation benchmark (JAB): bibliographic join noise.

Bibliographic pipelines (ADS, CrossRef, DBLP) constantly join abbreviated
journal strings against canonical title lists — a real-world instance of
the paper's join problem where the "transformation" is an abbreviation
convention rather than a format rule.  Each table pair maps abbreviated
citations (sources) to canonical journal titles (targets), with the
noise profiles those corpora actually exhibit:

* ``dotted`` — dotted word truncations with stopwords dropped
  (``Astrophysical Journal`` → ``Astrophys. J.``).
* ``initials`` — initialisms over the significant words
  (``Journal of Machine Learning Research`` → ``JMLR``).
* ``stopword`` — stopwords dropped and ``and`` → ``&``, words kept
  whole (``Physics and Astronomy`` → ``Physics & Astronomy``).
* ``mixed`` — dotted truncation plus case folding and typographic
  ligature substitutions (``fi`` → ``ﬁ``), the OCR-flavoured residue.

Every table also carries aligned ISSN columns in ``metadata``
(``source_issns`` / ``target_issns``): source ISSNs carry occasional
digit typos, canonical ISSNs are clean.  No join reads them — Eq. 5 is
one column against one column — but their draws are part of the seeded
stream every JAB table comes from, and so of the benchmark's golden
output digests: removing them would shift every later draw in the
table.
"""

from __future__ import annotations

import numpy as np

from repro.types import TablePair
from repro.utils.rng import derive_rng

#: Canonical journal titles (astronomy / physics / data management mix,
#: the fields whose abbreviation conventions the profiles imitate).
JOURNAL_TITLES: tuple[str, ...] = (
    "Astrophysical Journal",
    "Astronomical Journal",
    "Monthly Notices of the Royal Astronomical Society",
    "Astronomy and Astrophysics",
    "Publications of the Astronomical Society of the Pacific",
    "Annual Review of Astronomy and Astrophysics",
    "Journal of Cosmology and Astroparticle Physics",
    "Classical and Quantum Gravity",
    "Physical Review Letters",
    "Physical Review D",
    "Reviews of Modern Physics",
    "Journal of High Energy Physics",
    "Nuclear Physics B",
    "Physics Letters B",
    "Journal of Applied Physics",
    "Applied Physics Letters",
    "Journal of Chemical Physics",
    "Journal of Fluid Mechanics",
    "Journal of Geophysical Research",
    "Geophysical Research Letters",
    "Icarus International Journal of Solar System Studies",
    "Planetary and Space Science",
    "Space Science Reviews",
    "Solar Physics",
    "Journal of the American Statistical Association",
    "Annals of Statistics",
    "Journal of Machine Learning Research",
    "Machine Learning",
    "Artificial Intelligence",
    "Journal of Artificial Intelligence Research",
    "Communications of the Association for Computing Machinery",
    "Journal of the Association for Computing Machinery",
    "Transactions on Database Systems",
    "Proceedings of the Very Large Data Base Endowment",
    "Transactions on Knowledge and Data Engineering",
    "Information Systems",
    "Data Mining and Knowledge Discovery",
    "Knowledge and Information Systems",
    "Journal of Data and Information Quality",
    "Information Processing and Management",
    "Journal of Computational Physics",
    "Computer Physics Communications",
    "Computational Statistics and Data Analysis",
    "Journal of Statistical Software",
    "Statistics and Computing",
    "Bioinformatics",
    "Nucleic Acids Research",
    "Journal of Molecular Biology",
    "Nature Astronomy",
    "Nature Physics",
    "Nature Methods",
    "Science Advances",
    "Proceedings of the National Academy of Sciences",
    "Journal of Open Source Software",
    "Astronomy and Computing",
    "Experimental Astronomy",
    "Celestial Mechanics and Dynamical Astronomy",
    "Journal of Astronomical Telescopes Instruments and Systems",
    "Radio Science",
    "Advances in Space Research",
)

_STOPWORDS = frozenset(
    {"of", "the", "and", "in", "on", "for", "a", "an", "to"}
)

_LIGATURES = (("fi", "ﬁ"), ("fl", "ﬂ"), ("ff", "ﬀ"))


def _significant(title: str) -> list[str]:
    """The title's words minus stopwords (never empty)."""
    words = title.split()
    kept = [w for w in words if w.lower() not in _STOPWORDS]
    return kept or words


def _abbrev_dotted(title: str, rng: np.random.Generator) -> str:
    """``Astrophysical Journal`` → ``Astrophys. J.``"""
    parts = []
    for word in _significant(title):
        if len(word) <= 4:
            parts.append(f"{word[0]}." if len(word) <= 2 else word)
            continue
        cut = int(rng.integers(3, min(7, len(word))))
        parts.append(f"{word[:cut]}.")
    return " ".join(parts)


def _abbrev_initials(title: str, rng: np.random.Generator) -> str:
    """``Journal of Machine Learning Research`` → ``JMLR``"""
    initials = "".join(word[0].upper() for word in _significant(title))
    if len(initials) == 1:
        # Single-word titles have no initialism; dot-truncate instead.
        return _abbrev_dotted(title, rng)
    return initials


def _abbrev_stopword(title: str, rng: np.random.Generator) -> str:
    """Drop stopwords, ``and`` → ``&``, keep the words whole."""
    out = []
    for word in title.split():
        lower = word.lower()
        if lower == "and":
            out.append("&")
        elif lower in _STOPWORDS:
            continue
        else:
            out.append(word)
    abbrev = " ".join(out)
    return abbrev if abbrev != title else _abbrev_dotted(title, rng)


def _abbrev_mixed(title: str, rng: np.random.Generator) -> str:
    """Dotted truncation plus case folding and ligature substitution."""
    abbrev = _abbrev_dotted(title, rng)
    roll = rng.random()
    if roll < 0.3:
        abbrev = abbrev.lower()
    elif roll < 0.5:
        abbrev = abbrev.upper()
    if rng.random() < 0.5:
        for plain, ligature in _LIGATURES:
            if plain in abbrev:
                abbrev = abbrev.replace(plain, ligature, 1)
                break
    return abbrev


PROFILES = {
    "dotted": _abbrev_dotted,
    "initials": _abbrev_initials,
    "stopword": _abbrev_stopword,
    "mixed": _abbrev_mixed,
}


def _issn(rng: np.random.Generator) -> str:
    digits = rng.integers(0, 10, size=8)
    return "".join(str(d) for d in digits[:4]) + "-" + "".join(
        str(d) for d in digits[4:]
    )


def _corrupt_issn(issn: str, rng: np.random.Generator) -> str:
    position = int(rng.integers(0, len(issn)))
    if issn[position] == "-":
        position = (position + 1) % len(issn)
    replacement = str(int(rng.integers(0, 10)))
    return issn[:position] + replacement + issn[position + 1 :]


def build_journals(
    seed: int = 0,
    n_tables: int = 24,
    rows: int = 40,
    issn_typo_rate: float = 0.15,
) -> list[TablePair]:
    """Build the journal-abbreviation benchmark.

    Args:
        seed: Base seed.
        n_tables: Number of table pairs (profiles cycle round-robin).
        rows: Rows per table, capped by the title pool size.
        issn_typo_rate: Fraction of source ISSNs carrying a digit typo.
    """
    profile_names = list(PROFILES)
    tables: list[TablePair] = []
    for i in range(n_tables):
        profile = profile_names[i % len(profile_names)]
        abbreviate = PROFILES[profile]
        rng = derive_rng(seed, "jab", i)
        order = rng.permutation(len(JOURNAL_TITLES))
        sources: list[str] = []
        targets: list[str] = []
        source_issns: list[str] = []
        target_issns: list[str] = []
        seen: set[str] = set()
        for title_index in order:
            if len(sources) >= rows:
                break
            title = JOURNAL_TITLES[int(title_index)]
            abbrev = abbreviate(title, rng)
            if abbrev in seen or abbrev == "":
                continue
            seen.add(abbrev)
            issn = _issn(rng)
            noisy = (
                _corrupt_issn(issn, rng)
                if rng.random() < issn_typo_rate
                else issn
            )
            sources.append(abbrev)
            targets.append(title)
            source_issns.append(noisy)
            target_issns.append(issn)
        tables.append(
            TablePair(
                name=f"jab-{i}-{profile}",
                sources=tuple(sources),
                targets=tuple(targets),
                dataset="JAB",
                topic=profile,
                metadata={
                    "source_issns": tuple(source_issns),
                    "target_issns": tuple(target_issns),
                },
            )
        )
    return tables
