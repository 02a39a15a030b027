"""Seeded input generator for the cosuggest benchmark.

Every token the generator writes is already in the program's normal form
(lowercase letters followed by one digit), so ``normalize`` leaves it
unchanged and the oracle can split texts on single spaces.  Phrase lemmas
end in 0-4 and filler words in 5-9, so the two vocabularies are disjoint,
and each lemma belongs to exactly one phrase: a query matches exactly the
phrases planted in it and no filler word can cause an accidental match.

The generator returns plain Python data (no cosuggest types) so the oracle
stays independent of the program under test.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate
from pathlib import Path

EXCLUDED_FACET = "administrative"
FACETS = ("natural", "artificial", "cultural", EXCLUDED_FACET)
LOG_HEADER = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
BASE_TIME = datetime(2026, 3, 1)
MAX_QUERY_TOKENS = 8

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _word(index: int, digits: str) -> str:
    """Distinct word per index: base-85 syllables plus a digit from ``digits``."""
    syllables = []
    n = index
    while True:
        n, r = divmod(n, len(_SYLLABLES))
        syllables.append(_SYLLABLES[r])
        if n == 0:
            break
    return "".join(syllables) + digits[index % len(digits)]


class Vocabulary:
    """Hands out fresh phrase lemmas; filler words come from a fixed list."""

    def __init__(self, filler_size: int) -> None:
        self._next_lemma = 0
        self.filler = [_word(i, "56789") for i in range(filler_size)]

    def lemma(self) -> str:
        word = _word(self._next_lemma, "01234")
        self._next_lemma += 1
        return word


@dataclass
class GenOntology:
    """An ontology JSON payload, its lexicon, and the phrases planted per class."""

    payload: dict
    lexicon: dict[str, list[str]]
    phrases: dict[str, list[tuple[str, ...]]]  # class id -> annotation + lexicon phrases
    facets: dict[str, str]

    def kept_ids(self) -> list[str]:
        return [cid for cid, facet in self.facets.items() if facet != EXCLUDED_FACET]

    def excluded_ids(self) -> list[str]:
        return [cid for cid, facet in self.facets.items() if facet == EXCLUDED_FACET]


def make_ontology(
    rng: random.Random,
    vocab: Vocabulary,
    n_classes: int,
    admin_share: float = 0.1,
    lexicon_share: float = 0.1,
) -> GenOntology:
    """A two-level DAG under one root; every class has 1-4 phrases of 1-3 lemmas."""
    n_groups = max(4, int(n_classes**0.5))
    classes = [{"id": "root", "label": "root", "parents": [], "facet": None, "annotations": []}]
    phrases: dict[str, list[tuple[str, ...]]] = {}
    facets: dict[str, str] = {}
    for i in range(n_classes):
        cid = f"c{i:05d}"
        if i < n_groups:
            parents = ["root"]
        else:
            parents = sorted({f"c{rng.randrange(n_groups):05d}" for _ in range(rng.choice((1, 1, 1, 2)))})
        facet = EXCLUDED_FACET if rng.random() < admin_share else rng.choice(FACETS[:-1])
        own = [tuple(vocab.lemma() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
        classes.append(
            {
                "id": cid,
                "label": cid,
                "parents": parents,
                "facet": facet,
                "annotations": [{"surface": " ".join(p), "lemmas": list(p)} for p in own],
            }
        )
        phrases[cid] = own
        facets[cid] = facet
    lexicon: dict[str, list[str]] = {}
    for cid, facet in facets.items():
        if facet != EXCLUDED_FACET and rng.random() < lexicon_share:
            extra = tuple(vocab.lemma() for _ in range(rng.randint(1, 2)))
            lexicon[cid] = [" ".join(extra)]
            phrases[cid].append(extra)
    return GenOntology(
        payload={"root": "root", "classes": classes},
        lexicon=lexicon,
        phrases=phrases,
        facets=facets,
    )


class ZipfPool:
    """Texts drawn by Zipf rank (weight 1/rank**s), so popular texts repeat."""

    def __init__(self, texts: list[str], s: float) -> None:
        self.texts = texts
        self._cum = list(accumulate(1.0 / (rank**s) for rank in range(1, len(texts) + 1)))

    def draw(self, rng: random.Random) -> str:
        return self.texts[bisect_right(self._cum, rng.random() * self._cum[-1])]


def _with_filler(rng: random.Random, vocab: Vocabulary, parts: list[tuple[str, ...]], max_filler: int) -> str:
    """Concatenate phrase parts with filler words around and between them."""
    room = MAX_QUERY_TOKENS - sum(len(p) for p in parts)
    filler = [rng.choice(vocab.filler) for _ in range(rng.randint(0, min(max_filler, room)))]
    chunks: list[list[str]] = [list(p) for p in parts]
    for word in filler:
        chunks.insert(rng.randint(0, len(chunks)), [word])
    return " ".join(tok for chunk in chunks for tok in chunk)


def _unique_texts(rng: random.Random, count: int, make) -> list[str]:
    seen: set[str] = set()
    texts: list[str] = []
    while len(texts) < count:
        text = make()
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


@dataclass(frozen=True)
class LogParams:
    events: int  # distinct (user, query, timestamp) triples to plant
    concept_session_share: float
    topics: int = 60
    topic_size: int = 6
    topic_pool: int = 120  # distinct matching texts per topic
    plain_pool: int = 60000  # distinct non-matching texts
    zipf_s: float = 1.0
    session_lengths: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    length_weights: tuple[int, ...] = (30, 25, 18, 12, 8, 7)
    sessions_per_user: tuple[int, int] = (1, 8)
    topic_query_share: float = 0.7  # later queries of a concept session
    drift_share: float = 0.05  # concept sessions that visit a neighbouring topic
    click_extra_weights: tuple[int, int, int] = (65, 27, 8)  # P(0, 1, 2 click rows)
    malformed_share: float = 0.002


@dataclass
class GenLog:
    rows: list[str]
    events: list[tuple[str, str, int]]  # (user, text, seconds after BASE_TIME)
    malformed: int


def make_log(rng: random.Random, vocab: Vocabulary, ont: GenOntology, p: LogParams) -> GenLog:
    """Users, sessions and click rows over topics of non-excluded concepts."""
    concepts = ont.kept_ids()
    rng.shuffle(concepts)
    if p.topics * p.topic_size > len(concepts):
        raise ValueError("ontology too small for the requested topics")
    topics = [concepts[t * p.topic_size:(t + 1) * p.topic_size] for t in range(p.topics)]
    excluded = ont.excluded_ids()

    def topic_text(topic: list[str]) -> str:
        picked = rng.sample(topic, 2 if rng.random() < 0.25 else 1)
        return _with_filler(rng, vocab, [rng.choice(ont.phrases[c]) for c in picked], 3)

    def plain_text() -> str:
        parts = []
        if excluded and rng.random() < 0.05:
            parts.append(rng.choice(ont.phrases[rng.choice(excluded)]))
        filler = [(rng.choice(vocab.filler),) for _ in range(rng.randint(1, 5))]
        return " ".join(tok for part in parts + filler for tok in part)

    topic_pools = [
        ZipfPool(_unique_texts(rng, p.topic_pool, lambda t=t: topic_text(t)), p.zipf_s) for t in topics
    ]
    plain_pool = ZipfPool(_unique_texts(rng, p.plain_pool, plain_text), p.zipf_s)

    events: list[tuple[str, str, int]] = []
    user = 0
    horizon = 30 * 86400
    while len(events) < p.events:
        uid = f"u{user:06d}"
        user += 1
        clock = rng.randrange(horizon)
        for _ in range(rng.randint(*p.sessions_per_user)):
            length = rng.choices(p.session_lengths, weights=p.length_weights)[0]
            if rng.random() < p.concept_session_share:
                t = rng.randrange(len(topics))
                drift = rng.randrange(1, length) if length > 1 and rng.random() < p.drift_share else -1
                texts = []
                for q in range(length):
                    if q == 0:
                        texts.append(topic_pools[t].draw(rng))
                    elif q == drift:
                        texts.append(topic_pools[(t + 1) % len(topics)].draw(rng))
                    elif rng.random() < p.topic_query_share:
                        texts.append(topic_pools[t].draw(rng))
                    else:
                        texts.append(plain_pool.draw(rng))
            else:
                texts = [plain_pool.draw(rng) for _ in range(length)]
            for q, text in enumerate(texts):
                if q:
                    clock += rng.randint(5, 1200)  # inside the 30-minute session gap
                events.append((uid, text, clock))
            clock += rng.randint(2700, 2 * 86400)  # well past the session gap

    rows: list[tuple[int, str]] = []
    for uid, text, ts in events:
        stamp = (BASE_TIME + timedelta(seconds=ts)).strftime(TIMESTAMP_FORMAT)
        extra = rng.choices((0, 1, 2), weights=p.click_extra_weights)[0]
        rows.append((ts, f"{uid}\t{text}\t{stamp}\t\t"))
        for rank in range(1, extra + 1):
            rows.append((ts, f"{uid}\t{text}\t{stamp}\t{rank}\thttp://r{rank}.example/{rng.randrange(10**6)}"))
    rows.sort(key=lambda r: r[0])
    lines = [line for _, line in rows]

    malformed = int(len(lines) * p.malformed_share)
    for i in range(malformed):
        uid, text, _ = events[rng.randrange(len(events))]
        kind = i % 4
        if kind == 0:
            bad = f"{uid}\t{text}"  # too few columns
        elif kind == 1:
            bad = f"\t{text}\t2026-03-02 10:00:00\t\t"  # empty user id
        elif kind == 2:
            bad = f"{uid}\t{text}\t2026-02-30 10:00:00\t\t"  # impossible date
        else:
            bad = f"{uid}\t{text}\tyesterday\t\t"  # not a timestamp
        lines.insert(rng.randrange(len(lines) + 1), bad)
    return GenLog(rows=lines, events=events, malformed=malformed)


def make_online(
    rng: random.Random,
    vocab: Vocabulary,
    ont: GenOntology,
    n_clusters: int,
    n_queries: int,
) -> tuple[list[dict], list[str]]:
    """Planted overlapping clusters and fresh, pairwise-distinct queries."""
    concepts = ont.kept_ids()
    rng.shuffle(concepts)
    clusters: list[dict] = []
    cursor = 0
    for cid in range(n_clusters):
        size = rng.randint(4, 12)
        members = set(concepts[cursor:cursor + size])
        cursor += size
        if clusters and rng.random() < 0.3:
            members.add(rng.choice(clusters[-1]["members"]))  # overlap with a neighbour
        clusters.append({"id": cid, "members": sorted(members)})
    unclustered = concepts[cursor:]

    def query() -> str:
        roll = rng.random()
        if roll < 0.8:
            members = clusters[rng.randrange(n_clusters)]["members"]
            picked = rng.sample(members, 2 if rng.random() < 0.3 else 1)
        elif roll < 0.9:
            picked = [rng.choice(unclustered)]
        else:
            picked = []
        parts = [rng.choice(ont.phrases[c]) for c in picked]
        if not parts:
            return " ".join(rng.choice(vocab.filler) for _ in range(rng.randint(2, 6)))
        return _with_filler(rng, vocab, parts, 4)

    return clusters, _unique_texts(rng, n_queries, query)


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def write_log(path: Path, log: GenLog) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(LOG_HEADER + "\n")
        for line in log.rows:
            handle.write(line + "\n")
