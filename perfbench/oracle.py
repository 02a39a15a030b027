"""Reference results the benchmark checks the program against.

Everything here works on the generator's plain data, never on cosuggest
objects, and follows the paper's definitions directly:

* matching: every contiguous token window of a query looked up in a table
  of phrase -> class ids (annotations, lexicon phrases and labels of the
  classes outside the excluded facet);
* reduction: deduplicated events split per user on gaps over 30 minutes,
  kept when any query matches;
* suggestion: set-based slack, slack-selective and strict;
* evaluation: seeded folds over sessions of two or more queries, fold
  graphs derived by subtracting the held-out sessions' pair counts from
  the full counts, COPRA label propagation, and macro-averaged metrics.

Digests hash canonical, parsed content so formatting changes in the
program's artifacts do not trip them.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from datetime import timedelta
from itertools import combinations
from statistics import fmean

from gen import BASE_TIME, EXCLUDED_FACET, TIMESTAMP_FORMAT

SESSION_GAP_S = 30 * 60
STRATEGIES = ("slack", "slack-selective", "strict")
PRUNE_MIN_WEIGHT = 2
COPRA_V = 2
COPRA_MAX_ITER = 100


def phrase_table(ontology: dict, lexicon: dict[str, list[str]]) -> dict[tuple[str, ...], frozenset[str]]:
    """Phrase -> class ids, read from the ontology and lexicon JSON payloads."""
    table: dict[tuple[str, ...], set[str]] = {}
    for cls in ontology["classes"]:
        cid = cls["id"]
        if cid == ontology["root"] or cls["facet"] == EXCLUDED_FACET:
            continue
        phrases = [tuple(a["lemmas"]) for a in cls["annotations"]]
        phrases += [tuple(s.split(" ")) for s in lexicon.get(cid, [])]
        phrases.append((cls["label"].lower(),))
        for phrase in phrases:
            table.setdefault(phrase, set()).add(cid)
    return {p: frozenset(ids) for p, ids in table.items()}


def match(table: dict[tuple[str, ...], frozenset[str]], text: str) -> frozenset[str]:
    tokens = text.split(" ") if text else []
    hits: set[str] = set()
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            hits.update(table.get(tuple(tokens[i:j]), ()))
    return frozenset(hits)


# A session is (session id, user, [(text, timestamp string, concepts)]).
Session = tuple[str, str, list[tuple[str, str, frozenset[str]]]]


def reduce_events(table, events: list[tuple[str, str, int]]) -> tuple[list[Session], int]:
    """Kept sessions in output order, and the number of sessions before reduction."""
    by_user: dict[str, list[tuple[int, str]]] = {}
    for user, text, ts in events:
        by_user.setdefault(user, []).append((ts, text))
    cache: dict[str, frozenset[str]] = {}
    kept: list[Session] = []
    total = 0
    for user in sorted(by_user):
        stream = sorted(by_user[user])
        ordinal, current = 1, []
        for k, (ts, text) in enumerate(stream):
            current.append((ts, text))
            if k + 1 < len(stream) and stream[k + 1][0] - ts <= SESSION_GAP_S:
                continue
            total += 1
            queries = []
            for qts, qtext in current:
                if qtext not in cache:
                    cache[qtext] = match(table, qtext)
                stamp = (BASE_TIME + timedelta(seconds=qts)).strftime(TIMESTAMP_FORMAT)
                queries.append((qtext, stamp, cache[qtext]))
            if any(q[2] for q in queries):
                kept.append((f"{user}#{ordinal}", user, queries))
            ordinal += 1
            current = []
    return kept, total


def sessions_digest(sessions) -> str:
    h = hashlib.sha256()
    for sid, user, queries in sessions:
        row = [sid, user, [[text, ts, sorted(concepts)] for text, ts, concepts in queries]]
        h.update(json.dumps(row).encode("utf-8") + b"\n")
    return h.hexdigest()


def parse_reduced(path) -> list[Session]:
    """Sessions of a reduced NDJSON artifact, parsed from its JSON lines."""
    sessions: list[Session] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                p = json.loads(line)
                queries = [(q["text"], q["ts"], frozenset(q["concepts"])) for q in p["queries"]]
                sessions.append((p["session_id"], p["user"], queries))
    return sessions


def suggest(clusters: list[tuple[int, frozenset[str]]], context: frozenset[str], strategy: str):
    """(selected cluster ids, suggested concepts) by set algebra over all clusters."""
    touching = [(cid, m) for cid, m in clusters if m & context] if context else []
    if strategy == "slack-selective" and touching:
        best = max(len(m & context) for _, m in touching)
        touching = [min((cid, m) for cid, m in touching if len(m & context) == best)]
    elif strategy == "strict" and not all(context <= m for _, m in touching):
        touching = []
    suggested = frozenset().union(*(m for _, m in touching)) - context
    return tuple(sorted(cid for cid, _ in touching)), suggested


def answer(context: frozenset[str], results) -> list:
    """Canonical JSON form of one request's context and per-strategy results."""
    return [sorted(context), [[list(selected), sorted(suggested)] for selected, suggested in results]]


def _tie_index(seed: int, iteration: int, vertex: str, n: int) -> int:
    digest = hashlib.blake2b(f"{seed}|{iteration}|{vertex}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n


def copra(edges: dict[tuple[str, str], int], seed: int) -> list[frozenset[str]]:
    """Overlapping communities by synchronous label propagation (COPRA).

    Each vertex averages its own labels (weighted like its heaviest edge)
    with its neighbours' labels, drops labels under 1/v, breaks ties by a
    seeded hash draw, and stops at the first exact fixed point.
    """
    adjacency: dict[str, list[tuple[str, int]]] = {}
    for (a, b), w in edges.items():
        adjacency.setdefault(a, []).append((b, w))
        adjacency.setdefault(b, []).append((a, w))
    vertices = sorted(adjacency)
    for v in vertices:
        adjacency[v].sort()
    own = {v: float(max(w for _, w in adjacency[v])) for v in vertices}
    labels = {v: {v: 1.0} for v in vertices}
    for iteration in range(1, COPRA_MAX_ITER + 1):
        drew = False
        updated = {}
        for v in vertices:
            acc: dict[str, float] = {}
            total = own[v]
            for label, c in labels[v].items():
                acc[label] = acc.get(label, 0.0) + own[v] * c
            for u, w in adjacency[v]:
                total += w
                for label, c in labels[u].items():
                    acc[label] = acc.get(label, 0.0) + w * c
            for label in acc:
                acc[label] /= total
            kept = {label: c for label, c in acc.items() if c >= 1.0 / COPRA_V}
            if not kept:
                best = max(acc.values())
                ties = sorted(label for label, c in acc.items() if c == best)
                drew = drew or len(ties) > 1
                pick = ties[_tie_index(seed, iteration, v, len(ties))] if len(ties) > 1 else ties[0]
                kept = {pick: acc[pick]}
            norm = sum(kept.values())
            updated[v] = {label: c / norm for label, c in kept.items()}
        if not drew and updated == labels:
            break
        labels = updated
    communities: dict[str, set[str]] = {}
    for v, vl in labels.items():
        for label in vl:
            communities.setdefault(label, set()).add(v)
    sets = {frozenset(m) for m in communities.values()}
    return sorted((m for m in sets if not any(m < o for o in sets)), key=lambda m: tuple(sorted(m)))


def session_pairs(session: Session) -> list[tuple[str, str]]:
    union = sorted(frozenset().union(*(q[2] for q in session[2])))
    return list(combinations(union, 2))


def _fold_metrics(outcomes: list[tuple[frozenset[str], frozenset[str]]]):
    """(recall, precision, f1, richness min, max, mean) or None if unscorable."""
    scored = [(gt, sg) for gt, sg in outcomes if gt]
    if not scored:
        return None
    hits = [len(gt & sg) for gt, sg in scored]
    recall = fmean(h / len(gt) for h, (gt, _) in zip(hits, scored))
    precisions = [h / len(sg) for h, (_, sg) in zip(hits, scored) if sg]
    precision = fmean(precisions) if precisions else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (recall, precision, f1, min(hits), max(hits), fmean(hits))


def evaluate(sessions: list[Session], folds: int, seed: int) -> dict:
    """Per-strategy, per-fold metrics of k-fold training and scoring."""
    eligible = sorted(s[0] for s in sessions if len(s[2]) >= 2)
    random.Random(seed).shuffle(eligible)
    fold_of = {sid: i % folds for i, sid in enumerate(eligible)}
    pairs = {s[0]: session_pairs(s) for s in sessions}
    full = Counter(p for ps in pairs.values() for p in ps)
    results: dict[str, list] = {name: [] for name in STRATEGIES}
    graphs = []
    for fold in range(folds):
        test = [s for s in sessions if fold_of.get(s[0]) == fold]
        counts = full - Counter(p for s in test for p in pairs[s[0]])
        edges = {p: w for p, w in counts.items() if w >= PRUNE_MIN_WEIGHT}
        clusters = list(enumerate(copra(edges, seed))) if edges else []
        graphs.append((len({n for p in edges for n in p}), len(edges), len(clusters)))
        for name in STRATEGIES:
            answers: dict[frozenset[str], frozenset[str]] = {}  # contexts repeat across sessions
            outcomes = []
            for _, _, queries in test:
                context = queries[0][2]
                if context not in answers:
                    answers[context] = suggest(clusters, context, name)[1]
                truth = frozenset().union(*(q[2] for q in queries[1:])) - context
                outcomes.append((truth, answers[context]))
            results[name].append(_fold_metrics(outcomes))
    return {"folds": results, "graphs": graphs}


def _fmt(values) -> list[str] | None:
    return None if values is None else [format(v, ".12g") for v in values]


def eval_digest(folds_by_strategy: dict[str, list]) -> str:
    canon = {name: [_fmt(v) for v in folds_by_strategy[name]] for name in STRATEGIES}
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode("utf-8")).hexdigest()


def report_digest(report: dict) -> str:
    """Digest of a parsed eval report's per-fold recall, precision, F1 and richness."""
    keys = ("recall", "precision", "f1", "richness_min", "richness_max", "richness_mean")
    folds = {
        name: [None if f is None else tuple(f[k] for k in keys) for f in report["strategies"][name]["folds"]]
        for name in STRATEGIES
    }
    return eval_digest(folds)
