#!/usr/bin/env python3
"""Parse the demo query log, split it into sessions, and reduce it.

The reduced dataset keeps only sessions in which at least one query
references an ontology concept; each kept query carries its matched
concept ids.  The NDJSON artifact written at the end is what the
co-occurrence and evaluation stages consume.
"""

from datetime import timedelta
from pathlib import Path

from cosuggest import (
    ConceptMatcher,
    load_lexicon,
    load_ontology,
    parse_log,
    reduce_dataset,
    session_length_stats,
    split_sessions,
    subset_by_facet,
    write_reduced_ndjson,
)

DATA = Path(__file__).parent / "data"


def main():
    ontology = subset_by_facet(load_ontology(DATA / "city_ontology.json"), {"administrative"})
    matcher = ConceptMatcher.from_ontology(ontology, lexicon=load_lexicon(DATA / "lexicon.json"))

    parsed = parse_log(DATA / "search_log.tsv")
    print(f"Parsed {len(parsed.records)} query records ({parsed.skipped} malformed rows skipped).")

    sessions = split_sessions(parsed.records, gap=timedelta(minutes=30))
    print(f"Split into {len(sessions)} sessions (30-minute inactivity gap).")

    ds = reduce_dataset(sessions, matcher)
    print(
        f"Reduced dataset: {ds.stats.sessions} sessions, "
        f"{ds.stats.queries} queries, {ds.stats.users} users.\n"
    )

    stats = session_length_stats(ds)
    print("Queries per session:")
    print(f"  min {stats.min}, max {stats.max}, mean {stats.mean:.2f}, "
          f"median {stats.median}, stdev {stats.stdev:.2f}")
    print(f"  histogram: {stats.histogram}\n")

    example = next(s for s in ds.sessions if len(s.queries) > 1)
    print(f"Example session {example.session_id}:")
    for record, concepts in zip(example.queries, example.concepts):
        print(f"  {record.timestamp}  {record.query_text!r} -> {sorted(concepts)}")

    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    write_reduced_ndjson(ds, out / "reduced.ndjson")
    print(f"\nWrote {out / 'reduced.ndjson'}")


if __name__ == "__main__":
    main()
