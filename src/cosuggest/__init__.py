"""Session-based concept suggestion toolkit.

Pipeline: parse a search-engine query log, split it into temporal
sessions, map queries to concepts of an annotated ontology, build a
session-level concept co-occurrence graph, detect overlapping concept
communities, and suggest concepts for new sessions under three
strategies.  A cross-validated harness measures richness, recall,
precision and F1 of the suggestions.
"""

from cosuggest.ontology import (
    AnnotationPhrase,
    OntClass,
    Ontology,
    OntologyError,
    OntologyMetrics,
    compute_metrics,
    load_ontology,
    ontology_from_dict,
    ontology_to_dict,
    save_ontology,
    subset_by_facet,
)
from cosuggest.matching import (
    ConceptMatcher,
    LemmaIndex,
    build_lemma_index,
    load_lexicon,
    match_query,
    merge_lexicon,
    normalize,
)
from cosuggest.log_pipeline import (
    LengthStats,
    ParseResult,
    QueryRecord,
    ReducedDataset,
    SearchSession,
    SourceStats,
    parse_log,
    read_reduced_ndjson,
    reduce_dataset,
    session_length_stats,
    split_sessions,
    write_reduced_ndjson,
)
from cosuggest.cooccurrence import (
    CooccurrenceGraph,
    build_graph,
    prune,
    read_graph_tsv,
    write_graph_tsv,
)
from cosuggest.copra import (
    ClusterStats,
    ConceptCluster,
    CopraConfig,
    CopraResult,
    cluster_stats,
    copra_cluster,
    read_clusters_json,
    write_clusters_json,
)
from cosuggest.suggestion import Strategy, SuggestionResult, suggest
from cosuggest.evaluation import (
    EvaluationReport,
    FoldMetrics,
    FoldPlan,
    SessionOutcome,
    aggregate,
    f1_by_length,
    make_folds,
    run_experiment,
    run_experiment_on_dataset,
)
from cosuggest.config import PipelineConfig, config_hash

__version__ = "0.1.0"

__all__ = [
    "AnnotationPhrase",
    "ClusterStats",
    "ConceptCluster",
    "ConceptMatcher",
    "CooccurrenceGraph",
    "CopraConfig",
    "CopraResult",
    "EvaluationReport",
    "FoldMetrics",
    "FoldPlan",
    "LemmaIndex",
    "LengthStats",
    "OntClass",
    "Ontology",
    "OntologyError",
    "OntologyMetrics",
    "ParseResult",
    "PipelineConfig",
    "QueryRecord",
    "ReducedDataset",
    "SearchSession",
    "SessionOutcome",
    "SourceStats",
    "Strategy",
    "SuggestionResult",
    "aggregate",
    "build_graph",
    "build_lemma_index",
    "cluster_stats",
    "compute_metrics",
    "config_hash",
    "copra_cluster",
    "f1_by_length",
    "load_lexicon",
    "load_ontology",
    "make_folds",
    "match_query",
    "merge_lexicon",
    "normalize",
    "ontology_from_dict",
    "ontology_to_dict",
    "parse_log",
    "prune",
    "read_clusters_json",
    "read_graph_tsv",
    "read_reduced_ndjson",
    "reduce_dataset",
    "run_experiment",
    "run_experiment_on_dataset",
    "save_ontology",
    "session_length_stats",
    "split_sessions",
    "subset_by_facet",
    "suggest",
    "write_clusters_json",
    "write_graph_tsv",
    "write_reduced_ndjson",
]
