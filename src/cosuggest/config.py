"""Pipeline configuration: defaults, config files, environment overrides.

Precedence, lowest to highest: built-in defaults, config file (JSON or
flat ``key=value`` lines), ``COSUGGEST_*`` environment variables, CLI
flags.  The pipeline-relevant subset of the configuration is hashed into
artifact provenance so reruns can be verified byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

ENV_PREFIX = "COSUGGEST_"
PRECISION_POLICIES = ("exclude", "zero", "one")
REPORT_FORMATS = ("json", "csv")
MAX_GAP_MINUTES = timedelta.max // timedelta(minutes=1)  # the longest gap a timedelta holds


@dataclass(frozen=True)
class PipelineConfig:
    ontology_path: str | None = None
    log_path: str | None = None
    gap_minutes: int = 30
    prune_min_weight: int = 2
    copra_v: int = 2
    copra_max_iterations: int = 100
    seed: int = 42
    folds: int = 10
    excluded_facets: tuple[str, ...] = ("administrative",)
    lexicon_path: str | None = None
    empty_suggestion_precision: str = "exclude"
    out: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        if self.gap_minutes <= 0:
            raise ValueError("gap_minutes must be positive")
        if self.gap_minutes > MAX_GAP_MINUTES:
            raise ValueError(f"gap_minutes must be at most {MAX_GAP_MINUTES}")
        if self.prune_min_weight < 1:
            raise ValueError("prune_min_weight must be >= 1")
        if self.copra_v < 1:
            raise ValueError("copra_v must be >= 1")
        if self.copra_max_iterations < 1:
            raise ValueError("copra_max_iterations must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.format not in REPORT_FORMATS:
            raise ValueError(f"format must be one of {', '.join(REPORT_FORMATS)}")
        if self.empty_suggestion_precision not in PRECISION_POLICIES:
            policies = ", ".join(PRECISION_POLICIES)
            raise ValueError(f"empty_suggestion_precision must be one of {policies}")

    def pipeline_dict(self) -> dict:
        """Algorithm parameters only: what determines output given the data.

        Input paths and output settings (out, format) are excluded so a
        staged run and a fused run over the same data produce identical
        artifacts and provenance hashes.
        """
        return {
            "gap_minutes": self.gap_minutes,
            "prune_min_weight": self.prune_min_weight,
            "copra_v": self.copra_v,
            "copra_max_iterations": self.copra_max_iterations,
            "seed": self.seed,
            "folds": self.folds,
            "excluded_facets": sorted(self.excluded_facets),
            "empty_suggestion_precision": self.empty_suggestion_precision,
        }


_FIELDS = dataclasses.fields(PipelineConfig)
FIELD_NAMES = tuple(f.name for f in _FIELDS)
_INT_FIELDS = {f.name for f in _FIELDS if isinstance(f.default, int)}
_LIST_FIELDS = {f.name for f in _FIELDS if isinstance(f.default, tuple)}


def _coerce(key: str, value: object) -> object:
    if key in _LIST_FIELDS:
        if isinstance(value, str):
            return tuple(v.strip() for v in value.split(",") if v.strip())
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
            return tuple(value)
        raise ValueError(
            f"{key} must be a list of strings or a comma-separated string, got {value!r}"
        )
    if value is None and key not in _INT_FIELDS:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{key} must be an integer or a string, got {value!r}")
    if key not in _INT_FIELDS:
        return str(value)
    try:
        return int(value)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # past sys.get_int_max_str_digits()
            raise ValueError(f"{key}: {exc}") from None
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def load_config_file(path: str | Path) -> dict:
    """Parse a JSON object or flat ``key=value`` lines into config values; a
    bad key or value raises ``ValueError`` naming ``path:line`` (JSON: ``path``)."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    values: dict[str, object] = {}
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # a too-long integer is no JSONDecodeError
            raise ValueError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"config file {path} must contain a JSON object")
        raw_items = [(path, key, value) for key, value in payload.items()]
    else:
        raw_items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            raw_items.append((f"{path}:{lineno}", key.strip(), value.strip()))
    for where, key, value in raw_items:
        if key not in FIELD_NAMES:
            raise ValueError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return values


def env_overrides(environ: dict[str, str] | None = None) -> dict:
    """Collect ``COSUGGEST_<FIELD>`` variables as config values."""
    environ = os.environ if environ is None else environ
    values: dict[str, object] = {}
    for key, value in environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        field = key[len(ENV_PREFIX):].lower()
        if field in FIELD_NAMES:
            try:
                values[field] = _coerce(field, value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
    return values


def resolve_config(
    config_file: str | Path | None = None,
    environ: dict[str, str] | None = None,
    cli_values: dict | None = None,
) -> PipelineConfig:
    """Merge defaults, config file, environment and CLI flags, in that order."""
    values: dict[str, object] = {}
    if config_file is not None:
        values.update(load_config_file(config_file))
    values.update(env_overrides(environ))
    if cli_values:
        values.update({k: _coerce(k, v) for k, v in cli_values.items() if v is not None})
    return PipelineConfig(**values)  # type: ignore[arg-type]


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config.pipeline_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def provenance(config: PipelineConfig, stage: str) -> dict:
    """Deterministic provenance block embedded in every artifact."""
    from cosuggest import __version__

    return {
        "stage": stage,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "version": __version__,
    }
