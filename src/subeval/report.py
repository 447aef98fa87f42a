"""Evaluation report assembly and serialization (JSON and TSV)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class EvaluationReport:
    system_name: str
    wer: Optional[float]
    bleu: Optional[float]
    length_captions: Optional[float]
    length_subtitles: Optional[float]
    reading_speed_captions: Optional[float]
    reading_speed_subtitles: Optional[float]
    segmentation_captions: Optional[float]
    segmentation_subtitles: Optional[float]
    structural: float
    lexical: float
    line_count: Optional[float]
    char_ratio: float
    config_echo: dict[str, Any]


def _fmt_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}".lstrip("0") or ".00"


def _fmt_score(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}"


# One row per metric: (report field, dotted JSON key path, TSV column,
# TSV formatter).  JSON values are rounded to 4 digits.
_METRICS = [
    ("wer", "wer", "wer", _fmt_score),
    ("bleu", "bleu", "bleu", _fmt_score),
    ("length_captions", "length.captions", "length_captions", _fmt_rate),
    ("length_subtitles", "length.subtitles", "length_subtitles", _fmt_rate),
    ("reading_speed_captions", "reading_speed.captions", "read_speed_captions", _fmt_rate),
    ("reading_speed_subtitles", "reading_speed.subtitles", "read_speed_subtitles", _fmt_rate),
    ("segmentation_captions", "segmentation.captions", "segment_captions", _fmt_rate),
    ("segmentation_subtitles", "segmentation.subtitles", "segment_subtitles", _fmt_rate),
    ("structural", "structural", "struc", _fmt_rate),
    ("lexical", "lexical", "lex", _fmt_rate),
    ("line_count", "line_count", "line_count", _fmt_rate),
    ("char_ratio", "char_ratio", "char_ratio", _fmt_score),
]

TSV_COLUMNS = ["system"] + [column for _, _, column, _ in _METRICS]


def report_to_dict(report: EvaluationReport) -> dict[str, Any]:
    out: dict[str, Any] = {"system": report.system_name, "config": report.config_echo}
    for field, path, _, _ in _METRICS:
        *parents, key = path.split(".")
        node = out
        for parent in parents:
            node = node.setdefault(parent, {})
        value = getattr(report, field)
        node[key] = None if value is None else round(value, 4)
    return out


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def report_to_tsv(report: EvaluationReport) -> str:
    row = [report.system_name] + [fmt(getattr(report, field)) for field, _, _, fmt in _METRICS]
    return "\t".join(TSV_COLUMNS) + "\n" + "\t".join(row) + "\n"
