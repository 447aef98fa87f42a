"""Evaluation toolkit for machine-generated captions and subtitles.

Three axes: quality (WER, BLEU, bootstrap significance), conformity
(line length, reading speed, segmentation plausibility), and
caption-subtitle consistency (structural, lexical, line-count), with
the statistical word alignment the lexical metric depends on.
"""

from .conformity import (
    ConformityThresholds,
    length_conformity,
    reading_speed_conformity,
    segmentation_plausibility,
)
from .consistency import (
    block_index_map,
    char_ratio,
    consistency_report,
    corpus_lexical_consistency,
    lexical_consistency_pair,
    line_count_consistency,
    structural_consistency,
    validate_lexical_metric,
)
from .errors import DataError, FormatError, SubevalError
from .links import SentenceAlignment, parse_pharaoh, write_pharaoh
from .markers import parse_marked_text, serialize_marked_text
from .model import (
    SubtitleBlock,
    SubtitleDocument,
    Utterance,
    UtterancePair,
    pair_documents,
)
from .quality import bootstrap_significance, corpus_bleu, wer
from .srt import parse_srt, serialize_srt
from .textproc import (
    Scheme,
    attach_tags,
    classify_chunk_chink,
    normalize_for_wer,
    parse_conllu,
    tokenize,
)

__version__ = "0.1.0"

# The aligner's names load numpy with `align`, so they are imported on
# first use (PEP 562), not with the package.
_ALIGN_NAMES = frozenset(
    ("BitextPair", "TranslationModel", "train_aligner", "viterbi_align", "viterbi_align_corpus")
)


def __getattr__(name: str):
    if name in _ALIGN_NAMES:
        from . import align

        return getattr(align, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
