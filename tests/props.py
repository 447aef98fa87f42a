"""Randomized property checks, shared by the property suite and the
acceptance suite.

Each check runs `n_cases` independently seeded random cases and raises
AssertionError on the first violation.  Keeping them as plain functions
lets the acceptance suite re-run them with an explicit case budget.
"""

from __future__ import annotations

import math
import random
import unicodedata

from subeval.conformity import ConformityThresholds, conformity_report
from subeval.consistency import consistency_report, lexical_consistency_pair
from subeval.align import SentenceAlignment
from subeval.markers import parse_marked_text, serialize_marked_text
from subeval.model import (
    BREAKS,
    SubtitleBlock,
    SubtitleDocument,
    Utterance,
    UtterancePair,
    pair_documents,
)
from subeval.quality import corpus_bleu, wer
from subeval.report import EvaluationReport, report_to_json
from subeval.textproc import Scheme, normalize_for_wer, tokenize

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
]

NOISY_PIECES = WORDS + [
    "Hello,", "world!", "l'eau", "don't", "1,000", "a.b", "x-y", "...",
    "(so)", "«oui»", "C3PO", "¿qué?",
]


def _random_line(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4)))


def random_document(rng: random.Random, max_utts: int = 4) -> SubtitleDocument:
    utterances = []
    for i in range(rng.randint(1, max_utts)):
        blocks = tuple(
            SubtitleBlock(
                tuple(_random_line(rng) for _ in range(rng.randint(1, 2)))
            )
            for _ in range(rng.randint(1, 3))
        )
        utterances.append(Utterance(id=str(i), blocks=blocks))
    return SubtitleDocument(tuple(utterances))


def srt_timestamp(ms: int) -> str:
    """`ms` as an SRT timestamp, HH:MM:SS,mmm."""
    return f"{ms // 3_600_000:02d}:{ms // 60_000 % 60:02d}:{ms // 1000 % 60:02d},{ms % 1000:03d}"


def check_round_trip(n_cases: int = 1000, seed: int = 0) -> None:
    """parse(serialize(d)) = d for random valid documents."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        doc = random_document(rng)
        assert parse_marked_text(serialize_marked_text(doc)) == doc


def check_break_conservation(n_cases: int = 1000, seed: int = 1) -> None:
    """No scheme drops or duplicates break tokens, glued or not."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        pieces = []
        expected = 0
        for _ in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.3:
                marker = rng.choice(["<eob>", "<eol>"])
                expected += 1
                if rng.random() < 0.5 and pieces:
                    pieces[-1] = pieces[-1] + marker  # glue to previous word
                else:
                    pieces.append(marker)
            else:
                pieces.append(rng.choice(NOISY_PIECES))
        text = " ".join(pieces)
        for scheme in Scheme:
            tokens = tokenize(text, scheme, lang=rng.choice(["en", "fr"]))
            assert sum(1 for t in tokens.tokens if t in BREAKS) == expected, text


def check_conformity_bounds_and_monotonicity(n_cases: int = 1000, seed: int = 2) -> None:
    """Rates live in [0,1]; tightening a threshold never raises a rate."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        utterances = []
        cursor = 0
        for i in range(rng.randint(1, 3)):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                chars = rng.randint(1, 80)
                duration = rng.randint(500, 6000)
                blocks.append(
                    SubtitleBlock(
                        ("x" * chars,),
                        start_ms=cursor,
                        end_ms=cursor + duration,
                    )
                )
                cursor += duration
            utterances.append(Utterance(id=str(i), blocks=tuple(blocks)))
        doc = SubtitleDocument(tuple(utterances))
        cpl_low, cpl_high = sorted(rng.sample(range(1, 100), 2))
        cps_low, cps_high = sorted(rng.uniform(1, 60) for _ in range(2))
        low = conformity_report(doc, ConformityThresholds(max_cpl=cpl_low, max_cps=cps_low))
        high = conformity_report(doc, ConformityThresholds(max_cpl=cpl_high, max_cps=cps_high))
        length_low, speed_low = low.length_rate, low.reading_speed_rate
        length_high, speed_high = high.length_rate, high.reading_speed_rate
        for rate in (length_low, length_high, speed_low, speed_high):
            assert 0.0 <= rate <= 1.0
        assert length_low <= length_high
        assert speed_low <= speed_high


def _random_pair(rng: random.Random) -> UtterancePair:
    caption = random_document(rng, max_utts=1).utterances[0]
    subtitle = random_document(rng, max_utts=1).utterances[0]
    return UtterancePair(
        caption=caption,
        subtitle=Utterance(id=caption.id, blocks=subtitle.blocks),
    )


def check_lex_pair_identity(n_cases: int = 1000, seed: int = 3) -> None:
    """lex scores are fully determined by the inconsistent-token lists."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        pair = _random_pair(rng)
        n_cap = len(tokenize(pair.caption.text(), Scheme.MT_DETACHED).words())
        n_sub = len(tokenize(pair.subtitle.text(), Scheme.MT_DETACHED).words())
        c2s = SentenceAlignment(
            frozenset(
                (rng.randrange(n_cap), rng.randrange(n_sub))
                for _ in range(rng.randint(0, n_cap + n_sub))
            )
        )
        s2c = SentenceAlignment(
            frozenset(
                (rng.randrange(n_sub), rng.randrange(n_cap))
                for _ in range(rng.randint(0, n_cap + n_sub))
            )
        )
        result = lexical_consistency_pair(pair, c2s, s2c)
        bad_c = sum(1 for side, _, _ in result.inconsistent_tokens if side == "caption")
        bad_s = sum(1 for side, _, _ in result.inconsistent_tokens if side == "subtitle")
        assert math.isclose(result.lex_c2s, 1 - bad_c / n_cap, rel_tol=1e-12)
        assert math.isclose(result.lex_s2c, 1 - bad_s / n_sub, rel_tol=1e-12)
        assert math.isclose(
            result.lex_pair, (result.lex_c2s + result.lex_s2c) / 2, rel_tol=1e-12
        )
        assert 0.0 <= result.lex_pair <= 1.0


def check_permutation_invariance(n_cases: int = 1000, seed: int = 4) -> None:
    """Corpus WER, BLEU and structural consistency ignore utterance order."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        n = rng.randint(2, 5)
        ref = [random_document(rng, max_utts=1).utterances[0] for _ in range(n)]
        # Hypotheses share vocabulary with the references so n-grams overlap.
        hyp = []
        for i, r in enumerate(ref):
            if rng.random() < 0.5:
                hyp.append(Utterance(id=str(i), blocks=r.blocks))
            else:
                hyp.append(random_document(rng, max_utts=1).utterances[0])
        ref = [Utterance(id=str(i), blocks=r.blocks) for i, r in enumerate(ref)]
        hyp = [Utterance(id=str(i), blocks=h.blocks) for i, h in enumerate(hyp)]
        base_wer = wer(hyp, ref).wer
        base_bleu = corpus_bleu(hyp, ref).score
        base_struct = consistency_report(
            [UtterancePair(caption=c, subtitle=s) for c, s in zip(ref, hyp)]
        ).structural
        order = list(range(n))
        rng.shuffle(order)
        hyp_p = [hyp[i] for i in order]
        ref_p = [ref[i] for i in order]
        assert wer(hyp_p, ref_p).wer == base_wer
        assert corpus_bleu(hyp_p, ref_p).score == base_bleu
        assert (
            consistency_report(
                [UtterancePair(caption=c, subtitle=s) for c, s in zip(ref_p, hyp_p)]
            ).structural
            == base_struct
        )


def check_wer_normalization(n_cases: int = 1000, seed: int = 5) -> None:
    """Normalized WER words are lowercase, non-empty, never punctuation-only."""
    rng = random.Random(seed)
    alphabet = "aAbB'«».,!?-éÉ09 <>"
    for _ in range(n_cases):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for scheme in Scheme:
            for word in normalize_for_wer(tokenize(text, scheme)):
                assert word
                assert word == word.lower()
                assert not all(
                    unicodedata.category(c).startswith("P") for c in word
                )
                assert word not in ("<eob>", "<eol>")


def _report_for(captions_hyp, captions_ref, subtitles_hyp, subtitles_ref) -> str:
    pairs = pair_documents(captions_hyp, subtitles_hyp)
    identity = []
    for pair in pairs:
        n_cap = len(tokenize(pair.caption.text(), Scheme.MT_DETACHED).words())
        n_sub = len(tokenize(pair.subtitle.text(), Scheme.MT_DETACHED).words())
        links = SentenceAlignment(frozenset((i, i) for i in range(min(n_cap, n_sub))))
        identity.append((links, links))
    cons = consistency_report(pairs, identity)
    report = EvaluationReport(
        system_name="prop",
        wer=wer(captions_hyp.utterances, captions_ref.utterances).wer,
        bleu=corpus_bleu(subtitles_hyp.utterances, subtitles_ref.utterances).score,
        length_captions=conformity_report(captions_hyp).length_rate,
        length_subtitles=conformity_report(subtitles_hyp).length_rate,
        reading_speed_captions=None,
        reading_speed_subtitles=None,
        segmentation_captions=None,
        segmentation_subtitles=None,
        structural=cons.structural,
        lexical=cons.lexical,
        line_count=cons.line_count,
        char_ratio=cons.char_ratio,
        config_echo={"seed": 0},
    )
    return report_to_json(report)


def check_report_determinism(n_cases: int = 1000, seed: int = 6) -> None:
    """The same inputs always produce a byte-identical report."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        case_seed = rng.randrange(2**32)
        docs = []
        for offset in range(4):
            doc_rng = random.Random(case_seed * 4 + offset)
            docs.append(random_document(doc_rng, max_utts=2))
        # Equalize utterance counts so pairing works.
        n = min(len(d.utterances) for d in docs)
        docs = [SubtitleDocument(d.utterances[:n]) for d in docs]
        first = _report_for(*docs)
        second = _report_for(*docs)
        assert first == second
        assert first.encode() == second.encode()


ALL_CHECKS = [
    check_round_trip,
    check_break_conservation,
    check_conformity_bounds_and_monotonicity,
    check_lex_pair_identity,
    check_permutation_invariance,
    check_wer_normalization,
    check_report_determinism,
]
