"""Traced run of one workload iteration, in one fresh process.

Calls the public functions of each ``subeval`` module in the order the
CLI calls them, on the same inputs and with the same options, and writes
the same output files.  Spans (name, start, end, parent) are recorded
around each call, kept in memory and written to ``--spans`` at the end.

On top of what the CLI does, it takes one tokenizer pass over every
utterance per scheme the workload uses: the least tokenizing the
workload needs.  Those tokens feed the CoNLL-U tagging and the bitext,
where the CLI tokenizes again.

    PYTHONPATH=src python3 perfbench/tracing.py --workload align-5k \\
        --resamples 1000 --spans spans.json     # from a run directory
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import contextmanager

import workloads
from subeval import align, cli
from subeval.conformity import (
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
    conformity_report,
)
from subeval.consistency import consistency_report
from subeval.errors import DataError
from subeval.markers import load_marked_text
from subeval.model import pair_documents
from subeval.quality import (
    bleu_segment_stats,
    bootstrap_significance,
    corpus_bleu,
    wer,
    wer_segment_stats,
)
from subeval.report import EvaluationReport, report_to_json, report_to_tsv
from subeval.srt import load_srt
from subeval.textproc import (
    Scheme,
    attach_tags,
    load_conllu,
    normalize_for_wer,
    tokenize,
)

INPUTS = workloads.INPUTS
# `align train` defaults, which the benchmark's CLI calls use.
ALIGN_OPTIONS = dict(use_diagonal_prior=True, p0=0.08, initial_tension=4.0)


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def _tokenize_all(utterances, scheme, lang="en"):
    return [tokenize(utt.text(), scheme, lang) for utt in utterances]


def _wer_cells(hyps, refs):
    """n*m edit-distance cells that WER fills for these token lists."""
    return sum(
        len(normalize_for_wer(h)) * len(normalize_for_wer(r)) for h, r in zip(hyps, refs)
    )


def trace_eval(t, ctx):
    opts = {key: default for key, (_, default) in cli.EVAL_OPTIONS.items()}
    opts.update(workloads.EVAL_OPTIONS)
    cap_lang, sub_lang = opts["caption-lang"], opts["subtitle-lang"]
    with t.span("markers.parse"):
        cap_hyp, cap_ref, sub_hyp, sub_ref = (
            load_marked_text(opts[key])
            for key in ("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref")
        )
    t.count("markers.utterances", len(cap_hyp) + len(cap_ref) + len(sub_hyp) + len(sub_ref))

    with t.span("textproc.tokenize_ws"):
        ws = [_tokenize_all(doc.utterances, Scheme.WHITESPACE) for doc in (cap_hyp, cap_ref)]
    with t.span("textproc.tokenize_13a"):
        b13a = [_tokenize_all(doc.utterances, Scheme.INTL13A) for doc in (sub_hyp, sub_ref)]
    with t.span("textproc.tokenize_mt"):
        mt_cap = _tokenize_all(cap_hyp.utterances, Scheme.MT_DETACHED, cap_lang)
        mt_sub = _tokenize_all(sub_hyp.utterances, Scheme.MT_DETACHED, sub_lang)
    t.count("textproc.tokens", sum(
        len(tok.tokens) for group in (*ws, *b13a, mt_cap, mt_sub) for tok in group
    ))
    t.count("quality.wer_cells", _wer_cells(*ws))

    with t.span("quality.wer"):
        wer_result = wer(cap_hyp.utterances, cap_ref.utterances)
    with t.span("quality.bleu"):
        bleu_result = corpus_bleu(sub_hyp.utterances, sub_ref.utterances)

    with t.span("textproc.conllu"):
        tagged = []
        for doc, tokens, key in ((cap_hyp, mt_cap, "pos-captions"), (sub_hyp, mt_sub, "pos-subtitles")):
            sentences = load_conllu(opts[key])
            if len(sentences) != len(doc.utterances):
                raise DataError(f"{opts[key]}: {len(sentences)} sentences")
            tagged.append([
                attach_tags(tok, [upos for _, upos in sentence], utt_id=utt.id)
                for utt, sentence, tok in zip(doc.utterances, sentences, tokens)
            ])

    thresholds = ConformityThresholds(max_cpl=opts["max-cpl"], max_cps=opts["max-cps"])
    with t.span("conformity.report"):
        conformity = [
            conformity_report(
                doc,
                thresholds,
                LengthAggregation(opts["aggregation"]),
                tags,
                include_trailing_eob=not opts["exclude-trailing-eob"],
                breaks=BreakSelection(opts["breaks"]),
            )
            for doc, tags in ((cap_hyp, tagged[0]), (sub_hyp, tagged[1]))
        ]
    t.count("conformity.breaks", sum(report.breaks for report in conformity))

    with t.span("model.pair"):
        pairs = pair_documents(cap_hyp, sub_hyp)
        system_bitext = [
            align.BitextPair(tuple(c.words()), tuple(s.words())) for c, s in zip(mt_cap, mt_sub)
        ]
    with t.span("align.load_pharaoh"):
        c2s = align.load_pharaoh(opts["align-c2s"])
        s2c = align.load_pharaoh(opts["align-s2c"])
        if not len(c2s) == len(s2c) == len(system_bitext):
            raise DataError("alignment file length mismatch")
    t.count("align.links", sum(len(a.links) for a in c2s + s2c))

    with t.span("consistency.report"):
        cons = consistency_report(
            pairs,
            list(zip(c2s, s2c)),
            caption_lang=cap_lang,
            subtitle_lang=sub_lang,
            skip_unaligned=opts["skip-unaligned"],
        )
    t.count("consistency.pairs", len(pairs))

    with t.span("report.write"):
        report = EvaluationReport(
            system_name=opts["system-name"],
            wer=wer_result.wer,
            bleu=bleu_result.score,
            length_captions=conformity[0].length_rate,
            length_subtitles=conformity[1].length_rate,
            reading_speed_captions=conformity[0].reading_speed_rate,
            reading_speed_subtitles=conformity[1].reading_speed_rate,
            segmentation_captions=conformity[0].segmentation_rate,
            segmentation_subtitles=conformity[1].segmentation_rate,
            structural=cons.structural,
            lexical=cons.lexical,
            line_count=cons.line_count,
            char_ratio=cons.char_ratio,
            config_echo=dict(sorted(opts.items())),
        )
        with open(opts["diagnostics"], "w", encoding="utf-8") as fh:
            for pair, result in zip(pairs, cons.per_pair):
                fh.write(json.dumps({
                    "id": pair.id,
                    "blocks_c": len(pair.caption.blocks),
                    "blocks_s": len(pair.subtitle.blocks),
                    "lex_c2s": result.lex_c2s,
                    "lex_s2c": result.lex_s2c,
                    "lex_pair": result.lex_pair,
                    "inconsistent_tokens": [list(tok) for tok in result.inconsistent_tokens],
                }, sort_keys=True, ensure_ascii=False) + "\n")
        with open(opts["out-file"], "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report) + report_to_tsv(report))


def trace_align(t, ctx):
    bitext = f"{INPUTS}/bitext.txt"
    # align train
    with t.span("align.load_bitext"):
        raw = align.load_bitext(bitext)
    with t.span("textproc.tokenize_mt"):
        words = [
            (tokenize(src, Scheme.MT_DETACHED).words(), tokenize(tgt, Scheme.MT_DETACHED).words())
            for src, tgt in raw
        ]
    t.count("textproc.tokens", sum(len(s) + len(w) for s, w in words))
    with t.span("align.bitext"):
        pairs = [align.BitextPair(tuple(src), tuple(tgt)) for src, tgt in words]
    t.count("align.target_tokens", sum(len(pair.target) for pair in pairs))
    with t.span("align.init"):
        align.train_aligner(pairs, iterations=0, **ALIGN_OPTIONS)
    with t.span("align.train"):
        model = align.train_aligner(pairs, iterations=workloads.ALIGN_ITERATIONS, **ALIGN_OPTIONS)
    with t.span("align.save_model"):
        align.save_model(model, "model.tsv")
    t.count("align.model_rows", sum(len(row) for row in model.table.values()))
    # align apply
    with t.span("align.load_model"):
        model = align.load_model("model.tsv")
    with t.span("align.load_bitext"):
        align.load_bitext(bitext)
    with t.span("align.viterbi"):
        alignments = [align.viterbi_align(model, pair) for pair in pairs]
    with t.span("align.write"):
        with open("align.out", "w", encoding="utf-8") as fh:
            fh.write("".join(align.write_pharaoh(a) + "\n" for a in alignments))


def trace_significance(t, ctx):
    stats = {"bleu": bleu_segment_stats, "wer": wer_segment_stats}
    for metric in ("bleu", "wer"):
        with t.span("srt.parse"):
            hyp_a, hyp_b, ref = (load_srt(f"{INPUTS}/{name}.srt") for name in ("a", "b", "ref"))
        t.count("srt.cues", len(hyp_a) + len(hyp_b) + len(ref))
        if metric == "bleu":
            with t.span("textproc.tokenize_13a"):
                b13a = [_tokenize_all(doc.utterances, Scheme.INTL13A) for doc in (hyp_a, hyp_b, ref)]
            with t.span("textproc.tokenize_ws"):
                ws = [_tokenize_all(doc.utterances, Scheme.WHITESPACE) for doc in (hyp_a, hyp_b, ref)]
            t.count("textproc.tokens", sum(len(tok.tokens) for group in b13a + ws for tok in group))
            t.count("quality.wer_cells", _wer_cells(ws[0], ws[2]) + _wer_cells(ws[1], ws[2]))
        with t.span(f"quality.{metric}_stats"):
            stats[metric](hyp_a.utterances, ref.utterances)
            stats[metric](hyp_b.utterances, ref.utterances)
        with t.span(f"quality.bootstrap_{metric}"):
            result = bootstrap_significance(
                hyp_a.utterances,
                hyp_b.utterances,
                ref.utterances,
                metric=metric,
                resamples=ctx["resamples"],
                seed=workloads.SIGNIFICANCE_SEED,
            )
        with t.span("significance.write"):
            with open(f"{metric}.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "p_value": result.p_value,
                    "delta_mean": result.delta_mean,
                    "resamples": result.resamples,
                    "seed": result.seed,
                    "better_system": result.better_system,
                }, sort_keys=True) + "\n")


PIPELINES = {
    "eval-10k": trace_eval,
    "align-5k": trace_align,
    "significance-srt": trace_significance,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PIPELINES), required=True)
    parser.add_argument("--resamples", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    with tracer.span("trace.total"):
        PIPELINES[args.workload](tracer, {"resamples": args.resamples})
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    main()
