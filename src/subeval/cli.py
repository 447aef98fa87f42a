"""Command-line front end.

Subcommands: eval, align train, align apply, significance,
validate-lexical.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import re
import sys
from typing import Any, Callable, Optional, Sequence

from . import align as align_mod
from . import consistency as consistency_mod
from . import quality as quality_mod
from .conformity import (
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
    conformity_report,
)
from .errors import DataError, FormatError, SubevalError, open_utf8
from .markers import load_marked_text
from .model import SubtitleDocument, pair_documents
from .report import EvaluationReport, report_to_json, report_to_tsv
from .srt import load_srt
from .textproc import Scheme, TokenizedUtterance, attach_tags, load_conllu, tokenize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Options accepted in a flat key-value config file for `eval`.
# name -> (type, default); booleans appear as flags on the CLI.
EVAL_OPTIONS: dict[str, tuple[type, Any]] = {
    "captions-hyp": (str, None),
    "captions-ref": (str, None),
    "subtitles-hyp": (str, None),
    "subtitles-ref": (str, None),
    "format": (str, "mustcinema"),
    "pos-captions": (str, None),
    "pos-subtitles": (str, None),
    "align-c2s": (str, None),
    "align-s2c": (str, None),
    "train-bitext": (str, None),
    "extra-bitext": (str, None),
    "max-cpl": (int, 42),
    "max-cps": (float, 21.0),
    "breaks": (str, "both"),
    "aggregation": (str, "line"),
    "seed": (int, 0),
    "out": (str, "json"),
    "out-file": (str, None),
    "diagnostics": (str, None),
    "system-name": (str, "system"),
    "caption-lang": (str, "en"),
    "subtitle-lang": (str, "en"),
    "iterations": (int, 5),
    "p0": (float, 0.08),
    "tension": (float, 4.0),
    "lenient": (bool, False),
    "skip-unaligned": (bool, False),
    "exclude-trailing-eob": (bool, False),
    "segmentation": (bool, False),
    "no-diagonal-prior": (bool, False),
}

FORMATS = ("mustcinema", "srt")


def _parse_config_file(path: str) -> dict[str, tuple[str, str]]:
    """key -> (raw value, "<path>:<line>" where the file sets it)."""
    values: dict[str, tuple[str, str]] = {}
    with open_utf8(path) as fh:
        lines = list(fh)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key, value = key.strip(), value.strip()
        if key not in EVAL_OPTIONS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (value, f"{path}:{lineno}")
    return values


def _coerce(key: str, raw: str, where: str) -> Any:
    typ, _ = EVAL_OPTIONS[key]
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise FormatError(f"{where}: key {key!r}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise FormatError(f"{where}: key {key!r}: bad value {raw!r}")


def _resolve_options(args: argparse.Namespace) -> dict[str, Any]:
    """Merge config file and CLI values; CLI wins, then config, then
    defaults."""
    config = _parse_config_file(args.config) if args.config else {}
    resolved: dict[str, Any] = {}
    for key, (_, default) in EVAL_OPTIONS.items():
        cli_value = getattr(args, key.replace("-", "_"))
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in config:
            resolved[key] = _coerce(key, *config[key])
        else:
            resolved[key] = default
    return resolved


def _add_eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file")
    for key, (typ, _) in EVAL_OPTIONS.items():
        flag = f"--{key}"
        if typ is bool:
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(flag, type=typ, default=None)


def _one_of(*choices: str) -> tuple[Callable[[Any], bool], str]:
    return choices.__contains__, f"{', '.join(choices[:-1])} or {choices[-1]}"


# Options with a constrained value: name -> (test the value must pass,
# what it must be).  A rule holds for every subcommand with the option;
# each test is written so that NaN fails it.
_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "format": _one_of(*FORMATS),
    "breaks": _one_of(*(b.value for b in BreakSelection)),
    "aggregation": _one_of(*(a.value for a in LengthAggregation)),
    "out": _one_of("json", "tsv", "both"),
    "metric": _one_of("bleu", "wer"),
    "iterations": (lambda v: v >= 0, "non-negative"),
    "p0": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "tension": (lambda v: 0.1 <= v <= 14.0, "in [0.1, 14]"),  # EM's clamp
    "max-cpl": (lambda v: v > 0, "positive"),
    "max-cps": (lambda v: v > 0, "positive"),
    "resamples": (lambda v: v >= 1, "a positive integer"),
    "seed": (lambda v: v >= 0, "non-negative"),
}

# What no option value may hold: a NUL, which no path can, or a lone
# surrogate, which cannot be written out as UTF-8.
_NOT_TEXT = re.compile("[\x00\ud800-\udfff]")


def _validate_options(opts: dict[str, Any]) -> None:
    """The usage checks of every subcommand, made before any file is
    read.  Each check applies to the options present."""
    for key in ("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref"):
        if key in opts and not opts[key]:
            raise UsageError(f"--{key} is required")
    for key, value in opts.items():
        if isinstance(value, str) and _NOT_TEXT.search(value):
            raise UsageError(f"--{key} must be UTF-8 text without NUL, got {value!r}")
    for key, (valid, what) in _RULES.items():
        if key in opts and not valid(opts[key]):
            raise UsageError(f"--{key} must be {what}, got {opts[key]!r}")
    if opts.get("segmentation") and not (opts["pos-captions"] and opts["pos-subtitles"]):
        raise UsageError("--segmentation requires --pos-captions and --pos-subtitles")
    if "align-c2s" in opts:
        if bool(opts["align-c2s"]) != bool(opts["align-s2c"]):
            raise UsageError("--align-c2s and --align-s2c must be given together")
        if not opts["align-c2s"] and not opts["train-bitext"]:
            raise UsageError(
                "consistency requires --align-c2s/--align-s2c or --train-bitext"
            )


def _load_document(path: str, fmt: str, lenient: bool) -> SubtitleDocument:
    if fmt == "srt":
        return load_srt(path)
    return load_marked_text(path, lenient=lenient)


def _tag_document(
    doc: SubtitleDocument, tokens: Sequence[TokenizedUtterance], pos_path: str
):
    sentences = load_conllu(pos_path)
    if len(sentences) != len(doc.utterances):
        raise DataError(
            f"POS file {pos_path}: {len(sentences)} sentences for "
            f"{len(doc.utterances)} utterances"
        )
    return [
        attach_tags(utt_tokens, [upos for _, upos in sentence], utt_id=utt.id)
        for utt, utt_tokens, sentence in zip(doc.utterances, tokens, sentences)
    ]


def _bitext_pairs_from_file(path, caption_lang, subtitle_lang):
    pairs = []
    for src_text, tgt_text in align_mod.load_bitext(path):
        src = tokenize(src_text, Scheme.MT_DETACHED, caption_lang).words()
        tgt = tokenize(tgt_text, Scheme.MT_DETACHED, subtitle_lang).words()
        pairs.append(align_mod.BitextPair(tuple(src), tuple(tgt)))
    return pairs


def _train_models(opts, source_lang, target_lang, system_pairs=(), reverse=False):
    """Train on --train-bitext, the optional --extra-bitext and
    `system_pairs`: a source-to-target model, plus a target-to-source
    one when `reverse` is set."""
    corpus = []
    for key in ("train-bitext", "extra-bitext"):
        if opts[key]:
            corpus += _bitext_pairs_from_file(opts[key], source_lang, target_lang)
    corpus += system_pairs
    corpora = [corpus]
    if reverse:
        corpora.append([align_mod.BitextPair(p.target, p.source) for p in corpus])
    return [
        align_mod.train_aligner(
            pairs,
            iterations=opts["iterations"],
            use_diagonal_prior=not opts["no-diagonal-prior"],
            p0=opts["p0"],
            initial_tension=opts["tension"],
        )
        for pairs in corpora
    ]


def _alignments_for_pairs(opts, token_pairs):
    """The (c2s, s2c) alignment of each (caption, subtitle) token pair:
    loaded from Pharaoh files, or from aligners trained in both
    directions on the system bitext."""
    if opts["align-c2s"]:
        c2s = align_mod.load_pharaoh(opts["align-c2s"])
        s2c = align_mod.load_pharaoh(opts["align-s2c"])
        if len(c2s) != len(token_pairs) or len(s2c) != len(token_pairs):
            raise DataError(
                f"alignment file length mismatch: {len(c2s)}/{len(s2c)} lines "
                f"for {len(token_pairs)} pairs"
            )
        return list(zip(c2s, s2c))
    bitext = [
        align_mod.BitextPair(tuple(cap.words()), tuple(sub.words()))
        for cap, sub in token_pairs
    ]
    model_c2s, model_s2c = _train_models(
        opts, opts["caption-lang"], opts["subtitle-lang"], bitext, reverse=True
    )
    reverse = [align_mod.BitextPair(pair.target, pair.source) for pair in bitext]
    return list(
        zip(
            align_mod.viterbi_align_corpus(model_c2s, bitext),
            align_mod.viterbi_align_corpus(model_s2c, reverse),
        )
    )


# The two sides `eval` scores: the keys of the hypothesis, reference,
# POS file and language options, and the side's quality score.
_SIDES = (
    (
        "captions-hyp", "captions-ref", "pos-captions", "caption-lang",
        lambda hyp, ref: quality_mod.wer(hyp.utterances, ref.utterances).wer,
    ),
    (
        "subtitles-hyp", "subtitles-ref", "pos-subtitles", "subtitle-lang",
        lambda hyp, ref: quality_mod.corpus_bleu(hyp.utterances, ref.utterances).score,
    ),
)


def _compare(paths: tuple[str, str], compare: Callable, *docs):
    """`compare(*docs)`, whose DataError names the two files compared."""
    try:
        return compare(*docs)
    except DataError as exc:
        raise DataError(f"{paths[0]} vs {paths[1]}: {exc}") from None


def run_eval(opts: dict[str, Any]) -> int:
    fmt, lenient = opts["format"], opts["lenient"]
    thresholds = ConformityThresholds(max_cpl=opts["max-cpl"], max_cps=opts["max-cps"])
    aggregation = LengthAggregation(opts["aggregation"])
    breaks = BreakSelection(opts["breaks"])
    include_trailing = not opts["exclude-trailing-eob"]
    hyps, tokens, quality, conformity = [], [], [], []
    for hyp_key, ref_key, pos_key, lang_key, score in _SIDES:
        hyp = _load_document(opts[hyp_key], fmt, lenient)
        # The reference is a temporary, dropped as soon as it is scored.
        paths = (opts[hyp_key], opts[ref_key])
        quality.append(_compare(paths, score, hyp, _load_document(paths[1], fmt, lenient)))
        # One MT tokenization per hypothesis utterance feeds tagging, the
        # system bitext and lexical consistency.
        mt = [tokenize(utt.text(), Scheme.MT_DETACHED, opts[lang_key]) for utt in hyp]
        conformity.append(
            conformity_report(
                hyp,
                thresholds,
                aggregation,
                _tag_document(hyp, mt, opts[pos_key]) if opts[pos_key] else None,
                include_trailing_eob=include_trailing,
                breaks=breaks,
            )
        )
        hyps.append(hyp)
        tokens.append(mt)

    pairs = _compare((opts["captions-hyp"], opts["subtitles-hyp"]), pair_documents, *hyps)
    token_pairs = list(zip(*tokens))
    cons = consistency_mod.consistency_report_from_tokens(
        pairs,
        token_pairs,
        _alignments_for_pairs(opts, token_pairs),
        skip_unaligned=opts["skip-unaligned"],
    )

    (wer, bleu), (conf_captions, conf_subtitles) = quality, conformity
    report = EvaluationReport(
        system_name=opts["system-name"],
        wer=wer,
        bleu=bleu,
        length_captions=conf_captions.length_rate,
        length_subtitles=conf_subtitles.length_rate,
        reading_speed_captions=conf_captions.reading_speed_rate,
        reading_speed_subtitles=conf_subtitles.reading_speed_rate,
        segmentation_captions=conf_captions.segmentation_rate,
        segmentation_subtitles=conf_subtitles.segmentation_rate,
        structural=cons.structural,
        lexical=cons.lexical,
        line_count=cons.line_count,
        char_ratio=cons.char_ratio,
        config_echo={k: v for k, v in sorted(opts.items())},
    )

    if opts["diagnostics"]:
        with open(opts["diagnostics"], "w", encoding="utf-8") as fh:
            for pair, result in zip(pairs, cons.per_pair):
                record = {
                    "id": pair.id,
                    "blocks_c": len(pair.caption.blocks),
                    "blocks_s": len(pair.subtitle.blocks),
                    **vars(result),
                }
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")

    chunks = []
    if opts["out"] in ("json", "both"):
        chunks.append(report_to_json(report))
    if opts["out"] in ("tsv", "both"):
        chunks.append(report_to_tsv(report))
    _emit("".join(chunks), opts["out-file"])
    return 0


def _emit(text: str, path: Optional[str]) -> None:
    """Write `text` to the file at `path`, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_align_train(opts: dict[str, Any]) -> int:
    [model] = _train_models(opts, opts["source-lang"], opts["target-lang"])
    align_mod.save_model(model, opts["model-out"])
    return 0


def run_align_apply(opts: dict[str, Any]) -> int:
    model = align_mod.load_model(opts["model"])
    pairs = _bitext_pairs_from_file(opts["bitext"], opts["source-lang"], opts["target-lang"])
    alignments = align_mod.viterbi_align_corpus(model, pairs)
    _emit("".join(align_mod.write_pharaoh(a) + "\n" for a in alignments), opts["out-file"])
    return 0


def run_significance(opts: dict[str, Any]) -> int:
    hyp_a, hyp_b, ref = (
        _load_document(opts[key], opts["format"], lenient=False)
        for key in ("hyp-a", "hyp-b", "ref")
    )
    result = quality_mod.bootstrap_significance(
        hyp_a.utterances,
        hyp_b.utterances,
        ref.utterances,
        metric=opts["metric"],
        resamples=opts["resamples"],
        seed=opts["seed"],
    )
    sys.stdout.write(json.dumps(vars(result), sort_keys=True) + "\n")
    return 0


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "consistent": True,
    "0": False, "false": False, "no": False, "inconsistent": False,
}


def _read_values(path: str, parse, expected: str) -> list:
    """One value per non-blank line; a line `parse` rejects is a
    FormatError naming the path and line."""
    out = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(parse(line))
            except (KeyError, ValueError):
                raise FormatError(
                    f"{path}:{lineno}: expected {expected}, got {line!r}"
                ) from None
    return out


def run_validate_lexical(opts: dict[str, Any]) -> int:
    def read_bools(path):
        return _read_values(path, lambda line: _BOOL_WORDS[line.lower()], "a boolean")

    mae, agreement = consistency_mod.validate_lexical_metric(
        _read_values(opts["auto-scores"], float, "a number"),
        _read_values(opts["manual-scores"], float, "a number"),
        read_bools(opts["auto-judgements"]),
        read_bools(opts["manual-judgements"]),
    )
    sys.stdout.write(
        json.dumps({"mae": mae, "agreement": agreement}, sort_keys=True) + "\n"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="subeval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    eval_parser = sub.add_parser("eval", help="end-to-end evaluation report")
    _add_eval_arguments(eval_parser)
    eval_parser.set_defaults(func=run_eval)

    align_parser = sub.add_parser("align", help="word-alignment model")
    align_sub = align_parser.add_subparsers(dest="align_command", required=True)

    train = align_sub.add_parser("train")
    train.add_argument("--train-bitext", required=True)
    train.add_argument("--extra-bitext")
    train.add_argument("--model-out", required=True)
    for key in ("iterations", "p0", "tension"):
        typ, default = EVAL_OPTIONS[key]
        train.add_argument(f"--{key}", type=typ, default=default)
    train.add_argument("--no-diagonal-prior", action="store_true")
    train.add_argument("--source-lang", default="en")
    train.add_argument("--target-lang", default="en")
    train.set_defaults(func=run_align_train)

    apply_parser = align_sub.add_parser("apply")
    apply_parser.add_argument("--model", required=True)
    apply_parser.add_argument("--bitext", required=True)
    apply_parser.add_argument("--out-file")
    apply_parser.add_argument("--source-lang", default="en")
    apply_parser.add_argument("--target-lang", default="en")
    apply_parser.set_defaults(func=run_align_apply)

    sig = sub.add_parser("significance", help="pairwise bootstrap resampling")
    sig.add_argument("--metric", required=True)
    sig.add_argument("--resamples", type=int, default=1000)
    sig.add_argument("--seed", type=int, default=0)
    sig.add_argument("--hyp-a", required=True)
    sig.add_argument("--hyp-b", required=True)
    sig.add_argument("--ref", required=True)
    sig.add_argument("--format", default="mustcinema")
    sig.set_defaults(func=run_significance)

    validate = sub.add_parser("validate-lexical", help="metric vs manual annotation")
    validate.add_argument("--auto-scores", required=True)
    validate.add_argument("--manual-scores", required=True)
    validate.add_argument("--auto-judgements", required=True)
    validate.add_argument("--manual-judgements", required=True)
    validate.set_defaults(func=run_validate_lexical)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # Warnings are held until the run ends: printed on success, message
    # only, and dropped on an error exit, whose one line is all it prints.
    held = io.StringIO()
    handler = logging.StreamHandler(held)
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("subeval")
    logger.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            opts = _resolve_options(args)
        else:
            opts = {key.replace("_", "-"): value for key, value in vars(args).items()}
        _validate_options(opts)
        code = args.func(opts)
    except UsageError as exc:
        message, code = f"usage error: {exc}", 1
    except (OSError, SubevalError) as exc:
        message, code = f"error: {exc}", 2
    else:
        sys.stderr.write(held.getvalue())
        return code
    finally:
        logger.removeHandler(handler)
    # One line, whatever the message quotes.
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
