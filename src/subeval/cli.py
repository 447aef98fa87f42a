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
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from . import consistency as consistency_mod
from . import links
from . import quality as quality_mod
from .conformity import (
    DEFAULT_MAX_CPL,
    DEFAULT_MAX_CPS,
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
    conformity_report,
)
from .errors import DataError, FormatError, SubevalError, located, open_utf8
from .markers import load_marked_text
from .model import SubtitleDocument, pair_documents
from .report import EvaluationReport, report_to_json, report_to_tsv
from .srt import load_srt
from .textproc import Scheme, TokenizedUtterance, attach_tags, load_conllu, tokenize

# `align` loads numpy, so only the paths that train or align import it.
if TYPE_CHECKING:
    from . import align as align_mod


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_PATH = (str, None)
_FLAG = (bool, False)
_VALIDATE_INPUTS = ("auto-scores", "manual-scores", "auto-judgements", "manual-judgements")

# `eval`'s options, which its flat key-value config file may also set:
# name -> (type, default); a boolean is a flag on the command line.
EVAL_OPTIONS: dict[str, tuple[type, Any]] = {
    **dict.fromkeys(("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref"), _PATH),
    "format": (str, "mustcinema"),
    **dict.fromkeys(("pos-captions", "pos-subtitles", "align-c2s", "align-s2c"), _PATH),
    **dict.fromkeys(("train-bitext", "extra-bitext"), _PATH),
    "max-cpl": (int, DEFAULT_MAX_CPL),
    "max-cps": (float, DEFAULT_MAX_CPS),
    "breaks": (str, "both"),
    "aggregation": (str, "line"),
    "seed": (int, 0),
    "out": (str, "json"),
    **dict.fromkeys(("out-file", "diagnostics"), _PATH),
    "system-name": (str, "system"),
    "caption-lang": (str, "en"),
    "subtitle-lang": (str, "en"),
    "iterations": (int, links.DEFAULT_ITERATIONS),
    "p0": (float, links.DEFAULT_P0),
    "tension": (float, links.DEFAULT_TENSION),
    **dict.fromkeys(("lenient", "skip-unaligned", "exclude-trailing-eob", "segmentation"), _FLAG),
    "no-diagonal-prior": _FLAG,
}

# Every option of every subcommand: `eval`'s, then the others'.
OPTIONS: dict[str, tuple[type, Any]] = {
    **EVAL_OPTIONS,
    **dict.fromkeys(("model-out", "model", "bitext", "hyp-a", "hyp-b", "ref"), _PATH),
    **dict.fromkeys(_VALIDATE_INPUTS, _PATH),
    "metric": (str, None),
    "source-lang": (str, "en"),
    "target-lang": (str, "en"),
    "resamples": (int, 1000),
}

def _parse_config_file(path: str) -> dict[str, Any]:
    """key -> the value the config file at `path` gives it."""
    values: dict[str, Any] = {}
    with open_utf8(path) as fh, located(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=" if "=" in line else " ")
            key, value = key.strip(), value.strip()
            if key not in EVAL_OPTIONS:
                raise FormatError(f"unknown key {key!r}", line=lineno)
            values[key] = _coerce(key, value, lineno)
    return values


def _coerce(key: str, raw: str, lineno: int) -> Any:
    typ, _ = OPTIONS[key]
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise FormatError(f"key {key!r}: expected a boolean, got {raw!r}", line=lineno)
    try:
        return typ(raw)
    except ValueError:
        raise FormatError(f"key {key!r}: bad value {raw!r}", line=lineno) from None


def _resolve_options(keys: Sequence[str], args: dict[str, Any]) -> dict[str, Any]:
    """The value of each option in `keys`: its flag, else `eval`'s config
    file, else its default."""
    path = args.get("config")
    _check_text("config", path)
    if path == "":
        raise UsageError("--config must be a non-empty path, got ''")
    config = _parse_config_file(path) if path else {}
    flags = {key: args[key.replace("-", "_")] for key in keys}
    return {key: config.get(key, OPTIONS[key][1]) if v is None else v for key, v in flags.items()}


def _one_of(*choices: str) -> tuple[Callable[[Any], bool], str]:
    return choices.__contains__, f"{', '.join(choices[:-1])} or {choices[-1]}"


_LOW, _HIGH = links.TENSION_BOUNDS

# Options with a constrained value: name -> (test the value must pass,
# what it must be).  A rule holds for every subcommand with the option;
# each test is written so that NaN fails it.
_RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "format": _one_of("mustcinema", "srt"),
    "breaks": _one_of(*(b.value for b in BreakSelection)),
    "aggregation": _one_of(*(a.value for a in LengthAggregation)),
    "out": _one_of("json", "tsv", "both"),
    "metric": _one_of("bleu", "wer"),
    "iterations": (lambda v: v >= 0, "non-negative"),
    "p0": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "tension": (lambda v: _LOW <= v <= _HIGH, f"in [{_LOW:g}, {_HIGH:g}]"),  # EM's clamp
    "max-cpl": (lambda v: v > 0, "positive"),
    "max-cps": (lambda v: v > 0, "positive"),
    "resamples": (lambda v: v >= 1, "a positive integer"),
    "seed": (lambda v: v >= 0, "non-negative"),
    # An empty path would read as no path at all.  (`metric` also
    # defaults to None, hence the identity test.)
    **{key: (lambda v: v != "", "a non-empty path") for key, o in OPTIONS.items() if o is _PATH},
}

# What no option value may hold: a NUL, which no path can, or a lone
# surrogate, which cannot be written out as UTF-8.
_NOT_TEXT = re.compile("[\x00\ud800-\udfff]")


def _check_text(key: str, value: Any) -> None:
    if isinstance(value, str) and _NOT_TEXT.search(value):
        raise UsageError(f"--{key} must be UTF-8 text without NUL, got {value!r}")


def _validate_options(opts: dict[str, Any]) -> None:
    """The usage checks of every subcommand, made before any file is
    read.  Each check applies to the options present."""
    for key in ("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref"):
        if key in opts and not opts[key]:
            raise UsageError(f"--{key} is required")
    for key, value in opts.items():
        _check_text(key, value)
    for key, (valid, what) in _RULES.items():
        if key in opts and not valid(opts[key]):
            raise UsageError(f"--{key} must be {what}, got {opts[key]!r}")
    if opts.get("segmentation") and not (opts["pos-captions"] and opts["pos-subtitles"]):
        raise UsageError("--segmentation requires --pos-captions and --pos-subtitles")
    if "align-c2s" in opts:
        if bool(opts["align-c2s"]) != bool(opts["align-s2c"]):
            raise UsageError("--align-c2s and --align-s2c must be given together")
        if not opts["align-c2s"] and not opts["train-bitext"]:
            raise UsageError("consistency requires --align-c2s/--align-s2c or --train-bitext")
        if opts["align-c2s"] and (opts["train-bitext"] or opts["extra-bitext"]):
            raise UsageError(
                "--train-bitext and --extra-bitext are unused with --align-c2s/--align-s2c"
            )
    if opts.get("lenient") and opts["format"] == "srt":
        raise UsageError("--lenient applies to marked text, not to --format srt")


def _load_document(path: str, fmt: str, lenient: bool) -> SubtitleDocument:
    if fmt == "srt":
        return load_srt(path)
    return load_marked_text(path, lenient=lenient)


def _tag_document(
    doc: SubtitleDocument, tokens: Sequence[TokenizedUtterance], pos_path: str
):
    sentences = load_conllu(pos_path)
    with located(pos_path):
        if len(sentences) != len(doc.utterances):
            raise DataError(f"{len(sentences)} sentences for {len(doc.utterances)} utterances")
        return [
            attach_tags(utt_tokens, [upos for _, upos in sentence], utt_id=utt.id)
            for utt, utt_tokens, sentence in zip(doc.utterances, tokens, sentences)
        ]


def _training_files(opts) -> list[str]:
    """The bitext files an aligner trains on: --train-bitext, --extra-bitext."""
    return [path for path in (opts["train-bitext"], opts["extra-bitext"]) if path]


def _file_bitext(paths, source_lang, target_lang) -> list[align_mod.BitextPair]:
    """The pairs of the bitext files at `paths`, each side tokenized under `mt`."""
    from . import align as align_mod

    pairs = []
    for path in paths:
        for src_text, tgt_text in align_mod.load_bitext(path):
            src = tokenize(src_text, Scheme.MT_DETACHED, source_lang).words()
            tgt = tokenize(tgt_text, Scheme.MT_DETACHED, target_lang).words()
            pairs.append(align_mod.BitextPair(tuple(src), tuple(tgt)))
    return pairs


def _train(opts, corpus) -> align_mod.TranslationModel:
    from . import align as align_mod

    return align_mod.train_aligner(
        corpus,
        iterations=opts["iterations"],
        use_diagonal_prior=not opts["no-diagonal-prior"],
        p0=opts["p0"],
        initial_tension=opts["tension"],
    )


def _alignments_for_pairs(opts, pairs, token_pairs):
    """The (c2s, s2c) alignment of each pair of (caption, subtitle) tokens:
    loaded from Pharaoh files and checked, or from aligners trained on the
    bitext files plus the system pairs, one direction after the other."""
    if opts["align-c2s"]:
        paths = (opts["align-c2s"], opts["align-s2c"])
        c2s, s2c = (links.load_pharaoh(path) for path in paths)
        for path, alignments in zip(paths, (c2s, s2c)):
            if len(alignments) != len(token_pairs):
                with located(path):
                    raise DataError(f"{len(alignments)} lines for {len(token_pairs)} pairs")
        # Pair order, c2s first; the error names the file whose line raised.
        try:
            for line, (pair, tokens, *both) in enumerate(zip(pairs, token_pairs, c2s, s2c), 1):
                words = [len(side.words()) for side in tokens]
                for path, alignment, (own, other) in zip(paths, both, (words, words[::-1])):
                    consistency_mod.check_links(alignment, own, other, pair.id, line)
        except DataError:
            with located(path):
                raise
        return list(zip(c2s, s2c))
    from . import align as align_mod

    system = [align_mod.BitextPair(tuple(c.words()), tuple(s.words())) for c, s in token_pairs]
    forward = _file_bitext(_training_files(opts), opts["caption-lang"], opts["subtitle-lang"])
    tail = len(forward)
    forward += system
    c2s = align_mod.viterbi_align_corpus(_train(opts, forward), system)
    backward = [align_mod.BitextPair(pair.target, pair.source) for pair in forward]
    s2c = align_mod.viterbi_align_corpus(_train(opts, backward), backward[tail:])
    return list(zip(c2s, s2c))


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


def run_eval(opts: dict[str, Any]) -> int:
    fmt, lenient = opts["format"], opts["lenient"]
    thresholds = ConformityThresholds(max_cpl=opts["max-cpl"], max_cps=opts["max-cps"])
    aggregation = LengthAggregation(opts["aggregation"])
    breaks = BreakSelection(opts["breaks"])
    include_trailing = not opts["exclude-trailing-eob"]
    hyps, tokens, quality, conformity = [], [], [], []
    for hyp_key, ref_key, pos_key, lang_key, score in _SIDES:
        hyp = _load_document(opts[hyp_key], fmt, lenient)
        # The reference is dropped as soon as it is scored.
        ref = _load_document(opts[ref_key], fmt, lenient)
        with located(f"{opts[hyp_key]} vs {opts[ref_key]}"):
            quality.append(score(hyp, ref))
        del ref
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

    with located(f"{opts['captions-hyp']} vs {opts['subtitles-hyp']}"):
        pairs = pair_documents(*hyps)
    token_pairs = list(zip(*tokens))
    alignments = _alignments_for_pairs(opts, pairs, token_pairs)
    cons = consistency_mod.consistency_report_from_tokens(
        pairs, token_pairs, alignments, skip_unaligned=opts["skip-unaligned"]
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
    from . import align as align_mod

    corpus = _file_bitext(_training_files(opts), opts["source-lang"], opts["target-lang"])
    align_mod.save_model(_train(opts, corpus), opts["model-out"])
    return 0


def run_align_apply(opts: dict[str, Any]) -> int:
    from . import align as align_mod

    model = align_mod.load_model(opts["model"])
    pairs = _file_bitext([opts["bitext"]], opts["source-lang"], opts["target-lang"])
    alignments = align_mod.viterbi_align_corpus(model, pairs)
    _emit("".join(links.write_pharaoh(a) + "\n" for a in alignments), opts["out-file"])
    return 0


def run_significance(opts: dict[str, Any]) -> int:
    hyp_a, hyp_b, ref = (
        _load_document(opts[key], opts["format"], lenient=False)
        for key in ("hyp-a", "hyp-b", "ref")
    )
    with located(f"{opts['hyp-a']} and {opts['hyp-b']} vs {opts['ref']}"):
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
    with open_utf8(path) as fh, located(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(parse(line))
            except (KeyError, ValueError):
                raise FormatError(f"expected {expected}, got {line!r}", line=lineno) from None
    return out


def run_validate_lexical(opts: dict[str, Any]) -> int:
    def read_bools(path):
        return _read_values(path, lambda line: _BOOL_WORDS[line.lower()], "a boolean")

    auto, manual, auto_j, manual_j = (opts[key] for key in _VALIDATE_INPUTS)
    scores = [_read_values(path, float, "a number") for path in (auto, manual)]
    judgements = [read_bools(path) for path in (auto_j, manual_j)]
    with located(f"{auto} vs {manual}, {auto_j} vs {manual_j}"):
        mae, agreement = consistency_mod.validate_lexical_metric(*scores, *judgements)
    sys.stdout.write(
        json.dumps({"mae": mae, "agreement": agreement}, sort_keys=True) + "\n"
    )
    return 0


# Subcommand -> (help, runner, its options in flag order, the options
# argparse requires).  A group, with no runner, holds the subcommands
# named after it.  `eval`'s inputs may come from its config file, so
# `_validate_options` requires them.
_COMMANDS: dict[str, tuple[str, Optional[Callable], Sequence[str], Sequence[str]]] = {
    "eval": ("end-to-end evaluation report", run_eval, tuple(EVAL_OPTIONS), ()),
    "align": ("word-alignment model", None, (), ()),
    "align train": (
        "train a model on bitext files", run_align_train,
        ("train-bitext", "extra-bitext", "model-out", "iterations", "p0", "tension",
         "no-diagonal-prior", "source-lang", "target-lang"),
        ("train-bitext", "model-out"),
    ),
    "align apply": (
        "align a bitext with a model", run_align_apply,
        ("model", "bitext", "out-file", "source-lang", "target-lang"), ("model", "bitext"),
    ),
    "significance": (
        "pairwise bootstrap resampling", run_significance,
        ("metric", "resamples", "seed", "hyp-a", "hyp-b", "ref", "format"),
        ("metric", "hyp-a", "hyp-b", "ref"),
    ),
    "validate-lexical": (
        "metric vs manual annotation", run_validate_lexical, _VALIDATE_INPUTS, _VALIDATE_INPUTS,
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="subeval", description=__doc__)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, run, keys, required) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        command = subparsers[group].add_parser(word, help=help_text)
        if run is None:
            subparsers[name] = command.add_subparsers(dest=f"{name}_command", required=True)
        if name == "eval":
            command.add_argument("--config", help="flat key-value config file")
        for key in keys:
            if OPTIONS[key][0] is bool:
                command.add_argument(f"--{key}", action="store_const", const=True)
            else:
                command.add_argument(f"--{key}", type=OPTIONS[key][0], required=key in required)
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
        args = vars(parser.parse_args(argv))
        command = args["command"]
        while _COMMANDS[command][1] is None:
            command += " " + args[f"{command}_command"]
        _, run, keys, _ = _COMMANDS[command]
        opts = _resolve_options(keys, args)
        _validate_options(opts)
        code = run(opts)
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
