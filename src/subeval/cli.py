"""Command-line front end.

Subcommands: eval, align train, align apply, significance,
validate-lexical.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import logging
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from . import conformity as conformity_mod
from . import consistency as consistency_mod
from . import links
from . import quality as quality_mod
from .conformity import (
    DEFAULT_MAX_CPL,
    DEFAULT_MAX_CPS,
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
)
from .errors import DataError, FormatError, SubevalError, located, numbered_lines, stream_file
from .markers import iter_marked_text
from .model import UtterancePair, add_counts, check_count
from .report import EvaluationReport, report_to_json, report_to_tsv
from .srt import iter_srt
from .textproc import (
    Scheme,
    TaggedUtterance,
    TokenizedUtterance,
    attach_tags,
    iter_conllu,
    tokenize,
)

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
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
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
    **dict.fromkeys(("config", "model-out", "model", "bitext", "hyp-a", "hyp-b", "ref"), _PATH),
    **dict.fromkeys(_VALIDATE_INPUTS, _PATH),
    "metric": (str, None),
    "source-lang": (str, "en"),
    "target-lang": (str, "en"),
    "resamples": (int, 1000),
}

def _parse_config_file(source) -> Iterator[tuple[str, Any]]:
    """Yield (key, value) for each line of a config file that sets one."""
    for lineno, line in numbered_lines(source):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=" if "=" in line else " ")
        key, value = key.strip(), value.strip()
        if key not in EVAL_OPTIONS:
            raise FormatError(f"unknown key {key!r}", line=lineno)
        yield key, _coerce(key, value, lineno)


def _coerce(key: str, raw: str, lineno: int) -> Any:
    typ, _ = OPTIONS[key]
    try:
        return _BOOL_WORDS[raw.lower()] if typ is bool else typ(raw)
    except KeyError:
        raise FormatError(f"key {key!r}: expected a boolean, got {raw!r}", line=lineno) from None
    except ValueError:
        raise FormatError(f"key {key!r}: bad value {raw!r}", line=lineno) from None


def _resolve_options(keys: Sequence[str], args: dict[str, Any]) -> dict[str, Any]:
    """The value of each option in `keys`: its flag, else `eval`'s config
    file, else its default."""
    path = args.get("config")
    _validate_options({"config": path})
    config = dict(stream_file(path, _parse_config_file)) if path else {}
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
    "system-name": (lambda v: not re.search("[\t\r\n]", v), "free of TAB, CR and LF"),
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


def _validate_options(opts: dict[str, Any]) -> None:
    """The usage checks of every subcommand, made before any file is
    read.  Each check applies to the options present."""
    for key, value in opts.items():
        if isinstance(value, list):  # argparse reads `--key=--` as [] and skips `type=`
            raise UsageError(f"--{key} expected one argument")
    for key in ("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref"):
        if key in opts and not opts[key]:
            raise UsageError(f"--{key} is required")
    for key, value in opts.items():
        if isinstance(value, str) and _NOT_TEXT.search(value):
            raise UsageError(f"--{key} must be UTF-8 text without NUL, got {value!r}")
    for key, (valid, what) in _RULES.items():
        if key in opts and not valid(opts[key]):
            raise UsageError(f"--{key} must be {what}, got {opts[key]!r}")
    outputs = [os.path.realpath(opts[key]) for key in ("out-file", "diagnostics") if opts.get(key)]
    if len(outputs) == 2 and outputs[0] == outputs[1]:
        raise UsageError("--out-file and --diagnostics must name different files")
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


def _training_files(opts) -> list[str]:
    """The bitext files an aligner trains on: --train-bitext, --extra-bitext."""
    return [path for path in (opts["train-bitext"], opts["extra-bitext"]) if path]


def _file_bitext(paths, source_lang, target_lang) -> list[align_mod.BitextPair]:
    """The pairs of the bitext files at `paths`, each side tokenized under
    `mt`.  The pairs share one string per distinct word."""
    from . import align as align_mod

    pairs = []
    for path in paths:
        for src_text, tgt_text in align_mod.load_bitext(path):
            src = tokenize(src_text, Scheme.MT_DETACHED, source_lang).words()
            tgt = tokenize(tgt_text, Scheme.MT_DETACHED, target_lang).words()
            pairs.append(align_mod.BitextPair(tuple(map(sys.intern, src)), tuple(map(sys.intern, tgt))))
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


def _trained_alignments(opts, token_pairs):
    """The (c2s, s2c) alignment of each pair of (caption, subtitle) tokens,
    from aligners trained on the bitext files plus the system pairs, one
    direction after the other."""
    from . import align as align_mod

    system = [align_mod.BitextPair(tuple(c.words()), tuple(s.words())) for c, s in token_pairs]
    forward = _file_bitext(_training_files(opts), opts["caption-lang"], opts["subtitle-lang"])
    tail = len(forward)
    forward += system
    c2s = align_mod.viterbi_align_corpus(_train(opts, forward), system)
    backward = [align_mod.BitextPair(pair.target, pair.source) for pair in forward]
    s2c = align_mod.viterbi_align_corpus(_train(opts, backward), backward[tail:])
    return zip(c2s, s2c)


# The inputs `eval` reads in lockstep, one item per pair from each, in
# the order it reads them: each side's hypothesis, reference and POS
# file, then the Pharaoh files.
_STREAMS = (
    "captions-hyp", "captions-ref", "pos-captions",
    "subtitles-hyp", "subtitles-ref", "pos-subtitles",
    "align-c2s", "align-s2c",
)
_END = object()


def _open_stream(opts, key: str) -> Optional[Iterator]:
    """The items of input `key`, read as they are asked for, or None
    without the input."""
    path = opts[key]
    if not path:
        return None
    if key.startswith("pos-"):
        return stream_file(path, iter_conllu)
    if key.startswith("align-"):
        return stream_file(path, links.iter_pharaoh)
    if opts["format"] == "srt":
        return stream_file(path, iter_srt)
    return stream_file(path, iter_marked_text, opts["lenient"])


def _lockstep(streams: Sequence[Optional[Iterator]], counts: list) -> Iterator[list]:
    """One list per pair: the next item of each stream, None for an
    absent one, until a stream ends.  Then the rest of every stream is
    read, and `counts` becomes the number of items in each."""
    pairs = 0
    while True:
        items = [None if stream is None else next(stream, _END) for stream in streams]
        if _END not in items:
            yield items
            pairs += 1
            continue
        counts[:] = [
            None if stream is None else pairs + (item is not _END) + sum(1 for _ in stream)
            for stream, item in zip(streams, items)
        ]
        return


def _check_counts(opts, counts: Sequence[Optional[int]]) -> None:
    """Raise the first count error of `eval`'s inputs, given the number
    of items in each."""
    n = dict(zip(_STREAMS, counts))
    for hyp, ref, pos in (_STREAMS[0:3], _STREAMS[3:6]):
        with located(f"{opts[hyp]} vs {opts[ref]}"):
            if not n[ref]:
                raise DataError("empty corpus")
            check_count(n[hyp], n[ref])
        if n[pos] is not None and n[pos] != n[hyp]:
            with located(opts[pos]):
                raise DataError(f"{n[pos]} sentences for {n[hyp]} utterances")
    pairs = n["captions-hyp"]
    with located(f"{opts['captions-hyp']} vs {opts['subtitles-hyp']}"):
        check_count(pairs, n["subtitles-hyp"])
    for key in _STREAMS[6:]:
        if n[key] is not None and n[key] != pairs:
            with located(opts[key]):
                raise DataError(f"{n[key]} lines for {pairs} pairs")


def _tag(tokens: TokenizedUtterance, pos, path: str, utt_id: str) -> TaggedUtterance:
    """`tokens` tagged with `pos`, a sentence of the POS file at `path`:
    (the line of its first token, its (FORM, UPOS) pairs)."""
    line, sentence = pos
    try:
        return attach_tags(tokens, [upos for _, upos in sentence], utt_id=utt_id)
    except DataError:
        with located(path, line):
            raise


def _check_links(opts, line: int, pair_id: str, tokens, c2s, s2c) -> None:
    """Check the pair's links against its tokens, c2s first; an error
    names the file and line of the link."""
    words = [len(side.words()) for side in tokens]
    for key, alignment, (own, other) in (
        ("align-c2s", c2s, words), ("align-s2c", s2c, words[::-1])
    ):
        try:
            consistency_mod.check_links(alignment, own, other, pair_id)
        except DataError:
            with located(opts[key], line):
                raise


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def _std_stream(path: str):
    """sys.stdout or sys.stderr when `path` names its own file (that of
    file descriptor 1 or 2), else None."""
    try:
        target = os.stat(path)
    except OSError:  # a missing target
        return None
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with suppress(OSError):  # no such descriptor
            if os.path.samestat(target, os.fstat(fd)):
                return stream
    return None


@contextmanager
def _diagnostics(path: Optional[str]):
    """A function that writes JSON lines, or drops them without `path`.

    Stdout's or stderr's own file (that of file descriptor 1 or 2), such
    as /dev/stdout, is written through that stream as the lines come, so
    they come ahead of the report or of the warnings.  Another regular or
    missing file, the one a symlink names included, goes to a temporary
    file beside it, which replaces it only if the block ends without an
    error.  Any other target, such as a pipe or a file in an unwritable
    directory, is written to as the lines come."""
    if not path:
        yield lambda text: None
        return
    stream = _std_stream(path)
    if stream is not None:
        yield functools.partial(_write_utf8, stream)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    staged = (os.path.isfile(path) or not os.path.exists(path)) and os.access(head, os.W_OK)
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp") if staged else path
    fh = open(temporary, "x" if staged else "w", encoding="utf-8")
    try:
        with fh:
            yield fh.write
        if staged:
            os.replace(temporary, target)
    except BaseException:
        if staged:
            with suppress(OSError):
                os.remove(temporary)
        raise


@contextmanager
def _holding(records: list):
    """Keep in `records` what any subeval logger logs in the block, and
    pass none of it on."""
    logger = logging.getLogger("subeval")
    holder = logging.Handler()
    holder.emit = records.append
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [holder], False
    try:
        yield
    finally:
        logger.handlers, logger.propagate = saved


# The two sides `eval` scores: the keys of the POS file and language
# options, and the per-utterance counts of the side's quality metric.
# Neither logs: `eval` warns of an empty WER reference once the pair's
# block is added to the sums.
_SIDES = (
    ("pos-captions", "caption-lang", lambda hyp, ref: quality_mod._wer_segment((hyp,), ref)[0]),
    ("pos-subtitles", "subtitle-lang", quality_mod.bleu_counts),
)

# The pairs `eval` scores at once: each layer runs over a block of this
# many pairs before the next layer starts.  Larger blocks score a little
# faster, but from about 24 pairs a block keeps enough objects alive to
# start garbage collections, which in time empty the interpreter's free
# lists, and the tier-1 memory tests read their refill as growth.
_BLOCK_PAIRS = 16


def run_eval(opts: dict[str, Any]) -> int:
    """Score the pairs in blocks of `_BLOCK_PAIRS`, each layer over the
    whole block before the next, add a block's counts to running sums
    once every check has passed, and compute the rates from the sums at
    the end.

    Errors and warnings come in pair order.  When reading or scoring a
    block raises, the pairs already read are scored as blocks of one,
    and then the error is raised again: the first error in pair order is
    the one raised.  What reading a pair logs is held until its block is
    added to the sums, and then passed on, followed by the pair's WER
    empty-reference warning."""
    conformity = functools.partial(
        conformity_mod.conformity_counts,
        thresholds=ConformityThresholds(max_cpl=opts["max-cpl"], max_cps=opts["max-cps"]),
        aggregation=LengthAggregation(opts["aggregation"]),
        include_trailing_eob=not opts["exclude-trailing-eob"],
        breaks=BreakSelection(opts["breaks"]),
    )
    # The running sums of the captions' WER and conformity counts, the
    # subtitles' BLEU and conformity counts, and the pair counts.
    sums: list[list] = [[] for _ in range(5)]
    lexical = 0.0
    # Without Pharaoh files: each pair's id, block counts and MT tokens,
    # scored once the aligners are trained.
    kept = []
    streams = [_open_stream(opts, key) for key in _STREAMS]
    counts: list = []
    with _diagnostics(opts["diagnostics"]) as write:

        def add_lexical(ids, blocks, tokens, alignments) -> str:
            """Score each pair's lexical consistency, add its lex_pair to
            the sum, in pair order, and return the diagnostics lines."""
            nonlocal lexical
            lines = []
            for pair_id, (blocks_c, blocks_s), pair, (c2s, s2c) in zip(
                ids, blocks, tokens, alignments
            ):
                result = consistency_mod.lexical_from_tokens(pair, c2s, s2c, opts["skip-unaligned"])
                lexical += result.lex_pair
                record = {"id": pair_id, "blocks_c": blocks_c, "blocks_s": blocks_s}
                lines.append(_json_line({**record, **vars(result)}))
            return "".join(lines)

        def score(start: int, block: list, held: list) -> str:
            """Score `block`, the items of the pairs from index `start`
            on, given the log records held from reading each; then add
            it to the sums and return its diagnostics lines."""
            columns = list(zip(*block))
            indices = range(start, start + len(block))
            layers: list[list] = []
            mt_sides = []
            for (pos_key, lang_key, quality_counts), (hyps, refs, pos) in zip(
                _SIDES, (columns[0:3], columns[3:6])
            ):
                layers.append(list(map(quality_counts, hyps, refs)))
                # One MT tokenization per hypothesis utterance feeds
                # tagging, the system bitext and lexical consistency.
                mt = [tokenize(hyp.text(), Scheme.MT_DETACHED, opts[lang_key]) for hyp in hyps]
                tagged = [
                    None if sentence is None else _tag(side, sentence, opts[pos_key], hyp.id)
                    for side, sentence, hyp in zip(mt, pos, hyps)
                ]
                layers.append([
                    conformity(hyp, tagged=tags, index=index)
                    for hyp, tags, index in zip(hyps, tagged, indices)
                ])
                mt_sides.append(mt)
            captions, _, _, subtitles, _, _, c2s, s2c = columns
            with located(f"{opts['captions-hyp']} vs {opts['subtitles-hyp']}"):
                pairs = list(map(UtterancePair, captions, subtitles))
            layers.append(list(map(consistency_mod.pair_counts, pairs)))
            ids = [pair.id for pair in pairs]
            blocks = [(len(c.blocks), len(s.blocks)) for c, s in zip(captions, subtitles)]
            tokens = list(zip(*mt_sides))
            if c2s[0] is not None:
                for index, pair_id, pair, c2s_i, s2c_i in zip(indices, ids, tokens, c2s, s2c):
                    _check_links(opts, index + 1, pair_id, pair, c2s_i, s2c_i)
            # Every check has passed.  The counts are integers, so a
            # block's column sums add up to what its pairs would.
            for total, rows in zip(sums, layers):
                add_counts(total, [sum(column) for column in zip(*rows)])
            for records, wer, ref in zip(held, layers[0], columns[1]):
                for record in records:
                    logging.getLogger(record.name).handle(record)
                quality_mod._warn_empty_reference(wer.edits, wer.reference_length, ref.id)
            if c2s[0] is None:
                kept.extend(zip(ids, blocks, tokens))
                return ""
            return add_lexical(ids, blocks, tokens, zip(c2s, s2c))

        reader = _lockstep(streams, counts)
        for start in itertools.count(0, _BLOCK_PAIRS):
            block: list = []
            records: list = []
            held: list = []  # the records of reading each pair
            try:
                with _holding(records):
                    for items in itertools.islice(reader, _BLOCK_PAIRS):
                        block.append(items)
                        held.append(records[:])
                        records.clear()
                if not block:
                    break
                lines = score(start, block, held)
            except Exception:
                # The pairs read so far, one at a time: the first error
                # in pair order propagates, else the one caught.
                for i in range(len(block)):
                    write(score(start + i, block[i:i + 1], held[i:i + 1]))
                raise
            write(lines)

        _check_counts(opts, counts)
        wer_sums, conf_captions, bleu_sums, conf_subtitles, pair_sums = sums
        with located(f"{opts['captions-hyp']} vs {opts['captions-ref']}"):
            wer = quality_mod.wer_from_sums(wer_sums).wer
        bleu = quality_mod.bleu_from_sums(bleu_sums).score
        conf_captions, conf_subtitles = map(
            conformity_mod.conformity_from_sums, (conf_captions, conf_subtitles)
        )
        if not opts["align-c2s"]:
            ids, blocks, tokens = zip(*kept)
            write(add_lexical(ids, blocks, tokens, _trained_alignments(opts, tokens)))
        cons = consistency_mod.consistency_from_sums(pair_sums, lexical)

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
        chunks = []
        if opts["out"] in ("json", "both"):
            chunks.append(report_to_json(report))
        if opts["out"] in ("tsv", "both"):
            chunks.append(report_to_tsv(report))
        _emit("".join(chunks), opts["out-file"])
    return 0


def _write_utf8(stream, text: str) -> None:
    """Write `text` to `stream` as UTF-8, whatever the stream's own
    encoding."""
    if hasattr(stream, "buffer"):
        stream.flush()
        stream.buffer.write(text.encode("utf-8"))
    else:  # a text-only stream, such as io.StringIO
        stream.write(text)


def _emit(text: str, path: Optional[str]) -> None:
    """Write `text` as UTF-8 to the file at `path`, or to stdout without
    one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write_utf8(sys.stdout, text)


def run_align_train(opts: dict[str, Any]) -> int:
    from . import align as align_mod

    files = _training_files(opts)
    corpus = _file_bitext(files, opts["source-lang"], opts["target-lang"])
    with located(" and ".join(files)):
        model = _train(opts, corpus)
    align_mod.save_model(model, opts["model-out"])
    return 0


def run_align_apply(opts: dict[str, Any]) -> int:
    from . import align as align_mod

    model = align_mod.load_model(opts["model"])
    pairs = _file_bitext([opts["bitext"]], opts["source-lang"], opts["target-lang"])
    alignments = align_mod.viterbi_align_corpus(model, pairs)
    _emit("".join(links.write_pharaoh(a) + "\n" for a in alignments), opts["out-file"])
    return 0


def run_significance(opts: dict[str, Any]) -> int:
    """Read the three inputs in lockstep, keeping one row of statistics
    per segment, then check their counts and resample."""
    reader = iter_srt if opts["format"] == "srt" else iter_marked_text
    streams = [stream_file(opts[key], reader) for key in ("hyp-a", "hyp-b", "ref")]
    counts: list = []
    stats = quality_mod.significance_rows(_lockstep(streams, counts), opts["metric"])
    n_a, n_b, n = counts
    with located(f"{opts['hyp-a']} and {opts['hyp-b']} vs {opts['ref']}"):
        if n < 2:
            raise DataError(f"need at least 2 segments, got {n}")
        check_count(n_a, n)
        check_count(n_b, n)
        result = quality_mod.significance_from_rows(
            stats, opts["metric"], opts["resamples"], opts["seed"]
        )
    sys.stdout.write(json.dumps(vars(result), sort_keys=True) + "\n")
    return 0


_JUDGEMENT_WORDS = {**_BOOL_WORDS, "consistent": True, "inconsistent": False}


def _read_values(source, parse, expected: str) -> Iterator:
    """Yield one value per non-blank line; a line `parse` rejects is a
    FormatError giving its line."""
    for lineno, line in numbered_lines(source):
        line = line.strip()
        if not line:
            continue
        try:
            value = parse(line)
        except (KeyError, ValueError):
            raise FormatError(f"expected {expected}, got {line!r}", line=lineno) from None
        yield value


def _finite(line: str) -> float:
    value = float(line)
    if not math.isfinite(value):
        raise ValueError(line)
    return value


def run_validate_lexical(opts: dict[str, Any]) -> int:
    def read(paths, parse, expected):
        return [list(stream_file(path, _read_values, parse, expected)) for path in paths]

    auto, manual, auto_j, manual_j = (opts[key] for key in _VALIDATE_INPUTS)
    scores = read((auto, manual), _finite, "a number")
    judgements = read((auto_j, manual_j), lambda line: _JUDGEMENT_WORDS[line.lower()], "a boolean")
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
    parser = _Parser(prog="subeval", description=__doc__, allow_abbrev=False)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, run, keys, required) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        command = subparsers[group].add_parser(word, help=help_text, allow_abbrev=False)
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
