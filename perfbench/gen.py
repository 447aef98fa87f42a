"""Seeded input generator for the subeval benchmark workloads.

Every input is a pure function of (workload, seed, scale): the same
arguments write the same bytes.  The program under test sees only the
files written here.

Marked text is built from units: a word, the punctuation attached to
it, and (in French) an elided article glued to the next word, as in
``l'avion``.  Each unit yields its MT-detached tokens by construction,
so the CoNLL-U tags and Pharaoh alignments line up with what
``subeval`` tokenizes, as ``scripts/gen_micro_corpus.py`` guarantees for
the micro corpus.  ``smoke.py`` checks that claim against the real
tokenizer.

Run on its own to inspect a corpus::

    python3 perfbench/gen.py --workload eval-10k --seed 1 --out corpus/
"""

from __future__ import annotations

import argparse
import itertools
import os
import random

EOB, EOL = "<eob>", "<eol>"
BREAKS = (EOB, EOL)

# Full-size inputs; --scale multiplies the item counts (smoke test).
EVAL_PAIRS = 10_000
ALIGN_PAIRS = 5_000
ALIGN_TYPES = 3_000
SRT_CUES = 10_000
RESAMPLES = 1_000

EN_FUNCTION = {
    "the": ("DET", "le"), "a": ("DET", "un"), "to": ("ADP", "à"),
    "of": ("ADP", "de"), "in": ("ADP", "dans"), "on": ("ADP", "sur"),
    "at": ("ADP", "au"), "by": ("ADP", "par"), "and": ("CCONJ", "et"),
    "or": ("CCONJ", "ou"), "but": ("CCONJ", "mais"), "that": ("SCONJ", "que"),
    "we": ("PRON", "nous"), "it": ("PRON", "il"), "they": ("PRON", "ils"),
    "is": ("AUX", "est"), "are": ("AUX", "sont"), "will": ("AUX", "va"),
    "can": ("AUX", "peut"), "not": ("PART", "pas"),
}
# French words elided before a vowel: "le avion" is written "l'avion".
FR_ELISION = {"le": "l'", "de": "d'", "que": "qu'"}
FR_VOWELS = frozenset("aeiouéèêàh")
CONTENT_TAGS = ("NOUN", "NOUN", "VERB", "ADJ", "ADV")
NUMBERS = ("1,000", "2050", "42", "100")
EN_SYLLABLES = ("ka", "ro", "mi", "tel", "san", "dor", "pe", "lin", "vo",
                "ter", "bu", "nax", "sho", "ri", "gal", "fen", "mo", "zu")
FR_SYLLABLES = ("ra", "mé", "lo", "tré", "sin", "cou", "pa", "vè", "ni",
                "jo", "ber", "fê", "lu", "dan", "ché", "mor", "ti", "gue")
FR_ONSETS = ("a", "é", "i", "o", "")
# Target-side words that translate no source word (NULL-aligned).
NULL_WORDS = ("ze", "bo", "ki", "du", "fa", "mu", "pi", "ga", "ne", "wo")


def _pseudo_words(rng, syllables, count, taken, onsets=("",)):
    """`count` distinct words of 2-3 syllables, none of them in `taken`."""
    words, seen = [], set(taken)
    while len(words) < count:
        word = rng.choice(onsets) + "".join(
            rng.choice(syllables) for _ in range(rng.randint(2, 3))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf(rng, items, exponent=1.0):
    cum = list(itertools.accumulate(1.0 / rank**exponent for rank in range(1, len(items) + 1)))
    return lambda: rng.choices(items, cum_weights=cum)[0]


def _scaled(count, scale, floor):
    return max(floor, round(count * scale))


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# Utterances of units.  A unit is (en, upos, fr, punct); a break is EOB/EOL.


class _Lexicon:
    """Parallel en/fr vocabulary with one tag per word."""

    def __init__(self, rng, content_types):
        en = _pseudo_words(rng, EN_SYLLABLES, content_types, EN_FUNCTION)
        fr = _pseudo_words(rng, FR_SYLLABLES, content_types, (), FR_ONSETS)
        content = [(e, rng.choice(CONTENT_TAGS), f) for e, f in zip(en, fr)]
        self._content = _zipf(rng, content)
        self._function = [(e, tag, f) for e, (tag, f) in sorted(EN_FUNCTION.items())]

    def unit(self, rng, punct=None):
        roll = rng.random()
        if roll < 0.40:
            en, upos, fr = rng.choice(self._function)
        elif roll < 0.42:
            number = rng.choice(NUMBERS)
            return (number, "NUM", number, None)
        else:
            en, upos, fr = self._content()
        return (en, upos, fr, punct)


def _sentence(lexicon, rng, n_words):
    units = [lexicon.unit(rng) for _ in range(n_words)]
    for k, (en, upos, fr, _) in enumerate(units):
        if upos == "NUM":
            continue
        if k == n_words - 1:
            punct = rng.choice((".", ".", "?", "!", None))
        else:
            punct = "," if rng.random() < 0.08 else None
        units[k] = (en, upos, fr, punct)
    return units


def _normalise(items):
    """Drop breaks that would leave an empty segment; end on EOB."""
    out = []
    for item in items:
        if item in BREAKS and (not out or out[-1] in BREAKS):
            continue
        out.append(item)
    if out[-1] in BREAKS:
        out.pop()
    return out + [EOB]


def _segment(units, rng):
    """A block break near the middle of longer utterances, sometimes a
    line break, and the trailing block break."""
    items = list(units)
    if len(units) >= 5 and rng.random() < 0.5:
        items.insert(len(units) // 2 + rng.randint(-1, 1), EOB)
    if len(units) >= 4 and rng.random() < 0.35:
        items.insert(rng.randint(1, len(items) - 1), EOL)
    return _normalise(items)


def _edit(items, lexicon, rng, rate):
    """Seeded hypothesis edits: substitutions, deletions, insertions and
    one moved break."""
    out = []
    for item in items:
        roll = rng.random()
        if item in BREAKS or roll >= rate:
            out.append(item)
        elif roll < rate * 0.5:
            out.append(lexicon.unit(rng, punct=item[3] if item[1] != "NUM" else None))
        elif roll < rate * 0.75:
            continue
        else:
            out += [item, lexicon.unit(rng)]
    inner = [k for k, item in enumerate(out[:-1]) if item in BREAKS]
    if inner and rng.random() < rate * 2:
        k = rng.choice(inner)
        other = k + rng.choice((-1, 1))
        out[k], out[other] = out[other], out[k]
    if all(item in BREAKS for item in out):
        return list(items)
    return _normalise(out)


def _render(items, french):
    """Text and MT tokens (surface, upos) of an utterance; breaks carry
    upos None."""
    text, tokens, prefix = [], [], ""
    for k, item in enumerate(items):
        if item in BREAKS:
            text.append(item)
            tokens.append((item, None))
            continue
        en, upos, fr, punct = item
        word = fr if french else en
        nxt = items[k + 1] if k + 1 < len(items) else EOB
        if (french and word in FR_ELISION and not punct and nxt not in BREAKS
                and nxt[2][0] in FR_VOWELS):
            prefix += FR_ELISION[word]
            tokens.append((FR_ELISION[word], upos))
            continue
        tokens.append((word, upos))
        if punct:
            tokens.append((punct, "PUNCT"))
        text.append(prefix + word + (punct or ""))
        prefix = ""
    return " ".join(text), tokens


def _conllu(tokens):
    words = [(surface, upos) for surface, upos in tokens if upos is not None]
    return "".join(
        f"{i}\t{surface}\t_\t{upos}\t_\t_\t0\t_\t_\t_\n"
        for i, (surface, upos) in enumerate(words, start=1)
    ) + "\n"


def _diagonal_links(n_src, n_tgt):
    """Monotone pseudo-alignment; every 7th source token unaligned."""
    links = []
    for i in range(n_src):
        if i % 7 == 6:
            continue
        j = 0 if n_src == 1 else round(i * (n_tgt - 1) / (n_src - 1))
        links.append(f"{i}-{j}")
    return " ".join(links)


# ---------------------------------------------------------------------------
# Workloads


def gen_eval(out_dir, seed, scale=1.0):
    """Caption (en) and subtitle (fr) references, hypotheses derived by
    edits, CoNLL-U tags for both hypotheses and both alignment
    directions."""
    rng = random.Random(f"eval-{seed}")
    lexicon = _Lexicon(rng, content_types=400)
    n_pairs = _scaled(EVAL_PAIRS, scale, 20)
    text = {key: [] for key in ("captions.ref", "captions.hyp", "subtitles.ref", "subtitles.hyp",
                                "align.c2s", "align.s2c")}
    conllu = {"captions.hyp.conllu": [], "subtitles.hyp.conllu": []}
    for _ in range(n_pairs):
        ref = _segment(_sentence(lexicon, rng, rng.randint(3, 10)), rng)
        words = {}
        for side, french in (("captions", False), ("subtitles", True)):
            hyp = _edit(ref, lexicon, rng, rate=0.12)
            text[f"{side}.ref"].append(_render(ref, french)[0])
            hyp_text, hyp_tokens = _render(hyp, french)
            text[f"{side}.hyp"].append(hyp_text)
            conllu[f"{side}.hyp.conllu"].append(_conllu(hyp_tokens))
            words[side] = sum(1 for _, upos in hyp_tokens if upos is not None)
        text["align.c2s"].append(_diagonal_links(words["captions"], words["subtitles"]))
        text["align.s2c"].append(_diagonal_links(words["subtitles"], words["captions"]))
    for name, lines in text.items():
        _write(os.path.join(out_dir, name), lines)
    for name, sentences in conllu.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(sentences))
    return n_pairs


def gen_align(out_dir, seed, scale=1.0):
    """A bitext over Zipf vocabularies with a planted gold alignment:
    each source type has one translation, some source words are dropped,
    NULL words are inserted and neighbouring target words swap."""
    rng = random.Random(f"align-{seed}")
    n_pairs = _scaled(ALIGN_PAIRS, scale, 50)
    n_types = _scaled(ALIGN_TYPES, scale, 100)
    src_types = _pseudo_words(rng, EN_SYLLABLES, n_types, ())
    tgt_types = _pseudo_words(rng, FR_SYLLABLES, n_types, NULL_WORDS)
    translation = dict(zip(src_types, tgt_types))
    pick = _zipf(rng, src_types)
    bitext, gold = [], []
    for _ in range(n_pairs):
        src = [pick() for _ in range(rng.randint(3, 15))]
        tgt = [(translation[w], i) for i, w in enumerate(src) if rng.random() >= 0.04]
        for j in range(len(tgt), -1, -1):
            if rng.random() < 0.05:
                tgt.insert(j, (rng.choice(NULL_WORDS), None))
        for j in range(len(tgt) - 1):
            if rng.random() < 0.12:
                tgt[j], tgt[j + 1] = tgt[j + 1], tgt[j]
        if not tgt:
            tgt = [(translation[src[0]], 0)]
        bitext.append(" ".join(src) + " ||| " + " ".join(w for w, _ in tgt))
        links = sorted((i, j) for j, (_, i) in enumerate(tgt) if i is not None)
        gold.append(" ".join(f"{i}-{j}" for i, j in links))
    _write(os.path.join(out_dir, "bitext.txt"), bitext)
    _write(os.path.join(out_dir, "gold.txt"), gold)
    return n_pairs


def _srt_cue(index, start_ms, end_ms, items):
    lines, current = [], []
    for item in items + [EOB]:
        if item in BREAKS:
            if current:
                lines.append(_render(current, french=False)[0])
            current = []
        else:
            current.append(item)
    stamp = lambda ms: f"{ms // 3_600_000:02d}:{ms // 60_000 % 60:02d}:{ms // 1000 % 60:02d},{ms % 1000:03d}"
    return f"{index}\n{stamp(start_ms)} --> {stamp(end_ms)}\n" + "\n".join(lines) + "\n"


def gen_significance(out_dir, seed, scale=1.0):
    """An SRT reference and two systems derived from it at different
    edit rates, with the reference timings."""
    rng = random.Random(f"significance-{seed}")
    lexicon = _Lexicon(rng, content_types=400)
    n_cues = _scaled(SRT_CUES, scale, 20)
    docs = {"ref.srt": [], "a.srt": [], "b.srt": []}
    clock = 0
    for index in range(1, n_cues + 1):
        start = clock + rng.randint(100, 800)
        end = start + rng.randint(1000, 6000)
        clock = end
        units = _sentence(lexicon, rng, rng.randint(4, 14))
        if len(units) > 7:
            units.insert(len(units) // 2, EOL)
        ref = units + [EOB]
        for name, items in (("ref.srt", ref), ("a.srt", _edit(ref, lexicon, rng, 0.06)),
                            ("b.srt", _edit(ref, lexicon, rng, 0.18))):
            docs[name].append(_srt_cue(index, start, end, items))
    for name, cues in docs.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(cues))
    return n_cues


GENERATORS = {
    "eval-10k": gen_eval,
    "align-5k": gen_align,
    "significance-srt": gen_significance,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    print(GENERATORS[args.workload](args.out, args.seed, args.scale), "items written")


if __name__ == "__main__":
    main()
