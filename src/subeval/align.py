"""Statistical word alignment.

EM training of a lexical translation model with an optional diagonal
position prior (the fast_align-style reparameterization of IBM Model 2),
Viterbi link extraction and the model file.  Training is fully
deterministic: the table is initialized uniformly over co-occurring
words and no randomness is involved.  The links and their Pharaoh
format live in `links`, which needs no numpy; their names are
importable from here too.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError, FormatError, located, numbered_lines, open_utf8
from .links import (  # noqa: F401  (re-exported)
    DEFAULT_ITERATIONS,
    DEFAULT_P0,
    DEFAULT_TENSION,
    TENSION_BOUNDS,
    SentenceAlignment,
    load_pharaoh,
    parse_pharaoh,
    write_pharaoh,
)
from .model import BREAKS, EOB, EOL, left_sum

logger = logging.getLogger(__name__)

NULL_WORD = "<NULL>"

OOV_PROB = 1e-9


@dataclass(frozen=True)
class BitextPair:
    source: tuple[str, ...]
    target: tuple[str, ...]

    def __post_init__(self):
        if not self.source or not self.target:
            raise DataError("bitext pair with an empty side")
        for word in self.source + self.target:
            if word in BREAKS:
                raise DataError("bitext must not contain break tokens")


class TranslationModel:
    """The lexical translation table t(target | source) and the aligner's
    parameters.

    The table is held in model-file order.  `source_ids` and `target_ids`
    map the sorted source and target vocabularies to their ranks, and the
    row of source s is entries `offsets[s]:offsets[s + 1]` of `targets`
    (target ids, ascending) and `probs`.  Every (source, target) pair
    outside the table, a missing NULL row's included, scores OOV_PROB.
    `table` is a dict of dicts built on demand; assigning one replaces
    the arrays.
    """

    def __init__(
        self,
        table: dict[str, dict[str, float]],
        tension: float = DEFAULT_TENSION,
        null_prob: float = DEFAULT_P0,
        use_diagonal_prior: bool = True,
    ):
        self.table = table
        self.tension = tension
        self.null_prob = null_prob
        self.use_diagonal_prior = use_diagonal_prior

    @property
    def table(self) -> dict[str, dict[str, float]]:
        words = list(self.target_ids)
        targets = [words[t] for t in self.targets.tolist()]
        probs = self.probs.tolist()
        bounds = self.offsets.tolist()
        return {
            source: dict(zip(targets[start:end], probs[start:end]))
            for source, start, end in zip(self.source_ids, bounds, bounds[1:])
        }

    @table.setter
    def table(self, table: dict[str, dict[str, float]]) -> None:
        target_ids: dict[str, int] = {}
        sources, targets, probs = [], [], []
        for source, row in enumerate(table.values()):
            sources += [source] * len(row)
            targets += [target_ids.setdefault(word, len(target_ids)) for word in row]
            probs += row.values()
        self._set_entries(list(table), sources, list(target_ids), targets, probs)

    def _set_entries(self, source_words, sources, target_words, targets, probs) -> None:
        """Hold the entries (sources[k], targets[k]) -> probs[k], given as
        ids into `source_words` and `target_words`, in model-file order.
        Of entries with the same words the last one wins."""
        source_words, sources = _sorted_vocabulary(source_words, sources)
        target_words, targets = _sorted_vocabulary(target_words, targets)
        self.source_ids = dict(zip(source_words, range(len(source_words))))
        self.target_ids = dict(zip(target_words, range(len(target_words))))
        # Keys source id * (|target vocabulary| + 1) + target id increase
        # with (source id, target id), so one searchsorted finds any batch.
        # The stride leaves room for the target id of an unknown word.
        stride = len(target_words) + 1
        keys = sources * stride
        keys += targets
        del sources, targets
        probs = np.asarray(probs, dtype=np.float64)
        # Entries in model-file order, as `save_model` writes them, need
        # no sort and have no duplicate.
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            last = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=last[:-1])
            keys = keys[last]
            probs = probs[order[last]]
            del order, last
        self.offsets = np.searchsorted(keys, np.arange(len(source_words) + 1) * stride)
        self.targets = keys % stride
        # A sentinel above every key ends `_keys`, and OOV_PROB ends
        # `_probs`, of which `probs` is a view.
        self._keys = np.append(keys, np.iinfo(np.int64).max)
        self._probs = np.append(probs, OOV_PROB)
        self.probs = self._probs[:-1]

    def _lookup(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """t(target | source) for arrays of source and target ids, where
        the id one past a vocabulary's last is a word outside it."""
        codes = sources * (len(self.target_ids) + 1) + targets
        at = self._keys.searchsorted(codes)
        at[self._keys[at] != codes] = -1
        return self._probs[at]

    def prob(self, target_word: str, source_word: str) -> float:
        source = self.source_ids.get(source_word, len(self.source_ids))
        target = self.target_ids.get(target_word, len(self.target_ids))
        return float(self._lookup(np.array([source]), np.array([target]))[0])


def _sorted_vocabulary(words: Sequence[str], ids) -> tuple[list[str], np.ndarray]:
    """The words of `words` that `ids` use, sorted, and `ids` renumbered
    to their ranks."""
    ids = np.asarray(ids, dtype=np.int64)
    used = np.flatnonzero(np.bincount(ids, minlength=len(words)))
    used_words = [words[i] for i in used.tolist()]
    order = sorted(range(len(used_words)), key=used_words.__getitem__)
    rank = np.zeros(len(words), dtype=np.int64)
    rank[used[order]] = np.arange(len(order))
    return [used_words[i] for i in order], rank[ids]


def _diagonal_prior(m: int, n: int, tension: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal prior of an m-word source and n-word target as two
    (m, n) arrays: the weight w[i, j] of source position i for
    target position j, and h[i, j] - sum_i w[i, j] * h[i, j], the tension
    gradient's term, where h[i, j] = -|(i + 1) / m - (j + 1) / n|."""
    # 1-based position ratios, as in the reparameterized model.
    distance = [[abs((i + 1) / m - (j + 1) / n) for j in range(n)] for i in range(m)]
    raw = np.array([[math.exp(-tension * d) for d in row] for row in distance])
    weights = raw / _sum_rows(raw)
    h = -np.array(distance)
    centred_h = h - _sum_rows(weights * h)
    return weights, centred_h


def _prior_tension(use_diagonal_prior: bool, tension: float) -> float:
    """The tension the aligner scores with.  Without the diagonal prior it
    is 0: every weight is then exp(0) / m = 1 / m, IBM Model 1."""
    return tension if use_diagonal_prior else 0.0


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis, adding one row at a time: the order a
    Python loop adds in, which `ndarray.sum`'s pairwise summation is not."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


class _Group(NamedTuple):
    """The target tokens whose pairs have m source words, in corpus order."""

    m: int
    tokens: np.ndarray  # corpus position of each token
    first_slot: np.ndarray  # corpus slot of each token's NULL slot
    lengths: tuple[int, ...]  # distinct target lengths n, ascending
    columns: np.ndarray  # column of each token's (n, j) in the lengths' priors side by side

    def slots(self) -> np.ndarray:
        """(m + 1, tokens) corpus slots: row 0 for NULL, row i + 1 for
        source position i."""
        return self.first_slot + np.arange(self.m + 1)[:, None]

    def prior(self, tension: float) -> tuple[np.ndarray, np.ndarray]:
        """`_diagonal_prior` of the group's lengths side by side, as two
        (m, sum of lengths) arrays; `columns` picks each token's column."""
        parts = [_diagonal_prior(self.m, n, tension) for n in self.lengths]
        return (np.concatenate([w for w, _ in parts], axis=1),
                np.concatenate([h for _, h in parts], axis=1))

    def e_step(self, posterior: np.ndarray, p0: float, tension: float) -> tuple[np.ndarray, np.ndarray]:
        """Turn the group's slots of `posterior` from t into posteriors, in
        place.  Returns each token's z and tension gradient term."""
        slots = self.slots()
        scores = posterior[slots]
        weights, centred_h = self.prior(tension)
        weights = weights[:, self.columns]
        weights *= 1.0 - p0
        scores[0] *= p0
        scores[1:] *= weights
        del weights  # each (m, tokens) array is freed before the next is made
        z = _sum_rows(scores)
        scores /= z
        posterior[slots] = scores
        del slots
        centred_h = centred_h[:, self.columns]
        centred_h *= scores[1:]
        return z, _sum_rows(centred_h)


def _corpus_ids(
    corpus: Sequence[BitextPair],
    null: int,
    source_id: Callable[[str], int],
    target_id: Callable[[str], int],
) -> tuple[np.ndarray, ...]:
    """The corpus as int64 arrays: each pair's source ids, `null` and
    then `source_id` of each source word, flat; each target word's
    `target_id`, flat; and each pair's source length m and target length n.
    The ids are asked for in corpus order, source side first."""
    m = np.fromiter((len(pair.source) for pair in corpus), np.int64, len(corpus))
    n = np.fromiter((len(pair.target) for pair in corpus), np.int64, len(corpus))
    sources = np.fromiter(
        itertools.chain.from_iterable((null, *map(source_id, pair.source)) for pair in corpus),
        np.int64, len(corpus) + int(m.sum()),
    )
    targets = np.fromiter(
        itertools.chain.from_iterable(map(target_id, pair.target) for pair in corpus),
        np.int64, int(n.sum()),
    )
    return sources, targets, m, n


def _group_by_source_length(
    sources: np.ndarray, targets: np.ndarray, m: np.ndarray, n: np.ndarray
) -> Iterator[tuple[_Group, np.ndarray, np.ndarray]]:
    """Group the target tokens of a corpus, given as `_corpus_ids`, by
    source length m.  Yields, for each m, the `_Group`, the (m + 1,
    tokens) source ids of its tokens' slots and its tokens' target ids.
    The group with the most slots comes first, so that each later
    group's temporaries fit in the memory an earlier one freed.  Tokens
    are numbered in corpus order, and each has m + 1 slots: NULL first,
    then the source positions left to right."""
    token_m = np.repeat(m, n)
    token_n = np.repeat(n, n)
    # Each token's position j in its pair, and where its pair's source ids start.
    token_j = np.arange(len(targets)) - np.repeat(np.cumsum(n) - n, n)
    token_sources = np.repeat(np.cumsum(m + 1) - (m + 1), n)
    first_slot = np.cumsum(token_m + 1) - (token_m + 1)
    group_tokens = np.bincount(token_m).tolist()
    for length in sorted(
        (length for length, count in enumerate(group_tokens) if count),
        key=lambda length: (length + 1) * group_tokens[length], reverse=True,
    ):
        tokens = np.flatnonzero(token_m == length)
        lengths = token_n[tokens]
        distinct_n = np.unique(lengths)
        n_start = np.cumsum(distinct_n) - distinct_n
        columns = n_start[np.searchsorted(distinct_n, lengths)] + token_j[tokens]
        group = _Group(length, tokens, first_slot[tokens], tuple(distinct_n.tolist()), columns)
        group_sources = sources[token_sources[tokens] + np.arange(length + 1)[:, None]]
        yield group, group_sources, targets[tokens]


class _CooccurrenceIndex:
    """A training corpus as integer arrays, built once per training run.

    Each target token has one slot for NULL and one per source position,
    and each slot holds the id of its (source word, target word) key.
    Slots and key ids both follow corpus order: token by token, NULL
    first, then the source words left to right, and a key's id is the
    rank of its first slot.  `np.bincount` over the slots therefore adds
    every expected count, and over the key ids every row total, in the
    order a dict-based loop over the corpus would.
    """

    def __init__(self, corpus: Sequence[BitextPair]):
        source_ids = {NULL_WORD: 0}
        target_ids: dict[str, int] = {}
        ids = _corpus_ids(
            corpus, 0,
            lambda word: source_ids.setdefault(word, len(source_ids)),
            lambda word: target_ids.setdefault(word, len(target_ids)),
        )
        self.source_words = list(source_ids)
        self.target_words = list(target_ids)
        _, targets, m, n = ids
        self.n_tokens = len(targets)
        n_slots = int((m + 1) @ n)

        # Slot codes source id * |target vocabulary| + target id.
        codes = np.empty(n_slots, dtype=np.int64)
        self.groups = []
        n_targets = len(self.target_words)
        for group, sources, targets in _group_by_source_length(*ids):
            sources *= n_targets
            sources += targets
            codes[group.slots()] = sources
            self.groups.append(group)
        del ids, sources, targets

        # Distinct codes, sorted, then numbered by first slot.  At most two
        # slot-sized arrays are alive at once; np.unique with return_index
        # and return_inverse would hold about six.
        sorted_codes = np.sort(codes)
        distinct = np.empty(n_slots, dtype=bool)
        distinct[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=distinct[1:])
        key_codes = sorted_codes[distinct]
        del sorted_codes, distinct
        ranks = np.searchsorted(key_codes, codes)  # each slot's code's rank
        del codes
        first_slot = np.full(len(key_codes), n_slots)
        np.minimum.at(first_slot, ranks, np.arange(n_slots))
        key_of_rank = np.empty(len(key_codes), dtype=np.intp)
        key_of_rank[np.argsort(first_slot)] = np.arange(len(key_codes))
        del first_slot
        self.key_source = np.empty(len(key_codes), dtype=np.intp)
        # Read once, when the model is built: half the bytes do.
        self.key_target = np.empty(len(key_codes), dtype=np.int32)
        self.key_source[key_of_rank] = key_codes // n_targets
        self.key_target[key_of_rank] = key_codes % n_targets
        del key_codes
        self.slot_keys = key_of_rank[ranks]
        del ranks
        # Every E-step's posteriors, in one buffer for the whole run.
        self._posterior = np.empty(n_slots)

    def uniform(self) -> np.ndarray:
        """t(target | source) uniform over each source's co-occurring targets."""
        return 1.0 / np.bincount(self.key_source)[self.key_source]

    def e_step(
        self, prob: np.ndarray, p0: float, tension: float
    ) -> tuple[float, np.ndarray, float]:
        """(log-likelihood, expected count per key, tension gradient per
        target token) under t = `prob` per key."""
        # Every key id is in range; "clip" writes `out` directly, where
        # the default mode would fill a temporary copy first.
        posterior = np.take(prob, self.slot_keys, out=self._posterior, mode="clip")
        z = np.empty(self.n_tokens)
        grad = np.zeros(self.n_tokens)
        for group in self.groups:
            z[group.tokens], grad[group.tokens] = group.e_step(posterior, p0, tension)
        counts = np.bincount(self.slot_keys, weights=posterior, minlength=len(self.key_source))
        # One float at a time, not a list of them all.
        log_likelihood = left_sum(map(math.log, z))
        return log_likelihood, counts, left_sum(map(float, grad)) / self.n_tokens


def train_aligner(
    corpus: Sequence[BitextPair],
    iterations: int = DEFAULT_ITERATIONS,
    use_diagonal_prior: bool = True,
    p0: float = DEFAULT_P0,
    initial_tension: float = DEFAULT_TENSION,
    update_tension: bool = True,
    log_likelihoods: Optional[list[float]] = None,
) -> TranslationModel:
    """EM training.  `log_likelihoods` (if given) collects the corpus
    log-likelihood observed at the start of each iteration; each
    iteration's log-likelihood and tension are also logged at INFO."""
    if not corpus:
        raise DataError("empty corpus")
    if not (0.0 <= p0 < 1.0):
        raise DataError("p0 must be in [0, 1)")
    if iterations < 0:
        raise DataError("iterations must be non-negative")
    if not math.isfinite(initial_tension):
        raise DataError("initial tension must be finite")
    index = _CooccurrenceIndex(corpus)
    prob = index.uniform()
    has_mass = np.ones(len(index.source_words), dtype=bool)
    tension = initial_tension
    for iteration in range(1, iterations + 1):
        ll, counts, grad = index.e_step(prob, p0, _prior_tension(use_diagonal_prior, tension))
        if log_likelihoods is not None:
            log_likelihoods.append(ll)
        totals = np.bincount(index.key_source, weights=counts, minlength=len(has_mass))
        # A row with no mass (NULL when p0 = 0) is left out of the table,
        # so its keys score OOV_PROB.
        has_mass = totals != 0.0
        prob.fill(OOV_PROB)
        np.divide(counts, totals[index.key_source], out=prob, where=has_mass[index.key_source])
        del counts  # before the next E-step makes its own
        if use_diagonal_prior and update_tension:
            tension = min(TENSION_BOUNDS[1], max(TENSION_BOUNDS[0], tension + grad))
        logger.info(
            "EM iteration %d/%d: log-likelihood %.6f, tension %.6f",
            iteration, iterations, ll, tension,
        )
    source_words, target_words = index.source_words, index.target_words
    key_source, key_target = index.key_source, index.key_target
    del index  # the slot-level arrays, before the model's are built
    kept = has_mass[key_source]
    sources, targets, probs = key_source[kept], key_target[kept], prob[kept]
    del key_source, key_target, prob, kept  # and the key-level ones
    model = TranslationModel({}, tension, p0, use_diagonal_prior)
    model._set_entries(source_words, sources, target_words, targets, probs)
    return model


def viterbi_align_corpus(
    model: TranslationModel, corpus: Sequence[BitextPair]
) -> list[SentenceAlignment]:
    """The Viterbi alignment of each pair: every target word links to its
    best source position, or to NULL (no link).  Ties go to the smaller
    source index, and NULL wins only strictly.  The target tokens are
    scored one source length at a time, with the E-step's products."""
    source_ids, target_ids = model.source_ids, model.target_ids
    unknown_source, unknown_target = len(source_ids), len(target_ids)
    null = source_ids.get(NULL_WORD, unknown_source)
    tension = _prior_tension(model.use_diagonal_prior, model.tension)
    ids = _corpus_ids(
        corpus, null,
        lambda word: source_ids.get(word, unknown_source),
        lambda word: target_ids.get(word, unknown_target),
    )
    best = np.empty(len(ids[1]), dtype=np.int64)
    for group, sources, targets in _group_by_source_length(*ids):
        scores = model._lookup(sources, targets)
        del sources, targets
        weights = group.prior(tension)[0][:, group.columns]
        weights *= 1.0 - model.null_prob
        scores[0] *= model.null_prob
        scores[1:] *= weights
        source = scores[1:].argmax(axis=0)
        source[scores[0] > scores[1:].max(axis=0)] = -1
        best[group.tokens] = source
        # Free this group's arrays before the next group makes its own.
        del scores, weights, source
    best = best.tolist()
    shared: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per distinct link
    alignments = []
    end = 0
    for pair in corpus:
        start, end = end, end + len(pair.target)
        links = [(i, j) for j, i in enumerate(best[start:end]) if i >= 0]
        alignments.append(SentenceAlignment(frozenset(map(shared.setdefault, links, links))))
    return alignments


def viterbi_align(model: TranslationModel, pair: BitextPair) -> SentenceAlignment:
    """`viterbi_align_corpus` of one pair."""
    return viterbi_align_corpus(model, [pair])[0]


# Rows per write of `save_model` and characters per read of `load_model`:
# blocks keep the text of a large model out of memory at once.
_SAVE_BLOCK_ROWS = 1 << 12
_LOAD_BLOCK_CHARS = 1 << 16
# Every byte but the model file's cell and row separators.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


def save_model(model: TranslationModel, path: str) -> None:
    """One row per entry, sorted by source and then target word, each
    probability as its `repr`."""
    source_words = list(model.source_ids)
    target_words = list(model.target_ids)
    sources = np.repeat(np.arange(len(source_words)), np.diff(model.offsets))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"tension\t{model.tension!r}\tp0\t{model.null_prob!r}"
            f"\tdiagonal\t{int(model.use_diagonal_prior)}\n"
        )
        for start in range(0, len(sources), _SAVE_BLOCK_ROWS):
            block = slice(start, start + _SAVE_BLOCK_ROWS)
            cells = [None, "\t", None, "\t", None, "\n"] * len(sources[block])
            cells[0::6] = map(source_words.__getitem__, sources[block].tolist())
            cells[2::6] = map(target_words.__getitem__, model.targets[block].tolist())
            cells[4::6] = map(float.__repr__, model.probs[block].tolist())
            fh.write("".join(cells))


def load_model(path: str) -> TranslationModel:
    """Rows may come in any order; of rows with the same source and
    target word the last one wins."""
    source_ids: dict[str, int] = {}
    target_ids: dict[str, int] = {}
    sources: list[int] = []
    targets: list[int] = []
    blocks: list[np.ndarray] = []  # the probabilities of each block of rows
    with open_utf8(path) as fh, located(path):
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 6 or header[0] != "tension" or header[2] != "p0":
            raise FormatError("bad model header", line=1)
        try:
            tension, p0, diagonal = float(header[1]), float(header[3]), int(header[5])
            # Only values a trained model can hold: p0 as `train_aligner` takes it.
            if not (math.isfinite(tension) and 0.0 <= p0 < 1.0 and diagonal in (0, 1)):
                raise ValueError
        except ValueError:
            raise FormatError("bad number in model header", line=1) from None
        lineno = 2
        for text in _line_blocks(fh):
            cells = text.replace("\n", "\t").split("\t")
            cells.pop()
            rows = len(cells) // 3
            try:
                # Every row has three cells: the tabs and newlines, in
                # file order, read tab, tab, newline once per row.
                if text.encode().translate(None, _NOT_SEPARATORS) != b"\t\t\n" * rows:
                    raise ValueError
                probs = np.fromiter(map(float, cells[2::3]), np.float64, rows)
                if not ((probs >= 0.0) & (probs <= 1.0)).all():
                    raise ValueError
            except ValueError:
                raise _model_row_error(lineno, text) from None
            blocks.append(probs)
            sources += _word_ids(source_ids, cells[0::3])
            targets += _word_ids(target_ids, cells[1::3])
            lineno += rows
    model = TranslationModel({}, tension, p0, bool(diagonal))
    probs = np.concatenate([np.empty(0), *blocks])
    model._set_entries(list(source_ids), sources, list(target_ids), targets, probs)
    return model


def _word_ids(ids: dict[str, int], words: list[str]) -> Iterator[int]:
    """The id of each of `words`, numbering new words from len(ids) on."""
    for word in dict.fromkeys(words):
        ids.setdefault(word, len(ids))
    return map(ids.__getitem__, words)


def _line_blocks(fh) -> Iterator[str]:
    """The rest of `fh` as blocks of whole lines, each block ending in a
    newline (added to a last line that has none)."""
    tail = ""
    for block in iter(functools.partial(fh.read, _LOAD_BLOCK_CHARS), ""):
        block = tail + block
        end = block.rfind("\n") + 1
        tail = block[end:]
        if end:
            yield block[:end]
    if tail:
        yield tail + "\n"


def _model_row_error(lineno: int, text: str) -> FormatError:
    """The error of the first bad row of `text`, malformed or with a
    probability outside [0, 1], whose first line is line `lineno`; looked
    for only once parsing has failed."""
    for lineno, line in enumerate(text.split("\n"), start=lineno):
        parts = line.split("\t")
        if len(parts) != 3:
            return FormatError("bad model row", line=lineno)
        try:
            prob = float(parts[2])
        except ValueError:
            prob = math.nan
        if not 0.0 <= prob <= 1.0:
            return FormatError(f"bad probability {parts[2]!r}", line=lineno)
    raise AssertionError("no bad model row")


def load_bitext(path: str) -> list[tuple[str, str]]:
    """One "src ||| tgt" pair per line; each side needs a word besides
    break tokens."""
    pairs = []
    with open_utf8(path) as fh, located(path):
        for lineno, line in numbered_lines(fh):
            if not line.strip():
                continue
            if "|||" not in line:
                raise FormatError("missing ||| separator", line=lineno)
            src, tgt = line.split("|||", 1)
            for side, text in (("source", src), ("target", tgt)):
                # The tokenizers split a break token off even inside a word.
                if not text.replace(EOB, " ").replace(EOL, " ").strip():
                    raise FormatError(f"no word on the {side} side", line=lineno)
            pairs.append((src.strip(), tgt.strip()))
    return pairs
