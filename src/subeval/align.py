"""Statistical word alignment.

EM training of a lexical translation model with an optional diagonal
position prior (the fast_align-style reparameterization of IBM Model 2),
Viterbi link extraction, and Pharaoh-format interchange.  Training is
fully deterministic: the table is initialized uniformly over
co-occurring words and no randomness is involved.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError, FormatError, open_utf8
from .model import BREAKS

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


@dataclass(frozen=True)
class SentenceAlignment:
    links: frozenset[tuple[int, int]]


@dataclass
class TranslationModel:
    table: dict[str, dict[str, float]]
    tension: float = 4.0
    null_prob: float = 0.08
    use_diagonal_prior: bool = True

    def prob(self, target_word: str, source_word: str) -> float:
        row = self.table.get(source_word)
        if row is None:
            return OOV_PROB
        return row.get(target_word, OOV_PROB)


@functools.lru_cache(maxsize=1024)
def _diagonal_prior(m: int, n: int, tension: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal prior of an m-word source and n-word target as two
    read-only (m, n) arrays: the weight w[i, j] of source position i for
    target position j, and h[i, j] - sum_i w[i, j] * h[i, j], the tension
    gradient's term, where h[i, j] = -|(i + 1) / m - (j + 1) / n|."""
    # 1-based position ratios, as in the reparameterized model.
    distance = [[abs((i + 1) / m - (j + 1) / n) for j in range(n)] for i in range(m)]
    raw = np.array([[math.exp(-tension * d) for d in row] for row in distance])
    weights = raw / _sum_rows(raw)
    h = -np.array(distance)
    centred_h = h - _sum_rows(weights * h)
    weights.flags.writeable = centred_h.flags.writeable = False
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


def _left_sum(values) -> float:
    """0.0 + v0 + v1 + ..., left to right; built-in `sum` compensates
    float sums from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


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
        """`_diagonal_prior` of every token of the group, as (m, tokens) arrays."""
        parts = [_diagonal_prior(self.m, n, tension) for n in self.lengths]
        weights = np.concatenate([w for w, _ in parts], axis=1)
        centred_h = np.concatenate([h for _, h in parts], axis=1)
        return weights[:, self.columns], centred_h[:, self.columns]


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
        by_length: dict[int, tuple[list, list, list, list]] = {}
        token_m = []
        for pair in corpus:
            m = len(pair.source)
            first, sources, targets, lengths = by_length.setdefault(m, ([], [], [], []))
            first.append(len(token_m))
            sources.append([source_ids.setdefault(w, len(source_ids)) for w in pair.source])
            targets += [target_ids.setdefault(w, len(target_ids)) for w in pair.target]
            lengths.append(len(pair.target))
            token_m.extend([m] * len(pair.target))
        self.source_words = list(source_ids)
        self.target_words = list(target_ids)
        self.n_tokens = len(token_m)
        token_m = np.array(token_m)
        slot_start = np.cumsum(token_m + 1) - token_m - 1
        n_slots = int(token_m.sum()) + self.n_tokens
        del token_m

        # Slot codes source id * |target vocabulary| + target id.
        codes = np.empty(n_slots, dtype=np.int64)
        self.groups = []
        n_targets = len(self.target_words)
        for m, (first, sources, targets, lengths) in sorted(by_length.items()):
            lengths = np.array(lengths)
            pair_of_token = np.repeat(np.arange(len(lengths)), lengths)
            j = np.arange(len(targets)) - (np.cumsum(lengths) - lengths)[pair_of_token]
            tokens = np.array(first)[pair_of_token] + j
            n = lengths[pair_of_token]
            distinct_n = np.unique(n)
            n_start = np.cumsum(distinct_n) - distinct_n
            group = _Group(m, tokens, slot_start[tokens], tuple(distinct_n.tolist()),
                           n_start[np.searchsorted(distinct_n, n)] + j)
            block = np.zeros((m + 1, len(targets)), dtype=np.int64)
            block[1:] = np.array(sources, dtype=np.int64)[pair_of_token].T
            block *= n_targets
            block += np.array(targets)
            codes[group.slots()] = block
            self.groups.append(group)
        del by_length, slot_start, block

        # Distinct codes numbered by first slot.  A stable sort keeps equal
        # codes in corpus order, so each run of one code starts at its
        # first slot.  (np.unique with return_index and return_inverse
        # would hold about six slot-sized arrays at once.)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        run_start = np.empty(n_slots, dtype=bool)
        run_start[0] = True
        np.not_equal(codes[1:], codes[:-1], out=run_start[1:])
        key_codes = codes[run_start]
        del codes
        key_of_run = np.empty(len(key_codes), dtype=np.intp)
        key_of_run[np.argsort(order[run_start])] = np.arange(len(key_codes))
        run = np.cumsum(run_start, dtype=np.intp)
        run -= 1
        del run_start
        self.slot_keys = np.empty(n_slots, dtype=np.intp)
        self.slot_keys[order] = key_of_run[run]
        del order, run
        self.key_source = np.empty(len(key_codes), dtype=np.intp)
        self.key_target = np.empty(len(key_codes), dtype=np.intp)
        self.key_source[key_of_run] = key_codes // n_targets
        self.key_target[key_of_run] = key_codes % n_targets

    def uniform(self) -> np.ndarray:
        """t(target | source) uniform over each source's co-occurring targets."""
        return 1.0 / np.bincount(self.key_source)[self.key_source]

    def e_step(
        self, prob: np.ndarray, p0: float, tension: float
    ) -> tuple[float, np.ndarray, float]:
        """(log-likelihood, expected count per key, tension gradient per
        target token) under t = `prob` per key."""
        posterior = prob[self.slot_keys]
        z = np.empty(self.n_tokens)
        grad = np.zeros(self.n_tokens)
        for group in self.groups:
            slots = group.slots()
            scores = posterior[slots]
            weights, centred_h = group.prior(tension)
            scores[0] *= p0
            scores[1:] *= (1.0 - p0) * weights
            group_z = _sum_rows(scores)
            scores /= group_z
            posterior[slots] = scores
            z[group.tokens] = group_z
            grad[group.tokens] = _sum_rows(scores[1:] * centred_h)
        counts = np.bincount(self.slot_keys, weights=posterior, minlength=len(self.key_source))
        log_likelihood = _left_sum(map(math.log, z.tolist()))
        return log_likelihood, counts, _left_sum(grad.tolist()) / self.n_tokens

    def table(self, prob: np.ndarray, rows: np.ndarray) -> dict[str, dict[str, float]]:
        """`prob` as a dict of dicts, keeping the source rows where `rows`
        is true."""
        order = np.argsort(self.key_source, kind="stable")
        ends = np.cumsum(np.bincount(self.key_source)).tolist()
        targets = [self.target_words[t] for t in self.key_target[order].tolist()]
        probs = prob[order].tolist()
        table = {}
        start = 0
        for source, end, keep in zip(self.source_words, ends, rows.tolist()):
            if keep:
                table[source] = dict(zip(targets[start:end], probs[start:end]))
            start = end
        return table


def train_aligner(
    corpus: Sequence[BitextPair],
    iterations: int = 5,
    use_diagonal_prior: bool = True,
    p0: float = 0.08,
    initial_tension: float = 4.0,
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
        prob = np.full(len(counts), OOV_PROB)
        np.divide(counts, totals[index.key_source], out=prob, where=has_mass[index.key_source])
        if use_diagonal_prior and update_tension:
            tension = min(14.0, max(0.1, tension + grad))
        logger.info(
            "EM iteration %d/%d: log-likelihood %.6f, tension %.6f",
            iteration, iterations, ll, tension,
        )
    return TranslationModel(
        table=index.table(prob, has_mass),
        tension=tension,
        null_prob=p0,
        use_diagonal_prior=use_diagonal_prior,
    )


def viterbi_align(model: TranslationModel, pair: BitextPair) -> SentenceAlignment:
    """Best source link (or NULL, omitted) per target word; ties go to
    the smaller source index, NULL wins only strictly."""
    tension = _prior_tension(model.use_diagonal_prior, model.tension)
    weights = _diagonal_prior(len(pair.source), len(pair.target), tension)[0].T.tolist()
    scale = 1.0 - model.null_prob
    links = set()
    for j, (tgt, column) in enumerate(zip(pair.target, weights)):
        null_score = model.null_prob * model.prob(tgt, NULL_WORD)
        best_i = None
        best_score = -1.0
        for i, (src, weight) in enumerate(zip(pair.source, column)):
            score = scale * weight * model.prob(tgt, src)
            if score > best_score:
                best_score = score
                best_i = i
        if null_score > best_score:
            continue
        links.add((best_i, j))
    return SentenceAlignment(frozenset(links))


def parse_pharaoh(line: str) -> SentenceAlignment:
    links = set()
    offset = 0
    for token in line.split():
        offset = line.index(token, offset)
        column = offset + 1
        offset += len(token)
        parts = token.split("-")
        if len(parts) != 2:
            raise FormatError(f"malformed alignment token {token!r} at column {column}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed alignment token {token!r} at column {column}")
        if i < 0 or j < 0:
            raise FormatError(f"negative index in alignment token {token!r}")
        links.add((i, j))
    return SentenceAlignment(frozenset(links))


def write_pharaoh(alignment: SentenceAlignment) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def load_pharaoh(path: str) -> list[SentenceAlignment]:
    alignments = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                alignments.append(parse_pharaoh(line.rstrip("\n")))
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return alignments


def save_model(model: TranslationModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"tension\t{model.tension!r}\tp0\t{model.null_prob!r}"
            f"\tdiagonal\t{int(model.use_diagonal_prior)}\n"
        )
        for src in sorted(model.table):
            for tgt in sorted(model.table[src]):
                fh.write(f"{src}\t{tgt}\t{model.table[src][tgt]!r}\n")


def load_model(path: str) -> TranslationModel:
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 6 or header[0] != "tension" or header[2] != "p0":
            raise FormatError(f"{path}:1: bad model header")
        try:
            tension, p0, diagonal = float(header[1]), float(header[3]), bool(int(header[5]))
        except ValueError:
            raise FormatError(f"{path}:1: bad number in model header") from None
        table: dict[str, dict[str, float]] = {}
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: bad model row")
            src, tgt, prob = parts
            try:
                table.setdefault(src, {})[tgt] = float(prob)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad probability {prob!r}") from None
    return TranslationModel(
        table=table, tension=tension, null_prob=p0, use_diagonal_prior=diagonal
    )


def parse_bitext_line(line: str, lineno: int) -> tuple[str, str]:
    if "|||" not in line:
        raise FormatError(f"bitext line {lineno}: missing ||| separator")
    src, tgt = line.split("|||", 1)
    return src.strip(), tgt.strip()


def load_bitext(path: str) -> list[tuple[str, str]]:
    """One "src ||| tgt" pair per line."""
    pairs = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            pairs.append(parse_bitext_line(line, lineno))
    return pairs
