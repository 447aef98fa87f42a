"""Statistical word alignment.

EM training of a lexical translation model with an optional diagonal
position prior (the fast_align-style reparameterization of IBM Model 2),
Viterbi link extraction, and Pharaoh-format interchange.  Training is
fully deterministic: the table is initialized uniformly over
co-occurring words and no randomness is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DataError, FormatError, open_utf8
from .model import BREAKS

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

    def validate(self, pair: BitextPair, context: str = "?") -> None:
        for i, j in self.links:
            if not (0 <= i < len(pair.source)) or not (0 <= j < len(pair.target)):
                raise DataError(
                    f"alignment link {i}-{j} out of bounds (utterance {context!r})"
                )


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


def _diagonal_weights(j: int, n: int, m: int, tension: float) -> list[float]:
    # 1-based position ratios, as in the reparameterized model.
    weights = [
        math.exp(-tension * abs((i + 1) / m - (j + 1) / n)) for i in range(m)
    ]
    z = sum(weights)
    return [w / z for w in weights]


def _log_likelihood_and_counts(
    corpus: Sequence[BitextPair],
    model: TranslationModel,
) -> tuple[float, dict[str, dict[str, float]], float]:
    """One E-step: returns (log-likelihood, expected counts, tension
    gradient per target token)."""
    counts: dict[str, dict[str, float]] = {}
    log_likelihood = 0.0
    grad = 0.0
    n_target_tokens = 0
    for pair in corpus:
        m, n = len(pair.source), len(pair.target)
        n_target_tokens += n
        for j, tgt in enumerate(pair.target):
            if model.use_diagonal_prior:
                weights = _diagonal_weights(j, n, m, model.tension)
            else:
                weights = [1.0 / m] * m
            scores = [model.null_prob * model.prob(tgt, NULL_WORD)]
            for i, src in enumerate(pair.source):
                scores.append(
                    (1.0 - model.null_prob) * weights[i] * model.prob(tgt, src)
                )
            z = sum(scores)
            log_likelihood += math.log(z)
            posterior = [s / z for s in scores]
            counts.setdefault(NULL_WORD, {}).setdefault(tgt, 0.0)
            counts[NULL_WORD][tgt] += posterior[0]
            for i, src in enumerate(pair.source):
                counts.setdefault(src, {}).setdefault(tgt, 0.0)
                counts[src][tgt] += posterior[i + 1]
            if model.use_diagonal_prior:
                h = [-abs((i + 1) / m - (j + 1) / n) for i in range(m)]
                expected_h = sum(w * hi for w, hi in zip(weights, h))
                grad += sum(
                    posterior[i + 1] * (h[i] - expected_h) for i in range(m)
                )
    return log_likelihood, counts, grad / n_target_tokens


def _normalize_counts(counts: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    table = {}
    for src, row in counts.items():
        total = sum(row.values())
        if total == 0.0:
            # NULL gets no mass when p0 = 0; leave the row out entirely.
            continue
        table[src] = {tgt: c / total for tgt, c in row.items()}
    return table


def _uniform_init(corpus: Sequence[BitextPair]) -> dict[str, dict[str, float]]:
    cooc: dict[str, set[str]] = {NULL_WORD: set()}
    for pair in corpus:
        cooc[NULL_WORD].update(pair.target)
        for src in pair.source:
            cooc.setdefault(src, set()).update(pair.target)
    return {
        src: {tgt: 1.0 / len(targets) for tgt in sorted(targets)}
        for src, targets in cooc.items()
    }


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
    log-likelihood observed at the start of each iteration."""
    if not corpus:
        raise DataError("empty corpus")
    if not (0.0 <= p0 < 1.0):
        raise DataError("p0 must be in [0, 1)")
    model = TranslationModel(
        table=_uniform_init(corpus),
        tension=initial_tension,
        null_prob=p0,
        use_diagonal_prior=use_diagonal_prior,
    )
    for _ in range(iterations):
        ll, counts, grad = _log_likelihood_and_counts(corpus, model)
        if log_likelihoods is not None:
            log_likelihoods.append(ll)
        model.table = _normalize_counts(counts)
        if use_diagonal_prior and update_tension:
            model.tension = min(14.0, max(0.1, model.tension + grad))
    return model


def viterbi_align(model: TranslationModel, pair: BitextPair) -> SentenceAlignment:
    """Best source link (or NULL, omitted) per target word; ties go to
    the smaller source index, NULL wins only strictly."""
    m, n = len(pair.source), len(pair.target)
    links = set()
    for j, tgt in enumerate(pair.target):
        if model.use_diagonal_prior:
            weights = _diagonal_weights(j, n, m, model.tension)
        else:
            weights = [1.0 / m] * m
        null_score = model.null_prob * model.prob(tgt, NULL_WORD)
        best_i = None
        best_score = -1.0
        for i, src in enumerate(pair.source):
            score = (1.0 - model.null_prob) * weights[i] * model.prob(tgt, src)
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
