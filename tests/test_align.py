import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from subeval.align import (
    NULL_WORD,
    OOV_PROB,
    BitextPair,
    SentenceAlignment,
    TranslationModel,
    load_model,
    load_pharaoh,
    parse_pharaoh,
    save_model,
    train_aligner,
    viterbi_align,
    write_pharaoh,
)
from subeval.errors import DataError, FormatError


def pair(src, tgt):
    return BitextPair(tuple(src.split()), tuple(tgt.split()))


TOY_CORPUS = [pair("a", "x"), pair("a b", "x y")]


# ---------------------------------------------------------------------------
# EM training


def test_pigeonhole_corpus_concentrates():
    model = train_aligner(TOY_CORPUS, iterations=10, use_diagonal_prior=False)
    assert model.prob("x", "a") > 0.99
    alignment = viterbi_align(model, pair("a b", "x y"))
    assert alignment.links == {(0, 0), (1, 1)}


def test_single_pair_p0_zero_converges_immediately():
    model = train_aligner([pair("a", "x")], iterations=1, p0=0.0)
    assert model.prob("x", "a") == pytest.approx(1.0)


def test_diagonal_prior_breaks_symmetry():
    corpus = [pair("a b", "x y")] * 200
    flat = train_aligner(corpus, iterations=5, use_diagonal_prior=False)
    # Without the prior the two sources stay interchangeable.
    assert flat.prob("x", "a") == pytest.approx(flat.prob("x", "b"))
    diagonal = train_aligner(corpus, iterations=5, use_diagonal_prior=True)
    alignment = viterbi_align(diagonal, pair("a b", "x y"))
    assert alignment.links == {(0, 0), (1, 1)}


def test_table_rows_sum_to_one():
    corpus = [pair("a b c", "x y z"), pair("b c", "y z"), pair("a", "x w")]
    model = train_aligner(corpus, iterations=5)
    for src, row in model.table.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-6), src


def test_log_likelihood_non_decreasing_with_fixed_tension():
    corpus = [pair("a b c", "x y z"), pair("b a", "y x"), pair("c", "z")]
    lls = []
    train_aligner(corpus, iterations=8, update_tension=False, log_likelihoods=lls)
    assert len(lls) == 8
    for earlier, later in zip(lls, lls[1:]):
        assert later >= earlier - 1e-12


def test_training_is_deterministic():
    corpus = [pair("a b c", "x y z"), pair("b a", "y x"), pair("c a", "z x")]
    first = train_aligner(corpus, iterations=5)
    second = train_aligner(corpus, iterations=5)
    assert first.table == second.table
    assert first.tension == second.tension


def test_em_matches_brute_force_oracle_model1():
    corpus = [pair("a b", "x y"), pair("a", "x"), pair("b c", "y z")]
    model = train_aligner(
        corpus, iterations=4, use_diagonal_prior=False, update_tension=False
    )
    oracle_corpus = [(p.source, p.target) for p in corpus]
    expected = oracles.em_train(oracle_corpus, iterations=4)
    for (src, tgt), prob in expected.items():
        key = NULL_WORD if src is None else src
        assert model.prob(tgt, key) == pytest.approx(prob, rel=1e-9)


def test_em_matches_brute_force_oracle_diagonal():
    corpus = [pair("a b c", "x y z"), pair("c b", "z y")]
    model = train_aligner(
        corpus, iterations=3, use_diagonal_prior=True, update_tension=False
    )
    oracle_corpus = [(p.source, p.target) for p in corpus]
    expected = oracles.em_train(oracle_corpus, iterations=3, diagonal=True)
    for (src, tgt), prob in expected.items():
        key = NULL_WORD if src is None else src
        assert model.prob(tgt, key) == pytest.approx(prob, rel=1e-9)


_words = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)
_bitext = st.lists(
    st.builds(
        BitextPair,
        _words.map(tuple),
        _words.map(lambda ws: tuple(w.upper() for w in ws)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    corpus=_bitext,
    diagonal=st.booleans(),
    p0=st.sampled_from([0.0, 0.08, 0.5]),
    update_tension=st.booleans(),
    iterations=st.integers(0, 4),
    tension=st.sampled_from([0.1, 4.0, 14.0]),
)
@example(  # m = 1 and a word repeated within each side
    corpus=[pair("a", "A A"), pair("b a b", "B A")],
    diagonal=True, p0=0.0, update_tension=True, iterations=4, tension=4.0,
)
def test_em_and_viterbi_match_loop_oracle_exactly(
    corpus, diagonal, p0, update_tension, iterations, tension
):
    options = dict(
        iterations=iterations,
        use_diagonal_prior=diagonal,
        p0=p0,
        initial_tension=tension,
        update_tension=update_tension,
    )
    lls, expected_lls = [], []
    model = train_aligner(corpus, log_likelihoods=lls, **options)
    expected = oracles.em_train_loop(corpus, log_likelihoods=expected_lls, **options)
    assert model.table == expected.table
    assert model.tension == expected.tension
    assert lls == expected_lls
    for test_pair in corpus + [pair("a d", "D C A")]:
        assert viterbi_align(model, test_pair).links == oracles.viterbi_loop(expected, test_pair).links


def test_zero_mass_null_row_dropped_without_zero_division():
    corpus = [pair("a b", "A B"), pair("b", "B")]
    with np.errstate(divide="raise", invalid="raise"):
        model = train_aligner(corpus, iterations=3, p0=0.0)
    assert NULL_WORD not in model.table
    assert model.prob("A", NULL_WORD) == OOV_PROB


def test_training_logs_each_iteration(caplog):
    lls = []
    with caplog.at_level(logging.INFO, logger="subeval.align"):
        model = train_aligner(TOY_CORPUS, iterations=3, log_likelihoods=lls)
    messages = [r.getMessage() for r in caplog.records if r.name == "subeval.align"]
    assert len(messages) == 3
    for iteration, (message, ll) in enumerate(zip(messages, lls), start=1):
        assert message.startswith(f"EM iteration {iteration}/3: log-likelihood {ll:.6f}, tension ")
    assert messages[-1].endswith(f"tension {model.tension:.6f}")


def test_tension_clamped_and_updated():
    corpus = [pair("a b", "x y")] * 10
    model = train_aligner(corpus, iterations=3, update_tension=True)
    assert 0.1 <= model.tension <= 14.0


def test_empty_corpus_rejected():
    with pytest.raises(DataError, match="empty corpus"):
        train_aligner([])


def test_invalid_p0_rejected():
    with pytest.raises(DataError):
        train_aligner(TOY_CORPUS, p0=1.0)


def test_bitext_pair_validation():
    with pytest.raises(DataError, match="empty side"):
        BitextPair((), ("x",))
    with pytest.raises(DataError, match="break tokens"):
        BitextPair(("a", "<eob>"), ("x",))


# ---------------------------------------------------------------------------
# Viterbi decoding


def test_viterbi_identity_lexicon():
    model = TranslationModel(
        table={"a": {"a": 1.0}, "b": {"b": 1.0}},
        use_diagonal_prior=False,
    )
    assert viterbi_align(model, pair("a b", "a b")).links == {(0, 0), (1, 1)}


def test_viterbi_oov_follows_diagonal():
    model = TranslationModel(table={}, tension=4.0, use_diagonal_prior=True)
    alignment = viterbi_align(model, pair("a b c", "zzz"))
    # Target position 1/1 sits nearest source position 3/3.
    assert alignment.links == {(2, 0)}


def test_viterbi_ties_prefer_smaller_source_index():
    model = TranslationModel(
        table={"a": {"x": 0.5}, "b": {"x": 0.5}},
        use_diagonal_prior=False,
    )
    assert viterbi_align(model, pair("a b", "x")).links == {(0, 0)}


def test_viterbi_null_wins_only_strictly():
    model = TranslationModel(
        table={NULL_WORD: {"x": 1.0}, "a": {"x": 1e-12}},
        null_prob=0.5,
        use_diagonal_prior=False,
    )
    assert viterbi_align(model, pair("a", "x")).links == set()


# ---------------------------------------------------------------------------
# Pharaoh format


def test_parse_pharaoh_basic():
    assert parse_pharaoh("0-0 1-2").links == {(0, 0), (1, 2)}


def test_parse_pharaoh_empty():
    assert parse_pharaoh("").links == set()


def test_parse_pharaoh_malformed():
    with pytest.raises(FormatError, match="malformed alignment token"):
        parse_pharaoh("0-x")
    with pytest.raises(FormatError, match="malformed alignment token"):
        parse_pharaoh("012")
    # int() would take each of these indices; only ASCII digits are indices.
    for token in ("+1-2", "1_0-2", "\u0661-2"):
        message = f"malformed alignment token {token!r} at column 5"
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_pharaoh(f"0-0 {token}")


def test_parse_pharaoh_column_of_repeated_token():
    with pytest.raises(FormatError, match="'1' at column 5"):
        parse_pharaoh("1-2 1")


def test_crlf_pharaoh_file_parses_as_lf(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(b"0-0 1-2\n\n2-1\n")
    crlf.write_bytes(b"0-0 1-2\r\n\r\n2-1\r\n")
    expected = [{(0, 0), (1, 2)}, set(), {(2, 1)}]
    assert [a.links for a in load_pharaoh(str(crlf))] == expected
    assert load_pharaoh(str(crlf)) == load_pharaoh(str(lf))


def test_load_pharaoh_names_path_and_line(tmp_path):
    path = tmp_path / "align.c2s"
    path.write_text("0-0\n0-0 x-1\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: .*'x-1' at column 5"):
        load_pharaoh(str(path))


def test_parse_pharaoh_negative():
    with pytest.raises(FormatError):
        parse_pharaoh("1--2")


def test_pharaoh_round_trip():
    line = "0-0 1-2 3-1"
    assert write_pharaoh(parse_pharaoh(line)) == "0-0 1-2 3-1"


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_reproduces_viterbi(tmp_path):
    corpus = [pair("a b c", "x y z"), pair("b a", "y x"), pair("c a", "z x")]
    model = train_aligner(corpus, iterations=5)
    path = tmp_path / "model.tsv"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.tension == model.tension
    assert loaded.null_prob == model.null_prob
    for test_pair in corpus:
        assert viterbi_align(loaded, test_pair).links == viterbi_align(model, test_pair).links


def test_load_model_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a header\n")
    with pytest.raises(FormatError, match="bad model header"):
        load_model(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("tension", "nan"), ("tension", "inf"), ("p0", "1.5"), ("p0", "1.0"), ("p0", "-0.1"),
     ("diagonal", "7"), ("diagonal", "-1")],
)
def test_load_model_header_value_out_of_range(tmp_path, field, value):
    cells = ["tension", "4.0", "p0", "0.08", "diagonal", "1"]
    cells[cells.index(field) + 1] = value
    path = tmp_path / "model.tsv"
    path.write_text("\t".join(cells) + "\na\tx\t0.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:1: bad number in model header$"):
        load_model(str(path))


# ---------------------------------------------------------------------------
# Synthetic-corpus quality


def make_monotone_corpus(n_pairs=500, seed=13):
    """One-to-one dictionary, monotone order; the generator alignment is
    the identity on each pair."""
    import random

    rng = random.Random(seed)
    vocab = [f"s{i}" for i in range(50)]
    mapping = {w: f"t{i}" for i, w in enumerate(vocab)}
    corpus = []
    gold = []
    for _ in range(n_pairs):
        length = rng.randint(3, 9)
        src = tuple(rng.choice(vocab) for _ in range(length))
        tgt = tuple(mapping[w] for w in src)
        corpus.append(BitextPair(src, tgt))
        gold.append(frozenset((i, i) for i in range(length)))
    return corpus, gold


def test_monotone_corpus_f1_at_least_09():
    corpus, gold = make_monotone_corpus()
    model = train_aligner(corpus, iterations=5, use_diagonal_prior=True)
    tp = fp = fn = 0
    for bitext, reference in zip(corpus, gold):
        predicted = viterbi_align(model, bitext).links
        tp += len(predicted & reference)
        fp += len(predicted - reference)
        fn += len(reference - predicted)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall)
    assert f1 >= 0.9


# ---------------------------------------------------------------------------
# Library checks on training options


def test_negative_iterations_rejected():
    with pytest.raises(DataError, match="iterations must be non-negative"):
        train_aligner(TOY_CORPUS, iterations=-1)


@pytest.mark.parametrize("tension", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_initial_tension_rejected(tension):
    with pytest.raises(DataError, match="initial tension must be finite"):
        train_aligner(TOY_CORPUS, initial_tension=tension)


# ---------------------------------------------------------------------------
# The array model against the loop oracles: corpus Viterbi, model file
# round trip, and the loader contract

import os  # noqa: E402
import tempfile  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from unittest import mock  # noqa: E402

import subeval.align as align_module  # noqa: E402
from subeval.align import viterbi_align_corpus  # noqa: E402


def _dict_model(table, tension, null_prob, use_diagonal_prior):
    """A model that `oracles.viterbi_loop` can score by dict lookups alone."""
    return SimpleNamespace(
        tension=tension,
        null_prob=null_prob,
        use_diagonal_prior=use_diagonal_prior,
        prob=lambda target, source: table.get(source, {}).get(target, OOV_PROB),
    )


_probabilities = st.one_of(st.sampled_from([0.25, 0.5, 1e-12, OOV_PROB]), st.floats(0.0, 1.0))
# Sources a-c and NULL, targets A-C; the corpus also draws d and e (D and
# E), which no table holds.
_tables = st.dictionaries(
    st.sampled_from(["a", "b", "c", NULL_WORD]),
    st.dictionaries(st.sampled_from(["A", "B", "C"]), _probabilities, min_size=1),
)
_oov_words = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5)
_oov_bitext = st.lists(
    st.builds(
        BitextPair,
        _oov_words.map(tuple),
        _oov_words.map(lambda ws: tuple(w.upper() for w in ws)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    table=_tables,
    corpus=_oov_bitext,
    null_prob=st.sampled_from([0.0, 0.08, 0.5]),
    tension=st.sampled_from([0.1, 4.0, 14.0]),
    diagonal=st.booleans(),
    save_rows=st.sampled_from([1, 2, 1 << 14]),
    load_chars=st.sampled_from([3, 10, 1 << 20]),
)
@example(  # tied sources, no NULL row, p0 = 0
    table={"a": {"A": 0.5}, "b": {"A": 0.5}},
    corpus=[pair("a b", "A E"), pair("b a e", "A")],
    null_prob=0.0, tension=4.0, diagonal=False, save_rows=1, load_chars=3,
)
def test_array_model_matches_loop_oracles(
    table, corpus, null_prob, tension, diagonal, save_rows, load_chars
):
    model = TranslationModel(table, tension=tension, null_prob=null_prob, use_diagonal_prior=diagonal)
    assert model.table == table
    reference = _dict_model(table, tension, null_prob, diagonal)
    expected = [oracles.viterbi_loop(reference, p).links for p in corpus]
    assert [a.links for a in viterbi_align_corpus(model, corpus)] == expected
    assert [viterbi_align(model, p).links for p in corpus] == expected

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(align_module, "_SAVE_BLOCK_ROWS", save_rows), \
            mock.patch.object(align_module, "_LOAD_BLOCK_CHARS", load_chars):
        first, second = os.path.join(tmp, "first.tsv"), os.path.join(tmp, "second.tsv")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as fh_first, open(second, "rb") as fh_second:
            assert fh_first.read() == fh_second.read()
        assert loaded.table == model.table == oracles.load_model_loop(first).table
    assert (loaded.tension, loaded.null_prob, loaded.use_diagonal_prior) == (
        tension, null_prob, diagonal
    )


_HEADER = "tension\t4.0\tp0\t0.08\tdiagonal\t1\n"


def _load_outcome(load, path):
    """The table and parameters `load` reads from `path`, or its error."""
    try:
        model = load(str(path))
    except FormatError as exc:
        return str(exc)
    return model.table, model.tension, model.null_prob, model.use_diagonal_prior


@pytest.mark.parametrize("block_chars", [4, 1 << 20])
@pytest.mark.parametrize(
    "body",
    [
        pytest.param("b\tB\t0.5\na\tB\t0.25\na\tA\t0.25\n", id="unsorted-rows"),
        pytest.param("a\tA\t0.5\na\tB\t0.5\na\tA\t0.75\n", id="duplicate-rows"),
        pytest.param("a\tA\t0.5\n\na\tB\t0.5\n", id="blank-line"),
        pytest.param("a\tA\t0.5\na\tB\t0.5\n\n", id="blank-last-line"),
        pytest.param("a\tA\t0.5\na\t0.5\n", id="two-cells"),
        pytest.param("a\tA\t0.5\na\tB\t0.5\t1\n", id="four-cells"),
        pytest.param("a\tA\t0.5\na\tB\tx\n", id="bad-probability"),
        pytest.param("a\tA\tx\nb\n", id="bad-probability-then-bad-row"),
        pytest.param("a\nb\tA\tx\n", id="bad-row-then-bad-probability"),
        pytest.param("a\tA\t0.5\na\tB\t0.5", id="no-final-newline"),
        pytest.param("a\tA\t0.5\r\na\tB\t0.5\r\n", id="crlf"),
        pytest.param("", id="header-only"),
        pytest.param("é\tÉ\t 1_0e-1 \nß\t€\t1e-300\n", id="non-ascii-and-float-syntax"),
        pytest.param("a\tA\t0.25\na\tB\t0.5\na\tB\t0.75\nb\tA\t1\n", id="sorted-repeated-pair"),
        pytest.param("a\tA\t0.25\na\tB\t0.5\nb\tA\t1\na\tC\t0.75\n", id="sorted-but-last-row"),
    ],
)
def test_load_model_matches_row_loop(tmp_path, monkeypatch, body, block_chars):
    monkeypatch.setattr(align_module, "_LOAD_BLOCK_CHARS", block_chars)
    path = tmp_path / "model.tsv"
    path.write_bytes((_HEADER + body).encode("utf-8"))
    assert _load_outcome(load_model, path) == _load_outcome(oracles.load_model_loop, path)


@pytest.mark.parametrize("block_chars", [4, 1 << 20])
def test_load_model_sorted_repeated_pair_holds_its_last_row_once(tmp_path, monkeypatch, block_chars):
    # `table` keeps a repeated pair's last row whether or not the arrays
    # hold the pair twice; `prob` and `probs` see the arrays.
    monkeypatch.setattr(align_module, "_LOAD_BLOCK_CHARS", block_chars)
    path = tmp_path / "model.tsv"
    path.write_text(_HEADER + "a\tA\t0.25\na\tB\t0.5\na\tB\t0.75\nb\tA\t1\n", encoding="utf-8")
    model = load_model(str(path))
    assert model.probs.tolist() == [0.25, 0.75, 1.0]
    assert [model.prob("A", "a"), model.prob("B", "a"), model.prob("A", "b")] == [0.25, 0.75, 1.0]


@pytest.mark.parametrize("prob", ["nan", "inf", "-inf", "-0.5", "1.5", " 1_0.5 "])
def test_load_model_rejects_probability_outside_unit_interval(tmp_path, prob):
    path = tmp_path / "model.tsv"
    path.write_text(_HEADER + f"a\tA\t0\na\tB\t{prob}\nb\tA\t2\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_model(str(path))
    assert str(info.value) == f"{path}:3: bad probability {prob!r}"
    path.write_text(_HEADER + "a\tA\t0\na\tB\t1\n", encoding="utf-8")
    assert load_model(str(path)).table == {"a": {"A": 0.0, "B": 1.0}}


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(["a", "B", "\t", "\n", "\r\n", "\r", "0.5", "1e-3", "x", ""])),
    block_chars=st.sampled_from([1, 4, 1 << 20]),
)
def test_load_model_matches_row_loop_on_any_body(pieces, block_chars):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(align_module, "_LOAD_BLOCK_CHARS", block_chars):
        path = os.path.join(tmp, "model.tsv")
        with open(path, "wb") as fh:
            fh.write((_HEADER + "".join(pieces)).encode("utf-8"))
        assert _load_outcome(load_model, path) == _load_outcome(oracles.load_model_loop, path)
