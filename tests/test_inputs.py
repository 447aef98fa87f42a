"""Every input becomes numbered lines one way (`errors.numbered_lines`):
a file or string loses a leading byte order mark, and lines end at each
LF alone.  Every output file is written one way (`errors.output_file`):
a regular file is replaced only when its writer ends without an error."""

import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from subeval import cli
from subeval.align import load_bitext, load_model, save_model
from subeval.errors import FormatError, numbered_lines, output_file, stream_file
from subeval.links import load_pharaoh
from subeval.markers import load_marked_text
from subeval.srt import _add_index, load_srt, parse_srt
from subeval.textproc import load_conllu

DATA = os.path.join(os.path.dirname(__file__), "data")
MICRO = os.path.join(DATA, "micro")
GOLDEN = os.path.join(DATA, "golden")
BOM = "\ufeff".encode("utf-8")


def _model_fields(path):
    model = load_model(path)
    return model.tension, model.null_prob, model.use_diagonal_prior, model.table


# Each input kind: how it is read, and a file of that kind, or its text.
_INPUTS = {
    "marked text": (load_marked_text, os.path.join(MICRO, "captions.hyp")),
    "SRT": (load_srt, os.path.join(GOLDEN, "significance.a.srt")),
    "CoNLL-U": (load_conllu, os.path.join(MICRO, "captions.hyp.conllu")),
    "Pharaoh": (load_pharaoh, os.path.join(MICRO, "align.c2s")),
    "bitext": (load_bitext, os.path.join(MICRO, "bitext.txt")),
    "config": (
        lambda path: dict(stream_file(path, cli._parse_config_file)),
        b"# eval settings\nformat = srt\nmax-cpl 37\nlenient true\n",
    ),
    "value": (
        lambda path: list(stream_file(path, cli._read_values, float, "a number")),
        b"0.5\n\n0.25\n",
    ),
    "model": (_model_fields, os.path.join(GOLDEN, "model.tsv")),
}


@pytest.mark.parametrize("kind", list(_INPUTS))
def test_bom_prefixed_file_reads_as_without_it(tmp_path, kind):
    read, source = _INPUTS[kind]
    if isinstance(source, str):
        with open(source, "rb") as fh:
            source = fh.read()
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(source)
    marked.write_bytes(BOM + source)
    assert read(str(marked)) == read(str(plain))


def test_a_second_bom_is_text_in_an_srt_file_but_not_in_a_string(tmp_path):
    text = "1\n00:00:01,000 --> 00:00:02,000\nhi\n"
    assert parse_srt("\ufeff\ufeff" + text) == parse_srt(text)
    path = tmp_path / "twice.srt"
    path.write_bytes(BOM + BOM + text.encode("utf-8"))
    with pytest.raises(FormatError, match=r":1: expected cue index line, got '\\ufeff1'$"):
        load_srt(str(path))


_LINE_TEXT = st.lists(st.sampled_from(["a", " ", "\r", "\n", "\ufeff", "é"]), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(_LINE_TEXT)
def test_string_lines_are_the_lines_of_the_same_file(text):
    as_file = io.StringIO(text.lstrip("\ufeff"), newline="\n")
    assert list(numbered_lines(text)) == list(numbered_lines(as_file))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=20))
def test_add_index_is_a_set_add(indices):
    runs, seen = [], set()
    for index in indices:
        assert _add_index(runs, index) == (index not in seen)
        seen.add(index)
        # Each run ends before the next starts, so no two runs touch.
        assert all(a < b for a, b in zip(runs, runs[1:]))
        assert {i for s, e in zip(runs[::2], runs[1::2]) for i in range(s, e)} == seen


def test_output_file_replaces_its_target_only_on_success(tmp_path):
    target = tmp_path / "model.tsv"
    target.write_bytes(b"earlier\n")
    with pytest.raises(RuntimeError):
        with output_file(str(target)) as write:
            write("partial\n")
            raise RuntimeError
    # The target is as it was, and no temporary file is left beside it.
    assert target.read_bytes() == b"earlier\n"
    assert list(tmp_path.iterdir()) == [target]
    save_model(load_model(os.path.join(GOLDEN, "model.tsv")), str(target))
    assert list(tmp_path.iterdir()) == [target]
    with open(os.path.join(GOLDEN, "model.tsv"), "rb") as fh:
        assert target.read_bytes() == fh.read()
