"""The report's JSON and TSV writers against the per-field writers they
replaced (`tests/oracles.py`)."""

from hypothesis import given, settings, strategies as st

import oracles
from subeval.report import TSV_COLUMNS, EvaluationReport, report_to_json, report_to_tsv

_VALUE = st.one_of(st.none(), st.sampled_from([0, 1, 0.0, 1.0, 0.005, 0.995]), st.floats())
_RATE_FIELDS = [name for name in EvaluationReport.__dataclass_fields__
                if name not in ("system_name", "config_echo")]


@settings(max_examples=500, deadline=None)
@given(
    st.text(),
    st.fixed_dictionaries({name: _VALUE for name in _RATE_FIELDS}),
    st.dictionaries(st.text(max_size=5), st.one_of(st.none(), st.integers(), st.text(max_size=5))),
)
def test_report_writers_match_oracle(system_name, values, config_echo):
    report = EvaluationReport(system_name=system_name, config_echo=config_echo, **values)
    assert report_to_json(report) == oracles.report_to_json(report)
    assert report_to_tsv(report) == oracles.report_to_tsv(report)


def test_tsv_columns_match_oracle():
    assert TSV_COLUMNS == oracles.TSV_COLUMNS
