"""Replay the behaviour corpus (corpus.json): every row's exit code, stderr,
stdout and output file, as the row recorded them."""

from __future__ import annotations

import pytest

import corpus
from tdcode.cli import _FIELDS

ROWS = corpus.load()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_row_replays(row, workdir):
    seen = corpus.run(row["argv"], corpus.unpack(row), workdir)
    assert seen == {key: row[key] for key in seen}


def test_rows_cover_the_stream_fields():
    from test_cli import HEADER_PROBES

    names = {row["name"] for row in ROWS}
    assert len(names) == len(ROWS)
    for p in HEADER_PROBES:
        assert {f"decode/probe/{p.id}", f"channel/probe/{p.id}"} <= names, p.id
    for key in _FIELDS:
        for mode in ("code", "fse"):
            assert f"decode/field/{mode}/{key}-unknown" in names
    # a run whose stderr says nothing succeeded, and every error is one line
    for row in ROWS:
        assert (row["rc"] == 0) == (row["stderr"] == ""), row["name"]
        assert row["stderr"].count("\n") <= 1 and "Traceback" not in row["stderr"], row["name"]
