"""Replay recorded CLI runs and compare every output byte.

cli_golden.json holds, for each run, the argv, the exit code, stdout and
stderr.  Runs are replayed in-process through `cli.main`, from a
temporary directory that holds the batch records as `batch.json`, so
no path enters an argv or an output.  After a deliberate output change,
re-record with `PYTHONPATH=src python tests/test_cli_golden.py` and say
in CHANGES.md which lines changed.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cmintersect.cli import main

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

FIELDS = (
    '{"D":5,"alpha":[0,1],"beta":[1,1]}',
    '{"D":13,"alpha":[-3,0],"beta":[-3,2]}',
    '{"D":8,"alpha":[-3,-1],"beta":[2,3]}',
)

# a good record, a bad discriminant, then a string, a number and a list
BATCH = [
    {"D": 5, "alpha": [0, 1], "beta": [1, 1]},
    {"D": 4, "alpha": [0, 1], "beta": [1, 1]},
    "D", 5, [5, [0, 1], [1, 1]],
]


def _argvs():
    for field in FIELDS:
        for ell in ("2", "3", "5", "7"):
            base = ["--field", field, "--ell", ell]
            yield ["intersect", *base]
            yield ["intersect", *base, "--trace"]
            yield ["intersect", *base, "--trace", "--format", "table"]
            yield ["special", *base]
            yield ["special", *base, "--format", "table"]
        yield ["primes", "--field", field]
        yield ["primes", "--field", field, "--format", "table"]
    yield ["selftest"]
    yield ["selftest", "--format", "table"]
    yield ["intersect", "--batch", "batch.json", "--ell", "2"]
    yield ["intersect", "--batch", "batch.json", "--ell", "2", "--format", "table"]


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def batch_dir(tmp_path, monkeypatch):
    (tmp_path / "batch.json").write_text(json.dumps(BATCH))
    monkeypatch.chdir(tmp_path)


def test_golden_lists_every_run():
    golden = _golden()
    assert golden["batch"] == BATCH
    assert [run["argv"] for run in golden["runs"]] == list(_argvs())


@pytest.mark.parametrize("index", range(len(list(_argvs()))))
def test_cli_bytes_match_golden(index, batch_dir):
    run = _golden()["runs"][index]
    assert _replay(run["argv"]) == run


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("batch.json").write_text(json.dumps(BATCH))
        runs = [_replay(argv) for argv in _argvs()]
    # one run per line, so a re-recording diffs run by run
    GOLDEN.write_text(f'{{"batch": {json.dumps(BATCH)},\n"runs": [\n'
                      + ",\n".join(json.dumps(run) for run in runs) + "\n]}\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}", file=sys.stderr)
