import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cmintersect
from cmintersect.cli import (EXIT_BROKEN_PIPE, EXIT_HYPOTHESIS_VIOLATED,
                             EXIT_INPUT_ERROR, EXIT_OK, main)

from conftest import n_contexts

WORKED = '{"D":5,"alpha":[0,1],"beta":[1,1]}'


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_intersect_json_report():
    code, text = _run(["intersect", "--field", WORKED, "--ell", "2", "--trace"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["task"] == "intersect"
    assert payload["value"] == [1, 1]
    assert payload["exactness"] == "exact"
    assert payload["mode"] == "monogenic"
    assert payload["ell"] == 2
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert (row["delta"], row["n"], row["f_u"]) == (1, -1, 1)
    assert row["mu"] == [1, 1] and row["scrJ"] == [1, "exact"]


def test_intersect_zero_value():
    code, text = _run(["intersect", "--field", WORKED, "--ell", "3"])
    assert code == EXIT_OK
    assert json.loads(text)["value"] == [0, 1]


def test_trace_rows_sum_to_value():
    field = '{"D":8,"alpha":[-3,-1],"beta":[2,3]}'
    code, text = _run(["intersect", "--field", field, "--ell", "2", "--trace"])
    assert code == EXIT_OK
    payload = json.loads(text)
    total = sum(Fraction(*row["product"]) for row in payload["rows"])
    doubled = any("twice" in w for w in payload["warnings"])
    value = Fraction(*payload["value"])
    assert value == (2 * total if doubled else total)
    assert doubled


def test_primes_report():
    code, text = _run(["primes", "--field", WORKED])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["primes"] == [{"ell": 2, "witnesses": [[1, -1]]}]


def test_special_reports():
    code, text = _run(["special", "--field", WORKED, "--ell", "2"])
    assert code == EXIT_OK
    assert json.loads(text)["value"] == [1, 1]
    bad = '{"D":8,"alpha":[-3,-1],"beta":[2,3]}'
    code, text = _run(["special", "--field", bad, "--ell", "2"])
    assert code == EXIT_OK
    assert json.loads(text)["status"] == "hypotheses-not-met"


def test_round_trip_and_determinism():
    args = ["intersect", "--field", WORKED, "--ell", "2", "--trace"]
    first = _run(args)
    second = _run(args)
    assert first == second
    payload = json.loads(first[1])
    assert json.loads(json.dumps(payload)) == payload


def test_table_format():
    code, text = _run(["intersect", "--field", WORKED, "--ell", "2",
                       "--trace", "--format", "table"])
    assert code == EXIT_OK
    assert text.startswith("intersect ell=2: value = 1/1 (exact, monogenic)")
    assert "delta=1 n=-1 f_u=1" in text


def test_batch_mode(tmp_path):
    batch = tmp_path / "fields.json"
    batch.write_text(json.dumps([
        {"D": 5, "alpha": [0, 1], "beta": [1, 1]},
        {"D": 8, "alpha": [-3, -1], "beta": [2, 3]},
    ]))
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2"])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["value"] == [1, 1]
    assert json.loads(lines[1])["value"] == [8, 1]


def test_batch_continues_past_bad_record(tmp_path):
    batch = tmp_path / "fields.json"
    batch.write_text(json.dumps([
        {"D": 5, "alpha": [0, 1], "beta": [1, 1]},
        {"D": 4, "alpha": [0, 1], "beta": [1, 1]},
        {"D": 8, "alpha": [-3, -1], "beta": [2, 3]},
    ]))
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2"])
    assert code == EXIT_INPUT_ERROR
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == _run(["intersect", "--field", WORKED, "--ell", "2"])[1].strip()
    assert json.loads(lines[1]) == {
        "error": "D = 4 is not a valid non-square discriminant",
        "exit": EXIT_INPUT_ERROR, "record": 1}
    assert json.loads(lines[2])["value"] == [8, 1]
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2",
                       "--format", "table"])
    assert code == EXIT_INPUT_ERROR
    lines = text.splitlines()
    assert lines[1] == "error: record 1: D = 4 is not a valid non-square discriminant"
    assert lines[2].startswith("intersect ell=2: value = 8/1")


def test_batch_rejects_non_object_records(tmp_path, capsys):
    # the message is fixed, not Python's TypeError text, which varies by version
    batch = tmp_path / "fields.json"
    batch.write_text(json.dumps(["D", 5, [5, [0, 1], [1, 1]]]))
    message = "field record must be a JSON object"
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2"])
    assert code == EXIT_INPUT_ERROR
    assert text.splitlines() == [
        json.dumps({"error": message, "exit": EXIT_INPUT_ERROR, "record": i},
                   sort_keys=True, separators=(",", ":"))
        for i in range(3)]
    assert capsys.readouterr().err == f"input error: {message}\n" * 3
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2",
                       "--format", "table"])
    assert code == EXIT_INPUT_ERROR
    assert text.splitlines() == [f"error: record {i}: {message}" for i in range(3)]


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    deep = "[" * 100_000
    batch = tmp_path / "fields.json"
    batch.write_text(deep)
    for argv in (["intersect", "--field", deep, "--ell", "2"],
                 ["intersect", "--batch", str(batch), "--ell", "2"]):
        code, text = _run(argv)
        assert code == EXIT_INPUT_ERROR
        assert text == ""
        assert capsys.readouterr().err.startswith("input error: ")


def test_index_bound_flag_and_violation():
    code, text = _run(["intersect", "--field", WORKED, "--ell", "2",
                       "--index-bound", "3"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["mode"] == "index-bound"
    assert payload["exactness"] == "upper-bound"
    code, _ = _run(["intersect", "--field", WORKED, "--ell", "2",
                    "--index-bound", "2"])
    assert code == EXIT_HYPOTHESIS_VIOLATED


def test_index_bound_must_be_positive(capsys):
    code, text = _run(["intersect", "--field", WORKED, "--ell", "2", "--index-bound", "0"])
    assert (code, text) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err == "input error: index bound must be a positive integer\n"


def test_special_outside_monogenic_mode_is_hypotheses_not_met():
    code, text = _run(["special", "--field", WORKED, "--ell", "2", "--index-bound", "3"])
    assert code == EXIT_OK
    assert text == '{"ell":2,"status":"hypotheses-not-met","task":"special","warnings":[]}\n'


def test_batch_file_must_hold_an_array(tmp_path, capsys):
    batch = tmp_path / "field.json"
    batch.write_text(WORKED)
    code, text = _run(["primes", "--batch", str(batch)])
    assert (code, text) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err == (
        "input error: batch file must hold a JSON array of field records\n")


def test_primes_table_without_candidates():
    # the field's one delta has no branch at all
    field = cmintersect.validate(cmintersect.CMFieldParams(5, -3, 0, 1, 1))
    assert [n_contexts(field, dctx) for dctx in cmintersect.enumerate_delta(field)] == [()]
    code, text = _run(["primes", "--format", "table", "--field",
                       '{"D":5,"alpha":[-3,0],"beta":[1,1]}'])
    assert (code, text) == (EXIT_OK, "no candidate primes\n")


UNRECOGNIZED = "unrecognized arguments"
BOTH_SOURCES = "argument --batch: not allowed with argument --field"


@pytest.mark.parametrize("argv, rejected", [
    (["primes", "--field", WORKED, "--ell", "4", "--trace", "--index-bound", "7"],
     (UNRECOGNIZED, "--ell", "--trace", "--index-bound")),
    (["primes", "--field", WORKED, "--ell", "3"], (UNRECOGNIZED, "--ell")),
    (["special", "--field", WORKED, "--ell", "2", "--trace"], (UNRECOGNIZED, "--trace")),
    (["selftest", "--field", WORKED], (UNRECOGNIZED, "--field")),
    # one field source only: --field is not dropped in favour of --batch
    (["intersect", "--field", WORKED, "--batch", "b.json", "--ell", "2"],
     (BOTH_SOURCES,)),
    (["primes", "--field", WORKED, "--batch", "b.json"], (BOTH_SOURCES,)),
    (["special", "--field", WORKED, "--batch", "b.json", "--ell", "2"],
     (BOTH_SOURCES,)),
])
def test_verbs_reject_flags_they_do_not_read(argv, rejected, capsys):
    # argparse exits with its usage error, which is the input-error class
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    for fragment in rejected:
        assert fragment in captured.err


def test_input_errors():
    code, _ = _run(["intersect", "--field", "{not json", "--ell", "2"])
    assert code == EXIT_INPUT_ERROR
    code, _ = _run(["intersect", "--field", WORKED, "--ell", "4"])
    assert code == EXIT_INPUT_ERROR
    code, _ = _run(["special", "--field", WORKED, "--ell", "9"])
    assert code == EXIT_INPUT_ERROR
    code, _ = _run(["intersect", "--field", WORKED])
    assert code == EXIT_INPUT_ERROR
    code, _ = _run(["intersect", "--field", '{"D":9,"alpha":[0,1],"beta":[1,1]}',
                    "--ell", "2"])
    assert code == EXIT_INPUT_ERROR
    code, _ = _run(["intersect", "--field", '{"D":5}', "--ell", "2"])
    assert code == EXIT_INPUT_ERROR


def test_inline_json_array_is_not_a_path(capsys):
    # a --field value starting with [ is inline JSON, like one starting with {
    for doc in ("[1]", " []"):
        code, text = _run(["intersect", "--field", doc, "--ell", "2"])
        assert (code, text) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == (
            "input error: field document must be a JSON object\n")


def test_field_values_must_be_json_integers():
    for bad in ('{"D":5.9,"alpha":[0,1.7],"beta":[1,true]}',
                '{"D":5.0,"alpha":[0,1],"beta":[1,1]}',
                '{"D":5,"alpha":[0,1],"beta":[1,true]}',
                '{"D":"5","alpha":[0,1],"beta":[1,1]}',
                '{"D":5,"alpha":[0,1],"beta":[1,1],"index_bound":"1"}',
                '{"D":5,"alpha":[0,1,0],"beta":[1,1]}',
                '{"D":5,"alpha":[0,1],"beta":[1]}'):
        code, text = _run(["intersect", "--field", bad, "--ell", "2"])
        assert (code, text) == (EXIT_INPUT_ERROR, ""), bad


def test_missing_field_source_is_an_input_error(capsys):
    code, text = _run(["primes"])
    assert (code, text) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err == "input error: missing --field (or --batch)\n"


def test_unknown_record_keys_are_rejected(tmp_path, capsys):
    # a misspelt index_bound must not fall back to the monogenic default
    typo = '{"D":5,"alpha":[0,1],"beta":[1,1],"index_bond":3,"Beta":[1,1]}'
    message = "field record has unknown keys: Beta, index_bond"
    code, text = _run(["intersect", "--field", typo, "--ell", "2"])
    assert (code, text) == (EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err == f"input error: {message}\n"
    batch = tmp_path / "fields.json"
    batch.write_text(json.dumps([json.loads(typo), json.loads(WORKED)]))
    code, text = _run(["intersect", "--batch", str(batch), "--ell", "2"])
    assert code == EXIT_INPUT_ERROR
    lines = text.splitlines()
    assert json.loads(lines[0]) == {"error": message, "exit": EXIT_INPUT_ERROR,
                                    "record": 0}
    assert lines[1] == _run(["intersect", "--field", WORKED, "--ell", "2"])[1].strip()
    assert len(lines) == 2


def test_duplicate_record_keys_are_rejected(tmp_path, capsys):
    # json.loads alone keeps the last value: this would run the D = 13 field
    dup = '{"D":5,"D":13,"alpha":[-3,0],"beta":[-3,2],"beta":[-3,2]}'
    message = "field record has duplicate keys: D, beta"
    doc = tmp_path / "field.json"
    doc.write_text(dup)
    for source in (dup, str(doc)):
        code, text = _run(["primes", "--field", source])
        assert (code, text) == (EXIT_INPUT_ERROR, "")
        assert capsys.readouterr().err == f"input error: {message}\n"
    # duplicates are reported before unknown keys
    code, _ = _run(["primes", "--field", '{"D":5,"D":5,"Beta":[1,1]}'])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "input error: field record has duplicate keys: D\n"
    batch = tmp_path / "fields.json"
    batch.write_text(f"[{WORKED}, {dup}, {WORKED}]")
    code, text = _run(["primes", "--batch", str(batch)])
    assert code == EXIT_INPUT_ERROR
    lines = text.splitlines()
    assert json.loads(lines[1]) == {"error": message, "exit": EXIT_INPUT_ERROR,
                                    "record": 1}
    worked = _run(["primes", "--field", WORKED])[1].strip()
    assert lines == [worked, lines[1], worked]


def test_main_writes_to_the_current_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["primes", "--field", WORKED]) == EXIT_OK
    assert out.getvalue() == _run(["primes", "--field", WORKED])[1]


def test_field_from_file(tmp_path):
    doc = tmp_path / "field.json"
    doc.write_text(WORKED)
    code, text = _run(["intersect", "--field", str(doc), "--ell", "2"])
    assert code == EXIT_OK
    assert json.loads(text)["value"] == [1, 1]


def test_selftest_passes():
    code, text = _run(["selftest"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["failed"] == 0
    assert payload["passed"] > 400


def test_selftest_makes_the_same_checks_in_the_same_order(monkeypatch):
    # every suite passes, so the output alone cannot show a changed draw
    # order or a dropped check; the log of closed-form calls does
    import hashlib

    from cmintersect import selftest

    log = []

    def logged(name, original):
        def wrapper(*args):
            log.append(f"{name}{args!r}")
            return original(*args)
        return wrapper

    for name in ("count_roots_mod_pk", "hilbert_symbol", "count_invertible_ideals",
                 "count_right_order_ideals", "intersection_number"):
        monkeypatch.setattr(selftest, name, logged(name, getattr(selftest, name)))
    assert selftest.run_selftest()["failed"] == 0
    assert len(log) == 702
    assert hashlib.sha256("\n".join(log).encode()).hexdigest() == (
        "5a7c8e6ff79abb0cc36de9b82e2a45ac9066b8ecf1f0d245a4ab07bab32e8a5a")


def test_cli_import_leaves_out_dataclasses_and_selftest_code():
    # every CLI process pays for what `import cmintersect.cli` and its verbs
    # load; -S keeps modules that site-packages .pth files import out of the
    # picture
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    unwanted = ("dataclasses", "inspect", "cmintersect.matrix_ideals",
                "cmintersect.oracles", "cmintersect.selftest")
    verbs = [["intersect", "--field", WORKED, "--ell", "2", "--trace"],
             ["primes", "--field", WORKED], ["special", "--field", WORKED, "--ell", "2"]]
    code = ("import cmintersect.cli, io, sys; "
            f"[cmintersect.cli.main(argv, out=io.StringIO()) for argv in {verbs!r}]; "
            f"print(*[m for m in {unwanted!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_closed_stdout_ends_the_run_without_a_traceback():
    # the E3 table at ell = 7 is about 88 KB, more than a pipe holds, so
    # the CLI is still writing when the reader closes its end
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "cmintersect", "intersect", "--field",
            '{"D":228,"alpha":[-21,1],"beta":[-22,38]}', "--ell", "7", "--format", "table"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=package_root))
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert first == b"intersect ell=7: value = 115036/1 (upper-bound, monogenic)\n"
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr, stderr
