"""Run every demo and compare its stdout byte for byte with a recording.

demo_golden.json maps each script in demos/ to the stdout it printed
when recorded.  Each demo runs in a fresh interpreter from a temporary
directory, with the directory of the package this process imported
first on its PYTHONPATH, so it runs the same code as the other tests.
After a deliberate output change, re-record with
`PYTHONPATH=src python tests/test_demo_golden.py` and say in CHANGES.md
which lines changed.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import cmintersect

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().with_name("demo_golden.json")
SCRIPTS = sorted(path.name for path in DEMOS.glob("*.py"))


def _stdout(script: str, cwd) -> str:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    package_root = str(Path(cmintersect.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout.decode("utf-8")


def test_golden_lists_every_demo():
    assert sorted(json.loads(GOLDEN.read_text())) == SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_stdout_matches_golden(script, tmp_path):
    assert _stdout(script, tmp_path) == json.loads(GOLDEN.read_text())[script]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {script: _stdout(script, tmp) for script in SCRIPTS}
    # one demo per line, so a re-recording diffs demo by demo
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(s)}: {json.dumps(o)}"
                                         for s, o in outputs.items()) + "\n}\n")
    print(f"recorded {len(outputs)} demos in {GOLDEN}", file=sys.stderr)
