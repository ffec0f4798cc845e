"""Smoke test of scripts/byte_baseline.py on two commands of its set.

The full set takes about half a minute and runs outside the test suite:
    python scripts/byte_baseline.py OUT [--src SRC]
"""

import importlib.util
import json
import shutil
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_baseline.py"


def _script():
    spec = importlib.util.spec_from_file_location("byte_baseline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_a_moved_support(tmp_path, capsys):
    bb = _script()
    a, b = tmp_path / "a", tmp_path / "b"
    assert bb.main([str(a), "--only", "fov-r2", "error-bad-z"]) == 0
    assert (a / "runs" / "error-bad-z" / "exit_code").read_text() == "2\n"
    shutil.copytree(a, b)
    files = len(bb._hashes(a))
    capsys.readouterr()
    assert bb.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"0 file(s) differ, {files} identical\n"

    result = b / "runs" / "fov-r2" / "stdout"
    doc = json.loads(result.read_text())
    support = doc["instances"][0]["regions"]["fov"]["support"]
    top = max(abs(h) for _, h in support)
    support[5][1] += 1e-3
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    line, summary = capsys.readouterr().out.splitlines()
    assert line == (
        "runs/fov-r2/stdout: differs; largest support change "
        f"{1e-3 / (1 + top):.2e} x (1 + max|h|)"
    )
    assert summary == f"1 file(s) differ, {files - 1} identical"
