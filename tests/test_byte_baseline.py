"""Smoke test of scripts/byte_baseline.py on three commands of its set.

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
    assert bb.main([str(a), "--only", "fov-r2", "error-bad-z", "derivation-default"]) == 0
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
        "runs/fov-r2/stdout: differs; fov supports fell 0.00e+00, rose "
        f"{1e-3 / (1 + top):.2e} x (1 + max|h|), 0 by more than 1e-09"
    )
    assert summary == f"1 file(s) differ, {files - 1} identical"

    # A moved witness and a changed discrepancy are reported with the
    # supports' moves on a result that carries them.
    result = b / "runs" / "derivation-default" / "stdout"
    doc = json.loads(result.read_text())
    inst = doc["instances"][1]
    top = max(abs(h) for region in inst["regions"].values() for _, h in region["support"])
    inst["witnesses"][3][0] += 3e-4
    inst["witnesses"][3][1] -= 4e-4
    inst["checks"][0]["discrepancy"] += 2e-6
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation, line, summary = capsys.readouterr().out.splitlines()
    unmoved = "supports fell 0.00e+00, rose 0.00e+00 x (1 + max|h|), 0 by more than 1e-09"
    assert derivation == (
        f"runs/derivation-default/stdout: differs; oracle {unmoved}; rhs {unmoved}"
        f"; largest witness move {5e-4 / (1 + top):.2e} x (1 + max|h|)"
        "; largest discrepancy change 2.00e-06"
    )
    assert summary == f"2 file(s) differ, {files - 2} identical"

    # A fall on one side and a rise on another are reported apart, each as
    # its largest over the instances, relative to its own region.
    tops = {}
    for i, side, delta in [(0, "rhs", -2e-4), (1, "oracle", 3e-5), (1, "rhs", -1e-4)]:
        region = doc["instances"][i]["regions"][side]
        tops[i, side] = 1 + max(abs(h) for _, h in region["support"])
        region["support"][2][1] += delta
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation = capsys.readouterr().out.splitlines()[0]
    fall = max(2e-4 / tops[0, "rhs"], 1e-4 / tops[1, "rhs"])
    assert derivation.startswith(
        f"runs/derivation-default/stdout: differs; oracle supports fell 0.00e+00, rose "
        f"{3e-5 / tops[1, 'oracle']:.2e} x (1 + max|h|), 0 by more than 1e-09; rhs supports "
        f"fell {fall:.2e}, rose 0.00e+00 x (1 + max|h|), 2 by more than 1e-09"
        "; largest witness move"
    )

    # The misses count every support of a side that fell by more than
    # 1e-9 (1 + max|h|), over the instances: here two of three falls, one
    # just above the threshold and one far above it; the third, just
    # below, and every rise count for nothing.
    shutil.copy(a / "runs" / "derivation-default" / "stdout", result)
    doc = json.loads(result.read_text())
    for i, j, delta in [(0, 1, -1.5e-9), (0, 6, -0.5e-9), (1, 3, -7e-3), (1, 4, 5e-3)]:
        region = doc["instances"][i]["regions"]["rhs"]
        top = 1 + max(abs(h) for _, h in region["support"])
        region["support"][j][1] += delta * top
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation = capsys.readouterr().out.splitlines()[0]
    assert derivation == (
        f"runs/derivation-default/stdout: differs; oracle {unmoved}; rhs supports fell "
        "7.00e-03, rose 5.00e-03 x (1 + max|h|), 2 by more than 1e-09"
        "; largest witness move 0.00e+00 x (1 + max|h|); largest discrepancy change 0.00e+00"
    )

    # Moved restart spreads (a direction's and a side's maximum) and a moved
    # iteration count are reported apart from the other leaves: the spreads'
    # largest fall and rise relative to 1 + max|h|, the count's change.
    shutil.copy(a / "runs" / "derivation-default" / "stdout", result)
    doc = json.loads(result.read_text())
    inst = doc["instances"][1]
    top = max(abs(h) for region in inst["regions"].values() for _, h in region["support"])
    inst["restart_spreads"][4] += 2e-5
    inst["diagnostics"]["rhs_restart_spread_max"] -= 3e-6
    inst["diagnostics"]["rhs_iterations_max"] += 13
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation = capsys.readouterr().out.splitlines()[0]
    assert derivation == (
        f"runs/derivation-default/stdout: differs; oracle {unmoved}; rhs {unmoved}"
        "; largest witness move 0.00e+00 x (1 + max|h|); largest discrepancy change 0.00e+00"
        f"; restart spreads fell {3e-6 / (1 + top):.2e}, rose {2e-5 / (1 + top):.2e}"
        " x (1 + max|h|); largest iterations_max change 13"
    )

    # A result whose supports, witnesses, discrepancies, spreads and
    # iteration counts are all the same but whose other diagnostics moved
    # names the moved leaves, the first three with their old and new values.
    shutil.copy(a / "runs" / "derivation-default" / "stdout", result)
    doc = json.loads(result.read_text())
    diagnostics = doc["instances"][1]["diagnostics"]
    old = diagnostics["oracle_diameter"]
    diagnostics["oracle_diameter"] = old + 1
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation = capsys.readouterr().out.splitlines()[0]
    assert derivation == (
        f"runs/derivation-default/stdout: differs; oracle {unmoved}; rhs {unmoved}"
        "; largest witness move 0.00e+00 x (1 + max|h|); largest discrepancy change 0.00e+00"
        "; 1 other leaf(s) differ: "
        f"instances[1].diagnostics.oracle_diameter: {json.dumps(old)} -> {json.dumps(old + 1)}"
    )
    # Every moved leaf is counted, and the first three in the file's order
    # (its keys are sorted) are listed.
    shutil.copy(a / "runs" / "derivation-default" / "stdout", result)
    doc = json.loads(result.read_text())
    moved = []
    for i, inst in enumerate(doc["instances"]):
        for key in sorted(inst["diagnostics"]):
            if not key.endswith(("_restart_spread_max", "_iterations_max")):
                moved.append(f"instances[{i}].diagnostics.{key}: "
                             f'{json.dumps(inst["diagnostics"][key])} -> "moved"')
                inst["diagnostics"][key] = "moved"
    result.write_text(json.dumps(doc))
    assert bb.main(["--compare", str(a), str(b)]) == 1
    derivation = capsys.readouterr().out.splitlines()[0]
    assert len(moved) > 3
    assert derivation.endswith(f"; {len(moved)} other leaf(s) differ: {', '.join(moved[:3])}")


def test_the_set_has_a_two_shift_schedule():
    # --smax-factor 16 gives the shifts 8 and 16 times the scale: one later
    # shift, which starts from the first shift's maximizers.
    bb = _script()
    cmds = bb.commands({f"{w}-b{b}": ["x.json"] for w in bb.workloads.WORKLOADS for b in (0, 1)})
    assert len(cmds) == 47
    assert cmds["verify-smax16"] == (
        ["verify", "--count", "4", "--smax-factor", "16", "--directions", "16",
         "--restarts", "4"], None,
    )
