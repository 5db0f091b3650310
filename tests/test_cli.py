"""Command line interface: pipes, exit codes, error lines."""

import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adinkra.cli import run


def invoke(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_produces_canonical_json(capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["build", "--n", "2"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["n"] == 2
    assert len(doc["edges"]) == 4
    # default output is a complete adinkra, ready for verification
    assert all(row["dashed"] is not None for row in doc["edges"])
    assert all(row["height"] is not None for row in doc["nodes"])


def test_build_skeleton_leaves_fields_null(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "3", "--code", "1111", "--skeleton"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 16
    assert all(row["dashed"] is None for row in doc["edges"])


def test_verify_accepts_built_adinkra(capsys, monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "3"])
    code, out, err = invoke(capsys, monkeypatch, ["verify"], stdin=built)
    assert code == 0 and err == ""
    assert "dashing: ok" in out
    assert "heights: ok" in out


def test_verify_flags_bad_dashing(capsys, monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "2"])
    doc = json.loads(built)
    for row in doc["edges"]:
        row["dashed"] = False  # even parity everywhere
    code, out, err = invoke(
        capsys, monkeypatch, ["verify"], stdin=json.dumps(doc)
    )
    assert code == 1
    assert "violation" in out
    assert "plaquette" in out


def test_verify_requires_dashing(capsys, monkeypatch):
    _, built, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "2", "--skeleton"]
    )
    code, _, err = invoke(capsys, monkeypatch, ["verify"], stdin=built)
    assert code == 2
    assert err.startswith("error: input:")


def test_build_baobab_reconstruct_pipe_is_identity(capsys, monkeypatch):
    _, built, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "3", "--code", "1111"]
    )
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    assert json.loads(baobab)["n"] == 3
    code, rebuilt, _ = invoke(
        capsys, monkeypatch, ["reconstruct"], stdin=baobab
    )
    assert code == 0
    assert rebuilt == built


def test_reconstruct_writes_trace(tmp_path, capsys, monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "2"])
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    trace_path = tmp_path / "steps.jsonl"
    code, _, _ = invoke(
        capsys,
        monkeypatch,
        ["reconstruct", "--trace", str(trace_path)],
        stdin=baobab,
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines  # at least one inference recorded
    assert all(json.loads(line)["gate"] in ("NDXOR", "DXOR") for line in lines)


def test_dof_outputs(capsys, monkeypatch):
    code, out, _ = invoke(capsys, monkeypatch, ["dof", "--n", "3", "--k", "1"])
    assert code == 0 and out.strip() == "8"
    code, out, _ = invoke(
        capsys, monkeypatch, ["dof", "--n", "3", "--directed"]
    )
    assert code == 0 and out.strip().split() == ["3", "4"]


def test_encode_inject_decode_pipeline(capsys, monkeypatch):
    code, wire, _ = invoke(
        capsys,
        monkeypatch,
        ["encode", "--family", "n=3;code=1111;scheme=dashing",
         "--message", "10110100"],
    )
    assert code == 0 and wire.endswith("\n")
    code, hit, err = invoke(
        capsys,
        monkeypatch,
        ["inject", "--flips", "1", "--seed", "7"],
        stdin=wire,
    )
    assert code == 0
    assert "flipped positions:" in err
    code, out, err = invoke(capsys, monkeypatch, ["decode"], stdin=hit)
    assert code == 0
    assert out.strip() == "10110100"
    assert "corrected positions:" in err


def test_decode_reports_uncorrectable(capsys, monkeypatch):
    _, wire, _ = invoke(
        capsys,
        monkeypatch,
        ["encode", "--family", "quaternion", "--message", "101"],
    )
    from adinkra.codec import format_wire, parse_wire

    broken = format_wire(parse_wire(wire).flip([0, 3]))
    code, _, err = invoke(capsys, monkeypatch, ["decode"], stdin=broken)
    assert code == 1
    assert err.startswith("error: uncorrectable:")


def test_decode_reports_ambiguity_on_the_square(capsys, monkeypatch):
    _, wire, _ = invoke(
        capsys,
        monkeypatch,
        ["encode", "--family", "n=2;code=;scheme=dashing", "--message", "101"],
    )
    from adinkra.codec import format_wire, parse_wire

    broken = format_wire(parse_wire(wire).flip([1]))
    code, _, err = invoke(capsys, monkeypatch, ["decode"], stdin=broken)
    assert code == 1
    assert err.startswith("error: ambiguous:")


def test_distance(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, monkeypatch, ["distance", "--family", "quaternion"]
    )
    assert code == 0 and out.strip() == "3"


def test_export_dot_adinkra_and_baobab(capsys, monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "2"])
    code, dot, _ = invoke(capsys, monkeypatch, ["export-dot"], stdin=built)
    assert code == 0
    assert dot.startswith("graph") or dot.startswith("digraph")
    assert "style=dashed" in dot
    assert "rank=same" in dot
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    code, dot, _ = invoke(capsys, monkeypatch, ["export-dot"], stdin=baobab)
    assert code == 0
    assert "penwidth" in dot or "label" in dot


def test_malformed_input_exits_two(capsys, monkeypatch):
    code, _, err = invoke(capsys, monkeypatch, ["verify"], stdin="not json")
    assert code == 2
    assert err.startswith("error: input:")


# command that reads the document, and the damage done to it
MALFORMED = {
    "node without label": (
        "verify", lambda doc: doc["nodes"][0].pop("label")),
    "non-string generator": (
        "verify", lambda doc: doc.update(code_generators=[5])),
    "non-integer color": (
        "reconstruct", lambda doc: doc["tree_edges"][0].update(color="x")),
    "edge without u": (
        "reconstruct", lambda doc: doc["tree_edges"][0].pop("u")),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_malformed_fields_exit_two_with_one_line(capsys, monkeypatch, probe):
    command, damage = MALFORMED[probe]
    _, text, _ = invoke(capsys, monkeypatch, ["build", "--n", "2"])
    if command == "reconstruct":
        _, text, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=text)
    doc = json.loads(text)
    damage(doc)
    code, out, err = invoke(
        capsys, monkeypatch, [command], stdin=json.dumps(doc)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: input:") and err.count("\n") == 1


def test_size_guard_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "4")
    code, _, err = invoke(
        capsys,
        monkeypatch,
        ["distance", "--family", "n=3;code=;scheme=dashing"],
    )
    assert code == 2
    assert err.startswith("error: size-guard:")


@pytest.mark.skipif(
    shutil.which("adinkra") is None,
    reason="no 'adinkra' executable on PATH; the console script exists "
    "only after `pip install --no-build-isolation -e .`",
)
def test_console_script_is_installed():
    proc = subprocess.run(
        ["adinkra", "dof", "--n", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_console_script_entry_point_is_declared(capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"adinkra": "adinkra.cli:main"}
    # call the target the way the generated wrapper does
    module, func = scripts["adinkra"].split(":")
    main = getattr(importlib.import_module(module), func)
    monkeypatch.setattr(sys, "argv", ["adinkra", "dof", "--n", "2"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adinkra.cli", "distance", "--family",
         "quaternion"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_cli_import_pulls_in_no_numeric_stack():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, adinkra.cli; "
         "print(sorted({'numpy', 'numba'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
