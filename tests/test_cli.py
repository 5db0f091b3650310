"""Command line interface: pipes, exit codes, error lines."""

import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adinkra import Baobab, Edge, InputError, from_json
from adinkra.cli import run
from adinkra.dot import adinkra_to_dot, baobab_to_dot


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


def test_verify_reports_a_missing_file(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.json")
    code, out, err = invoke(capsys, monkeypatch, ["verify", missing])
    assert code == 2 and out == ""
    assert err == ("error: io: [Errno 2] No such file or directory: "
                   f"{missing!r}\n")


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


def test_traces_are_built_only_for_reconstruct_trace(
        tmp_path, capsys, monkeypatch):
    # propagation keeps values; a trace builds its steps when read, and
    # only `reconstruct --trace` reads them (once per gate)
    from adinkra import baobab as baobab_mod

    builds = []

    def counted(*firings, real=baobab_mod._gate_steps):
        builds.append(firings[0])
        return real(*firings)

    monkeypatch.setattr(baobab_mod, "_gate_steps", counted)
    _, built, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "3", "--code", "1111"]
    )
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    code, rebuilt, _ = invoke(
        capsys, monkeypatch, ["reconstruct"], stdin=baobab
    )
    assert code == 0 and rebuilt == built and builds == []
    trace_path = tmp_path / "steps.jsonl"
    code, rebuilt, _ = invoke(
        capsys, monkeypatch, ["reconstruct", "--trace", str(trace_path)],
        stdin=baobab,
    )
    assert code == 0 and rebuilt == built
    assert builds == ["NDXOR", "DXOR"]
    # 16 edges: 8 from the 8 slots by NDXOR, 12 from 4 pins by DXOR
    assert trace_path.read_text().count("\n") == 8 + 12


def test_dof_outputs(capsys, monkeypatch):
    code, out, _ = invoke(capsys, monkeypatch, ["dof", "--n", "3", "--k", "1"])
    assert code == 0 and out.strip() == "8"
    code, out, _ = invoke(
        capsys, monkeypatch, ["dof", "--n", "3", "--directed"]
    )
    assert code == 0 and out.strip().split() == ["3", "4"]


@pytest.mark.parametrize("extra", [[], ["--directed"]])
def test_dof_refuses_n_above_the_size_guard(capsys, monkeypatch, extra):
    # 2**20000 has more digits than Python will print
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    code, out, err = invoke(capsys, monkeypatch,
                            ["dof", "--n", "20000", *extra])
    assert code == 2 and out == ""
    assert err == (
        "error: size-guard: degree-of-freedom count needs 2**20000 words, "
        "above the guard of 2**20; set ADINKRA_SIZE_GUARD to raise the "
        "limit\n")


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


def damaged_block(capsys, monkeypatch, flips):
    _, wire, _ = invoke(
        capsys,
        monkeypatch,
        ["encode", "--family", "n=3;code=1111;scheme=dashing",
         "--message", "10110100"],
    )
    from adinkra.codec import format_wire, parse_wire

    return format_wire(parse_wire(wire).flip(flips))


def test_correction_walk_is_refused_above_the_size_guard(
        capsys, monkeypatch):
    # plaquettes have 4 edges: a 2-flip search has at most 4**2 leaves,
    # above a guard of 2**3, so a second flip stops the search, and a
    # single flip is found first
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "3")
    broken = damaged_block(capsys, monkeypatch, [7, 9])
    code, out, err = invoke(
        capsys, monkeypatch, ["decode", "--max-flips", "2"], stdin=broken)
    assert code == 2 and out == ""
    assert err.startswith("error: size-guard:") and err.count("\n") == 1
    broken = damaged_block(capsys, monkeypatch, [7])
    code, out, _ = invoke(
        capsys, monkeypatch, ["decode", "--max-flips", "2"], stdin=broken)
    assert (code, out) == (0, "10110100\n")


def test_two_flips_within_the_size_guard_are_ambiguous(capsys, monkeypatch):
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    broken = damaged_block(capsys, monkeypatch, [7, 9])
    code, _, err = invoke(
        capsys, monkeypatch, ["decode", "--max-flips", "2"], stdin=broken)
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


# sha256 and line count of `export-dot` on the n=3, code 1111 adinkra, on
# its baobab, and on that baobab with two more arrows pinned on edges
# that carry no bit (one toward its end u, one toward its end v)
EXPORT_DOT = {
    "adinkra": (
        "da13a4689eaf09176583d54682dc49c69b128a00daa943106401a5459c45669e",
        29),
    "baobab": (
        "4a881509940125d706b212ee95a539887db188a062fcf46f1ce4e1400575988c",
        18),
    "baobab with pins off the slots": (
        "67d552430dbe70a2074b6b9ce1cffaf677cc1c4558750b55fcdc8c18fadf14bc",
        20),
}


def test_export_dot_output_is_pinned(capsys, monkeypatch):
    _, built, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "3", "--code", "1111"])
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    doc = json.loads(baobab)
    doc["pinned"] += [
        {"u": "0001", "v": "0110", "color": 1, "toward": "0001"},
        {"u": "0010", "v": "0011", "color": 4, "toward": "0011"},
    ]
    inputs = dict(zip(EXPORT_DOT, (built, baobab, json.dumps(doc))))
    for name, text in inputs.items():
        code, dot, err = invoke(capsys, monkeypatch, ["export-dot"], stdin=text)
        assert code == 0 and err == ""
        got = hashlib.sha256(dot.encode()).hexdigest(), dot.count("\n")
        assert (name, got) == (name, EXPORT_DOT[name])


def drop(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("damage, message", [
    (lambda a: a.with_dashing(drop(a.dashing, Edge(6, 7, 3))),
     "dashing missing for edges: [Edge(u=6, v=7, color=3)]"),
    (lambda a: a.with_dashing({**a.dashing, Edge(0, 1, 3): 0}),
     "dashing sign for Edge(u=0, v=1, color=3) must be +1 or -1, got 0"),
    (lambda a: a.with_heights(drop(a.heights, 1)),
     "heights missing for nodes: [1]"),
    (lambda a: a.with_heights({**a.heights, 1: 0.5}),
     "height for '001' must be an integer"),
    (lambda a: dataclasses.replace(a, nodes=a.nodes[::-1]),
     "graph is not the quotient of its code"),
], ids=["partial-dashing", "zero-sign", "partial-heights", "float-height",
        "not-the-quotient"])
def test_export_dot_refuses_a_damaged_adinkra(damage, message, capsys,
                                              monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "3"])
    with pytest.raises(InputError) as got:
        adinkra_to_dot(damage(from_json(built)))
    assert str(got.value) == message


SLOT = Edge(0, 4, 1)  # the first slot of the n=3 baobab, pinned toward 4


@pytest.mark.parametrize("damage, message", [
    (lambda b: dataclasses.replace(b, bits=drop(b.bits, SLOT)),
     "baobab bits must cover exactly its 7 slot edges"),
    (lambda b: dataclasses.replace(b, bits={**b.bits, Edge(5, 7, 2): 1}),
     "baobab bits must cover exactly its 7 slot edges"),
    (lambda b: dataclasses.replace(b, bits={**b.bits, SLOT: 7}),
     "bit 0 of the baobab slots must be 0 or 1, got 7"),
    (lambda b: dataclasses.replace(b, pinned={**b.pinned, SLOT: 2}),
     "head 2 is not an endpoint of Edge(u=0, v=4, color=1)"),
], ids=["dropped-slot", "extra-bit", "bit-seven", "head-off-edge"])
def test_export_dot_refuses_a_damaged_baobab(damage, message, capsys,
                                             monkeypatch):
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "3"])
    _, text, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    with pytest.raises(InputError) as got:
        baobab_to_dot(damage(Baobab.from_json(text)))
    assert str(got.value) == message


@pytest.mark.parametrize("command", ["export-dot", "reconstruct"])
def test_baobab_with_a_long_generator_exits_two_with_one_line(
        command, capsys, monkeypatch):
    _, built, _ = invoke(
        capsys, monkeypatch, ["build", "--n", "3", "--code", "1111"])
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    doc = json.loads(baobab)
    doc["code_generators"] = ["11110"]
    code, out, err = invoke(
        capsys, monkeypatch, [command], stdin=json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == "error: input: code length 5 must equal n + k = 3 + 1\n"


@pytest.mark.parametrize("text, message", [
    ("not json", "invalid JSON: Expecting value"),
    ("5", "expected a JSON object, got int"),
    ("[{}]", "expected a JSON object, got list"),
    ("[]", "expected a JSON object, got list"),
    ('"x"', "expected a JSON object, got str"),
    ("{}", "JSON is neither an adinkra nor a baobab"),
])
def test_export_dot_names_what_is_wrong_with_its_input(
        text, message, capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["export-dot"], stdin=text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: input: {message}")


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
    "boolean edge color": (
        "verify", lambda doc: doc["edges"][0].update(color=True)),
    "boolean baobab color": (
        "reconstruct", lambda doc: doc["tree_edges"][0].update(color=True)),
    "swapped baobab tree edge": (
        "reconstruct", lambda doc: doc["tree_edges"][0].update(
            u=doc["tree_edges"][0]["v"], v=doc["tree_edges"][0]["u"])),
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
    # every family's distance is closed form, guarded only by the n of
    # a dashing family's header: the quaternion's 2**3 kernel words are
    # not walked
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "2")
    code, _, err = invoke(
        capsys,
        monkeypatch,
        ["distance", "--family", "n=3;code=;scheme=dashing"],
    )
    assert code == 2
    assert err.startswith("error: size-guard:")
    for family, want in (("quaternion", "3\n"),
                         ("n=2;code=;scheme=dashing", "2\n")):
        code, out, _ = invoke(capsys, monkeypatch,
                              ["distance", "--family", family])
        assert code == 0 and out == want


def test_oversized_build_exits_two_with_one_line(capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["build", "--n", "40"])
    assert code == 2 and out == ""
    assert err.startswith("error: size-guard:") and err.count("\n") == 1


def test_a_header_with_a_4000_digit_n_exits_two_with_one_short_line(
        capsys, monkeypatch):
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    family = f"n={'9' * 4000};code=;scheme=dashing"
    code, out, err = invoke(
        capsys, monkeypatch, ["encode", "--family", family, "--message", "0"])
    assert code == 2 and out == ""
    assert err == (
        "error: size-guard: quotient construction needs 2**(4000 digits) "
        "words, above the guard of 2**20; set ADINKRA_SIZE_GUARD to raise "
        "the limit\n")


def test_a_header_with_a_non_ascii_digit_n_exits_two_with_one_line(
        capsys, monkeypatch):
    family = "n=\u0663;code=;scheme=dashing"  # an Arabic-Indic three
    code, out, err = invoke(capsys, monkeypatch,
                            ["encode", "--family", family, "--message",
                             "1010101"])
    assert (code, out) == (2, "")
    assert err == "error: input: family n must be an integer: '\u0663'\n"


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


# ---------- import surface ----------

# `adinkra.__all__` when the package imported every submodule eagerly,
# less the since removed `gf2_span`
PACKAGE_ALL = [
    "Adinkra", "AdinkraError", "AffineCode", "AmbiguousCorrectionError",
    "Baobab", "ContradictionError", "Correction", "DT", "DecodeResult",
    "DoublyEvenCode", "Edge", "EdgeBitVector", "Family", "GammaSet",
    "GateStep", "GateTrace", "GradedSumError", "I_UNIT", "InputError",
    "InsufficientPinningError", "LinearBinaryCode", "MINUS_ONE", "Monomial",
    "MonomialMatrix", "ONE", "Plaquette", "QUATERNION_FAMILY", "ReplayError",
    "SizeGuardError", "Syndrome", "UncorrectableError",
    "UnderDeterminedError", "VerificationReport", "ZERO", "adinkra_to_gamma",
    "algebra", "anticommutator", "baobab", "bit_string", "boson_nodes",
    "build_chromotopology", "build_quotient_skeleton",
    "canonical_quaternion_matrices", "canonical_representative",
    "check_block_transpose", "check_garden", "check_quaternion",
    "choose_pinned_arrows", "codec", "codes", "color_bit", "correct",
    "count_valid_dashings", "dashing_dof", "decode", "directed_dof_bounds",
    "dxor", "edge_between", "encode", "errors", "extract_baobab",
    "family_code", "fermion_nodes", "fill_erasures", "format_wire",
    "from_json", "gf2_rref", "graph", "inject_errors",
    "is_boson", "is_doubly_even", "mat_add", "mat_mul", "mat_neg",
    "message_length", "min_distance", "ndxor", "neighbor",
    "normalize_heights", "parse_bit_string", "parse_family", "parse_wire",
    "plaquette_count", "plaquettes", "quaternion",
    "quaternion_baobab_completions", "reconstruct_adinkra",
    "reconstruct_dashing", "reconstruct_directions", "skeleton_baobab_edges",
    "skeleton_tree", "strip_derivatives", "syndrome", "to_json",
    "valise_heights", "verify_heights", "verify_odd_dashing", "weight",
    "weight_heights",
]

_GRAPH = {"adinkra", "adinkra._kernels", "adinkra.cli", "adinkra.codes",
          "adinkra.errors", "adinkra.graph"}
_BAOBAB = _GRAPH | {"adinkra.baobab"}
_CODEC = _BAOBAB | {"adinkra.codec"}
_QUATERNION = _CODEC | {"adinkra.algebra", "adinkra.quaternion"}
_DASHING_FAMILY = "n=3;code=1111;scheme=dashing"

# case -> (argv, the stdin it reads, the adinkra modules it loads)
MODULE_SETS = {
    "verify": (["verify"], "built", _GRAPH),
    "build": (["build", "--n", "3"], None, _BAOBAB),
    "baobab": (["baobab"], "built", _BAOBAB),
    "reconstruct": (["reconstruct"], "baobab", _BAOBAB),
    "dof": (["dof", "--n", "3"], None, _BAOBAB),
    "export-dot": (["export-dot"], "built", _BAOBAB | {"adinkra.dot"}),
    "encode": (["encode", "--family", "quaternion", "--message", "101"],
               None, _QUATERNION),
    "encode-dashing": (["encode", "--family", _DASHING_FAMILY,
                        "--message", "10110100"], None, _CODEC),
    "inject": (["inject", "--flips", "1", "--seed", "1"], "wire", _CODEC),
    "decode": (["decode"], "wire", _QUATERNION),
    "decode-dashing": (["decode"], "dashing wire", _CODEC),
    "distance": (["distance", "--family", "quaternion"], None, _CODEC),
}

# run the CLI in-process and print its exit code and the loaded modules
_LOADED_BY_RUN = (
    "import contextlib, io, sys\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    from adinkra.cli import run\n"
    "    code = run(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules\n"
    "                    if m.partition('.')[0] == 'adinkra'))\n"
)


def _fresh_interpreter(code, argv=(), stdin=""):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule():
    out = _fresh_interpreter(
        "import sys, adinkra\n"
        "print(*sorted(m for m in sys.modules if m.startswith('adinkra')))")
    assert out.split() == ["adinkra"]


@pytest.mark.parametrize("command", sorted(MODULE_SETS))
def test_each_subcommand_loads_only_what_it_runs(
        command, capsys, monkeypatch):
    argv, reads, want = MODULE_SETS[command]
    _, built, _ = invoke(capsys, monkeypatch, ["build", "--n", "3"])
    _, baobab, _ = invoke(capsys, monkeypatch, ["baobab"], stdin=built)
    _, wire, _ = invoke(capsys, monkeypatch, MODULE_SETS["encode"][0])
    _, dashing_wire, _ = invoke(capsys, monkeypatch,
                                MODULE_SETS["encode-dashing"][0])
    stdin = {None: "", "built": built, "baobab": baobab, "wire": wire,
             "dashing wire": dashing_wire}[reads]
    code, *loaded = _fresh_interpreter(_LOADED_BY_RUN, argv, stdin).split()
    assert code == "0"
    assert set(loaded) == want


def test_package_exports_resolve_on_first_access():
    import adinkra
    from adinkra import baobab

    assert adinkra.__all__ == PACKAGE_ALL
    assert set(PACKAGE_ALL) <= set(dir(adinkra))
    for name in PACKAGE_ALL:
        value = getattr(adinkra, name)
        assert value is vars(adinkra)[name]  # cached after the first read
    namespace = {}
    exec("from adinkra import *", namespace)
    assert all(namespace[name] is getattr(adinkra, name)
               for name in PACKAGE_ALL)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        adinkra.no_such_name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        baobab.no_such_name
