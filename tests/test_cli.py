import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import (
    block_diag,
    cocycle_witness,
    companion,
    count_calls,
    count_eliminations,
    cyclotomic_prime,
    perfbench_inputs,
    permutation_action,
    random_cocycle,
    rational_action,
)
import orbitforge
from orbitforge import auto_orbits, classify, cli, mixed_group
from orbitforge import cocycle_split as cs
from orbitforge import exact_linear as el
from orbitforge import group_core as gc
from orbitforge.cli import main
from orbitforge.exact_linear import QMatrix, QVector


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _write(tmp_path, data) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _cocycle_json(**override) -> dict:
    """A valid cocycle file over C3 with the trivial action on Q^1, with the
    given keys replaced."""
    c3 = gc.cyclic(3)
    data = random_cocycle(c3, gc.trivial_action(c3, 1), seed=0).to_json()
    data.update(override)
    return data


def _corrupted_cocycle_json() -> dict:
    """The zero cochain over C3 with c(g, g) = 1, which is not a cocycle, so
    no Cocycle can hold it."""
    values = [[[0]] * 3 for _ in range(3)]
    values[1][1] = [1]
    return _cocycle_json(values=values)


# ---------------------------------------------------------------------------
# exit 0: every requested verification passed

@pytest.mark.parametrize("argv", [
    ["omega", "catalog:S3"],
    ["classify", "catalog:A4"],
    ["mixed", "verify", "--p", "3", "--t", "1"],
    ["mixed", "omega", "--p", "2", "--t", "1", "--pairs", "2"],
])
def test_success_exits_0(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert out and not err


def test_valid_cocycle_exits_0(capsys, tmp_path):
    path = _write(tmp_path, _cocycle_json())
    for sub in ("verify", "trivialize", "complement"):
        assert _run(capsys, ["cocycle", sub, path])[0] == 0


# ---------------------------------------------------------------------------
# exit 1: a verification failed, with its witness

def test_corrupted_cocycle_exits_1_with_witness(capsys, tmp_path):
    data = _corrupted_cocycle_json()
    code, out, _ = _run(capsys, ["--json", "cocycle", "verify", _write(tmp_path, data)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    c3 = gc.cyclic(3)
    v = tuple(tuple(QVector(e) for e in row) for row in data["values"])
    x, y, z = payload["witness"]
    assert (x, y, z) == cocycle_witness(c3, gc.trivial_action(c3, 1), v, c3.generators)
    t = c3.table
    assert v[t[x][y]][z] + v[x][y] != v[x][t[y][z]] + v[y][z]


def test_verification_failure_exits_1(capsys, monkeypatch):
    # a contradiction of a proved classification is the one verification
    # failure raised as an exception; fake one through classify's own check
    monkeypatch.setattr(classify, "is_elementary_abelian", lambda g: (False, None))
    code, out, err = _run(capsys, ["classify", "catalog:C2"])
    assert code == 1 and not out
    assert err == "verification failure: omega == 2 but not elementary abelian\n"


@pytest.fixture(scope="module")
def a4_corrupted_document() -> str:
    """The benchmark's corrupted A4 cocycle, whose first failing triple is
    (1, 1, 1)."""
    a4 = gc.alternating(4)
    data = perfbench_inputs().corrupted_json(a4, permutation_action(a4), random.Random(0))
    return json.dumps(data)


@pytest.mark.parametrize("command", ["verify", "trivialize", "complement"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupted"])
def test_each_cocycle_command_verifies_once(capsys, tmp_path, monkeypatch, a4_corrupted_document,
                                            command, corrupt):
    path = tmp_path / "cocycle.json"
    if corrupt:
        path.write_text(a4_corrupted_document)
    else:
        path.write_text(json.dumps(_cocycle_json()))
    calls = count_calls(monkeypatch, cs, "verify_cocycle")
    code, out, err = _run(capsys, ["--json", "cocycle", command, str(path)])
    assert calls["verify_cocycle"] == 1
    if not corrupt:
        assert code == 0 and not err
    elif command == "verify":
        assert code == 1 and json.loads(out) == {"ok": False, "witness": [1, 1, 1]}
    else:
        assert code == 2 and not out
        assert err == "error: cocycle identity fails at triple (1, 1, 1)\n"


# ---------------------------------------------------------------------------
# exit 2: malformed input, reported as "error:" and never a traceback

def _cocycle_json_with_value(entry) -> dict:
    """The valid C3 cocycle with c(g, g) replaced by [entry], off the
    identity row and column, so only the entry itself can be wrong."""
    data = _cocycle_json()
    data["values"][1][1] = [entry]
    return data


#: A C2 cocycle file whose action matrices and values are strings where
#: lists belong.
_C2_STRINGS = {"base": {"order": 2, "table": [[0, 1], [1, 0]]}, "module_dim": 1,
               "action": ["1", "1"], "values": [["0", "0"], ["0", "7"]]}


@pytest.mark.parametrize("command, data", [
    (["omega"], {"table": [1, 2]}),
    (["omega"], {"table": [[0, 1], [1, 0]], "labels": 5}),
    (["omega"], {"table": [[0, 1], [1, 0]], "order": [2]}),
    (["omega"], [1, 2]),
    (["cocycle", "verify"], [1, 2]),
    (["cocycle", "verify"], _cocycle_json(module_dim=[1])),
    (["cocycle", "verify"], _cocycle_json(action=5)),
    (["cocycle", "verify"], _cocycle_json(values=[[5, 5, 5]] * 3)),
    (["cocycle", "verify"], _cocycle_json(base={"table": [1, 2, 3]})),
    (["omega"], {"table": [[0, 1.9], [1, 0]]}),  # rejected, not truncated to 1
    (["omega"], {"table": [[0, True], [1, 0]]}),
    (["omega"], {"table": [[0, 10**30], [1, 0]]}),  # beyond int64
    (["omega"], {"order": 1.9, "table": [[0]]}),  # header integers follow the entry rule
    (["omega"], {"order": True, "table": [[0]]}),
    (["cocycle", "verify"], _cocycle_json(module_dim=1.5)),
    (["cocycle", "verify"], _cocycle_json(module_dim=True)),
    (["omega"], {"table": [[0, 1], [1, 0]], "labels": "ab"}),  # not split into "a", "b"
    (["cocycle", "verify"], _cocycle_json_with_value(0.5)),  # not read as 1/2
    (["cocycle", "verify"], _cocycle_json_with_value(True)),
    (["cocycle", "verify"], _cocycle_json_with_value("1/0")),
    (["cocycle", "verify"], _cocycle_json(action=[[[1.0]]] * 3)),  # not read as 1
    (["cocycle", "verify"], _cocycle_json(action=[[[True]]] * 3)),
    # a string is not read as the list of its characters, at any level
    (["cocycle", "verify"], _C2_STRINGS),  # certified ok: true before
    (["cocycle", "trivialize"], _C2_STRINGS),  # printed e(1) = (-7/2) before
    (["cocycle", "verify"], dict(_C2_STRINGS, action=[[["1"]], [["1"]]])),  # vectors
    (["cocycle", "verify"], dict(_C2_STRINGS, action=[["1"], ["1"]],
                                 values=[[["0"], ["0"]], [["0"], ["7"]]])),  # rows
    (["cocycle", "verify"], dict(_C2_STRINGS, values=[[["0"], ["0"]], [["0"], ["7"]]])),  # matrices
])
def test_malformed_group_and_cocycle_files_exit_2(capsys, tmp_path, command, data):
    code, _, err = _run(capsys, command + [_write(tmp_path, data)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("labels, got", [([], 0), (["a"], 1)])
def test_wrong_label_count_exits_2(capsys, tmp_path, labels, got):
    # an empty label list is a list of the wrong length, not a missing key;
    # it took the default labels and exited 0 before
    path = _write(tmp_path, {"table": [[0, 1], [1, 0]], "labels": labels})
    code, out, err = _run(capsys, ["omega", path])
    assert code == 2 and not out
    assert f"expected 2 labels, got {got}" in err


def test_absent_or_null_labels_take_the_default(capsys, tmp_path):
    for data in ({"table": [[0, 1], [1, 0]]}, {"table": [[0, 1], [1, 0]], "labels": None}):
        code, out, _ = _run(capsys, ["orbits", _write(tmp_path, data)])
        assert code == 0 and "size   1: 1" in out


def test_negative_pairs_exits_2(capsys):
    # a negative sample count certified "-4/-4 sampled pairs" before
    code, out, err = _run(capsys, ["--json", "mixed", "auto", "--p", "3", "--t", "1",
                                   "--pairs", "-4"])
    assert code == 2 and not out
    assert err.startswith("error:")
    assert _run(capsys, ["mixed", "auto", "--p", "3", "--t", "1", "--pairs", "0"])[0] == 0


def test_json_selftest_prints_one_json_document(capsys):
    code, out, _ = _run(capsys, ["--json", "selftest"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["results"] and all(r["ok"] for r in payload["results"])


def test_mixed_auto_verifies_its_witness_once(capsys, monkeypatch):
    # one certificate, so one determinant of L, derived from the two F-bases
    # of the witness's seeds, and no elimination of L over Q
    calls = count_calls(monkeypatch, QMatrix, "det")
    derived = count_calls(monkeypatch, mixed_group, "field_basis", "semilinear_det")
    code, _, _ = _run(capsys, ["mixed", "auto", "--p", "13", "--t", "2"])
    assert code == 0
    assert calls["det"] == 0
    assert derived == {"field_basis": 2, "semilinear_det": 1}


def test_only_mixed_auto_assembles_l_over_q(capsys, monkeypatch):
    # witnesses are checked as (g, X) in F^t; L' over Q is assembled once,
    # for mixed auto's printout of L, which its sampled pairs share
    calls = count_calls(monkeypatch, mixed_group, "semilinear_matrix")
    assert _run(capsys, ["mixed", "omega", "--p", "13", "--t", "2", "--pairs", "5"])[0] == 0
    assert calls == {"semilinear_matrix": 0}
    assert _run(capsys, ["mixed", "auto", "--p", "13", "--t", "2"])[0] == 0
    assert calls == {"semilinear_matrix": 1}


@pytest.mark.parametrize("command", ["build", "verify", "auto", "omega"])
def test_mixed_default_action_parses_no_rational(capsys, monkeypatch, command):
    # the block companion of Phi_p is written from integers; built as
    # companion(cyclotomic_prime(p)), it parsed p ones as text
    calls = count_calls(monkeypatch, el, "_rationals")
    code, _, _ = _run(capsys, ["mixed", command, "--p", "7", "--t", "2"])
    assert code == 0
    assert calls["_rationals"] == 0


@pytest.mark.parametrize("p", ["2305843009213693951", "1009"])
def test_mixed_spec_above_the_dimension_cap_exits_2_at_once(capsys, p):
    # the first hung in trial division, the second built 1009 dense powers
    start = time.perf_counter()
    code, out, err = _run(capsys, ["mixed", "build", "--p", p, "--t", "1"])
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err.startswith("error: n = t*(p-1) must be at most")


def test_python_dash_m_orbitforge_runs_the_cli():
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "orbitforge", "catalog"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "S3" in done.stdout


# ---------------------------------------------------------------------------
# one parser per process, and nothing carried from one command to the next

#: Flags that one command sets and the next leaves out, an argparse usage
#: error, then --json on and off again.
MIXED_SEQUENCE = [
    ["--json", "--seed", "3", "mixed", "auto", "--p", "5", "--t", "1"],
    ["mixed", "auto", "--p", "5", "--t", "1"],  # text output, --seed back to 0
    ["omega"],  # no group: argparse exits 2 through SystemExit
    ["--json", "classify", "catalog:S3"],
    ["classify", "catalog:S3"],
]


def _main_or_exit(capsys, argv) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_is_built_during_the_first_call_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    after_each = []
    for argv in MIXED_SEQUENCE:
        _main_or_exit(capsys, argv)
        after_each.append(len(built))
    # the top-level parser and one sub-parser per command, all in the first call
    assert after_each == [8] * len(MIXED_SEQUENCE)


def test_commands_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # a fixed width, so argparse wraps its usage text alike in both
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(orbitforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in MIXED_SEQUENCE:
        fresh = subprocess.run([sys.executable, "-m", "orbitforge", *argv],
                               env=env, capture_output=True, timeout=60)
        expected = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
        assert _main_or_exit(capsys, argv) == expected, argv


def test_build_parser_returns_the_parser_main_parses_with(capsys, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(["omega", "catalog:S3"]) == main(["catalog"]) == 0
    capsys.readouterr()
    assert len(used) == 2 and all(p is cli.build_parser() for p in used)


@pytest.mark.parametrize("matrix", [
    5,
    [1, 2],
    [[1, 0], [0, 1]],  # the identity is not a valid action
    block_diag([companion(cyclotomic_prime(3)), QMatrix.identity(2)]).to_json(),
])
def test_malformed_or_invalid_matrix_exits_2(capsys, tmp_path, matrix):
    code, _, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix", _write(tmp_path, matrix)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("entry", ["-" + "9" * 5000 + "/1", "-1/" + "9" * 5000],
                         ids=["numerator", "denominator"])
def test_entry_past_the_digit_limit_exits_2_as_an_invalid_rational(capsys, tmp_path, entry):
    code, out, err = _run(capsys, ["mixed", "build", "--p", "2", "--matrix",
                                   _write(tmp_path, [[entry]])])
    assert code == 2 and not out
    assert err.startswith("error: invalid rational of 5003 characters")
    assert "too many digits" in err and "set_int_max_str_digits" not in err


def test_long_invalid_entry_gets_a_short_error_line(capsys, tmp_path):
    # quoting the whole entry would write a 3076-byte line for this one
    code, out, err = _run(capsys, ["mixed", "build", "--p", "2", "--matrix",
                                   _write(tmp_path, [["x" * 3000]])])
    assert code == 2 and not out
    assert err == ("error: invalid rational of 3000 characters ('xxxxxxxxxxxx'...):"
                   " expected \"num/den\", an integer string or an int\n")
    assert len(err.encode()) < 120


def test_deeply_nested_invalid_entry_gets_a_short_error_line(capsys, tmp_path):
    # quoting the whole repr would write a 1877-byte line for this one
    entry = [0]
    for _ in range(899):
        entry = [entry]
    code, out, err = _run(capsys, ["mixed", "omega", "--p", "3", "--matrix",
                                   _write(tmp_path, [[entry]])])
    assert code == 2 and not out
    assert err == ("error: invalid rational a list whose repr has 1801 characters ([[[[[[[[[[[[...):"
                   " expected \"num/den\", an integer string or an int\n")


def test_entry_at_the_digit_limit_is_read(capsys, tmp_path):
    # -N/N = -1, the one action of C2 on Q
    n = "9" * 4300
    code, out, err = _run(capsys, ["mixed", "build", "--p", "2", "--matrix",
                                   _write(tmp_path, [[f"-{n}/{n}"]])])
    assert code == 0, err
    assert "action matrix rows: -1" in out


def test_matrix_above_the_dimension_cap_is_refused_before_its_entries_are_read(capsys, tmp_path, monkeypatch):
    # 129 rows of invalid entries: the size error wins over "invalid rational",
    # and no entry is parsed; a 1500 x 1500 file parsed 2.25 M entries first
    read = []
    monkeypatch.setattr(QMatrix, "from_json", lambda data: read.append(data))
    code, out, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix",
                                   _write(tmp_path, [["x"] * 129] * 129)])
    assert code == 2 and not out and not read
    assert err == "error: matrix size 129 must be at most 128\n"


def test_matrix_at_the_dimension_cap_is_read(capsys, tmp_path):
    # 128 rows pass the size check and reach the entry parser
    code, out, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix",
                                   _write(tmp_path, [["x"] * 128] * 128)])
    assert code == 2 and not out
    assert err == "error: invalid rational 'x': expected \"num/den\", an integer string or an int\n"


def test_non_square_matrix_is_refused_before_its_entries_are_read(capsys, tmp_path):
    code, out, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix",
                                   _write(tmp_path, [["x", "y"], ["1"]])])
    assert code == 2 and not out
    assert err == "error: matrix must be 2 lists of 2 rationals\n"  # was "error: matrix must be square"


def test_cocycle_without_values_exits_2_as_malformed(capsys, tmp_path):
    data = _cocycle_json()
    del data["values"]
    code, out, err = _run(capsys, ["cocycle", "verify", _write(tmp_path, data)])
    assert code == 2 and not out
    assert err == "error: malformed cocycle JSON: 'values'\n"  # was "error: 'values'"


_EXPECTED = ": expected \"num/den\", an integer string or an int\n"


def test_bad_entry_deep_in_a_cocycle_table_is_named(capsys, tmp_path):
    # the A5 file of the benchmark, bad at c(50, 40): entry 50 * 180 + 40 * 3 + 1
    a5 = gc.alternating(5)
    data = perfbench_inputs().coboundary_json(a5, gc.trivial_action(a5, 3), random.Random(1))
    data["values"][50][40][1] = "7/-2"
    code, out, err = _run(capsys, ["cocycle", "complement", _write(tmp_path, data)])
    assert code == 2 and not out
    assert err == "error: invalid rational '7/-2'" + _EXPECTED


def test_bad_entry_in_the_action_wins_over_one_in_the_values(capsys, tmp_path):
    s3 = gc.symmetric(3)
    data = random_cocycle(s3, permutation_action(s3), seed=2).to_json()
    data["values"][1][1][0], data["action"][5][2][2] = "values", "action"
    code, out, err = _run(capsys, ["cocycle", "verify", _write(tmp_path, data)])
    assert code == 2 and not out
    assert err == "error: invalid rational 'action'" + _EXPECTED


@pytest.mark.parametrize("argv", [["--json", "cocycle", "complement"], ["cocycle", "complement"]])
def test_integer_tables_written_as_ints_or_bare_strings_give_the_same_output(capsys, tmp_path, argv):
    # a coboundary of an integer cochain under the permutation action: every
    # entry of its file is "k/1"
    s3 = gc.symmetric(3)
    rng = random.Random(4)
    f = [QVector.zero(3)] + [QVector.from_ints([rng.randint(-9, 9) for _ in range(3)], 1) for _ in range(5)]
    data = cs.coboundary(f, s3, permutation_action(s3)).to_json()
    outputs = []
    for write in (str, lambda k: int(k.removesuffix("/1")), lambda k: k.removesuffix("/1")):
        doc = dict(data, action=[[[write(e) for e in row] for row in m] for m in data["action"]],
                   values=[[[write(e) for e in v] for v in row] for row in data["values"]])
        code, out, err = _run(capsys, argv + [_write(tmp_path, doc)])
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("big", [10**18 + 7, -(10**18 + 9), 2**63 + 1, 3**60],
                         ids=["19 digits", "19 digits negative", "past 2^63", "29 digits"])
def test_cocycle_entries_of_19_and_more_digits_round_trip_exactly(capsys, tmp_path, big):
    # C2 acting trivially on Q: c(g, g) = big is a cocycle, and e(g) = -big / 2
    data = {"base": {"order": 2, "table": [[0, 1], [1, 0]]}, "module_dim": 1,
            "action": [[["1"]], [["1"]]], "values": [[["0"], ["0"]], [["0"], [f"{big}/1"]]]}
    code, out, err = _run(capsys, ["--json", "cocycle", "trivialize", _write(tmp_path, data)])
    assert code == 0, err
    g = 2 if big % 2 == 0 else 1
    assert json.loads(out)["trivializer"] == [["0/1"], [f"{-big // g}/{2 // g}"]]
    assert cs.Cocycle.from_json(json.loads(json.dumps(data))).to_json()["values"][1][1] == [f"{big}/1"]


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["omega", "{path}"], ["orbits", "{path}"], ["classify", "{path}"],
    ["cocycle", "verify", "{path}"], ["cocycle", "trivialize", "{path}"],
    ["cocycle", "complement", "{path}"],
    ["mixed", "omega", "--p", "3", "--matrix", "{path}"],
    ["mixed", "build", "--p", "3", "--matrix", "{path}"],
], ids=lambda argv: "-".join(a for a in argv if a != "{path}"))
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    # json.load raised RecursionError, a traceback and exit 1, the code of a
    # failed verification; a group, cocycle and matrix file are each read
    # through the one loader
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    code, out, err = _run(capsys, [a.format(path=path) for a in argv])
    assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")


def test_json_output_formats_no_text_line(capsys, tmp_path, monkeypatch, s4_cocycle_document):
    # the text lines format each entry through Fractions: --json builds none
    path = tmp_path / "cocycle.json"
    path.write_text(s4_cocycle_document)
    formatted = []
    for owner, name in ((QVector, "entries"), (QMatrix, "rows")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, property(lambda self, _real=real, _name=name:
                                                  formatted.append(_name) or _real.fget(self)))
    commands = (["cocycle", "trivialize", str(path)], ["cocycle", "complement", str(path)],
                ["mixed", "build", "--p", "5", "--t", "2"])
    for argv in commands:
        assert _run(capsys, ["--json", *argv])[0] == 0
    assert formatted == []
    for argv in commands:
        assert _run(capsys, argv)[0] == 0
    assert set(formatted) == {"entries", "rows"}


def test_unknown_catalog_group_message_is_not_quoted(capsys):
    code, out, err = _run(capsys, ["omega", "catalog:nope"])
    assert code == 2 and not out
    assert err.startswith("error: unknown catalog group 'nope'; known: ")
    assert err.count('"') == 0


def test_key_error_inside_a_command_is_not_reported_as_bad_input(capsys, monkeypatch):
    # only ValueError and OSError are input errors; a KeyError is a bug
    def failing(g):
        raise KeyError("bug")

    monkeypatch.setattr(auto_orbits, "orbit_partition", failing)
    with pytest.raises(KeyError, match="bug"):
        main(["omega", "catalog:S3"])


def test_empty_action_matrix_names_its_size(capsys, tmp_path):
    # the 0 x 0 matrix passed the divisibility check, t became 0, and the
    # error blamed a --t that was never given
    code, out, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix", _write(tmp_path, [])])
    assert code == 2 and not out
    assert err == "error: matrix size 0 is not a positive multiple of 2\n"


def test_matrix_of_strings_exits_2(capsys, tmp_path):
    # ["10", "01"] was read as the identity [[1, 0], [0, 1]]
    code, out, err = _run(capsys, ["mixed", "verify", "--p", "3", "--matrix",
                                   _write(tmp_path, ["10", "01"])])
    assert code == 2 and not out
    assert err == "error: matrix must be 2 lists of 2 rationals\n"  # was "... a list of rows of rationals"


# ---------------------------------------------------------------------------
# certificates are frozen byte for byte

#: SHA-256 of the --json output at --seed 0. The first three were recorded
#: before the spec validity check was reduced to the single identity
#: I + M + ... + M^(p-1) = 0, the last before exact_linear moved from Fraction
#: elimination to integer kernels; that certificate prints det(L) and builds
#: two orbit blocks, the second from a greedy seed.
FROZEN_SHA256 = [
    (["mixed", "verify", "--p", "5", "--t", "2"],
     "34a2d494bc54cbbbbaf23018d205fb7bba70f0b074ed6f0d728754df67a16440"),
    (["mixed", "omega", "--p", "3", "--t", "2", "--pairs", "3"],
     "f3968f3df380c3bed74d1ce30f1c4c36d7fc4a6aa4014cc11442a4e85e37e513"),
    (["mixed", "auto", "--p", "5", "--t", "1"],
     "263c4d4bdd5316b2cc823e84a65501fcac5be4ec91a1008d7480aa09b2594624"),
    (["mixed", "auto", "--p", "7", "--t", "2"],
     "9c356c5f45e95dc83af691c4a1439d079a756bbbfe315b8acf3cbb19091079c9"),
]


@pytest.mark.parametrize("argv, digest", FROZEN_SHA256)
def test_mixed_certificates_are_frozen(capsys, argv, digest):
    code, out, _ = _run(capsys, ["--json", "--seed", "0"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: SHA-256 of the --json output at --seed 0 on ``rational_action``, the one
#: frozen action with a denominator (24), recorded while every witness still
#: computed det(L) and inverted its Krylov basis in full.
RATIONAL_SHA256 = [
    (["mixed", "omega", "--pairs", "3"],
     "5ee9e1e5f38f321002d0758d82aa83913488ba2e46d0d42c951a6c8901e89f77"),
    (["mixed", "auto"],
     "dba400debde40a483c65d689a80b999825788c1f7eb603b9e49bef4e49400457"),
]


@pytest.mark.parametrize("argv, digest", RATIONAL_SHA256)
def test_mixed_certificates_of_a_rational_action_are_frozen(capsys, tmp_path, argv, digest):
    path = _write(tmp_path, rational_action().to_json())
    code, out, _ = _run(capsys, ["--json", "--seed", "0"] + argv + ["--p", "5", "--matrix", path])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: SHA-256 of `--json --seed 0 mixed omega --p 43 --t 1 --pairs 1`, recorded
#: with the same witness path as ``RATIONAL_SHA256``; no other test builds a
#: spec above p = 31.
LARGE_P_SHA256 = "53fb5a2b754ae107f5810982084bf3b20b9e63583909dd4dd5a206377be45955"

#: SHA-256 of `--json --seed 0 mixed omega --p 61 --t 1 --pairs 1`, recorded
#: while each witness still built two Krylov bases and solved one by
#: elimination over Q, as ``LARGE_P_SHA256``; L is now solved in F^t.
P61_SHA256 = "460ff53acf5f5e06560b6019cc0095e8dd38e96f4d7935e7674ec1f08377f6e9"


def _omega_counts(capsys, monkeypatch, p: int, pairs: int) -> tuple[str, dict]:
    """The SHA-256 of `--json --seed 0 mixed omega --p p --t 1 --pairs
    pairs` and the eliminations over Q the whole command made."""
    counts = count_eliminations(monkeypatch)
    code, out, _ = _run(capsys, ["--json", "--seed", "0", "mixed", "omega",
                                 "--p", str(p), "--t", "1", "--pairs", str(pairs)])
    monkeypatch.undo()
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest(), counts()


#: The eliminations over Q of a whole `mixed omega` command: the spec's
#: cyclic basis K and its inverse, made when the spec is built, and no
#: determinant; witnesses add none, whatever --pairs is.
OMEGA_COUNTS = {"det": 0, "inverse": 1, "cyclic_decomposition": 1}


def test_mixed_omega_at_p43_is_frozen_and_inverts_only_its_spec_basis(capsys, monkeypatch):
    # no wall-clock bound: timings on a shared host vary too much
    digest, counts = _omega_counts(capsys, monkeypatch, 43, 1)
    assert digest == LARGE_P_SHA256
    assert counts == OMEGA_COUNTS
    assert _omega_counts(capsys, monkeypatch, 43, 3)[1] == OMEGA_COUNTS


def test_mixed_omega_at_p61_is_frozen(capsys, monkeypatch):
    digest, counts = _omega_counts(capsys, monkeypatch, 61, 1)
    assert digest == P61_SHA256
    assert counts == OMEGA_COUNTS
    assert _omega_counts(capsys, monkeypatch, 61, 3)[1] == OMEGA_COUNTS


#: SHA-256 of `--json --seed 0 mixed auto --p 61 --t 1` (11,995,728 bytes),
#: recorded while det(L) was still read by elimination of L' over Q.
AUTO_P61_SHA256 = "2a2f9d450e57dbbeb974f75ff4cc832c0fa67bc7feb044aced3979e297e2e8ed"


def test_mixed_auto_at_p61_is_frozen_and_derives_its_det(capsys, monkeypatch):
    # det(L) comes from two norms in F, so the command eliminates over Q only
    # to build the spec; no wall-clock bound, as for mixed omega
    counts = count_eliminations(monkeypatch)
    code, out, _ = _run(capsys, ["--json", "--seed", "0", "mixed", "auto", "--p", "61", "--t", "1"])
    assert code == 0
    assert len(out) == 11_995_728
    assert hashlib.sha256(out.encode()).hexdigest() == AUTO_P61_SHA256
    assert counts() == OMEGA_COUNTS


#: SHA-256 of the cocycle commands on one seeded S4 permutation coboundary,
#: and of that input document itself, recorded while QVector still stored
#: one Fraction per entry; the integer kernels must print the same bytes.
COCYCLE_INPUT_SHA256 = "68b1a5bac5325597b587ad81a7680e83abeabe013aded4b99ce67f504c6707c7"
COCYCLE_SHA256 = [
    (["--json", "cocycle", "verify"],
     "f3d813fe7165bb1e12c0780d3441fef8c9dee9a58f61c27d41fecf368e41ea78"),
    (["--json", "cocycle", "trivialize"],
     "5b20033cc3c70caac9abb0997ad083fd49d8db18bee5e485e204c8848247e434"),
    (["--json", "cocycle", "complement"],
     "f649c2339d069202e13172712c95c43af7cf8b20ec41e6b42e353ebdd0491224"),
    (["cocycle", "trivialize"],
     "caf2f344b1036d969bc8b49206569de614073bf414f348ffe2bc8137227a4442"),
]


@pytest.fixture(scope="module")
def s4_cocycle_document() -> str:
    s4 = gc.symmetric(4)
    return json.dumps(random_cocycle(s4, permutation_action(s4), seed=11).to_json())


def test_cocycle_input_is_frozen(s4_cocycle_document):
    assert hashlib.sha256(s4_cocycle_document.encode()).hexdigest() == COCYCLE_INPUT_SHA256


@pytest.mark.parametrize("argv, digest", COCYCLE_SHA256)
def test_cocycle_outputs_are_frozen(capsys, tmp_path, s4_cocycle_document, argv, digest):
    path = tmp_path / "cocycle.json"
    path.write_text(s4_cocycle_document)
    code, out, _ = _run(capsys, argv + [str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
