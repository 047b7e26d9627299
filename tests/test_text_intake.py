"""The CLI's text intake against the tree intake.

Every JSON input must give the same stdout, stderr and exit code whether
its bulk arrays are read from the file's text (``cli._read_arrays``, with
``json.load`` of the whole document when anything is off) or the whole
document by ``json.load`` alone (``json_load_oracle``, the reader before the
text intake). The corpus covers formats, key orders, duplicate and escaped
keys, malformed entries of each kind and malformed documents, for group
tables, cocycles and ``--matrix`` files. A last test bounds the time and
memory of reading a large table through the CLI.
"""

import copy
import json
import time
import tracemalloc

import numpy as np
import pytest

from conftest import json_load_oracle, perfbench_inputs, random_cocycle
from orbitforge import catalog, cli
from orbitforge import group_core as gc

S3 = catalog.CATALOG["S3"].build()
GROUP = S3.to_json()
COCYCLE = random_cocycle(S3, perfbench_inputs().sign_action(S3, 2), seed=1).to_json()
MATRIX = [["0/1", "-1/1"], ["1/1", "-1/1"]]

COMMANDS = {
    "group": [["omega", "{path}"], ["--json", "classify", "{path}"]],
    "cocycle": [["cocycle", "verify", "{path}"], ["--json", "cocycle", "complement", "{path}"]],
    "matrix": [["--json", "mixed", "build", "--p", "3", "--matrix", "{path}"]],
}


def _with(doc, path: tuple, token: str, **dumps) -> bytes:
    """The JSON text of doc with the value at path (keys and indices) written
    as the raw text token."""
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = "@@"
    return json.dumps(doc, **dumps).replace('"@@"', token).encode()


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


TABLE = _compact(GROUP["table"])
ENTRY = ("table", 2, 3)  # a table entry, 1
VALUE = ("values", 2, 3, 1)  # a value entry, a nonzero rational

GROUP_CASES = {
    "default": json.dumps(GROUP).encode(),
    "compact": _compact(GROUP).encode(),
    "indent": json.dumps(GROUP, indent=2).encode(),
    "tabs crlf": json.dumps(GROUP, indent="\t").replace("\n", "\r\n").encode(),
    "spaces everywhere": _with(GROUP, ("table",), TABLE.replace(",", " ,\n\t ").replace("[", "[ ")
                               .replace("]", "\r ]")),
    "table first": json.dumps({"table": GROUP["table"], "labels": GROUP["labels"]}).encode(),
    "no labels": json.dumps({"table": GROUP["table"]}).encode(),
    "wrong order": json.dumps({**GROUP, "order": 7}).encode(),
    "labels a string": json.dumps({**GROUP, "labels": "abcdef"}).encode(),
    # the same key twice: json keeps the last
    "duplicate table": _with(GROUP, ("order",), '6, "table": [[0]]'),
    "duplicate table after": json.dumps(GROUP).replace("]]}", ']], "table": [[0]]}').encode(),
    "escaped key before": json.dumps(GROUP).replace('{"order"', '{"t\\u0061ble": [[0]], "order"').encode(),
    "escaped key after": json.dumps(GROUP).replace("]]}", ']], "t\\u0061ble": [[0]]}').encode(),
    "nested table before": json.dumps({"x": {"table": [[0]]}, **GROUP}).encode(),
    "nested raw key, escaped real key": json.dumps({"x": {"table": GROUP["table"]}})
    .replace("}}", '}, "t\\u0061ble": [[0]]}').encode(),
    "key in a label": json.dumps({**GROUP, "labels": ['"table": [[0, 1]]', *GROUP["labels"][1:]]}).encode(),
    "key in a label before the table": json.dumps(
        {"labels": ['"table": [[0]', *GROUP["labels"][1:]], "table": GROUP["table"]}).encode(),
    "label holds the marker": json.dumps({**GROUP, "labels": ["0E-9990", *GROUP["labels"][1:]]}).encode(),
    "order is the marker": _with(GROUP, ("order",), "0E-9990"),
    "order NaN": _with(GROUP, ("order",), "NaN"),
    "order 6.0": _with(GROUP, ("order",), "6.0"),
    # entries
    **{f"entry {token}": _with(GROUP, ENTRY, token) for token in [
        "1.0", "1e0", "-0", "-1", "+1", "01", "00", "true", "null", '"1"', "[1]", "{}",
        "1234567890123456789", "9" * 5000, "6", "1 ", " 1"]},
    "two runs in a slot": _with(GROUP, ENTRY, "1 2"),
    "empty slot": _with(GROUP, ENTRY, ""),
    "blank slot": _with(GROUP, ENTRY, " "),
    # json.load rejects both; np.fromstring reads the blank as a 0
    "blank slot and a leading zero": _with(GROUP, ENTRY, " ").replace(b"[[0, 1,", b"[[0, 01,", 1),
    "digit after a row": _with(GROUP, ("table",), TABLE.replace("],", "]5,", 1)),
    "digit before a row": _with(GROUP, ("table",), TABLE.replace(",[", ",5[", 1)),
    "run moved out of its row": _with(GROUP, ("table",), TABLE.replace(",5],", "], 5", 1)),
    "trailing comma in a row": _with(GROUP, ("table",), TABLE.replace("],", ",],", 1)),
    # shapes
    "ragged": _with(GROUP, ("table",), TABLE.replace(",5],", "],", 1)),
    "empty table": _with(GROUP, ("table",), "[]"),
    "empty rows": _with(GROUP, ("table",), "[[],[]]"),
    "too deep": _with(GROUP, ("table",), "[[[0]]]"),
    "too shallow": _with(GROUP, ("table",), "[0]"),
    "not square": _with(GROUP, ("table",), "[[0,1,2],[1,2,0]]"),
    "not a group": _with(GROUP, ("table",), "[[0,1],[1,1]]"),
    "out of range": _with(GROUP, ("table",), "[[0,1],[1,2]]"),
    "trivial": _with(GROUP, ("table",), "[[0]]"),
    # documents
    "trailing data": json.dumps(GROUP).encode() + b" x",
    "two documents": json.dumps(GROUP).encode() * 2,
    "trailing whitespace": json.dumps(GROUP).encode() + b" \n\t\r\n",
    "BOM": b"\xef\xbb\xbf" + json.dumps(GROUP).encode(),
    "non-UTF-8 label": json.dumps(GROUP).replace("(0, 1, 2)", "@").encode().replace(b"@", b"\xff"),
    "UTF-8 label": json.dumps(GROUP, ensure_ascii=False).replace("(0, 1, 2)", "\u03c3").encode(),
    "a list": _compact(GROUP["table"]).encode(),
    "a number": b"6",
    "a string": b'"table"',
    "empty file": b"",
    "unterminated": json.dumps(GROUP).encode()[:-3],
    "deep labels": _with(GROUP, ("labels",), "[" * 100_000 + "]" * 100_000),
    "deep table": _with(GROUP, ("table",), "[" * 100_000 + "]" * 100_000),
}

COCYCLE_CASES = {
    "default": json.dumps(COCYCLE).encode(),
    "compact": _compact(COCYCLE).encode(),
    "indent": json.dumps(COCYCLE, indent=1).encode(),
    "values first": json.dumps(dict(reversed(COCYCLE.items()))).encode(),
    **{f"value {token}": _with(COCYCLE, VALUE, token) for token in [
        '"\\u0031/2"', '"1\\/2"', '"1/0"', '"1/00"', '" 1/2"', '"1 /2"', '"1/ 2"', '"1/2 "', '"+1/2"',
        '"-1/2"', '"1/-2"', '"1/+2"', '"--1/2"', '"01/2"', '"1/02"', '"5"', '"-5"', "5", "-5", "0.5", "1e2",
        "-0", "true", "null", '"1/2/3"', '"/2"', '"1/"', '"-/2"', '"1234567890123456789/2"',
        '"123456789012345678/2"', '"1/1234567890123456789"', '"9223372036854775807/2"', '"' + "9" * 5000 + '/7"',
        '"1/2" ', ' "1/2"', '"1/2"+', '+"1/2"', '"1/2"5', '"x"', '""', '"\u00b2/1"']},
    "value in a row of three": _with(COCYCLE, VALUE[:-1], '["1/2","1/3","1/4"]'),
    "values too shallow": _with(COCYCLE, ("values",), '["0/1"]'),
    "action entry 1/2": _with(COCYCLE, ("action", 1, 0, 0), '"1/2"'),
    "action entry 5": _with(COCYCLE, ("action", 1, 0, 0), "5"),
    "action too small": _with(COCYCLE, ("action",), '[[["1/1"]]]'),
    "module_dim 3": json.dumps({**COCYCLE, "module_dim": 3}).encode(),
    "corrupted": _with(COCYCLE, VALUE, '"1/7"'),
    "values key in a label": json.dumps({**COCYCLE, "base": {**COCYCLE["base"], "labels": [
        '"values": [[["1/1"', *COCYCLE["base"]["labels"][1:]]}}).encode(),
    "duplicate values": json.dumps(COCYCLE).replace('"values"', '"values": [[["1/1"]]], "values"').encode(),
    "escaped values key after": json.dumps(COCYCLE)[:-1].encode() + b', "v\\u0061lues": 1}',
    "base table 2 x 2": _with(COCYCLE, ("base", "table"), "[[0,1],[1,0]]"),
    "base table leading zero": _with(COCYCLE, ("base", "table", 1, 1), "00"),
    "no base": json.dumps({k: v for k, v in COCYCLE.items() if k != "base"}).encode(),
}

MATRIX_CASES = {
    "default": json.dumps(MATRIX).encode(),
    "indent": json.dumps(MATRIX, indent=2).encode(),
    "ints": b"[[0, -1], [1, -1]]",
    "int strings": b'[["0", "-1"], ["1", "-1"]]',
    "2 x 3": b'[["0/1", "-1/1", "0/1"], ["1/1", "-1/1", "0/1"]]',
    "3 x 3": json.dumps([["1/1", "0/1", "0/1"]] * 3).encode(),
    "over the dimension cap": json.dumps([["0/1"] * 129] * 129).encode(),
    "too deep": json.dumps([MATRIX]).encode(),
    "an object": json.dumps({"matrix": MATRIX}).encode(),
    "zero denominator": json.dumps([["0/0", "-1/1"], ["1/1", "-1/1"]]).encode(),
    "trailing data": json.dumps(MATRIX).encode() + b"]",
    "leading whitespace": b"\n \t" + json.dumps(MATRIX).encode(),
}

CASE_SETS = {"group": GROUP_CASES, "cocycle": COCYCLE_CASES, "matrix": MATRIX_CASES}
CASES = [(kind, name, text) for kind, cases in CASE_SETS.items() for name, text in cases.items()]


def _outcome(capsys, argv) -> tuple:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("kind, name, text", CASES, ids=[f"{kind}: {name}" for kind, name, _ in CASES])
def test_text_intake_matches_the_tree_intake(capsys, monkeypatch, tmp_path, kind, name, text):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    for argv in COMMANDS[kind]:
        argv = [a.format(path=path) for a in argv]
        got = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_load_json", json_load_oracle)
            assert got == _outcome(capsys, argv)


ARRAYS = {"group": cli._GROUP_ARRAYS, "cocycle": cli._COCYCLE_ARRAYS, "matrix": cli._MATRIX_ARRAYS}

#: Cases whose arrays are strict, each read from the text, not by json.load.
FROM_TEXT = [("group", name) for name in ["default", "compact", "indent", "tabs crlf", "spaces everywhere",
                                          "table first", "no labels", "wrong order", "labels a string",
                                          "escaped key before", "key in a label", "key in a label before the table",
                                          "entry 6", "entry 1 ", "entry  1", "not a group", "out of range",
                                          "trivial", "trailing whitespace"]] \
    + [("cocycle", name) for name in ["default", "compact", "indent", "values first", 'value "+1/2"',
                                      'value "01/2"', 'value "-1/2"', 'value "123456789012345678/2"',
                                      "action entry 1/2", "action too small", "module_dim 3", "corrupted",
                                      "values key in a label", "base table 2 x 2"]] \
    + [("matrix", name) for name in ["default", "indent", "3 x 3", "leading whitespace"]]


@pytest.mark.parametrize("kind, name", FROM_TEXT, ids=[f"{kind}: {name}" for kind, name in FROM_TEXT])
def test_strict_arrays_are_read_from_the_text(kind, name):
    # a table comes in as int16, and a rational array as int64 numerators
    doc = cli._read_arrays(CASE_SETS[kind][name], ARRAYS[kind])
    assert doc is not None
    for path, (_, rational, _) in ARRAYS[kind].items():
        array = doc
        for key in path:
            array = array[key]
        assert (array.nums if rational else array).dtype == (np.int64 if rational else np.int16)


#: Entries of 2^15 and more, each past any order up to ``gc.MAX_ORDER``; the
#: text intake leaves them to json.load, whose message is the table check's.
BIG_ENTRIES = {f"entry {v}": _with(GROUP, ENTRY, str(v)) for v in (2**15 - 1, 2**15, 10**17)}


@pytest.mark.parametrize("name", BIG_ENTRIES)
def test_table_entries_past_int16_are_left_to_json_load(capsys, monkeypatch, tmp_path, name):
    text = BIG_ENTRIES[name]
    assert (cli._read_arrays(text, cli._GROUP_ARRAYS) is None) == (name != f"entry {2**15 - 1}")
    path = tmp_path / "input.json"
    path.write_bytes(text)
    got = _outcome(capsys, ["omega", str(path)])
    assert got == (2, "", "error: table entries must be element indices\n")
    monkeypatch.setattr(cli, "_load_json", json_load_oracle)
    assert got == _outcome(capsys, ["omega", str(path)])


@pytest.mark.parametrize("kind, name", [("group", "two runs in a slot"), ("group", "run moved out of its row"),
                                        ("group", "blank slot and a leading zero"), ("group", "duplicate table"),
                                        ("group", "escaped key after"), ("group", "nested table before"),
                                        ("group", "label holds the marker"), ("group", "entry 01"),
                                        ("cocycle", 'value "1/2 "'), ("cocycle", 'value "9223372036854775807/2"'),
                                        ("matrix", "over the dimension cap"), ("matrix", "2 x 3")])
def test_arrays_out_of_the_strict_form_are_left_to_json_load(kind, name):
    assert cli._read_arrays(CASE_SETS[kind][name], ARRAYS[kind]) is None


@pytest.fixture(scope="module")
def order_2048_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("large") / "d128xc8.json"
    path.write_text(json.dumps(gc.direct_product(gc.dihedral(128), gc.cyclic(8)).to_json()))
    return str(path)


def test_a_large_table_reads_through_the_cli_in_bounded_time_and_memory(capsys, order_2048_file):
    # an order-2048 table (24 MB of JSON) up to the automorphism search cap;
    # through json.load this took 0.60-0.73 s at a tracemalloc peak of
    # 177 MiB, and from the text 0.17-0.22 s at 54 MiB, 34 MiB once read
    # straight into int16 (in-process, 2 vCPU host)
    argv = ["omega", order_2048_file]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (2, "error: order 2048 exceeds automorphism search cap 512\n" * 2)
    assert elapsed < 0.5
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_large_table_is_read_into_int16_alone(order_2048_file):
    # the 22.9 MB text and the 8 MiB int16 table, read block by block; an
    # int64 table of the text and its int16 copy peaked at 54.9 MiB here
    # (tracemalloc, order 2048)
    tracemalloc.start()
    try:
        g = gc.GroupTable.from_json(cli._load_json(order_2048_file, cli._GROUP_ARRAYS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 2048 and g.array.dtype == np.int16
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
