import hashlib
import json

import pytest

from orbitforge import cocycle_split as cs
from orbitforge import group_core as gc
from orbitforge.cli import main
from orbitforge.exact_linear import QMatrix, QVector, companion, cyclotomic_prime


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _write(tmp_path, data) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _c3_cocycle(corrupt: bool) -> cs.Cocycle:
    c3 = gc.cyclic(3)
    action = gc.trivial_action(c3, 1)
    if not corrupt:
        return cs.random_cocycle(c3, action, seed=0)
    zero = QVector.zero(1)
    rows = [[zero] * 3 for _ in range(3)]
    rows[1][1] = QVector.of(1)  # c(g, g) = 1 is not a cocycle over C3
    return cs.Cocycle(c3, action, tuple(tuple(r) for r in rows))


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
    path = _write(tmp_path, _c3_cocycle(corrupt=False).to_json())
    for sub in ("verify", "trivialize", "complement"):
        assert _run(capsys, ["cocycle", sub, path])[0] == 0


# ---------------------------------------------------------------------------
# exit 1: a verification failed, with its witness

def test_corrupted_cocycle_exits_1_with_witness(capsys, tmp_path):
    c = _c3_cocycle(corrupt=True)
    code, out, _ = _run(capsys, ["--json", "cocycle", "verify", _write(tmp_path, c.to_json())])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    x, y, z = payload["witness"]
    t, v = c.base.table, c.values
    assert v[t[x][y]][z] + v[x][y] != v[x][t[y][z]] + v[y][z]


# ---------------------------------------------------------------------------
# exit 2: malformed input, reported as "error:" and never a traceback

def _cocycle_json(**override) -> dict:
    data = _c3_cocycle(corrupt=False).to_json()
    data.update(override)
    return data


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
])
def test_malformed_group_and_cocycle_files_exit_2(capsys, tmp_path, command, data):
    code, _, err = _run(capsys, command + [_write(tmp_path, data)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("matrix", [
    5,
    [1, 2],
    [[1, 0], [0, 1]],  # the identity is not a valid action
    QMatrix.block_diag([companion(cyclotomic_prime(3)), QMatrix.identity(2)]).to_json(),
])
def test_malformed_or_invalid_matrix_exits_2(capsys, tmp_path, matrix):
    code, _, err = _run(capsys, ["mixed", "build", "--p", "3", "--matrix", _write(tmp_path, matrix)])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# certificates are frozen byte for byte

#: SHA-256 of the --json output at --seed 0, recorded before the spec
#: validity check was reduced to the single identity I + M + ... + M^(p-1) = 0.
FROZEN_SHA256 = [
    (["mixed", "verify", "--p", "5", "--t", "2"],
     "34a2d494bc54cbbbbaf23018d205fb7bba70f0b074ed6f0d728754df67a16440"),
    (["mixed", "omega", "--p", "3", "--t", "2", "--pairs", "3"],
     "f3968f3df380c3bed74d1ce30f1c4c36d7fc4a6aa4014cc11442a4e85e37e513"),
    (["mixed", "auto", "--p", "5", "--t", "1"],
     "263c4d4bdd5316b2cc823e84a65501fcac5be4ec91a1008d7480aa09b2594624"),
]


@pytest.mark.parametrize("argv, digest", FROZEN_SHA256)
def test_mixed_certificates_are_frozen(capsys, argv, digest):
    code, out, _ = _run(capsys, ["--json", "--seed", "0"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
