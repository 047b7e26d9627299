"""Command line front end.

Commands: omega, orbits, classify, mixed {build,verify,auto,omega},
cocycle {verify,trivialize,complement}, catalog, selftest. Groups are given
either as a path to a group JSON file or as catalog:NAME. Certificates are
the product; pass --json for machine-readable output. Every command is
deterministic given --seed (default 0), and the exit code is 0 exactly when
all requested verifications passed. The parser is built once per process
and shared by every ``main`` call.

JSON files come in through one text intake, ``_load_json``. The bulk arrays
of each input, a group's ``table``, a cocycle's ``base.table``, ``action``
and ``values`` and a ``--matrix`` document, are found in the file's text
and read by ``exact_linear._text_table`` in whole-array passes, and the rest
of the document by ``json.loads``; each array goes into its constructor's
intake as an array, a table as int16. Anything outside the strict form of
an array (an escape, a float, a leading zero, a table entry of 2^15 or
more, a number of 19 digits in a rational) or of the document
(non-ASCII text, a key that is repeated or nested elsewhere, bad JSON) sends
the whole file through ``json.load`` instead, so every outcome, message and
exit code is that of ``json.load`` and the constructors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from typing import Callable, Iterable

from . import auto_orbits, catalog, classify, cocycle_split, exact_linear, group_core, mixed_group
from .exact_linear import QMatrix


#: JSON whitespace, a key's colon, and a run of closing brackets, by depth.
_SPACE = re.compile(rb"[ \t\n\r]*")
_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")
_CLOSE = {depth: re.compile(rb"\]" + rb"[ \t\n\r]*\]" * (depth - 1)) for depth in (2, 3)}

#: The float literal that stands in for a bulk array while the rest of its
#: document is parsed, followed by the array's index; a document that holds
#: it anywhere else is read by ``json.load``.
_MARK = b"0E-999"

#: The bulk arrays of each JSON input, by their path of keys: the depth,
#: whether the entries are rationals, and the cap on the side of a square.
_GROUP_ARRAYS = {("table",): (2, False, group_core.MAX_ORDER)}
_COCYCLE_ARRAYS = {("base", "table"): (2, False, group_core.MAX_ORDER),
                   ("action",): (3, True, None), ("values",): (3, True, None)}
_MATRIX_ARRAYS = {(): (2, True, mixed_group.MAX_DIM)}


def _read_arrays(raw: bytes, arrays: dict):
    """The JSON document raw with each of its bulk arrays read from the text
    by ``exact_linear._text_table``; None when anything is off, a document
    that ``json.load`` reads differently included.

    An array runs from the "[" after the first occurrence of its path's last
    key (the document's first "[" for the empty path) to the first run of as
    many "]" as its depth. The rest of the document is parsed by
    ``json.loads`` with each array replaced by a ``_MARK`` literal, whose
    value must then be the one at the array's path: so a key inside a
    string, nested elsewhere or repeated is not taken for it."""
    spans = []
    for path, spec in arrays.items():
        if path:
            at = raw.find(b'"%s"' % path[-1].encode())
            colon = _COLON.match(raw, at + len(path[-1]) + 2) if at >= 0 else None
            start = colon.end() if colon else -1
        else:
            start = _SPACE.match(raw).end()
        close = _CLOSE[spec[0]].search(raw, start) if raw[start:start + 1] == b"[" else None
        if not close:
            return None
        spans.append((start, close.end(), ("doc", *path), spec))
    spans.sort()
    marks, rest, end = {}, [], 0
    for k, (start, stop, _, _) in enumerate(spans):
        if start < end:
            return None
        rest += [raw[end:start], _MARK + b"%d" % k]
        marks[rest[-1].decode()] = object()
        end = stop
    rest.append(raw[end:])
    if any(_MARK in piece or not piece.isascii() for piece in rest[::2]):
        return None
    try:
        root = {"doc": json.loads(b"".join(rest), parse_float=lambda s: marks.get(s) or float(s))}
    except (ValueError, RecursionError):
        return None
    for (start, stop, path, spec), mark in zip(spans, marks.values()):
        holder = root
        for key in path[:-1]:
            holder = holder.get(key) if type(holder) is dict else None
        if type(holder) is not dict or holder.get(path[-1]) is not mark:
            return None
        holder[path[-1]] = exact_linear._text_table(raw, start, stop, *spec)
        if holder[path[-1]] is None:
            return None
    return root["doc"]


def _load_json(path: str, arrays: dict):
    """The JSON document in the file at path. Its bulk arrays, at the key
    paths of ``arrays``, come in by ``_read_arrays`` from the file's text,
    and the document as a whole by ``json.load`` when that fails; one
    nested past the decoder's recursion depth is an input error
    (ValueError), not a RecursionError."""
    with open(path, "rb") as fh:
        doc = _read_arrays(fh.read(), arrays)
    if doc is not None:
        return doc
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _resolve_group(ref: str) -> group_core.GroupTable:
    if ref.startswith("catalog:"):
        return catalog.get(ref[len("catalog:"):])
    return group_core.GroupTable.from_json(_load_json(ref, _GROUP_ARRAYS))


def _emit(payload: dict, as_json: bool, lines: Callable[[], Iterable[str]]) -> None:
    """Print payload as JSON, or else the text lines, built only then."""
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines():
            print(line)


def cmd_omega(args) -> int:
    g = _resolve_group(args.group)
    part = auto_orbits.orbit_partition(g)
    _emit(part.to_json(), args.json, lambda: [
        f"group: {args.group} (order {g.order})",
        f"omega = {part.omega}",
        "class sizes: " + ", ".join(str(len(c)) for c in part.classes),
    ])
    return 0


def cmd_orbits(args) -> int:
    g = _resolve_group(args.group)
    part = auto_orbits.orbit_partition(g)

    def lines():
        orders = g.element_orders()
        yield f"group: {args.group} (order {g.order}), omega = {part.omega}"
        for cls in part.classes:
            labels = ", ".join(g.labels[i] for i in cls)
            yield f"  order {orders[cls[0]]:>3}, size {len(cls):>3}: {labels}"

    _emit(part.to_json(), args.json, lines)
    return 0


def cmd_classify(args) -> int:
    g = _resolve_group(args.group)
    report = classify.classify_group(g)
    _emit(report.to_json(), args.json, lambda: [
        f"group: {args.group} (order {g.order})",
        f"omega = {report.omega}",
        f"verdict: {report.verdict}",
        *(f"  {key}: {value}" for key, value in report.evidence.items()),
    ])
    return 0


def _mixed_spec(args) -> mixed_group.MixedGroupSpec:
    m = None
    if getattr(args, "matrix", None):
        data = _load_json(args.matrix, _MATRIX_ARRAYS)
        if isinstance(data, list) and len(data) > mixed_group.MAX_DIM:  # before any entry is parsed
            raise ValueError(f"matrix size {len(data)} must be at most {mixed_group.MAX_DIM}")
        m = QMatrix.from_json(data)
    return mixed_group.build(args.p, args.t, m)


def _print_certificate(cert: mixed_group.Certificate, as_json: bool, header: str) -> int:
    _emit(cert.to_json(), as_json, lambda: [
        header,
        *(f"  {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})" for c in cert.checks),
        "result: " + ("all checks passed" if cert.ok else "FAILED"),
    ])
    return 0 if cert.ok else 1


def cmd_mixed(args) -> int:
    spec = _mixed_spec(args)
    if args.subcommand == "build":
        _emit(spec.to_json(), args.json, lambda: [
            f"validated mixed-order spec: p={spec.p}, t={spec.t}, n={spec.n}",
            "action matrix rows: " + "; ".join(" ".join(map(str, r)) for r in spec.action.rows),
        ])
        return 0
    if args.subcommand == "verify":
        cert = mixed_group.spec_checks(spec)
        return _print_certificate(cert, args.json, f"spec checks for p={spec.p}, t={spec.t}:")
    if args.subcommand == "auto":
        rng = random.Random(args.seed)
        alpha = mixed_group.random_element(rng, spec, outside=True)
        beta = mixed_group.random_element(rng, spec, outside=True)
        b = mixed_group.random_vector(rng, spec.n, nonzero=True)
        c = mixed_group.random_vector(rng, spec.n, nonzero=True)
        phi = mixed_group.build_automorphism(b, c, alpha, beta, spec)
        cert = mixed_group.verify_automorphism(phi, samples=args.pairs, seed=args.seed)
        return _print_certificate(
            cert, args.json, f"automorphism {alpha!r} -> {beta!r} with L verified:"
        )
    if args.subcommand == "omega":
        cert = mixed_group.omega_certificate(spec, args.pairs, seed=args.seed)
        code = _print_certificate(
            cert, args.json, f"three-orbit certificate for p={spec.p}, t={spec.t}:"
        )
        if code == 0 and not args.json:
            print("omega = 3 certified")
        return code
    raise AssertionError(args.subcommand)


def cmd_cocycle(args) -> int:
    # building the Cocycle verifies it: verify reports a failure, the other
    # commands let the CocycleError reach main as an input error
    data = _load_json(args.path, _COCYCLE_ARRAYS)
    try:
        c, witness = cocycle_split.Cocycle.from_json(data), None
    except cocycle_split.CocycleError as exc:
        if args.subcommand != "verify":
            raise
        witness = exc.witness
    if args.subcommand == "verify":
        payload = {"ok": witness is None, "witness": list(witness) if witness else None}
        _emit(payload, args.json, lambda: [f"cocycle identity: FAIL at triple {witness}" if witness
                                           else "cocycle identity: PASS"])
        return 1 if witness else 0
    if args.subcommand == "trivialize":
        e = cocycle_split.trivialize(c)
        _emit({"trivializer": [v.to_json() for v in e]}, args.json, lambda: [
            "trivializing cochain:",
            *(f"  e({c.base.labels[x]}) = ({', '.join(map(str, v.entries))})"
              for x, v in enumerate(e)),
        ])
        return 0
    if args.subcommand == "complement":
        h = cocycle_split.complement(c)
        payload = {
            "complement": [{"x": s.x, "a": s.a.to_json()} for s in h],
            "size": len(h),
        }
        _emit(payload, args.json, lambda: [
            f"verified complement of size {len(h)}:",
            *(f"  s_{c.base.labels[s.x]} = ({', '.join(map(str, s.a.entries))})" for s in h),
        ])
        return 0
    raise AssertionError(args.subcommand)


def cmd_catalog(args) -> int:
    rows = [{"name": e.name, "order": e.build().order, "description": e.description,
             "expected_omega": e.expected_omega, "provenance": e.provenance}
            for e in catalog.entries()]
    _emit({"catalog": rows}, args.json, lambda: [
        f"{r['name']:>8}  order {r['order']:>4}  omega={r['expected_omega']}"
        f" [{r['provenance']}]  {r['description']}"
        for r in rows
    ])
    return 0


def cmd_selftest(args) -> int:
    results = []
    for e in catalog.entries():
        if e.expected_omega is None:
            continue
        got = auto_orbits.omega(e.build())
        results.append({"name": e.name, "expected": e.expected_omega, "got": got,
                        "ok": got == e.expected_omega})
    failures = sum(not r["ok"] for r in results)
    _emit({"results": results, "ok": failures == 0}, args.json, lambda: [
        *(f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}: omega expected {r['expected']}, "
          f"got {r['got']}" for r in results),
        "selftest: " + ("all passed" if failures == 0 else f"{failures} failures"),
    ])
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitforge",
        description="automorphism orbit counts, classification reports, and exact certificates",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="orbit count of a small group")
    p_omega.add_argument("group", help="path to group JSON or catalog:NAME")
    p_omega.set_defaults(func=cmd_omega)

    p_orbits = sub.add_parser("orbits", help="full orbit partition of a small group")
    p_orbits.add_argument("group", help="path to group JSON or catalog:NAME")
    p_orbits.set_defaults(func=cmd_orbits)

    p_classify = sub.add_parser("classify", help="orbit-count classification report")
    p_classify.add_argument("group", help="path to group JSON or catalog:NAME")
    p_classify.set_defaults(func=cmd_classify)

    p_mixed = sub.add_parser("mixed", help="exact Q^n x| C_p certificates")
    p_mixed.add_argument("subcommand", choices=["build", "verify", "auto", "omega"])
    p_mixed.add_argument("--p", type=int, required=True, help="prime order of the complement")
    p_mixed.add_argument("--t", type=int, default=None, help="number of companion blocks")
    p_mixed.add_argument("--matrix", default=None, help="path to an explicit action matrix (JSON)")
    p_mixed.add_argument("--pairs", type=int, default=20, help="witness pairs per orbit class")
    p_mixed.set_defaults(func=cmd_mixed)

    p_coc = sub.add_parser("cocycle", help="2-cocycle verification and splitting")
    p_coc.add_argument("subcommand", choices=["verify", "trivialize", "complement"])
    p_coc.add_argument("path", help="path to cocycle JSON")
    p_coc.set_defaults(func=cmd_cocycle)

    p_cat = sub.add_parser("catalog", help="list builtin groups")
    p_cat.set_defaults(func=cmd_catalog)

    p_self = sub.add_parser("selftest", help="recompute catalog orbit counts and compare")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except classify.TheoremContradictionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
