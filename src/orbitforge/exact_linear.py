"""Exact rational linear algebra: vectors, matrices, polynomials as tuples.

Every result is exact; no floating point is used anywhere in the package.
A vector is stored as integer numerators over one positive denominator,
and a matrix as integer rows over one positive denominator, each put in
lowest terms by ``_lowest_terms`` (as ``FiniteAction`` and ``Cocycle``
are) so the form is unique; their arithmetic is integer arithmetic with
one lcm per operation, and ``entries`` and ``rows`` derive ``Fraction``s
for output only. A polynomial is the tuple of its coefficients, lowest
degree first. A matrix keeps the sparse form of its rows once it is first
used in a product; the products are vector and matrix times matrix, with
no scalar product. ``det``, ``inverse``, ``minimal_polynomial`` and the
echelon of ``cyclic_decomposition`` share one elimination routine,
``_clear``, with ``_insert`` keeping the (pivot, row) list, on integer
rows that are divided by the gcd of their entries after every update
(primitive rows, in the fraction-free style of Bareiss, 1968), so entries
grow with the minors of the input and not with a power of its common
denominator. ``inverse`` is the one solve: [A | I] reduced until its left
half is diagonal, sparsest rows first. The cyclic bases of
``cyclic_decomposition`` read Q^n as F^t over the p-th cyclotomic field F,
whose arithmetic is ``cyclotomic``.

Convention: linear maps act on *row* vectors from the right, ``v * m``.
Matrix products therefore compose left to right, which matches the
group-action convention used by the rest of the package.

Vectors and matrices serialize as JSON arrays of ``"num/den"`` strings so
that output is exact and independent of any binary float format; one
formatter, ``_format_row``, writes them. Input comes in through two
intakes that share one shape walker, ``_rows``, each with one entry rule:
``_int_table`` reads integer tables (Cayley tables, action matrices over
F_q) by ``exact_int``, and ``_rational_table`` rational ones (a matrix, a
cocycle's action and values) by its bulk parser ``_rationals``, which also
reads a vector. That rule admits a ``"num/den"`` or integer string, an
integer that is not a bool and a ``Fraction``, and reads a whole flat list
at once into one integer array over one denominator; a float is refused,
never read as its binary value. The bulk arrays of a JSON file come from
its text instead, read by ``_text_table`` in whole-array passes over blocks
of the text into an int16 Cayley table, or a ``_Ratios`` over one
denominator, which the intakes take as they are. ``_rationals`` writes its
entries as such a text, so both readers of rationals share one entry
check, ``_rational_words``.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .arith import is_prime


def _format_row(nums: Iterable[int], d: int) -> list[str]:
    """Each x / d, for d > 0, in the canonical "num/den" form: reduced, the
    sign on the numerator, an integer over 1 (``-1/2``, ``3/1``)."""
    return [f"{x // g}/{d // g}" for x in nums for g in (math.gcd(x, d),)]


#: Longest string entry that an "invalid rational" message quotes whole;
#: a longer one is shown by its first 12 characters and its length.
_QUOTED_MAX = 64

#: A line start not followed by a whole line that is a JSON rational: an
#: optional ASCII sign and ASCII digits, then optionally "/" and ASCII
#: digits that are not all zero. The negative lookahead keeps a search's
#: memory O(1) whatever the text's length.
_NOT_LINE = re.compile(r"^(?![+-]?[0-9]+(?:/(?=0*[1-9])[0-9]+)?$)", re.M)


def _shown(e) -> str:
    """repr(e) for an error message, or past ``_QUOTED_MAX`` characters its
    type, length and first 12 characters."""
    r = repr(e)
    short = f"a {type(e).__name__} whose repr has {len(r)} characters ({r[:12]}...)"
    return short if len(r) > _QUOTED_MAX else r


def _invalid(e) -> ValueError:
    """The error for entry e: a str is shortened past ``_QUOTED_MAX`` of its
    own characters, anything else by ``_shown``."""
    if isinstance(e, str):
        shown = f"of {len(e)} characters ({e[:12]!r}...)" if len(e) > _QUOTED_MAX else repr(e)
    else:
        shown = _shown(e)
    return ValueError(f"invalid rational {shown}: expected \"num/den\", an integer string or an int")


def _line(e) -> str:
    """Entry e as one line of text: a str with its newlines made spaces (so
    it stays one line, and an invalid one), a Fraction as "num/den", an
    integer (not a bool) as "num/1", anything else as a line that is not a
    rational, and a number past ``sys.get_int_max_str_digits()`` (which str()
    does not write) as a line one digit longer, which ``_first_error`` names."""
    if isinstance(e, str):
        return e.replace("\n", " ")
    try:
        return f"{e.numerator}/{e.denominator}" if isinstance(e, Fraction) else f"{exact_int(e)}/1"
    except TypeError:
        return "?"
    except ValueError:  # past sys.get_int_max_str_digits()
        return "0" * (sys.get_int_max_str_digits() + 1)


def _first_error(entries: list, text: str) -> ValueError | None:
    """The error of the first entry, each one line of text, that is not a
    rational or has a number longer than ``sys.get_int_max_str_digits()``;
    None when there is none."""
    limit = sys.get_int_max_str_digits()
    bad = _NOT_LINE.search(text)
    long = re.compile(f"[0-9]{{{limit + 1}}}").search(text, 0, bad.start() if bad else len(text)) \
        if limit else None
    if long:  # a valid line before the first bad one, with a number int() does not read
        s = entries[text.count("\n", 0, long.start())]
        shown = f"{len(s)} characters ({s[:12]!r}...)" if isinstance(s, str) else f"type {type(s).__name__}"
        return ValueError(f"invalid rational of {shown}: too many digits,"
                          f" at most {limit} in a numerator or denominator")
    return bad and _invalid(entries[text.count("\n", 0, bad.start())])


def _over_lcm(nums: np.ndarray, dens: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(A, D), A / D = nums / dens with D the lcm of dens, when every |A[i]|
    stays below 2^63; None past that. dens is overwritten."""
    ordered = np.sort(dens)  # its distinct values come faster so than by np.unique
    d = math.lcm(int(ordered[0]), *ordered[1:][ordered[1:] != ordered[:-1]].tolist())
    if d * max(int(nums.max()), -int(nums.min()), 1) >= 2**63:
        return None
    return nums * np.floor_divide(d, dens, out=dens), d


def _rationals(entries: list) -> tuple[np.ndarray, int]:
    """(A, D) for a flat list of rationals, each "num/den", a bare integer
    string, an integer (an int or a numpy integer, not a bool) or a
    Fraction: A / D their values, A one integer per entry over D, the lcm of
    their denominators. A is int64 when every |A[i]| is below 2^63, and
    holds Python ints (dtype object) past that. entries is emptied once
    read, which frees its strings early.

    The entries are written as one JSON array of strings, ints and Fractions
    as "num/den", and read by ``_text_table``, whose entry check also reads
    the rationals of a JSON file's text. When that fails, ``_first_error``
    looks for a bad entry, each one line, and if there is none (a bare integer
    string, a number over 18 digits or a value past 2^63) the numbers are
    converted by int(). Any other entry, a float, a bool, a str with a
    space, an underscore, an exponent, a decimal point, a non-ASCII digit or
    a zero or signed denominator included, and a number longer than
    ``sys.get_int_max_str_digits()``, raises a ValueError that names the
    first such entry."""
    n = len(entries)
    if not n:
        return np.zeros(0, np.int64), 1
    try:
        text = '["' + '","'.join(entries) + '"]'
    except TypeError:  # an entry that is not a str
        text = '["' + '","'.join(map(_line, entries)) + '"]'
    text = text.encode("ascii", "replace")
    read = _text_table(text, 0, len(text), 1, True, None)
    if read is not None and len(read) == n:
        entries.clear()
        return read.nums, read.den
    text = "\n".join(map(_line, entries))
    if error := _first_error(entries, text):
        raise error
    entries.clear()
    nums, _, dens = zip(*(line.partition("/") for line in text.split("\n")))
    nums, dens = list(map(int, nums)), [int(x) if x else 1 for x in dens]
    d = math.lcm(*set(dens))
    flat = [x * (d // y) for x, y in zip(nums, dens)]
    return np.array(flat, _dtype(max(map(abs, flat)))), d


def exact_int(x) -> int:
    """x as an int. A float or a bool is rejected (TypeError), not truncated;
    other integer types (numpy's) go through ``operator.index``."""
    if isinstance(x, bool):
        raise TypeError("a boolean is not an integer")
    return operator.index(x)


_EXACT_INT = frozenset({int})
_CONTAINERS = frozenset({list, tuple, np.ndarray})


def _rows(data, shape: tuple[int, ...]) -> list | None:
    """The shape walker: the innermost containers (lists, tuples or arrays)
    of data, nested to exactly the given shape, in row-major order; None for
    data of any other shape. Each level is checked before the next is
    listed, and the entries of the last level are left to the caller."""
    rows = [data]
    for depth, size in enumerate(shape):
        rows = list(chain.from_iterable(rows)) if depth else rows
        if not _CONTAINERS.issuperset(map(type, rows)) or set(map(len, rows)) - {size}:
            return None
    return rows


def _int_table(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The one intake of an integer table (a Cayley table, action matrices,
    cocycle values): data as one array of the given shape. An integer array
    of that shape is returned as it is; any other data must pass the shape
    walker ``_rows``. Entries that are all int pass one streamed type check,
    and any other goes through ``exact_int``, so numpy integers pass while
    a bool, a float or a str raises a ValueError that names the first, in
    row-major order. The array is int64, or holds Python ints (dtype object)
    when an entry is past int64. No flat list of the entries is built."""
    if isinstance(data, np.ndarray):
        if data.dtype.kind in "iu" and data.shape == shape:
            return data
        data = data.tolist()
    rows = _rows(data, shape)
    if rows is None:
        raise ValueError(f"{what} must be an integer table of shape {shape}")
    if not _EXACT_INT.issuperset(map(type, chain.from_iterable(rows))):
        for x in chain.from_iterable(rows):
            try:
                exact_int(x)
            except TypeError:
                raise ValueError(f"{what} must be integers, got {_shown(x)}") from None
    try:
        return np.array(rows, np.int64).reshape(shape)
    except OverflowError:
        return np.array([list(map(int, r)) for r in rows], object).reshape(shape)


@dataclass(frozen=True, slots=True)
class _Ratios:
    """A rational table read from a JSON file's text by ``_text_table``:
    nums / den, in the form ``_rational_table`` returns; its length is that
    of nums, so it is sized like the rows it stands for."""

    nums: np.ndarray
    den: int

    def __len__(self) -> int:
        return len(self.nums)


def _rational_table(data, shape: tuple[int, ...], message: str) -> tuple[np.ndarray, int]:
    """The one intake of a rational table (a matrix, a cocycle's action and
    values): (A, D), with A of the given shape and A / D the entries of data.
    A ``_Ratios`` of that shape is returned as it is; any other data must pass
    the shape walker ``_rows``, or ValueError(message) is raised before any
    entry is read, and its entries are read by ``_rationals``."""
    if type(data) is _Ratios:
        if data.nums.shape != shape:
            raise ValueError(message)
        return data.nums, data.den
    rows = _rows(data, shape)
    if rows is None:
        raise ValueError(message)
    nums, d = _rationals(list(chain.from_iterable(rows)))
    return nums.reshape(shape), d


#: Bytes per block of ``_text_table``'s whole-array passes: their
#: temporaries, a few times a block's size, stay small, and the text is
#: never copied whole.
_TEXT_BLOCK = 1 << 16


def _blocks(text: bytes, start: int, stop: int, cut: bytes) -> list[tuple[int, int]]:
    """The bounds (lo, hi) of blocks of about ``_TEXT_BLOCK`` bytes that
    cover text[start:stop], which ends with "]": each block but the last
    ends with a byte cut of the text, and the next begins with that byte."""
    cuts = [start]
    while (at := text.find(cut, cuts[-1] + _TEXT_BLOCK, stop - 1)) >= 0:
        cuts.append(at)
    cuts.append(stop - 1)
    return [(lo, hi + 1) for lo, hi in zip(cuts, cuts[1:])]


#: JSON whitespace, and the bytes of a number: ASCII digits and signs. The
#: rest of an array's text is made spaces, ``_SPACED``, to separate its
#: numbers for ``np.fromstring``.
_SPACE, _NUMBER_BYTES = b" \t\n\r", b"0123456789+-"
_SPACED = bytes(c if c in _NUMBER_BYTES else 32 for c in range(256))

#: What the skeleton of an array's text leaves out: whitespace and digits,
#: and signs in an array of rationals, whose whitespace goes in a second
#: pass, so that whitespace inside quotes is seen.
_NOT_SKELETON = (_SPACE + _NUMBER_BYTES[:10], _NUMBER_BYTES)


def _skeleton(shape: tuple[int, ...], entry: bytes) -> bytes:
    """The skeleton of a rectangular array of the given shape: its JSON text
    with no whitespace and every entry written as ``entry``."""
    for size in reversed(shape):
        entry = b"[" + (entry + b",") * (size - 1) + entry + b"]"
    return entry


def _shape(skeleton: bytes, depth: int, unit: int) -> tuple[int, ...] | None:
    """The shape whose ``_skeleton``, at the given depth and with entries
    of unit bytes, this would be, read from the first node at each depth
    (the innermost first: the one at k levels above it ends at the first
    k + 1 "]" in a row); None when a count is not a positive whole number."""
    shape, size = [], unit
    for level in range(depth):
        begin = depth - 1 - level
        end = skeleton.find(b"]" * (level + 1), begin) + level + 1 if begin else len(skeleton)
        count, rest = divmod(end - begin - 1, size + 1)
        if rest or count < 1:
            return None
        shape.insert(0, count)
        size = end - begin
    return tuple(shape)


def _int_words(part: bytes, size: int) -> np.ndarray | None:
    """The entry check of an array of integers. part is a block of
    ``_blocks`` from such an array whose skeleton is right; when every
    innermost row holds exactly ``size`` runs of digits, none with a leading
    zero, and no run lies outside a row, the result is part from its first
    row on, as a uint8 array, with its brackets made spaces, so that its
    slots are read as one comma-separated row; None otherwise. Then each
    slot holds one run when ``np.fromstring`` reads the result with ","
    between numbers, as it fails on two runs in a slot."""
    b = np.frombuffer(part, np.uint8)
    digit = (b >= 48) & (b <= 57)
    begins = digit.copy()
    begins[1:] &= ~digit[:-1]  # where a run of digits begins
    at = (b > 90).nonzero()[0]  # the brackets
    inner = (b[at[:-1]] == 91) & (b[at[1:]] == 93)
    opens = at[:-1][inner]
    bounds = np.zeros(2 * len(opens) + 1, np.intp)  # 0, then each row's "[" and "]"
    bounds[1::2], bounds[2::2] = opens, at[1:][inner]
    runs = np.add.reduceat(begins, bounds, dtype=np.intp)  # before the first row, in it, after it, ...
    if (runs[0::2] != 0).any() or (runs[1::2] != size).any() or (begins[:-1] & (b[:-1] == 48) & digit[1:]).any():
        return None
    words = b.copy()
    words[at] = 32
    return words[opens[0]:] if len(opens) else words[:0]


def _rational_words(part: bytes) -> bytes | None:
    """The one entry check of both rational intakes. part is a block of
    ``_blocks`` from an array of quoted rationals whose skeleton is right
    and whose quotes hold no whitespace, so each entry's quotes hold one "/"
    and else only digits and signs. When each entry is an optional sign, 1
    to 18 digits, "/" and 1 to 18 digits, and no digit or sign lies outside
    the quotes, the result is part with every byte but digits and signs
    made a space (numerator, denominator, numerator, ...); None otherwise.
    The positions of quotes and slashes give the length of each number,
    and counts of digits and signs show that there are no others."""
    b = np.frombuffer(part, np.uint8)
    quotes, slashes = (b == 34).nonzero()[0], (b == 47).nonzero()[0]
    opens, closes = quotes[0::2], quotes[1::2]
    first = b[opens + 1]
    signed = (first == 43) | (first == 45)
    num, den = slashes - opens - 1 - signed, closes - slashes - 1
    if min(num.min(initial=1), den.min(initial=1)) < 1 or max(num.max(initial=1), den.max(initial=1)) > 18 \
            or np.count_nonzero((b >= 48) & (b <= 57)) != num.sum() + den.sum() \
            or part.count(b"+") + part.count(b"-") != np.count_nonzero(signed):
        return None
    return part.translate(_SPACED)


def _text_table(text: bytes, start: int, stop: int, depth: int, rational: bool,
                side: int | None) -> np.ndarray | _Ratios | None:
    """The JSON array text[start:stop], when it is strictly a rectangular
    array of the given depth, square with a side of at most ``side`` unless
    that is None: of non-negative ints below 2^15 with no leading zero, as
    one int16 array (a Cayley table, whose entries are below its order, at
    most ``group_core.MAX_ORDER``), or of quoted "num/den" with no
    whitespace inside the quotes and a nonzero denominator, as ``_Ratios``
    over the lcm of the denominators, each number of at most 18 digits.
    None for any other text, and so for an int table with a larger entry,
    which ``json.load`` reads and the table check refuses, and for
    rationals whose integer form passes 2^63.

    Whole-array passes over the ``_blocks``: first the skeleton of the whole
    array is compared with that of the shape it implies, before any entry is
    read; then each block's entries are checked, by ``_int_words`` or by
    ``_rational_words``, the entry check of ``_rationals``, and converted by
    ``np.fromstring``, which this function alone calls, a block at a time
    into the one output array: no int64 copy of an int table is made.
    ``np.fromstring`` reads a number past int64 as 2^63 - 1, so a block's
    maximum below 2^15 proves every entry of it is."""
    blocks = _blocks(text, start, stop, b"," if rational else b"]")  # rows of ints stay whole
    entry = b'"/"' if rational else b""
    # the text without numbers, and then without whitespace, the skeleton
    bare = b"".join(text[lo + (lo > start):hi].translate(None, _NOT_SKELETON[rational]) for lo, hi in blocks)
    skeleton = bare.translate(None, _SPACE) if rational else bare
    shape = _shape(skeleton, depth, len(entry))
    if shape is None or side is not None and (len(set(shape)) > 1 or shape[0] > side) \
            or skeleton != _skeleton(shape, entry) or rational and bare.count(entry) != math.prod(shape):
        return None  # the last: whitespace inside quotes
    del bare, skeleton
    n, size = math.prod(shape), shape[-1]
    out, pos = np.empty((1 + rational, n), np.int64 if rational else np.int16), 0
    try:  # a block past n entries fails the assignment
        for lo, hi in blocks:
            part = text[lo:hi]
            words = _rational_words(part) if rational else _int_words(part, size)
            if words is None:
                return None
            read = np.fromstring(words, np.int64, sep=" " if rational else ",").reshape(-1, 1 + rational).T
            if not rational and read.max(initial=0) >= 2**15:
                return None
            out[:, pos:pos + read.shape[1]] = read
            pos += read.shape[1]
    except ValueError:  # np.fromstring's, on two runs in a slot
        return None
    if pos != n:
        return None
    if not rational:
        return out[0].reshape(shape)
    read = _over_lcm(*out) if out[1].all() else None
    return read and _Ratios(read[0].reshape(shape), read[1])


def _dtype(bound: int) -> type:
    """int64 when ``bound``, a proved bound on every intermediate of an
    integer check, is below 2^63; Python ints (dtype object) otherwise."""
    return np.int64 if bound < 2**63 else object


_ZERO, _ONE = Fraction(0), Fraction(1)


def _over(nums: Iterable[int], d: int) -> tuple[Fraction, ...]:
    """The entries nums[i] / d, one reduced Fraction each."""
    return tuple(Fraction(x, d) if x else _ZERO for x in nums)


def int_vecmul(v: Sequence[int], rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The integer row vector v times the square integer matrix given by its
    sparse rows of (column, entry) pairs, as ``QMatrix._sparse`` holds them."""
    acc = [0] * len(rows)
    for a, row in zip(v, rows):
        if a:
            for j, w in row:
                acc[j] += a * w
    return acc


_new = object.__new__
_set = object.__setattr__


def _lowest_terms(flat: Sequence[int] | np.ndarray, den: int) -> tuple[Sequence[int] | np.ndarray, int]:
    """(flat, den) divided by the gcd of den > 0 and every entry of flat, a
    sequence of ints or an integer array: the one lowest-terms step."""
    if den == 1:
        return flat, den
    if type(flat) is np.ndarray:
        g = math.gcd(den, int(np.gcd.reduce(flat, axis=None)))
        return (flat // g, den // g) if g > 1 else (flat, den)
    g = math.gcd(den, *flat)
    return ([x // g for x in flat], den // g) if g > 1 else (flat, den)


def _vector(nums: Sequence[int], den: int, v: "QVector | None" = None) -> "QVector":
    """nums / den for den > 0, in lowest terms, set in v or in a new QVector."""
    nums, den = _lowest_terms(nums, den)
    v = _new(QVector) if v is None else v
    _set(v, "nums", tuple(nums))
    _set(v, "den", den)
    return v


@dataclass(frozen=True, slots=True, init=False, repr=False)
class QVector:
    """Immutable rational row vector: the integers ``nums`` over the one
    denominator ``den`` > 0, with gcd(nums, den) = 1. The form is unique,
    so equality and hashing compare the fields."""

    nums: tuple[int, ...]
    den: int

    def __init__(self, entries: Iterable) -> None:
        """The vector of the given rationals, read by ``_rationals``."""
        nums, d = _rationals(list(entries))
        _vector(nums.tolist(), d, self)

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int) -> "QVector":
        """The vector nums / den, for integers nums and den > 0."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return _vector(nums, den)

    @classmethod
    def zero(cls, n: int) -> "QVector":
        return _vector((0,) * n, 1)

    @classmethod
    def unit(cls, n: int, i: int) -> "QVector":
        return _vector(tuple(1 if j == i else 0 for j in range(n)), 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, built on each call; for output."""
        return _over(self.nums, self.den)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def _combine(self, other: "QVector", sign: int) -> "QVector":
        """self + sign * other over the lcm of the two denominators."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        a, b = self.den, other.den
        d = math.lcm(a, b)
        ma, mb = d // a, sign * (d // b)
        return _vector([x * ma + y * mb for x, y in zip(self.nums, other.nums)], d)

    def __add__(self, other: "QVector") -> "QVector":
        return self._combine(other, 1)

    def __sub__(self, other: "QVector") -> "QVector":
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.dim != other.n:
                raise ValueError(f"dimension mismatch: vector {self.dim}, matrix {other.n}")
            return _vector(int_vecmul(self.nums, other._sparse), self.den * other.den)
        return NotImplemented

    def to_json(self) -> list[str]:
        return _format_row(self.nums, self.den)

    def __repr__(self) -> str:
        return "QVector(" + ", ".join(str(e) for e in self.entries) + ")"


def _matrix(nums: Sequence[Sequence[int]], den: int, m: "QMatrix | None" = None) -> "QMatrix":
    """The square nums / den for den > 0, in lowest terms, set in m or in a new QMatrix."""
    if den > 1:  # only then can it reduce, so only then are the rows flattened
        flat, d = _lowest_terms(list(chain.from_iterable(nums)), den)
        if d < den:  # and only when it did are they cut into rows again
            nums, den = zip(*[iter(flat)] * len(nums)), d
    m = _new(QMatrix) if m is None else m
    _set(m, "nums", tuple(map(tuple, nums)))
    _set(m, "den", den)
    return m


@dataclass(frozen=True, init=False, repr=False)
class QMatrix:
    """Immutable square rational matrix acting on row vectors from the right:
    the integer rows ``nums`` over the one denominator ``den`` > 0, with
    gcd(all entries, den) = 1. The form is unique, so equality and hashing
    compare the fields."""

    nums: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Sequence[Sequence]) -> None:
        """The matrix of n lists (or tuples, or arrays) of n rationals, read
        by ``_rational_table``."""
        n = len(rows) if type(rows) in _CONTAINERS or type(rows) is _Ratios else 1  # a scalar: [[x]]
        nums, d = _rational_table(rows, (n, n), f"matrix must be {n} lists of {n} rationals")
        _matrix(nums.tolist(), d, self)

    @classmethod
    def from_json(cls, rows: Sequence[Sequence]) -> "QMatrix":
        """``QMatrix(rows)``: the one reader, for parsed JSON and rows alike."""
        return cls(rows)

    of = from_json

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return _matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on each call; for output."""
        return tuple(_over(row, self.den) for row in self.nums)

    @property
    def n(self) -> int:
        return len(self.nums)

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the (column, numerator) pairs of its nonzero entries."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.nums)

    def __neg__(self) -> "QMatrix":
        return _matrix([[-x for x in row] for row in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.n != other.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
            # each row of self times the cached sparse rows of other, so the
            # sparse companion powers this package lives on stay cheap
            rows = other._sparse
            return _matrix([int_vecmul(r, rows) for r in self.nums], self.den * other.den)
        return NotImplemented

    def det(self) -> Fraction:
        """Exact determinant: the product of the pivots of Gaussian
        elimination, each read off one primitive integer row of ``_clear``
        (rows are stored by pivot column, so the sign is the parity of the
        pivot order)."""
        n, d = self.n, self.den
        rows: list[tuple[int, list[int]]] = []
        pivots = []
        result = _ONE
        for r in self.nums:
            v, s, t = _clear(r, rows)
            piv = _insert(rows, v, n)
            if piv is None:
                return _ZERO
            pivots.append(piv)
            # v = (s / t) * d * (eliminated rational row); per-row Fractions stay reduced
            result *= Fraction(t * v[piv], s * d)
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
        return -result if inversions % 2 else result

    def inverse(self) -> "QMatrix":
        """Exact inverse: ``_clear`` reduces the integer rows of [A | I]
        until the left half is diagonal; raises on singular input. Rows go
        in by nonzero count, then bit length: sparse rows then reduce
        nothing, and the inverse is unique, so the order changes only the
        work."""
        n, d, nums = self.n, self.den, self.nums
        rows: list[tuple[int, list[int]]] = []
        for i in sorted(range(n), key=lambda i: (n - nums[i].count(0),
                                                 sum(x.bit_length() for x in nums[i]))):
            v = _clear([*nums[i], *(d if j == i else 0 for j in range(n))], rows)[0]
            if _insert(rows, v, n) is None:
                raise ValueError("matrix is singular")
        # the pivots are now 0..n-1; clear above each, last first, so every
        # row is reduced by rows whose left half is zero off their pivot
        for k in range(n - 2, -1, -1):
            rows[k] = (k, _clear(rows[k][1], rows[k + 1:])[0])
        # row k of the result is row[n:] / row[k], put over the lcm of the pivots
        den = math.lcm(*(row[k] for k, row in rows))
        return _matrix([[x * (den // row[k]) for x in row[n:]] for k, row in rows], den)

    def to_json(self) -> list[list[str]]:
        return [_format_row(row, self.den) for row in self.nums]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"QMatrix[{body}]"


_PIVOT = itemgetter(0)


def _clear(v: list[int], rows: Sequence[tuple[int, list[int]]]) -> tuple[list[int], int, int]:
    """The one elimination step behind every kernel in this module.

    ``rows`` are (pivot, row) pairs of integer rows sorted by pivot, each
    row zero before its pivot. v is made primitive, then cleared at each
    pivot in turn: v <- (a * v - b * row) / g, with a and b the pivot
    entries of row and v divided by their gcd, and g the gcd of the result.
    One pass clears every pivot: each row is zero before its pivot, so
    clearing one pivot never refills an earlier one. Returns (w, s, t) with w = (s / t) * (v - a combination of
    the rows); w is primitive.
    """
    s = t = 1
    g = math.gcd(*v)
    if g > 1:
        v = [x // g for x in v]
        t = g
    for piv, row in rows:
        b = v[piv]
        if b:
            a = row[piv]
            g = math.gcd(a, b)
            a //= g
            b //= g
            v = [a * x - b * y for x, y in zip(v, row)]
            s *= a
            g = math.gcd(*v)
            if g > 1:
                v = [x // g for x in v]
                t *= g
    return v, s, t


def _insert(rows: list[tuple[int, list[int]]], v: list[int], width: int) -> int | None:
    """Store v under its pivot, the first nonzero among its first ``width``
    entries, keeping rows sorted; None, storing nothing, if those are zero."""
    piv = next((i for i in range(width) if v[i]), None)
    if piv is not None:
        insort(rows, (piv, v), key=_PIVOT)
    return piv


def minimal_polynomial(m: QMatrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial, as its coefficients lowest degree first, via
    exact elimination on the Krylov flats I, m, m^2, ...

    The first power that is linearly dependent on the earlier ones yields the
    (unique) monic annihilating polynomial of least degree. Each flat carries
    a unit tail that records, through the elimination, which combination of
    powers it is; a flat that reduces to zero leaves those coefficients.
    """
    n = m.n
    width = n * n
    rows: list[tuple[int, list[int]]] = []
    power = QMatrix.identity(n)
    for k in range(n + 1):
        tail = [0] * (n + 1)
        tail[k] = power.den
        v = _clear([x for row in power.nums for x in row] + tail, rows)[0]
        if _insert(rows, v, width) is None:
            combo = v[width:width + k + 1]
            return _over(combo, combo[k])
        power = power * m
    raise AssertionError("powers of an n x n matrix must be dependent by degree n")


def cyclic_decomposition(m: QMatrix, p: int, seed: QVector) -> QMatrix:
    """The basis b_1, b_1 * m, ..., b_1 * m^(p-2), ..., b_t * m^(p-2) of the
    whole space made of the orbit blocks {b_i * m^k, 0 <= k <= p-2} of seeds
    b_1 = seed, b_2, ..., b_t, as the rows of a matrix; the seeds are the rows
    0, p-1, 2(p-1), ....

    Requires the minimal polynomial of m to be 1 + x + ... + x^(p-1), so each
    nonzero vector generates a cyclic subspace of dimension exactly p-1 and any
    block starting outside the current span extends it directly. Later seeds
    are chosen greedily: the first standard basis vector outside the span.
    The span only grows, so each scan resumes after the last seed's index.

    The blocks certify that precondition as they are built: each seed must
    satisfy seed * Phi_p(m) = 0, Phi_p = 1 + x + ... + x^(p-1), or this raises.
    Phi_p is irreducible, so it is the local minimal polynomial of the nonzero
    seed: the block is independent and spans a simple m-invariant subspace,
    so the block of a seed outside the invariant span of the earlier blocks
    meets that span only in 0. No row is checked, and only blocks that a
    later seed is tested against are echeloned. Phi_p(m) commutes with m, so
    it kills every block, hence a basis: it is zero, and Phi_p is the
    minimal polynomial of m.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = m.n
    if seed.dim != n:
        raise ValueError(f"seed dimension {seed.dim} does not match matrix size {n}")
    if seed.is_zero:
        raise ValueError("seed must be nonzero")
    if n % (p - 1) != 0:
        raise ValueError(f"dimension {n} is not divisible by {p - 1}")

    echelon: list[tuple[int, list[int]]] = []  # of the blocks so far, by numerators
    basis: list[QVector] = []
    w, i = seed, -1  # i: the index of the last unit seed
    while True:
        block, total = [], w
        for _ in range(p - 1):
            block.append(w)
            w = w * m
            total = total + w
        if not total.is_zero:
            raise ValueError("minimal polynomial is not the prime cyclotomic polynomial")
        basis += block
        if len(basis) == n:
            break
        for v in block:
            _insert(echelon, _clear(list(v.nums), echelon)[0], n)
        i = next(k for k in range(i + 1, n) if any(_clear([int(j == k) for j in range(n)], echelon)[0]))
        w = QVector.unit(n, i)
    den = math.lcm(*(v.den for v in basis))
    return _matrix([[x * (den // v.den) for x in v.nums] for v in basis], den)
