"""Deterministic CSV/JSON writers.

Numbers are rendered with the shortest round-trip decimal representation,
columns keep a fixed order, and lines end with a bare newline, so reruns of
the same computation produce byte-identical files.

A CSV float cell holds exactly the bytes of ``repr(v)``, rendered for a whole
array at once: ``_shortest`` is Schubfach's ``toDecimal`` (R. Giulietti, "The
Schubfach way to render doubles", 2020, as in the JDK 19 ``DoubleToDecimal``)
on numpy ``uint64``, and ``_layout`` places its digits in Python's ``'r'``
format.  Zeros, subnormals, infinities and NaNs, and every table with fewer
than ``_VECTOR_MIN`` normal values, are rendered by ``repr`` itself; so are
integer columns shorter than that, and longer ones by the same digit table.
Rows are assembled as NUL-padded bytes, ``_ROW_BLOCK`` rows at a time, and
written without the NULs.
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .analysis import ModulusCurve
    from .solvers import IterateTrace

_VECTOR_MIN = 224  # the measured crossover: below it, repr beats the kernel's fixed cost of about 0.2 ms
_VALUE_BLOCK = 4096  # values per kernel pass, the fastest of 2048 to 32768 on a Xeon with a 48 KiB L1 cache
_ROW_BLOCK = 2048  # CSV rows assembled and written at a time
_CELL = 32  # bytes of a rendered cell, the writer's comma included: see _templates

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # Schubfach's decimal exponent k over all normal doubles
_LETTERS = "ABCDEFGHIJKLMNOPQ"  # the digits d1..d17 in a layout's text
_FIXED = range(-3, 17)  # the decpt of a value 0.d1d2... * 10**decpt that repr writes without an exponent
_DIGIT = 7  # the byte of digit d1 in the rows of _digits, and of the first slot of a cell's body


@functools.lru_cache(maxsize=None)
def _ascii4() -> np.ndarray:
    """The four ASCII digits of 0000..9999, each packed into one uint32."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for column, power in enumerate((1000, 100, 10, 1)):
        digits[:, column] = i // power % 10 + ord("0")
    return digits.view(np.uint32).ravel()


@functools.lru_cache(maxsize=None)
def _g_table() -> tuple:
    """Schubfach's g(k) = floor(beta) + 1, where 10**-k = beta * 2**r and
    2**125 <= beta < 2**126, for k in [_K_MIN, _K_MAX], as g1 = g // 2**63
    and g0 = g % 2**63, each indexed by k - _K_MIN."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            d = 10 ** k
            g.append((1 << (125 + d.bit_length())) // d + 1)
    return np.array([v >> 63 for v in g], dtype=np.uint64), np.array([v & _M63 for v in g], dtype=np.uint64)


def _text(n: int, decpt: int) -> str:
    """``repr`` of 0.d1d2...dn * 10**decpt, as Python's ``'r'`` format lays
    it out, without the sign and the exponent, and with the letters
    ``_LETTERS`` for the digits."""
    d = _LETTERS[:n]
    if decpt not in _FIXED:
        return d[0] + ("." + d[1:] if n > 1 else "")
    if decpt <= 0:
        return "0." + "0" * -decpt + d
    if decpt >= n:
        return d + "0" * (decpt - n) + ".0"
    return d[:decpt] + "." + d[decpt:]


@functools.lru_cache(maxsize=None)
def _templates() -> tuple:
    """The layouts of a cell, by key (n - 1) * 22 + clip(decpt, -4, 17) + 4.

    A cell has ``_CELL`` bytes: the sign at 0, the ``0.`` to ``0.000``
    prefix at 1 to 5, a body of 18 slots from byte ``_DIGIT`` on in which
    digit j shows at slot j before the point and at slot j + 1 after it, and
    the exponent at 25 to 29; the last byte is left for the writer's comma.
    Per key, three rows of ``_CELL`` bytes: the mask (0xFF) of the slots
    that show the digit at their own byte of a ``_digits`` row, the mask of
    those that show the digit one byte to their left, and the fixed
    characters (NUL for none).  Then the exponent suffixes ``e±dd[d]`` at
    25, by decpt - _K_MIN - 16, empty in fixed form."""
    cells = []
    for n in range(1, 18):
        for decpt in range(-4, 18):
            text = _text(n, decpt)
            prefix = text[:2 - decpt] if decpt in _FIXED and decpt <= 0 else ""
            cells.append("\0" + prefix.ljust(_DIGIT - 1, "\0") + text[len(prefix):])
    cells = np.array(cells, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    letter = (cells >= ord(_LETTERS[0])) & (cells <= ord(_LETTERS[-1]))
    digit = cells.astype(np.intp) - ord(_LETTERS[0]) + _DIGIT  # the byte of the digit a letter stands for
    left = (letter & (digit == np.arange(_CELL))) * np.uint8(0xFF)
    right = (letter & (digit == np.arange(_CELL) - 1)) * np.uint8(0xFF)
    fixed = np.where(letter, 0, cells).astype(np.uint8)
    suffixes = ["" if decpt in _FIXED else f"e{decpt - 1:+03d}" for decpt in range(_K_MIN + 16, _K_MAX + 18)]
    suffixes = np.array(["\0" * (_DIGIT + 18) + x for x in suffixes], dtype=f"S{_CELL}").view(np.uint8)
    return left, right, fixed, suffixes.reshape(-1, _CELL)


def _mulhi(alo, ahi, blo, bhi):
    """floor(a * b / 2**64) for uint64 a, b < 2**63 given as their 32-bit limbs."""
    t = ahi * blo + ((alo * blo) >> 32)
    return ahi * bhi + (t >> 32) + ((alo * bhi + (t & _M32)) >> 32)


def _rop(g1, g0, cp):
    """The JDK's ``rop(g1, g0, cp)``: about g * cp / 2**127, rounded to odd."""
    clo, chi = cp & _M32, cp >> 32
    z = ((g1 * cp) >> 1) + _mulhi(g0 & _M32, g0 >> 32, clo, chi)
    return _mulhi(g1 & _M32, g1 >> 32, clo, chi) + (z >> 63) | ((z & _M63) != 0)


def _shortest(bits: np.ndarray):
    """``(f, k)``: f * 10**k is the shortest decimal in the rounding interval
    of each positive normal double given by its bits, the closest to it of
    those, and the one with even f if two are as close; 10**15 <= f < 10**17.

    This is Schubfach's ``toDecimal(q, c)`` without its fast path for
    integers, which gives the same digits."""
    biased = (bits >> 52).astype(np.int64)
    t = bits & ((1 << 52) - 1)
    c, q = t | (1 << 52), biased - 1075
    irregular = (t == 0) & (biased > 1)  # a power of two: its lower neighbour is half as far
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = (column.take(k - _K_MIN) for column in _g_table())
    cb = c << 2
    vb, vbl, vbr = (_rop(g1, g0, cp << h) for cp in (cb, cb - 2 + irregular, cb + 2))
    out = c & 1  # 1: the interval's ends round to the neighbours, so they are left out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    lower = np.where(uin != win, uin, (vb < (s + t) << 1) | ((vb == (s + t) << 1) & (s & 1 == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), np.where(lower, s, t))
    return f, k


def _digits(f: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each uint64 f < 10**17, zero-padded on the
    left, at bytes ``_DIGIT`` to ``_DIGIT`` + 16 of a row of ``_CELL``, so
    that digit j lines up with body slot j of a cell; the other bytes are
    not set."""
    hi = f // 10 ** 8
    lo = f - hi * 10 ** 8
    quads = np.empty((len(f), _CELL // 4), np.uint32)
    for column, part in enumerate((hi // 10 ** 8, hi // 10 ** 4 % 10 ** 4, hi % 10 ** 4, lo // 10 ** 4, lo % 10 ** 4),
                                  (_DIGIT - 3) // 4):
        quads[:, column] = _ascii4().take(part)
    return quads.view(np.uint8)


def _layout(bits: np.ndarray) -> np.ndarray:
    """``repr`` of normal doubles given by their bits, one NUL-padded row of
    ``_CELL`` bytes each: the digits are masked into the slots of their
    value's layout, not shifted."""
    f, k = _shortest(bits & _M63)
    short = f < 10 ** 16
    digits = _digits(np.where(short, f * 10, f))
    nd = 17 - (digits[:, _DIGIT + 16:_DIGIT - 1:-1] != ord("0")).argmax(axis=1)  # without the trailing zeros
    decpt = k - short + 17  # the value is 0.d1d2... * 10**decpt
    left, right, fixed, suffixes = _templates()
    key = (nd - 1) * 22 + np.minimum(np.maximum(decpt, -4), 17) + 4
    cells = left.take(key, axis=0)
    cells &= digits
    shifted = right.take(key, axis=0).ravel()
    shifted[1:] &= digits.ravel()[:-1]
    cells |= shifted.reshape(cells.shape)
    cells |= fixed.take(key, axis=0)
    cells |= suffixes.take(decpt - _K_MIN - 16, axis=0)
    cells[:, 0] = (bits >> 63).astype(np.uint8) * np.uint8(ord("-"))
    return cells


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value, Python's own, one NUL-padded row of 24 bytes
    each (the longest float is -2.2250738585072014e-308)."""
    return np.array([repr(v) for v in values.tolist()], dtype="S24").view(np.uint8).reshape(len(values), 24)


def _float_cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr(v)`` of each float64 into the rows of ``out``, NUL-padded."""
    bits = values.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    normal = (biased != 0) & (biased != 0x7FF)
    if np.count_nonzero(normal) < _VECTOR_MIN:
        out[:, :24] = _repr_cells(values)
        return
    rows = np.flatnonzero(normal)
    for start in range(0, len(rows), _VALUE_BLOCK):
        block = rows[start:start + _VALUE_BLOCK]
        out[block] = _layout(bits[block])
    rest = np.flatnonzero(~normal)
    out[rest, :24] = _repr_cells(values[rest])


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``str(i)`` of each nonnegative integer below 10**17, one NUL-padded row each."""
    values = np.asarray(values, dtype=np.uint64)
    if len(values) < _VECTOR_MIN:
        return _repr_cells(values)
    width = np.searchsorted(10 ** np.arange(1, 17, dtype=np.uint64), values, side="right") + 1
    masks = (np.arange(17) >= 17 - np.arange(18)[:, None]).astype(np.uint8) * np.uint8(0xFF)
    return _digits(values)[:, _DIGIT:_DIGIT + 17] & masks.take(width, axis=0)


def _distinct(*columns: np.ndarray):
    """The distinct values of the columns together, told apart by their bits
    (``-0.0 == 0.0`` though their reprs differ, and a NaN equals nothing),
    and each column's indices into them.

    ``np.unique`` with the inverse, but on a stable sort, which is several
    times faster on trace columns: they come in long sorted runs."""
    bits = np.concatenate([np.asarray(c, dtype=float) for c in columns]).view(np.uint64)
    order = np.argsort(bits, kind="stable")
    bits = bits[order]
    new = np.empty(len(bits), bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    inverse = np.empty(len(bits), np.intp)
    inverse[order] = np.cumsum(new) - 1
    ends = list(accumulate(len(c) for c in columns))
    return bits[new].view(np.float64), [inverse[start:end] for start, end in zip([0, *ends], ends)]


def _write_csv(path: Path, header: Sequence[str], ints: np.ndarray, floats: np.ndarray, index: np.ndarray) -> None:
    """Write ``header`` and then one row per row of ``index``, whose entries
    pick cells: ``str`` of ``ints[i]`` for i < len(ints), then ``repr`` of
    each of ``floats``, then the empty cell.  Each float is rendered once."""
    table = np.zeros((len(ints) + len(floats) + 1, _CELL), np.uint8)
    cells = _int_cells(ints)
    table[:len(ints), :cells.shape[1]] = cells
    _float_cells(floats, table[len(ints):-1])
    table[:, -1] = ord(",")
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        for start in range(0, len(index), _ROW_BLOCK):
            rows = table.take(index[start:start + _ROW_BLOCK], axis=0)
            rows[:, -1, -1] = ord("\n")
            flat = rows.ravel()
            out.write(flat[flat != 0])


def write_json(path: Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="",
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def modulus_to_csv(curve: ModulusCurve, path: Path) -> None:
    n = len(curve.radii)
    floats, (radii, rho_hat) = _distinct(curve.radii, curve.rho_hat)
    index = np.column_stack([radii + n, rho_hat + n, np.arange(n)])
    _write_csv(path, ["sigma", "rho_hat", "samples"], np.asarray(curve.sample_counts), floats, index)


def trace_to_csv(trace: IterateTrace, path: Path, distances: Optional[List[float]] = None) -> None:
    """One row per iterate: index, coordinates, step norm, then whichever of
    function value, witness norm, xi, distance, and ledger entry exist.  A
    row shows the last witness recorded at its index."""
    n = len(trace)
    header = ["k"] + [f"x{i}" for i in range(trace.dim)]
    header += ["delta", "f_value", "witness_norm", "xi"]
    indices = trace.witness_indices
    inside = (indices >= 0) & (indices < n)
    last = np.full(n, -1)  # -1, a row without a witness, picks the trailing empty cell below
    np.maximum.at(last, indices[inside], np.flatnonzero(inside))

    f_values = np.empty(0) if trace.f_values is None else trace.f_values
    columns = [*((False, x) for x in trace.iterates.T), (False, trace.step_norms), (False, f_values),
               (True, trace.witness_norms), (True, trace.xi_values)]
    if distances is not None:
        header.append("distance")
        columns.append((False, np.asarray(distances, dtype=float)))
    if trace.fejer_ledger is not None:
        header.append("fejer_ledger")
        columns.append((False, trace.fejer_ledger))
    floats, parts = _distinct(*(values for _, values in columns))
    empty = n + len(floats)
    index = np.full((n, 1 + len(columns)), empty)
    index[:, 0] = np.arange(n)
    for j, ((witnessed, _), part) in enumerate(zip(columns, parts), 1):
        if witnessed:
            index[:, j] = np.append(part + n, empty)[last]
        else:
            index[:len(part), j] = part[:n] + n
    _write_csv(path, header, np.arange(n), floats, index)
