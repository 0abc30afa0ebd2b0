"""Deterministic CSV/JSON writers.

A CSV column is ``(name, array)`` with a float, int, uint or bool dtype, or
``(name, codes, labels)``: unsigned-int codes written as ``labels[code]``.
Every float value goes out as ``%.16e`` (17 significant digits, enough for
the residual validators), every int, uint or bool value as ``str()``.
Identical inputs give byte-identical files; headers carry provenance.

Rows are streamed in blocks and each block becomes bytes in one pass of
numpy array operations.  A block holds ``constants.BLOCK`` float values,
``rows_per_block(k)`` = BLOCK // k rows of a file with k float columns
(BLOCK rows when it has none), so the digit kernel's per-value temporaries
hold at most BLOCK values whatever the column count.  The block's float
columns are stacked into one (rows, k) float64 array (the cast is exact,
the same ``float()`` the ``%`` operator applies) and the exact digit kernel
runs once on all of it: with k = floor(log10|v|), y = |v| * 10**(16 - k)
is formed as a double-double product (Dekker's exact product against a
table of 10**q split into a correctly rounded double and its correctly
rounded remainder) and rounded to the nearest integer D.  A value takes the per-value
``'%.16e' % v`` instead when that rounding cannot be proved correct or the
fast path does not apply: y's fraction within 1e-6 of one half (exact ties
round half to even there), floor(y) below 10**16 or D at 10**17 (log10 was
off by one, or D carries into the next power of ten), or v zero,
non-finite, subnormal or outside [1e-280, 1e280].  Each float value becomes
a 24-byte field of six words: the sign, or one NUL pad byte, with the
first digit, '.' and the second digit; three groups of four digits; the
last three digits and 'e'; the exponent's sign and two digits and the
separator, ',' or '\\n' after the last column.  Each word is gathered from a
text table straight into its column of the block's fields.  A value the
kernel does not take, or one with a three-digit exponent (|v| >= 1e100 or
|v| < 1e-99), is formatted on its own; when one of those texts is longer
than 23 bytes, that block's float fields are as wide as the longest.  The
text tables are built once per process with numpy integer arithmetic.  A
labelled column's block gathers its fields by code from one table of the
column's label texts as UTF-8, made once per file.  An int or uint column
whose min..max range is no wider than its row count gets one table of
``str(v)`` over that range, also made once per file, and gathers by value
minus min.  Any other column's block (bool, or ints spread wider) makes
``str(v)`` of each of its distinct values once and gathers those by
index.  Each field is NUL-padded and ends in its separator.  A block is
its fields side by side, with the NUL bytes dropped.  Files are written
in binary mode as UTF-8.

``write_csv`` checks its arguments before any file or directory is
created.  A column of any other dtype (str, bytes, object, complex,
datetime), or labelled codes that are not unsigned ints or run past their
labels, raise ``TypeError`` or ``ValueError`` naming the column.  A label
or a column name whose text holds ',', NUL or a line break, and a comment
holding a line break, would change the rows ``read_csv`` sees; they raise
``ValueError`` naming the column or comment.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .constants import BLOCK

# the boundaries str.splitlines() splits at, as read_csv does
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAKS = re.compile(f"[,\0{LINE_BREAKS}]")

# fast-path range of |v|: 10**(16 - k) and its remainder stay normal doubles
FAST_MIN, FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -281, 280        # floor(log10|v|) over the range, one low at its end
_SPLIT = 134217729.0              # 2**27 + 1, Veltkamp's splitting factor


def rows_per_block(floats: int) -> int:
    """Rows of a block of a file with ``floats`` float columns: BLOCK
    values, or BLOCK rows when there is no float column."""
    return BLOCK // max(floats, 1)


@functools.cache
def _powers():
    """(hi, hh, hl, lo) by k - _K_MIN: 10**(16 - k) = hi + lo, hi = hh + hl.

    hi is 10**(16 - k) correctly rounded and lo the remainder correctly
    rounded (int true division is), hh and hl hi's Veltkamp halves.  Built
    on first use.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi, lo = np.array(hi), np.array(lo)
    t = hi * _SPLIT
    hh = t - (t - hi)
    return hi, hh, hi - hh, lo


def _words(*columns):
    """uint32 words of four bytes, each byte from one column of byte values
    (an array or a scalar)."""
    return np.column_stack(np.broadcast_arrays(*columns)).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _texts():
    """uint32 text tables, built on first use: NUL '1.2' or '-1.2' by the
    first two digits + 100 * sign; the 10 000 four-digit groups; the 1 000
    three-digit groups, each followed by 'e'; and the exponent's sign and
    two digits by k + 99, each followed by ',', then again by '\\n'."""
    zero = ord("0")
    sign, dd = np.divmod(np.arange(200), 100)
    lead = _words(np.where(sign, ord("-"), 0), zero + dd // 10, ord("."), zero + dd % 10)
    g = np.arange(10000)
    digits = _words(*(zero + g // 10 ** p % 10 for p in (3, 2, 1, 0)))
    g = np.arange(1000)
    tails = _words(*(zero + g // 10 ** p % 10 for p in (2, 1, 0)), ord("e"))
    newline, k = np.divmod(np.arange(398), 199)
    k -= 99
    exps = _words(np.where(k < 0, ord("-"), ord("+")), zero + abs(k) // 10, zero + abs(k) % 10,
                  np.where(newline, ord("\n"), ord(",")))
    return lead, digits, tails, exps


def _fast_digits(v):
    """(d, k, ok): |v| = d * 10**(k - 16) rounded to 17 digits, where ok.

    v is float64; d and k are int64 and hold 10**16 and 0 where not ok.
    """
    hi, hh, hl, lo = _powers()
    a = np.abs(v)
    fast = (a >= FAST_MIN) & (a <= FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)).astype(np.int64), _K_MIN, _K_MAX)
    i = k - _K_MIN
    # y = a * (hi + lo) = p + c: p = fl(a * hi), c its exact error plus a * lo
    p = a * hi[i]
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    c = ((ah * hh[i] - p) + ah * hl[i] + al * hh[i]) + al * hl[i] + a * lo[i]
    whole = np.floor(c)
    frac = c - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    ok = fast & (np.abs(frac - 0.5) > 1e-6) & (d >= 10 ** 16)
    d += frac > 0.5
    ok &= d < 10 ** 17
    return np.where(ok, d, 10 ** 16), np.where(ok, k, 0), ok


def _float_fields(v, newline):
    """'%.16e' of each float64 in the (rows, k) array v as (rows, k, width)
    NUL-padded bytes.

    Each field's last text byte is its separator: ',', or '\\n' in the last
    column when ``newline``.  A field is six words, each gathered straight
    into its column: sign or NUL, d0, '.', d1 | d2-d5 | d6-d9 | d10-d13 |
    d14-d16, 'e' | exponent sign, two digits, separator.  The width is 24
    unless a value formatted on its own needs more.
    """
    lead, digits, tails, exps = _texts()
    rows, cols = v.shape
    v = v.reshape(-1)
    d, k, ok = _fast_digits(v)
    ok &= np.abs(k) < 100               # a three-digit exponent needs a wider field
    # D = 10**15 * d0d1 + 10**3 * (three 4-digit groups) + the last three
    q = d // 1000
    top = q // 10 ** 8
    tail = (d - q * 1000).astype(np.int32)
    low = (q - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    head = top // 10 ** 4
    lowmid = low // 10 ** 4
    fields = np.empty((v.size, 6), np.uint32)
    np.take(lead, head + 100 * np.signbit(v), out=fields[:, 0], mode="clip")
    np.take(digits, top - head * 10 ** 4, out=fields[:, 1], mode="clip")
    np.take(digits, lowmid, out=fields[:, 2], mode="clip")
    np.take(digits, low - lowmid * 10 ** 4, out=fields[:, 3], mode="clip")
    np.take(tails, tail, out=fields[:, 4], mode="clip")
    k += 99
    if newline:
        k.reshape(rows, cols)[:, -1] += len(exps) // 2
    np.take(exps, k, out=fields[:, 5], mode="clip")
    fields = fields.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        seps = np.where(newline & (slow % cols == cols - 1), b"\n", b",").tolist()
        text = [b"%.16e%b" % pair for pair in zip(v[slow].tolist(), seps)]
        width = max(24, *map(len, text))
        if width > 24:
            fields = np.concatenate([fields, np.zeros((v.size, width - 24), np.uint8)], axis=1)
        fields[slow] = np.array(text, f"S{width}").view(np.uint8).reshape(-1, width)
    return fields.reshape(rows, cols, -1)


def _field_bytes(block, texts, end, low):
    """A column's block that is not float as (rows, width) NUL-padded bytes,
    each field ending in the separator ``end``: with a table ``texts`` the
    block gathers its texts by value minus ``low`` (a labelled column's
    codes, or an int column's values over its min..max range); any other
    column makes ``str(v)`` of each distinct value once, then gathers
    those."""
    if texts is None:
        values, block = np.unique(block, return_inverse=True)
        texts = np.array([str(v).encode() + end for v in values.tolist()])
    elif low:
        block = block - low
    return texts[block].view(np.uint8).reshape(len(block), -1)


def _block_fields(floats, parts, newline, lo, rows):
    """Rows lo..lo+rows-1 as (rows, width) NUL-padded bytes.  ``parts`` are
    slices of the float columns' fields and (column, texts or None,
    separator, low) of the other columns; what the block is built from is
    freed on return."""
    if floats:
        v = np.empty((rows, len(floats)))
        for j, arr in enumerate(floats):
            v[:, j] = arr[lo:lo + rows]
        fields = _float_fields(v, newline)
    block = [fields[:, part].reshape(rows, -1) if isinstance(part, slice)
             else _field_bytes(part[0][lo:lo + rows], *part[1:]) for part in parts]
    return block[0] if len(block) == 1 else np.concatenate(block, axis=1)


def write_csv(path, header_comments, columns, footer_comments=()):
    """columns: list of (name, array) or (name, codes, labels); arrays must
    share a length."""
    names = [column[0] for column in columns]
    arrays = [np.asarray(column[1]) for column in columns]
    labels = [column[2] if len(column) == 3 else None for column in columns]
    n = len(arrays[0]) if arrays else 0
    for name, arr, texts in zip(names, arrays, labels):
        if len(arr) != n:
            raise ValueError(f"column {name!r} has {len(arr)} rows, {names[0]!r} has {n}")
        if _BREAKS.search(name):
            raise ValueError(f"column name {name!r} holds ',', NUL or a line break")
        if texts is None:
            if arr.dtype.kind not in "fiub":
                raise TypeError(f"column {name!r} has dtype {arr.dtype}, not float, int, "
                                "uint or bool; text goes in as (name, codes, labels)")
        elif arr.dtype.kind != "u":
            raise TypeError(f"column {name!r} has {arr.dtype} codes, not unsigned ints")
        elif n and arr.max() >= len(texts):
            raise ValueError(f"column {name!r} has a code past its {len(texts)} labels")
        elif any(map(_BREAKS.search, texts)):
            raise ValueError(f"column {name!r} has a value holding ',', NUL or a line break")
    for c in (*header_comments, *footer_comments):
        if any(b in f"{c}" for b in LINE_BREAKS):
            raise ValueError(f"comment {c!r} holds a line break")
    header = "".join(f"# {c}\n" for c in header_comments)
    footer = "".join(f"# {c}\n" for c in footer_comments)
    floats = [arr for arr in arrays if arr.dtype.kind == "f"]
    ends = [b","] * (len(arrays) - 1) + [b"\n"]
    # each label's text with its column's separator, indexed by code; an
    # int column whose min..max range is no wider than its rows gets the
    # texts of that range, indexed by value minus min
    texts, lows = [], []
    for arr, lab, end in zip(arrays, labels, ends):
        low = 0
        if lab is not None:
            lab = np.array([t.encode() + end for t in lab])
        elif arr.dtype.kind in "iu" and n and int(arr.max()) - int(arr.min()) < n:
            low = arr.min()
            lab = np.array([str(v).encode() + end for v in range(int(low), int(arr.max()) + 1)])
        texts.append(lab)
        lows.append(low)
    # a run of adjacent float columns is one part of each block, a slice of
    # the block's float fields; every other column is a part of its own
    parts, f = [], 0
    for is_float, run in itertools.groupby(zip(arrays, texts, ends, lows),
                                           lambda c: c[0].dtype.kind == "f"):
        run = list(run)
        if is_float:
            parts.append(slice(f, f + len(run)))
            f += len(run)
        else:
            parts += run
    newline = bool(parts) and isinstance(parts[-1], slice)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((header + ",".join(names) + "\n").encode("utf-8"))
        rows = rows_per_block(len(floats))
        for lo in range(0, n, rows):
            # one expression, so no name holds a block while the next is built
            fh.write(_block_fields(floats, parts, newline, lo, min(rows, n - lo))
                     .tobytes().replace(b"\0", b""))
        fh.write(footer.encode("utf-8"))


def read_csv(path):
    """Read back a write_csv file: (header dict from '# key: val', columns dict).

    An empty or whitespace-only line is no row, and a row whose field count
    differs from the header's is a ValueError."""
    meta = {}
    names = None
    rows = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, val = body.split(":", 1)
                meta[key.strip()] = val.strip()
            continue
        if names is None:
            names = line.split(",")
            continue
        rows.append(line.split(","))
        if len(rows[-1]) != len(names):
            raise ValueError(f"line {i} has {len(rows[-1])} fields; the header has {len(names)}")
    cols = {}
    for j, name in enumerate(names or []):
        try:
            cols[name] = np.array([float(r[j]) for r in rows])
        except ValueError:
            cols[name] = np.array([r[j] for r in rows])
    return meta, cols


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
