"""Deterministic CSV/JSON writers.

Every CSV value that is a float goes out as ``%.16e`` (17 significant digits,
enough for the residual validators) and every other value as ``str()``; the
dtype decides once per column, object columns decide per value.  Rows go
through one ``%`` row template and are streamed in blocks of ``BLOCK_ROWS``.
Identical inputs give byte-identical files; headers carry provenance.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


BLOCK_ROWS = 8192


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_csv(path, header_comments, columns, footer_comments=()):
    """columns: list of (name, array); arrays must share a length."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    n = len(arrays[0]) if arrays else 0
    for name, arr in zip(names, arrays):
        if len(arr) != n:
            raise ValueError(f"column {name!r} has {len(arr)} rows, {names[0]!r} has {n}")
    template = ",".join("%.16e" if arr.dtype.kind == "f" else "%s" for arr in arrays)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("".join(f"# {c}\n" for c in header_comments) + ",".join(names) + "\n")
        for lo in range(0, n, BLOCK_ROWS):
            block = [b.tolist() if b.dtype.kind in "fiubUS" else
                     [f"{float(v):.16e}" if isinstance(v, (float, np.floating)) else str(v)
                      for v in b] for b in (arr[lo:lo + BLOCK_ROWS] for arr in arrays)]
            fh.write("\n".join(template % row for row in zip(*block)) + "\n")
        fh.write("".join(f"# {c}\n" for c in footer_comments))


def read_csv(path):
    """Read back a write_csv file: (header dict from '# key: val', columns dict)."""
    meta = {}
    names = None
    rows = []
    for line in Path(path).read_text().splitlines():
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
