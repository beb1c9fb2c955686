"""Self-describing verification report records shared by the pipeline and
CLI, and the writers that format every float of an artifact table and every
JSON artifact."""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Entries of a float table formatted per block: the block's distinct values
# and their texts are all a writer holds at a time.
BLOCK_ENTRIES = 1 << 16

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: measured margin against a stated tolerance."""

    name: str
    detail: str
    tolerance: float
    margin: float  # tolerance minus measured error; nonnegative means pass
    passed: bool

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.name}: {self.detail} "
                f"(tolerance {self.tolerance:.3g}, margin {self.margin:.3g})")


def check_error(name: str, detail: str, error: float, tolerance: float) -> CheckResult:
    """A check of the form |error| <= tolerance."""
    return CheckResult(name=name, detail=detail, tolerance=tolerance,
                       margin=tolerance - error, passed=error <= tolerance)


def check_flag(name: str, detail: str, ok: bool) -> CheckResult:
    return CheckResult(name=name, detail=detail, tolerance=0.0,
                       margin=0.0 if ok else -1.0, passed=bool(ok))


def _texts(block: np.ndarray, for_json: bool) -> list:
    """The text of every entry of the 2-D float array ``block``, as a list
    of rows: ``repr`` of the entry, or with ``for_json`` what ``json.dumps``
    writes for it (``NaN``, ``Infinity``, ``-Infinity``).

    Each distinct bit pattern of the block is formatted once and every entry
    looks its text up, so a table of few distinct values costs few ``repr``
    calls.  Bit patterns, not values, so that 0.0 and -0.0 keep their own
    texts.
    """
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    texts = list(map(repr, values.tolist()))
    if for_json and not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[inverse].reshape(block.shape).tolist()


def _blocks(a: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block) over the rows of the 2-D float array ``a``, as
    contiguous float64, at most BLOCK_ENTRIES entries a block."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    step = max(1, BLOCK_ENTRIES // max(1, a.shape[1]))
    for start in range(0, a.shape[0], step):
        yield start, a[start:start + step]


def write_nonzeros(fh, a: np.ndarray, row_keys, col_keys, end: str) -> None:
    """Write ``row_keys[row] + col_keys[col] + repr(value) + end`` for every
    entry of the 2-D float array ``a`` that is ``!= 0.0`` (NaN is one, -0.0
    is not), in row-major order.  Every sparse artifact table is written
    here, one block of at most BLOCK_ENTRIES entries at a time, its lines
    joined once from their pieces, so no string is made per line."""
    row_keys = np.asarray(row_keys, dtype=object)
    col_keys = np.asarray(col_keys, dtype=object)
    for start, block in _blocks(a):
        rows, cols = np.nonzero(block)
        pieces = np.empty((rows.size, 4), dtype=object)
        pieces[:, 0] = row_keys[rows + start]
        pieces[:, 1] = col_keys[cols]
        pieces[:, 2] = _texts(block[rows, cols][None], False)[0]
        pieces[:, 3] = end
        fh.write("".join(pieces.ravel().tolist()))


class JsonText(str):
    """Text already in JSON form, which ``write_json`` writes as it is."""


def json_rows(a: np.ndarray) -> Iterator[JsonText]:
    """``json.dumps(row.tolist())`` for every row of the 2-D float array ``a``:
    every dense artifact table's floats, one block at a time (``_texts``)."""
    for _, block in _blocks(a):
        for texts in _texts(block, True):
            yield JsonText(f"[{', '.join(texts)}]")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True)``, where ``JsonText``, alone or as
    a value of a dict, is written as it is."""
    if isinstance(value, JsonText):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_json_text(value[key])}"
                               for key in sorted(value)) + "}"
    return json.dumps(value, sort_keys=True)


def write_json(path, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True) + "\n"`` to ``path``.

    A top-level value that is an iterator is written as a list, one item
    encoded at a time (``_json_text``), and one that is a float ndarray as
    its ``tolist()``, one row at a time (``json_rows``), so an n x n matrix
    is never held whole as Python floats or as text.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(payload)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            value = payload[key]
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                rows = json_rows(np.atleast_2d(value))
                value = rows if value.ndim == 2 else next(rows)
            if isinstance(value, Iterator):
                fh.write("[")
                for j, item in enumerate(value):
                    fh.write(f"{', ' if j else ''}{_json_text(item)}")
                fh.write("]")
            else:
                fh.write(_json_text(value))
        fh.write("}\n")


def write_report(checks, path) -> None:
    payload = [asdict(c) for c in checks]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def format_report(checks) -> str:
    return "\n".join(c.line() for c in checks)
