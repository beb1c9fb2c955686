"""The artifact writers against the per-entry oracles in ``helpers``.

Every float of ``space.json``, ``basis.json``, ``splines.tsv`` and the CSV
tables goes through ``report.float_rows`` or ``report.nonzero_entries``,
which format one block at a time.  The files must be the oracles' bytes, on
real bundles and on tables with injected values and several blocks;
``splines.tsv`` holds the oracle's rows whose value is not 0.0, as the CSV
tables always have.
"""
import dataclasses
import json
import math
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hwave.mra import save_gram_system, save_matrix_csv
from hwave.nets import Levels
from hwave.pipeline import build_bundle
from hwave.report import BLOCK_ENTRIES, float_rows, json_rows
from hwave.space import FIXTURES, generate_space, save_space
from hwave.splines import save_splines
from hwave.wavelets import save_basis

from helpers import (save_basis_oracle, save_matrix_csv_oracle,
                     save_space_oracle, save_splines_oracle)

SPACES = [
    ("line(1)", 0.25),
    (FIXTURES["FIX-A"], 0.25),
    (FIXTURES["FIX-B"], 0.25),
    ("tree(3)", 0.25),
    ("grid(16, 2)", 0.25),
    ("cycle(16, scale=1)", 0.5),
    ("random_cloud(64, 2, 3)", 0.1),
    ("power_line(17, 2)", 0.6),
]

# values whose text is easy to get wrong: the sign of zero, the least
# subnormal, the switches to exponent notation, and NaN
INJECTED = [-0.0, 5e-324, 1e16, 1e-7, math.nan]


def save_splines_nonzero_oracle(h, table: Levels, path) -> None:
    """The per-entry oracle's file without its ``value == 0.0`` rows: the
    -0.0 rows go, the NaN rows stay."""
    save_splines_oracle(h, table, path)
    head, *rows = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text(head + "".join(
        row for row in rows if float(row.split("\t")[3]) != 0.0))


def _same_bytes(tmp_path, write, oracle, *args):
    write(*args, tmp_path / "got")
    oracle(*args, tmp_path / "want")
    got, want = (tmp_path / "got").read_bytes(), (tmp_path / "want").read_bytes()
    assert got == want


@pytest.fixture(scope="module", params=SPACES, ids=[d for d, _ in SPACES])
def bundle(request):
    desc, delta = request.param
    return build_bundle(generate_space(desc), delta)


def test_writers_equal_oracles(tmp_path, bundle):
    h = bundle.hierarchy
    _same_bytes(tmp_path, save_space, save_space_oracle, bundle.space)
    _same_bytes(tmp_path, save_basis, save_basis_oracle, h, bundle.basis)
    _same_bytes(tmp_path, save_splines, save_splines_nonzero_oracle, h,
                bundle.splines)
    save_gram_system(h, bundle.gramsys, tmp_path)
    for k in range(h.k_coarse, h.k_fine + 1):
        save_matrix_csv_oracle(bundle.gramsys.at(k).M, tmp_path / "want.csv",
                               h.level(k))
        assert (tmp_path / f"gram_level_{k}.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes(), k


def _injected(shape, seed):
    """A table of few distinct values, the injected ones among them, and a
    random tail of values that occur once."""
    rng = np.random.default_rng(seed)
    pool = np.array(INJECTED + [0.0, 1.0, -1.0, 0.25, 1 / 3])
    table = rng.choice(pool, size=shape)
    tail = rng.random(shape) < 0.2
    table[tail] = rng.normal(size=int(tail.sum())) * 10.0 ** rng.integers(
        -20, 20, size=int(tail.sum()))
    return table


@pytest.fixture(scope="module")
def bundle_b():
    return build_bundle(generate_space(FIXTURES["FIX-B"]), 0.25)


def test_injected_values_equal_oracles(tmp_path, bundle_b):
    h, basis = bundle_b.hierarchy, bundle_b.basis
    basis = dataclasses.replace(basis, values=_injected(basis.values.shape, 1))
    _same_bytes(tmp_path, save_basis, save_basis_oracle, h, basis)
    splines = Levels(h.k_coarse, tuple(_injected(t.shape, 2 + i)
                                       for i, t in enumerate(bundle_b.splines)))
    _same_bytes(tmp_path, save_splines, save_splines_nonzero_oracle, h, splines)
    values = [row.split("\t")[3] for row in
              (tmp_path / "got").read_text().splitlines()[1:]]
    assert "nan" in values and "-0.0" not in values
    _same_bytes(tmp_path, save_matrix_csv, save_matrix_csv_oracle,
                _injected((8, 8), 9))


def test_tables_of_several_blocks_equal_oracles(tmp_path):
    table = _injected((600, 300), 3)
    assert table.size > 2 * BLOCK_ENTRIES
    labels = list(range(0, 4200, 7))
    save_matrix_csv(table, tmp_path / "got.csv", labels)
    save_matrix_csv_oracle(table, tmp_path / "want.csv", labels)
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
    h = SimpleNamespace(k_coarse=0, k_fine=0, level=lambda k: np.arange(600))
    _same_bytes(tmp_path, save_splines, save_splines_nonzero_oracle, h,
                Levels(0, (table,)))
    rows = list(json_rows(table))
    assert rows == [json.dumps(row) for row in table.tolist()]
    texts = [text for row in float_rows(table) for text in row]
    assert texts == [repr(v) for v in table.ravel().tolist()]


def test_save_space_streams(tmp_path):
    """One block's texts at a time: the texts of the whole table, 523,777
    distinct distances, would take 112 MB."""
    space = generate_space("random_cloud(1024, 2, 1)")
    tracemalloc.start()
    try:
        save_space(space, tmp_path / "space.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


def test_save_splines_streams():
    """A dense 2048 x 2048 level, every value nonzero: one block's entries
    and texts at a time, where the level's nonzero indices alone would take
    67 MB."""
    table = np.random.default_rng(4).integers(1, 64, size=(2048, 2048)) / 64.0
    h = SimpleNamespace(k_coarse=0, k_fine=0, level=lambda k: np.arange(2048))
    tracemalloc.start()
    try:
        save_splines(h, Levels(0, (table,)), os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak
