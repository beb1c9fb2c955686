"""Pinned sha256 digests of the artifacts that do not depend on BLAS.

The README promises byte-identical artifacts for identical inputs, and
refactors keep them so.  These digests were recorded before the sampled
system, ancestor and artifact-writer routes were merged into one each; the
report digest was recorded before every verifier returned ``CheckResult``
records.  The constants digest was recorded when ``N_geo`` and
``N_geo_exact`` left ``constants.json``.
"""
import hashlib
import json

import pytest

from hwave.cli import main
from hwave.pipeline import PipelineConfig, run_pipeline

GOLDEN = {
    ("FIX-B", 0.25): {
        "space.json": "61a881528dd4b99186ae65e626b2fd22be7e76dcb4f3fd538055ed2d9d0876e1",
        # without N_geo and N_geo_exact, which no stage of a run reads
        "constants.json": "edb54e655af3ad45d711b1f3339246b4a5d3a917570d5b81306b30661e7d7b1c",
        "nets.json": "c01270f6e68b19c6df4845d2545b1ddda16680fc3103505cf84b99ab636e237b",
        "system.json": "db1bdda3344a4610595b630e85e7aadf5eca400b7fa6302abd7dc9aabe6f0b88",
        # values written as Python floats (1.0, not np.float64(1.0)); re-pinned
        # when the file kept only its nonzero rows: the earlier file
        # (abe965a8...) with its 0.0 rows removed
        "splines.tsv": "0ec2c4d6931250afe5eadda81a70d24720393fcf7dface56c5551c470cca3fd4",
    },
    ("cycle(16, scale=1)", 0.2): {
        "nets.json": "497cd7ee9bafffd8023cb8518f4cadc204e2bb0d1a40d9df9ba6848da7029e79",
        "system.json": "40e55a205f77f7c9a17221daeee934fa5439602414e5b80a7d4cb7ef43a56960",
    },
    # recorded before the nets, the neighbour relation and the outcome tables
    # were built in array passes
    ("cycle(64, scale=1)", 0.2): {
        # recorded before A0's min-plus square was taken over the upper
        # triangle only, as for grid(16,2) below
        "constants.json": "0bdfeb9456812eb5edefeefc15728eec8f3fe295763d0e569e66d93d9de75978",
        "nets.json": "6a859df35859a35cfa56665ea8f0fa0f51fa71f6c7d2f5fe25119ac5d49b58e7",
        "system.json": "d204dcaa8c9a03ca67ddc65d4420c54680323728cd05008dd96f7c1792faaf8f",
        # recorded before each distinct float of a table was formatted once
        # per block, as the two below
        "space.json": "a28bfa76feb920da93c41a3fdc8b564ab7eca3c80ee5da88352b1810521467c5",
    },
    ("grid(16,2)", 0.25): {
        "constants.json": "cb6e8989586638d5287f145f8c6e47e3f6b5d2d146f23a3feb17910ded19f74d",
        "nets.json": "8d3eebe7d7a3bc3d9f02226bf93d12add39f8cc14113fd3db8ded8c1f43fb06e",
        "system.json": "0a49dd930d041234cadd37cc8fadbcb1943131d4ad5d9c7dd47e8852a5b98127",
        # integer distances and 0/1 splines: no BLAS in either
        "space.json": "e997359ae39e8ddb5967e1689d50ee286ce718548b480245ad22d0921342b205",
        # re-pinned when the file kept only its nonzero rows: the earlier
        # file (826111fc...) with its 0.0 rows removed, 768 of 69,888 left
        "splines.tsv": "37424d931a8fedc7630225fade91ec1cc60c24887fb5424f189cddc8ceff4daa",
    },
}


# nets, cubes and splines suites on FIX-B at delta 1/4: Haar-type objects, so
# every record is exact; recorded when the always-true ``support-sandwich
# level k`` records left the report, which is the earlier report (100,000
# draws) with those three records removed
REPORT_DIGEST = "689647b8634986b08e2695b39bf53d482a2867fc08640223c836ece7baeb10e0"


@pytest.mark.parametrize("space,delta", sorted(GOLDEN))
def test_artifact_bytes_pinned(tmp_path, space, delta):
    run_pipeline(PipelineConfig(space=space, delta=delta, out=str(tmp_path),
                                suites=()))
    for name, digest in GOLDEN[(space, delta)].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, (
            f"{name} for {space} at delta={delta} changed (sha256 {got}). "
            "Update the digest only if the change was deliberate, and name "
            "the changed field in CHANGES.md.")


def test_report_bytes_pinned(tmp_path):
    result = run_pipeline(PipelineConfig(space="FIX-B", delta=0.25,
                                         out=str(tmp_path),
                                         suites=("nets", "cubes", "splines")))
    assert len(result.checks) == 28
    got = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert got == REPORT_DIGEST, (
        f"report.json for FIX-B changed (sha256 {got}). Update the digest "
        "only if the change was deliberate, and name the changed record in "
        "CHANGES.md.")


def test_run_twice_byte_identical(tmp_path, capsys):
    argv = ["run", "--space", "cycle(16, scale=1)", "--delta", "0.2"]
    outputs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(argv + ["-o", str(out)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "report.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("space,delta", [("FIX-B", "0.25"),
                                         ("cycle(16, scale=1)", "0.2")])
def test_json_artifacts_are_canonical(tmp_path, capsys, space, delta):
    # every JSON artifact reads back and re-dumps to its own bytes, so the
    # writers cannot drift from one canonical form
    assert main(["run", "--space", space, "--delta", delta,
                 "-o", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in paths] == ["basis.json", "constants.json",
                                       "nets.json", "report.json",
                                       "space.json", "system.json"]
    for path in paths:
        text = path.read_text()
        indent = 1 if path.name == "report.json" else None
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=indent) + "\n", path.name
