import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hwave.analysis as an
from hwave.cli import main
from hwave.pipeline import PipelineConfig, run_pipeline
from hwave.space import compute_constants, resolve_space


def test_space_command(capsys):
    assert main(["space", "--space", "FIX-B"]) == 0
    out = capsys.readouterr().out
    assert "n=16" in out
    assert "A0=1 N_geo>=4 (greedy packing) Cmu(2)=3" in out
    # B(1, 1.5) = {0, 1, 2}: every pair is farther apart than 1 / 2, half
    # the largest member distance
    assert main(["space", "--space", "FIX-A"]) == 0
    assert "N_geo>=3 (greedy packing)" in capsys.readouterr().out


def test_nets_command_writes_file(tmp_path, capsys):
    rc = main(["nets", "--space", "FIX-B", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "nets.json").read_text())
    assert data["k_fine"] == 2
    assert data["levels"][1] == [0, 4, 8, 12]


def test_nets_command_verifies_once(monkeypatch, capsys):
    import hwave.nets
    calls = []
    verify = hwave.nets.verify_nets

    def counted(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)
    monkeypatch.setattr(hwave.nets, "verify_nets", counted)
    assert main(["nets", "--space", "FIX-B"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "levels 0..2, sizes {0: 1, 1: 4, 2: 16}, L=2 M=5, verified=True\n")


def test_strict_mode_rejected_at_quarter(capsys):
    rc = main(["nets", "--space", "FIX-B", "--delta", "0.25",
               "--mode", "strict"])
    assert rc == 2
    assert "strict mode requires" in capsys.readouterr().err


def test_cubes_sample_and_boundary(tmp_path, capsys):
    rc = main(["cubes", "sample", "--space", "FIX-B", "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    system = json.loads((tmp_path / "system.json").read_text())
    assert system["seed"] == 7
    assert len(system["cubes"]) == 3

    # the same sample through a previously saved nets file
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    again = tmp_path / "again"
    rc = main(["cubes", "sample", "--space", "FIX-B", "--seed", "7",
               "--nets", str(tmp_path / "nets.json"), "-o", str(again)])
    assert rc == 0
    assert json.loads((again / "system.json").read_text()) == system

    rc = main(["cubes", "boundary", "--space", "FIX-B", "--x", "3", "--k", "1",
               "--eps", "0.5,0.25", "--nsamples", "500", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "boundary.tsv").read_text().strip().splitlines()
    assert lines[0] == "eps\testimate\tstderr\ttheory_bound"
    assert len(lines) == 3


def test_splines_check_command(capsys):
    assert main(["splines", "check", "--space", "FIX-A"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert ("[PASS] partition-of-unity level -1: err 0.00e+00 "
            "(tolerance 0, margin 0)") in out


def test_splines_build_writes_tsv(tmp_path):
    assert main(["splines", "build", "--space", "FIX-A",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "splines.tsv").read_text().strip().splitlines()
    assert rows[0] == "level\talpha_id\tpoint_id\tvalue"
    # only nonzero values: the one coarse spline on all 4 points, then
    # the identity's diagonal
    assert len(rows) == 1 + 4 + 4


def test_mra_commands(tmp_path, capsys):
    assert main(["mra", "riesz", "--space", "FIX-B"]) == 0
    assert "riesz bounds" in capsys.readouterr().out
    assert main(["mra", "build", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gram_level_1.csv").exists()
    assert main(["mra", "decay", "--space", "FIX-B"]) == 0


def test_wavelets_commands(tmp_path, capsys):
    assert main(["wavelets", "build", "--space", "FIX-B",
                 "--out", str(tmp_path)]) == 0
    basis = json.loads((tmp_path / "basis.json").read_text())
    assert len(basis["members"]) == 16
    assert main(["wavelets", "verify", "--space", "FIX-B"]) == 0
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(list(np.arange(16.0))))
    assert main(["wavelets", "transform", "--space", "FIX-B",
                 "--function", str(fn), "--out", str(tmp_path)]) == 0
    coeffs = json.loads((tmp_path / "coefficients.json").read_text())
    assert len(coeffs) == 16


def test_analyze_commands(capsys):
    assert main(["analyze", "dichotomy", "--space", "FIX-B", "--x", "0",
                 "--r", "0.0625", "--R", "0.5"]) == 0
    assert "volume-growth" in capsys.readouterr().out
    assert main(["analyze", "sums", "--space", "FIX-B"]) == 0
    assert main(["analyze", "bmo", "--space", "FIX-B"]) == 0
    assert main(["analyze", "carleson", "--space", "FIX-B"]) == 0
    assert main(["analyze", "paraproduct", "--space", "FIX-B"]) == 0
    assert main(["analyze", "operator", "--space", "FIX-B"]) == 0


@pytest.mark.parametrize("command", [
    ["cubes", "boundary", "--nsamples", "100"],
    ["analyze", "dichotomy", "--r", "0.0625", "--R", "0.5"],
])
@pytest.mark.parametrize("x", [-1, 16])
def test_point_ids_outside_the_space_are_refused(capsys, command, x):
    # FIX-B has 16 points: neither end wraps around or reaches numpy
    assert main([*command, "--space", "FIX-B", "--x", str(x)]) == 2
    assert capsys.readouterr().err == f"error: x={x} outside 0..15\n"


@pytest.mark.parametrize("command", [
    ["cubes", "boundary", "--nsamples", "100", "--k"],
    ["splines", "holder", "--level"],
])
@pytest.mark.parametrize("k", [-5, -1, 3, 5, 9])
def test_levels_outside_the_hierarchy_are_refused(capsys, command, k):
    # FIX-B has levels 0..2
    assert main([*command, str(k), "--space", "FIX-B"]) == 2
    assert capsys.readouterr().err == f"error: 'level {k} outside [0, 2]'\n"


@pytest.mark.parametrize("command", [["run"], ["cubes", "boundary"]])
@pytest.mark.parametrize("nsamples", [2**63, 10**20, 0])
def test_draw_counts_outside_int64_are_refused(capsys, command, nsamples):
    # draw counts are int64: 2**63 - 1 is the most one run can hold
    assert main([*command, "--space", "FIX-B", "--nsamples", str(nsamples)]) == 2
    assert capsys.readouterr().err == (
        "error: nsamples must lie in [1, 2**63), as draw counts are int64; "
        f"got {nsamples}\n")


def test_analyze_bmo_prints_both_centred_norms(tmp_path, capsys):
    desc = "cycle(20, weights=uniform)"
    sp = resolve_space(desc)
    f = np.random.default_rng(3).normal(size=sp.n)
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(f.tolist()))
    assert main(["analyze", "bmo", "--space", desc, "--function", str(fn)]) == 0
    avg, med = an.bmo_norm(sp, f, "average"), an.bmo_norm(sp, f, "median")
    assert capsys.readouterr().out == f"bmo: {avg:g} (median-centred {med:g})\n"
    assert med <= avg <= 2 * med


@pytest.mark.parametrize("command", [
    ["analyze", "bmo"], ["analyze", "carleson"], ["wavelets", "transform"],
])
@pytest.mark.parametrize("value, at", [
    (float("nan"), 3), (float("inf"), 0), (float("-inf"), 15),
])
def test_non_finite_function_values_are_refused(tmp_path, command, value, at):
    # a NaN used to give "bmo: 0" and exit status 0
    f = np.arange(16.0)
    f[at] = value
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(f.tolist()))
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--space", "FIX-B", "--function", str(fn)])
    assert exit_.value.code == (f"function file value {at} is {value}, "
                                "not a finite number")


def test_a_space_file_with_an_infinite_weight_is_refused(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "metric": "explicit",
        "distances": [[abs(i - j) for j in range(6)] for i in range(6)],
        "weights": [float("inf"), 1, 1, 1, 1, 1]}))
    assert "Infinity" in path.read_text()
    assert main(["run", "--space", str(path)]) == 2
    assert capsys.readouterr().err == "error: weight must be finite at index 0\n"


def test_function_of_the_wrong_length_is_refused(tmp_path):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([0.0] * 15))
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "bmo", "--space", "FIX-B", "--function", str(fn)])
    assert exit_.value.code == "function file must hold 16 values"


def test_run_selected_suite(capsys):
    rc = main(["run", "--space", "FIX-A", "--suite", "nets",
               "--suite", "splines"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "net-covering" in out
    assert "partition-of-unity" in out
    assert "basis-orthonormality" not in out
    # the selected suites' records, then the count line
    result = run_pipeline(PipelineConfig(space="FIX-A",
                                         suites=("nets", "splines")))
    n = len(result.checks)
    assert out == f"{result.format()}\n{n}/{n} checks passed\n"


def test_run_pipeline_artifacts_and_exit_code(tmp_path, capsys):
    rc = main(["run", "--space", "FIX-B", "--seed", "1",
               "--nsamples", "500", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("space.json", "constants.json", "nets.json", "system.json",
                 "splines.tsv", "basis.json", "report.json"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(entry["passed"] for entry in report)
    basis = json.loads((tmp_path / "basis.json").read_text())
    assert len(basis["members"]) == 16


def test_run_path_never_packs(monkeypatch, tmp_path):
    # N_geo is reported by ``hwave space`` only: no build, suite or artifact
    # of a run may start the packing search
    import hwave.space

    def refuse(conflict):
        raise AssertionError("packing search on the run path")
    monkeypatch.setattr(hwave.space, "_greedy_packing", refuse)
    result = run_pipeline(PipelineConfig(space="FIX-B", nsamples=200,
                                         out=str(tmp_path)))
    assert result.ok
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert sorted(constants) == ["A0", "cmu2", "diam", "eta", "min_sep"]


def test_cube_geometry_names_its_failures(tmp_path):
    # relaxed mode at delta = 0.5 builds a bundle whose sampled system breaks
    # the z-centred sandwiches; the aggregate record lists what failed
    rc = main(["run", "--space", "cycle(16, scale=1)", "--delta", "0.5",
               "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    geometry = next(e for e in report if e["name"] == "cube-geometry")
    assert not geometry["passed"]
    assert geometry["detail"].startswith(
        "seed 1: partition, tiling, sandwiches; failed: ")
    assert "cube-inner-ball level -3 (alpha=1)" in geometry["detail"]
    assert "iterated-close-implies-descendant 0->-3" in geometry["detail"]


def _run_script(name, *args):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_fixture_script_runs(tmp_path):
    out = _run_script("run_fixture_pipeline.py", "--nsamples", 200,
                      "--out", tmp_path)
    for name in ("FIX-A", "FIX-B"):
        assert re.search(rf"^{name}: (\d+)/\1 checks passed", out,
                         re.MULTILINE), out
        assert (tmp_path / name / "report.json").exists()


def test_decay_study_script_runs():
    out = _run_script("decay_study.py", "--sizes", 16, "--window", 32)
    assert "cycle(16) level 0: gamma=" in out
    assert "cycle(16) wavelet-gram-inverse level 0: gamma=" in out


def test_boundary_layer_study_script_runs(tmp_path):
    _run_script("boundary_layer_study.py", "--nsamples", 200, "--out", tmp_path)
    tables = sorted(tmp_path.glob("boundary_*.tsv"))
    assert len(tables) == 2
    for path in tables:
        rows = path.read_text().splitlines()
        assert rows[0].startswith("x\teps\testimate") and len(rows) > 1


def test_run_artifacts_hold_plain_floats(tmp_path):
    assert main(["run", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    tables = [(tmp_path / "splines.tsv", "\t")]
    tables += [(p, ",") for p in sorted(tmp_path.glob("gram_level_*.csv"))]
    assert len(tables) == 4
    for path, sep in tables:
        header, *rows = path.read_text().splitlines()
        assert header.split(sep)[-1] == "value"
        assert rows
        for row in rows:
            float(row.split(sep)[-1])
    for path in tmp_path.iterdir():
        assert "np." not in path.read_text(), path.name


def test_strict_mode_pipeline_end_to_end():
    result = run_pipeline(PipelineConfig(space="FIX-A", delta=1e-4,
                                         mode="strict", nsamples=50))
    assert result.ok
    assert result.bundle.basis.n_members == 4


def test_run_pipeline_deterministic_artifacts(tmp_path):
    cfg = dict(space="FIX-A", delta=0.25, seed=3, nsamples=200)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(PipelineConfig(out=str(out1), **cfg))
    run_pipeline(PipelineConfig(out=str(out2), **cfg))
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_corrupted_net_file_is_reported(tmp_path):
    from hwave.nets import NetError, load_nets
    space = resolve_space("FIX-B")
    constants = compute_constants(space)
    path = tmp_path / "nets.json"
    path.write_text("{broken")
    with pytest.raises(NetError, match="parse error"):
        load_nets(path, space, constants, 0.25, "relaxed")
    # structurally corrupted: drop a point from the finest level
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "nets.json").read_text())
    data["levels"][2] = data["levels"][2][:-1]
    path.write_text(json.dumps(data))
    with pytest.raises(NetError, match="invariant violated"):
        load_nets(path, space, constants, 0.25, "relaxed")
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path)])
    assert rc == 2


def test_net_file_with_a_moved_parent_is_refused(tmp_path, capsys):
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    # the unmodified file gives the bytes of the path without --nets
    assert main(["cubes", "sample", "--space", "FIX-B", "--seed", "3",
                 "-o", str(tmp_path / "built")]) == 0
    assert main(["cubes", "sample", "--space", "FIX-B", "--seed", "3",
                 "--nets", str(path), "-o", str(tmp_path / "loaded")]) == 0
    assert ((tmp_path / "loaded" / "system.json").read_bytes()
            == (tmp_path / "built" / "system.json").read_bytes())
    capsys.readouterr()
    # level-2 point 2 moved from cell 0 to cell 4, with a free sibling label:
    # the labels and the neighbour lists still match
    data = json.loads(path.read_text())
    data["parents"][1][2] = 1
    data["label2"][1][2] = 5
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert ("parents at level 2 is [0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, "
            "0, 0], the space gives [0, 0, 0, 1," in capsys.readouterr().err)
    assert not (tmp_path / "sample" / "system.json").exists()


def test_net_file_with_other_label_ranges_is_refused(tmp_path, capsys):
    # larger L and M keep every label in range but change the coordinate law
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    data["L"], data["M"] = 3, 6
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert "L is 3, the space gives 2" in capsys.readouterr().err
    assert not (tmp_path / "sample" / "system.json").exists()


def test_net_file_that_fails_verify_nets_is_refused(tmp_path, capsys):
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    # level 1's points are 1/4 apart, closer than 0.5^1; the run's delta is
    # the file's, so the levels themselves are what fails
    data["delta"] = 0.5
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--delta", "0.5",
               "--nets", str(path), "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert ("[FAIL] net-separation level 1: min pair distance 0.25 vs scale 0.5"
            in capsys.readouterr().err)
    assert not (tmp_path / "sample" / "system.json").exists()


def test_net_file_with_repeated_sibling_labels_is_refused(tmp_path, capsys):
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    data["label2"][1][1] = data["label2"][1][0]
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert ("label2 at level 2 is [1, 1, 3, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, "
            "5], the space gives [1, 2, 3," in capsys.readouterr().err)
    assert not (tmp_path / "sample" / "system.json").exists()


@pytest.mark.parametrize("label1,neighbours,message", [
    # the file's relation is empty and its colouring consistent with it
    ([0, 0, 0, 0], [[], [], [], []],
     "neighbours at level 1 is [[], [], [], []], the space gives "
     "[[1, 3], [0, 2], [1, 3], [0, 2]]"),
    ([0, 1, 0, 1], [[], [], [], []],
     "neighbours at level 1 is [[], [], [], []], the space gives "
     "[[1, 3], [0, 2], [1, 3], [0, 2]]"),
    ([0, 0, 1, 1], [[1, 3], [0, 2], [1, 3], [0, 2]],
     "label1 at level 1 is [0, 0, 1, 1], the space gives [0, 1, 0, 1]"),
    ([0, 1, 0, 1], [[1, 3], [0, 2], [1, 3]],
     "neighbours at level 1 is [[1, 3], [0, 2], [1, 3]], the space gives "
     "[[1, 3], [0, 2], [1, 3], [0, 2]]"),
])
def test_net_file_with_a_wrong_neighbour_relation_is_refused(
        tmp_path, capsys, label1, neighbours, message):
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    data["label1"][1] = label1
    data["neighbours"][1] = neighbours
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sample" / "system.json").exists()


@pytest.mark.parametrize("level", [
    [4, 0, 8, 12],   # permuted
    [0, 4, 4, 12],   # repeated
    [0, 4, 8, 16],   # outside the space
    [-1, 4, 8, 12],
])
def test_net_file_with_malformed_level_ids_is_refused(tmp_path, capsys, level):
    # refused before the ids index anything, naming the level
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    data["levels"][1] = level
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert ("net file invariant violated: level 1 is not ascending distinct "
            "point ids in 0..15" in capsys.readouterr().err)
    assert not (tmp_path / "sample" / "system.json").exists()


def test_net_file_with_a_wrong_level_count_is_refused(tmp_path, capsys):
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    path = tmp_path / "nets.json"
    data = json.loads(path.read_text())
    data["k_fine"] = 3
    path.write_text(json.dumps(data))
    rc = main(["cubes", "sample", "--space", "FIX-B", "--nets", str(path),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert "3 levels for the range 0..3" in capsys.readouterr().err
    assert not (tmp_path / "sample" / "system.json").exists()


@pytest.mark.parametrize("extra,message", [
    (["--mode", "strict"], "strict mode requires delta <= 0.001, got 0.25"),
    (["--delta", "0.1"], "net file has delta 0.25, the run has 0.1"),
])
def test_net_file_keeps_the_runs_mode_and_delta(tmp_path, capsys, extra,
                                                message):
    # the same refusal as without --nets, or a file of another delta
    assert main(["nets", "--space", "FIX-B", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["cubes", "sample", "--space", "FIX-B", *extra,
               "--nets", str(tmp_path / "nets.json"),
               "-o", str(tmp_path / "sample")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sample" / "system.json").exists()


@pytest.mark.parametrize("command", [
    ["space"], ["nets"], ["cubes", "sample"], ["cubes", "boundary"],
    ["splines", "build"], ["splines", "check"], ["splines", "holder"],
    ["mra", "build"], ["mra", "riesz"], ["mra", "decay"],
    ["wavelets", "build"], ["wavelets", "verify"], ["wavelets", "transform"],
    ["analyze", "sums"], ["analyze", "bmo"], ["analyze", "carleson"],
    ["analyze", "paraproduct"], ["analyze", "operator"],
    ["run", "--nsamples", "100"],
    ["run", "--nsamples", "100", "--suite", "nets", "--suite", "splines"],
])
def test_every_subcommand_runs_on_one_point(tmp_path, capsys, command):
    function = tmp_path / "f.json"
    function.write_text("[1.5]")
    if command[-1] == "transform":
        command = [*command, "--function", str(function)]
    rc = main([*command, "--space", "line(1)", "-o", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


def test_one_point_diagnostics_report_zero(capsys):
    assert main(["splines", "holder", "--space", "line(1)"]) == 0
    assert capsys.readouterr().out == (
        "level 0: holder constant 0 at exponent inf (witness None)\n")
    assert main(["analyze", "operator", "--space", "line(1)"]) == 0
    assert capsys.readouterr().out == (
        "hilbert-type kernel: operator norm 0, schur bound 0\n")
    # the default radii of a one-point space are refused, as on any space
    assert main(["analyze", "dichotomy", "--space", "line(1)"]) == 2
    assert "need R > r > 0" in capsys.readouterr().err


CUBE_SPACES = [("FIX-A", 0.25), ("FIX-B", 0.25), ("grid(16,2)", 0.25),
               ("cycle(64, scale=1)", 0.2), ("random_cloud(20,2,1)", 0.25)]


@pytest.mark.parametrize("space, delta", CUBE_SPACES)
def test_cubes_from_a_written_net_file_equal_the_built_ones(
        tmp_path, capsys, space, delta):
    common = ["--space", space, "--delta", str(delta), "--seed", "5"]
    assert main(["nets", *common, "-o", str(tmp_path)]) == 0
    nets = ["--nets", str(tmp_path / "nets.json")]
    outputs = []
    for extra in ([], nets):
        capsys.readouterr()
        assert main(["cubes", "sample", *common, *extra,
                     "-o", str(tmp_path / "sample")]) == 0
        system = (tmp_path / "sample" / "system.json").read_bytes()
        assert main(["cubes", "boundary", *common, *extra, "--x", "3",
                     "--k", "0", "--nsamples", "300"]) == 0
        outputs.append((system, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("space, delta", [("FIX-B", 0.25),
                                          ("cycle(64, scale=1)", 0.2)])
def test_cubes_build_no_splines_gram_or_basis(tmp_path, monkeypatch, space,
                                              delta):
    common = ["--space", space, "--delta", str(delta), "--seed", "4"]
    main(["run", *common, "--nsamples", "100", "-o", str(tmp_path / "run")])
    want = (tmp_path / "run" / "system.json").read_bytes()
    import hwave.mra
    import hwave.pipeline
    import hwave.splines
    import hwave.wavelets

    def refuse(*args, **kwargs):
        raise AssertionError("hwave cubes reads no splines, Gram or basis")

    for module, name in [(hwave.splines, "compute_splines_exact"),
                         (hwave.mra, "build_gram_system"),
                         (hwave.wavelets, "assemble_basis")]:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(hwave.pipeline, name, refuse)
    assert main(["nets", *common, "-o", str(tmp_path)]) == 0
    for extra in ([], ["--nets", str(tmp_path / "nets.json")]):
        out = tmp_path / f"cubes{len(extra)}"
        assert main(["cubes", "sample", *common, *extra, "-o", str(out)]) == 0
        assert (out / "system.json").read_bytes() == want
        assert main(["cubes", "boundary", *common, *extra,
                     "--nsamples", "100"]) == 0


def test_unknown_space_fails_cleanly(capsys):
    assert main(["space", "--space", "nonsense"]) == 2
    assert "error" in capsys.readouterr().err


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(space="FIX-A", delta=2.0)
    with pytest.raises(ValueError):
        PipelineConfig(space="FIX-A", suites=("nope",))


def test_single_point_space_short_circuits(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"metric": "explicit", "distances": [[0.0]],
                                "weights": [3.0]}))
    result = run_pipeline(PipelineConfig(space=str(path), nsamples=10))
    assert result.ok
    assert result.bundle.basis.n_members == 1
    np.testing.assert_allclose(result.bundle.basis.values[0], 1 / np.sqrt(3.0))


def test_point_mass_weights_pipeline(tmp_path):
    # one heavy atom does not disturb any verification suite
    path = tmp_path / "mass.json"
    dist = [[abs(i - j) for j in range(6)] for i in range(6)]
    path.write_text(json.dumps({"metric": "explicit", "distances": dist,
                                "weights": [100.0, 1, 1, 1, 1, 1]}))
    result = run_pipeline(PipelineConfig(space=str(path), nsamples=200))
    assert result.ok, [c.name for c in result.checks if not c.passed]
