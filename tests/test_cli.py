import inspect

import numpy as np
import pytest

import circlepack as cp
from circlepack.bench import HITS_CSV_COLUMNS, derive_seed, run_hits, write_csv
from circlepack.cli import (
    EXIT_BAD_FILE,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    main,
)
from circlepack.search import DEFAULT_ATTEMPT_SECONDS


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("n,radius\n2,2.0\n3,2.1547005384\n7,3.000000001\n", encoding="utf-8")
    return str(path)


def test_solve_writes_layout_and_svg(tmp_path, capsys):
    out = tmp_path / "two.txt"
    svg = tmp_path / "two.svg"
    code = main([
        "solve", "--n", "2", "--radius", "2.0", "--seed", "1", "--t0", "30",
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "status=feasible" in captured
    doc = cp.read_layout(out)
    assert doc.n == 2 and doc.feasible
    assert svg.read_text(encoding="utf-8").startswith("<?xml")


def test_solve_with_best_known_lookup(table_csv, capsys):
    code = main(["solve", "--n", "3", "--best-known", table_csv, "--seed", "2",
                 "--t0", "30"])
    assert code == EXIT_OK
    assert "radius=2.154700538400" in capsys.readouterr().out


def test_solve_timeout_exit_code(capsys):
    # 9 circles at an infeasible radius with a tiny budget: no hit possible
    code = main(["solve", "--n", "9", "--radius", "3.3", "--t0", "0.01",
                 "--seed", "1"])
    assert code == EXIT_NO_SOLUTION


def test_solve_usage_errors(capsys):
    assert main(["solve", "--n", "2"]) == EXIT_USAGE
    assert main(["solve", "--n", "0", "--radius", "2"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--t0", "0"]) == EXIT_USAGE
    # NaN used to pass the checks: a NaN radius crashed with exit 1 and a
    # NaN time limit ended the run at once with exit 2
    assert main(["solve", "--n", "2", "--radius", "nan"]) == EXIT_USAGE
    # an infinite radius used to pass and crash inside random_layout, exit 1
    assert main(["solve", "--n", "2", "--radius", "inf"]) == EXIT_USAGE
    assert main(["bench", "--n", "2", "--radius", "inf", "--experiment", "modes"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--t0", "nan"]) == EXIT_USAGE
    assert main(["improve", "--n", "2", "--radius", "2", "--t1", "nan"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--max-restarts", "0"]) == EXIT_USAGE
    assert main(["bench", "--n", "2", "--radius", "2", "--reps", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["solve", "improve"])
def test_negative_seed_is_a_usage_error(command, capsys):
    # used to die in numpy's seeding with a traceback and exit 1, the
    # verify-failure code
    assert main([command, "--n", "2", "--radius", "2", "--seed", "-1"]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_solve_descents_take_no_solver_settings(monkeypatch, capsys):
    calls = []
    real = cp.search.bfgs_minimize

    def spy(layout, **kwargs):
        calls.append(kwargs)
        return real(layout, **kwargs)

    monkeypatch.setattr(cp.search, "bfgs_minimize", spy)
    # two circles cannot fit at R = 1.9, so only the restart budget ends the run
    code = main([
        "solve", "--n", "2", "--radius", "1.9", "--t0", "60", "--seed", "1",
        "--max-restarts", "1",
    ])
    assert code == EXIT_NO_SOLUTION
    assert "restarts=1" in capsys.readouterr().out.splitlines()
    # the descent settings are bfgs_minimize keywords that no search sets
    assert calls and all(set(kwargs) == {"radius", "rng"} for kwargs in calls)
    assert sum(kwargs["radius"] is None for kwargs in calls) == 1

    # so the command line has no flags for them
    commands = {
        "solve": ["solve", "--n", "2", "--radius", "2", "--max-restarts", "1"],
        "improve": ["improve", "--n", "2", "--radius", "2", "--max-restarts", "1"],
        "bench": ["bench", "--n", "2", "--radius", "2", "--experiment", "modes", "--reps", "1"],
    }
    flags = [["--mode", "full"], ["--mode", "warp"], ["--d1", "0.5"], ["--d1", "-1"],
             ["--d2", "0.25"]]
    for argv in commands.values():
        for flag in flags:
            assert main([*argv, *flag]) == EXIT_USAGE
            assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("solve", "--out", "--svg"),
        ("improve", "--out", "--svg"),
        ("solve", "--best-known", "--out"),
        ("solve", "--best-known", "--svg"),
        ("improve", "--best-known", "--out"),
        ("improve", "--best-known", "--svg"),
        ("bench", "--best-known", "--out"),
    ],
    ids=[
        "solve", "improve", "solve-table-out", "solve-table-svg", "improve-table-out",
        "improve-table-svg", "bench-table-out",
    ],
)
def test_out_and_svg_naming_one_file_is_a_usage_error(
    command, first, second, monkeypatch, tmp_path, capsys
):
    # the svg used to be written over the layout just written, and an
    # output named like the --best-known table over the table, each with
    # exit 0; the paths are compared before the search starts, so no run
    # is lost and the file keeps its bytes
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cp.cli, "global_search", no_search)
    monkeypatch.setattr(cp.cli, "minimize_radius", no_search)
    monkeypatch.setattr(cp.bench, "run_hits", no_search)
    # one path absolute, the other relative: they are compared resolved
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "two.txt"
    if first == "--best-known":
        path.write_text("n,radius\n2,2.0\n", encoding="utf-8")
        argv = [command, "--n", "2", "--max-restarts", "1"]
    else:
        argv = [command, "--n", "2", "--radius", "2"]
    before = path.read_bytes() if path.exists() else None
    code = main([*argv, first, str(path), second, "two.txt"])
    assert code == EXIT_USAGE
    assert "same file" in capsys.readouterr().err
    assert (path.read_bytes() if path.exists() else None) == before


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--out"), ("solve", "--svg"), ("improve", "--out"), ("improve", "--svg"),
        ("bench", "--out"),
    ],
)
@pytest.mark.parametrize("missing", ["no-directory", "directory"])
def test_unwritable_output_is_a_usage_error_before_the_search(
    command, flag, missing, monkeypatch, tmp_path, capsys
):
    # an output in a directory that does not exist, or one that is a
    # directory, used to fail only after the whole search (exit 65, the
    # layout lost and the svg never written)
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cp.cli, "global_search", no_search)
    monkeypatch.setattr(cp.cli, "minimize_radius", no_search)
    monkeypatch.setattr(cp.bench, "run_hits", no_search)
    path = tmp_path / "missing_dir" / "x.txt" if missing == "no-directory" else tmp_path
    argv = [command, "--n", "2", "--max-restarts", "1"]
    if command != "bench":
        argv += ["--radius", "2"]
    if flag == "--svg":
        argv += ["--out", str(tmp_path / "ok.txt")]
    code = main([*argv, flag, str(path)])
    assert code == EXIT_USAGE
    assert str(path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_missing_table_entry(table_csv):
    assert main(["solve", "--n", "99", "--best-known", table_csv]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, n",
    [(["bench", "--n", "150"], 150), (["solve", "--n", "99", "--best-known", None], 99)],
    ids=["bench-bundled", "solve-table"],
)
def test_missing_table_entry_message_is_unquoted(argv, n, table_csv, capsys):
    # str() of a KeyError quotes its message; the error line does not
    argv = [table_csv if arg is None else arg for arg in argv]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: no best-known radius for n={n}\n"


def test_improve_reports_improvement(table_csv, tmp_path, capsys):
    out = tmp_path / "best.txt"
    code = main([
        "improve", "--n", "2", "--best-known", table_csv, "--seed", "3",
        "--t0", "20", "--t1", "40", "--out", str(out),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "improvement=" in captured
    doc = cp.read_layout(out)
    assert doc.feasible


def test_improve_with_radius_and_table_reports_no_improvement(table_csv, capsys):
    # --radius takes precedence over the table's 2.0, and an improvement
    # over the user's own start value is not one over the best known
    code = main([
        "improve", "--n", "2", "--radius", "2.5", "--best-known", table_csv,
        "--max-restarts", "1",
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "start_radius=2.5" in captured
    assert "improvement=" not in captured


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    cp.write_layout(cp.Layout(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2.0), None, good)
    assert main(["verify", str(good)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")

    bad = tmp_path / "bad.txt"
    cp.write_layout(cp.Layout(np.array([[-0.9, 0.0], [0.9, 0.0]]), 2.0), None, bad)
    assert main(["verify", str(bad)]) == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "overlap" in out


def test_verify_hand_corrupted_coordinate(tmp_path, capsys):
    # nudging one circle 0.01 toward its neighbor creates exactly one
    # pair violation
    path = tmp_path / "nudged.txt"
    cp.write_layout(cp.Layout(np.array([[-1.0, 0.0], [0.99, 0.0]]), 2.0), None, path)
    assert main(["verify", str(path)]) == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert out.count("overlap") == 1
    assert "crosses the container" not in out


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("whatever this is\n", encoding="utf-8")
    assert main(["verify", str(path)]) == EXIT_BAD_FILE
    assert main(["verify", str(tmp_path / "missing.txt")]) == EXIT_BAD_FILE
    # headers that parse as numbers but describe no layout
    for text in (
        "n=0\nradius=2.0\nenergy=0.0\nfeasible=true\n",
        "n=1\nradius=nan\nenergy=0.0\nfeasible=true\n0 0\n",
        # a negative seed cannot reproduce the run that wrote the file
        "n=1\nradius=2.0\nenergy=0.0\nfeasible=true\nseed=-5\n0 0\n",
    ):
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_BAD_FILE
        assert main(["render", str(path)]) == EXIT_BAD_FILE


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_tolerance_flag_rejects_nan_and_negative(tmp_path, capsys, command, tolerance):
    # two circles overlapping by 1.0 would pass a NaN tolerance
    path = tmp_path / "overlap.txt"
    cp.write_layout(cp.Layout(np.array([[-0.5, 0.0], [0.5, 0.0]]), 3.0), None, path)
    assert main([command, str(path), "--tolerance", tolerance]) == EXIT_USAGE


def test_render_command(tmp_path, capsys):
    lay = tmp_path / "lay.txt"
    cp.write_layout(cp.Layout(np.array([[0.0, 0.0]]), 1.0), None, lay)
    assert main(["render", str(lay), "--indices"]) == EXIT_OK
    rendered = (tmp_path / "lay.svg").read_text(encoding="utf-8")
    assert "<text" in rendered


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
def test_render_refuses_to_overwrite_its_input(explicit, tmp_path, capsys):
    # a layout named lay.svg used to be replaced by its own picture, exit 0
    lay = tmp_path / "lay.svg"
    cp.write_layout(cp.Layout(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2.0), None, lay)
    before = lay.read_bytes()
    flags = ["--svg", str(lay)] if explicit else []
    assert main(["render", str(lay), *flags]) == EXIT_USAGE
    assert "same file" in capsys.readouterr().err
    assert lay.read_bytes() == before
    assert main(["verify", str(lay)]) == EXIT_OK



@pytest.mark.parametrize("missing", ["no-directory", "directory"])
def test_render_to_an_unwritable_output_is_a_usage_error(missing, tmp_path, capsys):
    # an svg in a directory that does not exist, or one that is a
    # directory, used to exit 65, the code of a malformed input file
    lay = tmp_path / "lay.txt"
    cp.write_layout(cp.Layout(np.array([[0.0, 0.0]]), 1.0), None, lay)
    path = tmp_path / "missing_dir" / "x.svg" if missing == "no-directory" else tmp_path
    assert main(["render", str(lay), "--svg", str(path)]) == EXIT_USAGE
    assert str(path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [lay]

def test_bench_hits_csv_schema(table_csv, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--n", "2-3", "--best-known", table_csv, "--reps", "2",
        "--t0", "20", "--seed", "9", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,target_radius,hits,attempts,mean_time_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "2" and first[3] == "2"


def test_bench_rejects_bad_range():
    assert main(["bench", "--n", "5-2"]) == EXIT_USAGE
    assert main(["bench", "--n", "abc"]) == EXIT_USAGE


@pytest.mark.parametrize("ns", ["150", "99-101"])
def test_bench_hits_missing_table_entry_is_a_usage_error_before_the_search(
    ns, tmp_path, monkeypatch
):
    # the bundled table ends at n = 100: every n is looked up before the
    # first search, so 99 and 100 are not searched before 101 fails
    searched = []
    monkeypatch.setattr(
        cp.bench, "global_search", lambda n, *args, **kwargs: searched.append(n)
    )
    out = tmp_path / "hits.csv"
    code = main(["bench", "--n", ns, "--reps", "1", "--max-restarts", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert searched == []
    assert not out.exists()


def test_bench_modes_and_refresh(tmp_path, capsys):
    modes = tmp_path / "modes.csv"
    code = main([
        "bench", "--n", "6", "--radius", "3.3", "--experiment", "modes",
        "--reps", "2", "--seed", "4", "--out", str(modes),
    ])
    assert code == EXIT_OK
    lines = modes.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mode,n,radius,runs,mean_time_s,mean_iterations"
    assert [line.split(",")[0] for line in lines[1:]] == ["full", "local"]

    # the neighbour refresh period is a constant, no longer a setting
    base = ["bench", "--n", "6", "--radius", "3.3", "--reps", "1"]
    assert main([*base, "--experiment", "refresh"]) == EXIT_USAGE
    assert main([*base, "--experiment", "modes", "--periods", "5"]) == EXIT_USAGE
    assert main([*base, "--experiment", "modes", "--l", "3"]) == EXIT_USAGE


def test_bench_hits_rejects_radius(capsys):
    # hits reads its target radii from the table; --radius used to be
    # ignored there, so the run went on at the table radius and exited 0
    code = main(["bench", "--n", "5", "--radius", "9", "--experiment", "hits", "--reps", "1"])
    assert code == EXIT_USAGE
    assert "--radius" in capsys.readouterr().err


def test_bench_t0_and_max_restarts_apply_to_hits_only(monkeypatch, capsys):
    # modes times descents, whose only budget is the iteration cap; both
    # flags used to be ignored there and the run exited 0
    base = ["bench", "--n", "3", "--radius", "3", "--experiment", "modes", "--reps", "1"]
    for flag in (["--t0", "0.001"], ["--max-restarts", "5"]):
        assert main([*base, *flag]) == EXIT_USAGE
        assert flag[0] in capsys.readouterr().err

    # hits still takes both, and --t0 defaults to the per-attempt budget
    limits = []

    def fake_run_hits(ns, table, **kwargs):
        limits.append((kwargs["time_limit"], kwargs["max_restarts"]))
        return []

    monkeypatch.setattr(cp.bench, "run_hits", fake_run_hits)
    assert main(["bench", "--n", "3"]) == EXIT_OK
    assert main(["bench", "--n", "3", "--t0", "7", "--max-restarts", "2"]) == EXIT_OK
    assert limits == [(DEFAULT_ATTEMPT_SECONDS, None), (7.0, 2)]
    # and so does the library; run_hits used to default to 60 s
    assert inspect.signature(run_hits).parameters["time_limit"].default == DEFAULT_ATTEMPT_SECONDS


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 2, 0) == derive_seed(0, 2, 0)
    seen = {derive_seed(0, n, r) for n in range(2, 30) for r in range(10)}
    assert len(seen) == 28 * 10
    assert derive_seed(1, 2, 0) != derive_seed(0, 2, 0)


def test_run_hits_deterministic_apart_from_timing(table_csv):
    table = cp.read_best_known(table_csv)
    a = run_hits([2, 3], table, reps=3, time_limit=30.0, seed_base=5)
    b = run_hits([2, 3], table, reps=3, time_limit=30.0, seed_base=5)
    for ra, rb in zip(a, b):
        assert ra.n == rb.n
        assert ra.target_radius == rb.target_radius
        assert ra.hits == rb.hits
        assert ra.attempts == rb.attempts
        assert ra.per_run_seeds == rb.per_run_seeds


def test_run_hits_mean_over_successes_only(tmp_path):
    # impossible target: zero hits must produce an empty mean cell
    table = cp.BestKnownTable({2: 1.9})
    records = run_hits([2], table, reps=2, time_limit=0.3, seed_base=1)
    assert records[0].hits == 0
    assert records[0].mean_time_s is None
    out = tmp_path / "zero.csv"
    write_csv(out, HITS_CSV_COLUMNS, [record.csv_row() for record in records])
    row = out.read_text(encoding="utf-8").splitlines()[1]
    assert row.endswith(",")
