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
    assert main(["solve", "--n", "2", "--radius", "2", "--mode", "warp"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--l", "0"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--d1", "-1"]) == EXIT_USAGE
    assert main(["solve", "--n", "2", "--radius", "2", "--t0", "0"]) == EXIT_USAGE


def test_solve_forwards_solver_flags(monkeypatch, capsys):
    calls = []
    real = cp.search.bfgs_minimize

    def spy(layout, **kwargs):
        calls.append(kwargs)
        return real(layout, **kwargs)

    monkeypatch.setattr(cp.search, "bfgs_minimize", spy)
    # two circles cannot fit at R = 1.9, so only the restart budget ends the run
    code = main([
        "solve", "--n", "2", "--radius", "1.9", "--t0", "60", "--seed", "1",
        "--mode", "full", "--l", "3", "--d1", "0.5", "--d2", "0.25", "--max-restarts", "1",
    ])
    assert code == EXIT_NO_SOLUTION
    assert "restarts=1" in capsys.readouterr().out.splitlines()
    assert sum(kwargs.get("radius") is None for kwargs in calls) == 1
    for kwargs in calls:
        assert kwargs["mode"] == "full"
        assert kwargs["refresh_period"] == 3
        assert kwargs["container_margin"] == 0.5
        assert kwargs["pair_margin"] == 0.25


def test_solve_missing_table_entry(table_csv):
    assert main(["solve", "--n", "99", "--best-known", table_csv]) == EXIT_USAGE


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


def test_render_command(tmp_path, capsys):
    lay = tmp_path / "lay.txt"
    cp.write_layout(cp.Layout(np.array([[0.0, 0.0]]), 1.0), None, lay)
    assert main(["render", str(lay), "--indices"]) == EXIT_OK
    rendered = (tmp_path / "lay.svg").read_text(encoding="utf-8")
    assert "<text" in rendered


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


def test_bench_modes_and_refresh(tmp_path, capsys):
    modes = tmp_path / "modes.csv"
    code = main([
        "bench", "--n", "6", "--radius", "3.3", "--experiment", "modes",
        "--reps", "2", "--seed", "4", "--out", str(modes),
    ])
    assert code == EXIT_OK
    assert modes.read_text(encoding="utf-8").splitlines()[0] == (
        "mode,n,radius,runs,mean_time_s,mean_iterations"
    )

    refresh = tmp_path / "refresh.csv"
    code = main([
        "bench", "--n", "6", "--radius", "3.3", "--experiment", "refresh",
        "--periods", "5,10", "--reps", "2", "--seed", "4", "--out", str(refresh),
    ])
    assert code == EXIT_OK
    lines = refresh.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "refresh_period,n,radius,runs,mean_time_s,mean_iterations"
    assert len(lines) == 3


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
