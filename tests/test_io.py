import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlepack as cp
from circlepack.layout_io import (
    LayoutFormatError,
    TableValidationError,
    VerificationResult,
    Violation,
    format_decimal,
    parse_document,
    serialize_document,
)


# ---------------------------------------------------------------- decimals

def test_format_decimal_examples():
    assert format_decimal(1.0) == "1.000000000000"
    assert format_decimal(0.0) == "0.000000000000"
    assert format_decimal(2.0) == "2.000000000000"


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=500, deadline=None)
def test_format_decimal_round_trips(value):
    text = format_decimal(value)
    assert float(text) == value
    assert "e" not in text and "E" not in text
    digits = text.replace("-", "").replace(".", "").lstrip("0")
    if value != 0.0:
        assert len(digits) >= 12


def test_format_decimal_rejects_non_finite():
    with pytest.raises(ValueError):
        format_decimal(math.inf)
    with pytest.raises(ValueError):
        format_decimal(math.nan)


# ---------------------------------------------------------------- documents

def tangent_pair():
    return cp.Layout(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2.0)


def test_write_layout_single_circle(tmp_path):
    path = tmp_path / "one.txt"
    doc = cp.write_layout(cp.Layout(np.array([[0.0, 0.0]]), 1.0), None, path)
    assert doc.radius == "1.000000000000"
    assert doc.feasible is True
    text = path.read_text(encoding="utf-8")
    assert text.startswith("n=1\nradius=1.000000000000\n")
    assert "\r" not in text


def test_write_then_read_layout_is_bit_identical(tmp_path):
    rng = cp.Rng(31)
    layout = cp.random_layout(17, 5.5, rng)
    path = tmp_path / "layout.txt"
    cp.write_layout(layout, None, path)
    parsed = cp.read_layout(path).layout()
    assert np.array_equal(parsed.centers, layout.centers)
    assert parsed.radius == layout.radius


def test_serialize_parse_round_trip_preserves_digits():
    doc = cp.write_layout(tangent_pair(), None, None, producer="round trip")
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again) == text


def test_document_records_seed_from_report():
    report = cp.global_search(2, 2.5, 30.0, rng=cp.Rng(77))
    buf = io.StringIO()
    doc = cp.write_layout(report.layout, report, buf)
    assert doc.seed == 77
    assert "seed=77\n" in buf.getvalue()


def test_recorded_energy_matches_recomputation():
    report = cp.global_search(9, 3.7, 30.0, rng=cp.Rng(5))
    doc = cp.write_layout(report.layout, report, None)
    recomputed = cp.total_energy(doc.layout()).total
    recorded = doc.energy_value
    assert recorded == pytest.approx(recomputed, rel=1e-15, abs=1e-30)


@pytest.mark.parametrize(
    "text, message",
    [
        ("radius=2.0\nenergy=0.0\nfeasible=true\n", "missing header 'n'"),
        ("n=1\nradius=2.0\nenergy=0.0\n", "missing header 'feasible'"),
        ("n=1\nradius=2.0\nenergy=0.0\nfeasible=yes\n0 0\n", "feasible"),
        ("n=2\nradius=2.0\nenergy=0.0\nfeasible=true\n0 0\n", "coordinate lines"),
        ("n=1\nradius=2.0\nenergy=0.0\nfeasible=true\n0 0 0\n", "expected 'x y'"),
        ("n=1\nradius=2.0\nenergy=0.0\nfeasible=true\nfoo bar\n", "bad coordinate"),
        ("n=1\nn=1\nradius=2.0\nenergy=0.0\nfeasible=true\n0 0\n", "duplicate header"),
    ],
)
def test_parse_document_rejects_malformed(text, message):
    with pytest.raises(LayoutFormatError, match=message):
        parse_document(text)


def test_read_layout_unreadable_path(tmp_path):
    with pytest.raises(OSError):
        cp.read_layout(tmp_path / "missing.txt")


# ---------------------------------------------------------------- tables

def table_of(text):
    return cp.read_best_known(io.StringIO(text))


def test_read_best_known_basic():
    table = table_of("n,radius\n50,7.9475152747\n130,12.6023189367\n")
    assert table.radius_for(50) == 7.9475152747
    assert table.radius_for(130) == 12.6023189367
    assert 50 in table and 51 not in table
    assert len(table) == 2


def test_read_best_known_order_independent():
    table = table_of("n,radius\n3,2.16\n2,2.0\n")
    assert [n for n, _ in table.items()] == [2, 3]


def test_read_best_known_rejects_duplicates():
    with pytest.raises(LayoutFormatError, match="line 3: duplicate n=2"):
        table_of("n,radius\n2,2.0\n2,2.1\n")


def test_read_best_known_rejects_non_monotone():
    with pytest.raises(TableValidationError, match="strictly increase"):
        table_of("n,radius\n2,2.0\n3,1.9\n")


def test_read_best_known_rejects_bad_rows():
    with pytest.raises(LayoutFormatError, match="line 2: bad n"):
        table_of("n,radius\nx,2.0\n")
    with pytest.raises(LayoutFormatError, match="line 3: bad radius"):
        table_of("n,radius\n2,2.0\n3,abc\n")
    with pytest.raises(LayoutFormatError, match="line 1"):
        table_of("num,rad\n2,2.0\n")
    with pytest.raises(LayoutFormatError, match="radius must be finite"):
        table_of("n,radius\n2,inf\n")


def test_read_best_known_rejects_small_radius():
    with pytest.raises(TableValidationError, match="below 1"):
        table_of("n,radius\n1,0.5\n")


def test_bundled_best_known_table():
    table = cp.load_best_known()
    assert len(table) == 100
    assert table.radius_for(1) == 1.0
    assert table.radius_for(2) == 2.0
    assert table.radius_for(50) == 7.9475152747
    assert table.radius_for(100) == 11.0821497243
    radii = [radius for _, radius in table.items()]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_bundled_improvements():
    records = cp.load_improvements()
    assert len(records) == 65
    assert records[0].n == 126
    by_n = {record.n: record for record in records}
    assert by_n[130].old_radius == 12.602318936
    assert by_n[130].new_radius == 12.601774612
    for record in records:
        assert record.improvement > 0.0


# ---------------------------------------------------------------- verify

def test_verify_layout_passes_tangent_pair():
    result = cp.verify_layout(tangent_pair())
    assert result.passed
    assert result.violations == ()
    assert result.max_depth == 0.0


def test_verify_layout_flags_container_violations():
    layout = cp.Layout(np.array([[-1.0, 0.0], [1.0, 0.0]]), 1.999)
    result = cp.verify_layout(layout)
    assert not result.passed
    kinds = sorted(v.kind for v in result.violations)
    assert kinds == ["container", "container"]
    for violation in result.violations:
        assert violation.depth == pytest.approx(0.001, rel=1e-9)


def test_verify_layout_flags_pair_violation():
    layout = cp.Layout(np.array([[-0.9, 0.0], [0.9, 0.0]]), 2.0)
    result = cp.verify_layout(layout)
    pair = [v for v in result.violations if v.kind == "pair"]
    assert len(pair) == 1
    assert pair[0].depth == pytest.approx(0.2, rel=1e-12)
    assert (pair[0].first, pair[0].second) == (0, 1)


def test_verify_layout_tolerance_is_respected():
    # a hair under tolerance passes, a hair over fails
    layout = cp.Layout(np.array([[-1.0, 0.0], [1.0 - 5e-10, 0.0]]), 2.0)
    assert cp.verify_layout(layout, tolerance=1e-9).passed
    assert not cp.verify_layout(layout, tolerance=1e-10).passed


def test_verify_layout_structural_mismatch():
    doc = cp.LayoutDocument(
        n=3,
        radius="2.000000000000",
        centers=(("0.0", "0.0"),),
        energy="0.000000000000",
        feasible=True,
    )
    with pytest.raises(LayoutFormatError, match="claims n=3"):
        cp.verify_layout(doc)


def verify_by_full_scan(layout, tolerance=1e-9):
    """Reference: every wall term, then every pair i < j, with math.hypot."""
    centers, radius, n = layout.centers, layout.radius, layout.n
    violations = []
    max_pair = 0.0
    max_container = 0.0
    for i in range(n):
        depth = math.hypot(centers[i, 0], centers[i, 1]) + 1.0 - radius
        if depth > 0.0:
            max_container = max(max_container, depth)
            if depth > tolerance:
                violations.append(Violation("container", i, None, depth))
    for i in range(n - 1):
        for j in range(i + 1, n):
            gap = math.hypot(centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1])
            depth = 2.0 - gap
            if depth > 0.0:
                max_pair = max(max_pair, depth)
                if depth > tolerance:
                    violations.append(Violation("pair", i, j, depth))
    return VerificationResult(not violations, tuple(violations), max_pair, max_container)


def assert_same_verdict(got, want):
    assert got == want
    assert [v.depth.hex() for v in got.violations] == [v.depth.hex() for v in want.violations]
    assert got.max_pair_depth.hex() == want.max_pair_depth.hex()
    assert got.max_container_depth.hex() == want.max_container_depth.hex()


TOLERANCES = st.sampled_from([0.0, 1e-12, 1e-9, 1e-3])


@given(
    n=st.integers(1, 30),
    radius=st.floats(1.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
    tolerance=TOLERANCES,
)
@settings(max_examples=150, deadline=None)
def test_verify_layout_matches_full_scan_on_random_layouts(n, radius, seed, tolerance):
    layout = cp.random_layout(n, radius, cp.Rng(seed))
    assert_same_verdict(cp.verify_layout(layout, tolerance), verify_by_full_scan(layout, tolerance))


@given(
    ring=st.floats(3.0, 40.0),
    count=st.integers(2, 12),
    nudges=st.lists(
        st.sampled_from([0.0, 1e-16, -1e-16, 4e-16, -4e-16, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]),
        min_size=24,
        max_size=24,
    ),
    tolerance=TOLERANCES,
)
@settings(max_examples=150, deadline=None)
def test_verify_layout_matches_full_scan_near_contact(ring, count, nudges, tolerance):
    # circles on a ring touching the wall, neighbours exactly 2 apart, each
    # coordinate then nudged by at most a few 1e-9
    step = 2.0 * math.asin(1.0 / ring)
    count = min(count, int(2.0 * math.pi / step))
    angles = step * np.arange(count)
    centers = ring * np.column_stack((np.cos(angles), np.sin(angles)))
    centers += np.array(nudges[: 2 * count]).reshape(count, 2)
    layout = cp.Layout(centers, ring + 1.0)
    assert_same_verdict(cp.verify_layout(layout, tolerance), verify_by_full_scan(layout, tolerance))


def test_verify_agrees_with_is_feasible_on_solver_outputs():
    for seed in range(8):
        report = cp.global_search(6, 3.1, 30.0, rng=cp.Rng(seed))
        assert report.status == cp.SolveStatus.FEASIBLE
        assert cp.is_feasible(report.layout)
        assert cp.verify_layout(report.layout).passed
