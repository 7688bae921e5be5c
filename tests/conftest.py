"""Shared test plumbing: collects acceptance lines for the run summary and
holds the all-pairs reference verdict of ``verify_layout``."""

import math

import pytest

import circlepack as cp
from circlepack.layout_io import VerificationResult, Violation

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Record one PASS/FAIL line per acceptance criterion and enforce it."""

    def _record(number: int, title: str, passed: bool, details: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {number} {title}: {verdict} ({details})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return _record


def verify_by_full_scan(layout, tolerance):
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


@pytest.fixture(scope="session")
def verdict_matches_full_scan():
    """Assert that ``verify_layout(layout, tolerance)`` gives the verdict of
    the full scan, every violation and depth bit for bit."""

    def _check(layout, tolerance):
        got = cp.verify_layout(layout, tolerance)
        want = verify_by_full_scan(layout, tolerance)
        assert got == want
        assert [v.depth.hex() for v in got.violations] == [v.depth.hex() for v in want.violations]
        assert got.max_pair_depth.hex() == want.max_pair_depth.hex()
        assert got.max_container_depth.hex() == want.max_container_depth.hex()

    return _check


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
