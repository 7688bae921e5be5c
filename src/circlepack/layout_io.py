"""Layout documents, best-known radius tables, and layout verification.

The on-disk layout format is line oriented text: ``key=value`` header
lines (``n``, ``radius``, ``energy``, ``feasible``, optionally ``seed``
and ``producer``) followed by one ``x y`` pair per circle.  All numbers
are plain decimals, never scientific notation, carrying at least twelve
significant digits so that parsing reproduces the written floats bit for
bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import FEASIBLE_ENERGY, Layout, candidate_pairs, total_energy

DEFAULT_VERIFY_TOLERANCE = 1e-9
MIN_SIGNIFICANT_DIGITS = 12

# np.hypot and math.hypot may round a distance differently, by at most a
# step of about 4e-16 near a gap of 2; a pair this far from touching by
# np.hypot's count is still checked with math.hypot
_PAIR_CANDIDATE_SLACK = 1e-9

_HEADER_KEYS = ("n", "radius", "energy", "feasible", "seed", "producer")


class LayoutFormatError(ValueError):
    """A layout document or radius table could not be parsed."""


class TableValidationError(ValueError):
    """A radius table parsed but violated a table-level invariant."""


def format_decimal(value: float) -> str:
    """Shortest exact decimal form of ``value``, zero-padded to
    MIN_SIGNIFICANT_DIGITS significant digits, never in scientific notation.

    ``float(format_decimal(v))`` has the bits of ``v`` for every finite
    input, the sign of -0.0 included.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot format non-finite value {value!r}")
    if value == 0.0:
        sign = "-" if math.copysign(1.0, value) < 0.0 else ""
        return sign + "0." + "0" * MIN_SIGNIFICANT_DIGITS
    text = np.format_float_positional(value, unique=True, trim="0")
    digits = text.replace("-", "").replace(".", "").lstrip("0")
    fraction = len(text) - text.index(".") - 1
    missing = MIN_SIGNIFICANT_DIGITS - min(len(digits), fraction)
    if missing > 0:
        text += "0" * missing
    return text


@dataclass(frozen=True)
class LayoutDocument:
    """Parsed or to-be-written form of a layout file.

    Numeric fields stay as the exact strings that appear on disk;
    re-serializing a parsed document reproduces the original digits.
    """

    n: int
    radius: str
    centers: tuple[tuple[str, str], ...]
    energy: str
    feasible: bool
    seed: int | None = None
    producer: str | None = None

    @property
    def radius_value(self) -> float:
        return float(self.radius)

    @property
    def energy_value(self) -> float:
        return float(self.energy)

    def layout(self) -> Layout:
        pts = [(float(x), float(y)) for x, y in self.centers]
        return Layout(np.array(pts, dtype=float), self.radius_value)


def document_from_layout(layout, seed=None, producer=None) -> LayoutDocument:
    energy = total_energy(layout)
    return LayoutDocument(
        n=layout.n,
        radius=format_decimal(layout.radius),
        centers=tuple(
            (format_decimal(float(x)), format_decimal(float(y)))
            for x, y in layout.centers
        ),
        energy=format_decimal(energy.total),
        feasible=energy.total < FEASIBLE_ENERGY,
        seed=None if seed is None else int(seed),
        producer=producer,
    )


def serialize_document(doc: LayoutDocument) -> str:
    lines = [
        f"n={doc.n}",
        f"radius={doc.radius}",
        f"energy={doc.energy}",
        f"feasible={'true' if doc.feasible else 'false'}",
    ]
    if doc.seed is not None:
        lines.append(f"seed={doc.seed}")
    if doc.producer is not None:
        lines.append(f"producer={doc.producer}")
    lines.extend(f"{x} {y}" for x, y in doc.centers)
    return "\n".join(lines) + "\n"


def write_layout(layout, report=None, destination=None, producer=None) -> LayoutDocument:
    """Serialize ``layout`` to ``destination`` (path or text stream).

    ``report`` may be a solve report whose seed is recorded in the file.
    Returns the document that was written; with no destination it is only
    built, not written.
    """
    seed = getattr(report, "seed", None)
    doc = document_from_layout(layout, seed=seed, producer=producer)
    text = serialize_document(doc)
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            path = Path(destination)
            try:
                path.write_text(text, encoding="utf-8", newline="\n")
            except OSError as exc:
                raise OSError(f"cannot write layout to {path}: {exc}") from exc
    return doc


def _read_text(source) -> tuple[str, str]:
    """Return (text, origin label) from a path, string path, or stream."""
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    path = Path(source)
    try:
        return path.read_text(encoding="utf-8"), str(path)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def parse_document(text: str, origin: str = "<string>") -> LayoutDocument:
    header: dict[str, str] = {}
    coords: list[tuple[str, str]] = []
    in_header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if in_header:
            key, sep, value = line.partition("=")
            if sep and key in _HEADER_KEYS:
                if key in header:
                    raise LayoutFormatError(
                        f"{origin}: line {lineno}: duplicate header '{key}'"
                    )
                header[key] = value
                continue
            in_header = False
        parts = line.split()
        if len(parts) != 2:
            raise LayoutFormatError(
                f"{origin}: line {lineno}: expected 'x y', got {line!r}"
            )
        for part in parts:
            try:
                value = float(part)
            except ValueError:
                raise LayoutFormatError(
                    f"{origin}: line {lineno}: bad coordinate {part!r}"
                ) from None
            if not math.isfinite(value):
                raise LayoutFormatError(
                    f"{origin}: line {lineno}: non-finite coordinate {part!r}"
                )
        coords.append((parts[0], parts[1]))

    for key in ("n", "radius", "energy", "feasible"):
        if key not in header:
            raise LayoutFormatError(f"{origin}: missing header '{key}'")
    try:
        n = int(header["n"])
    except ValueError:
        raise LayoutFormatError(f"{origin}: bad n {header['n']!r}") from None
    if n < 1:
        raise LayoutFormatError(f"{origin}: n must be >= 1, got {n}")
    for key in ("radius", "energy"):
        try:
            value = float(header[key])
        except ValueError:
            raise LayoutFormatError(f"{origin}: bad {key} {header[key]!r}") from None
        if not (math.isfinite(value) and (value > 0.0 if key == "radius" else value >= 0.0)):
            raise LayoutFormatError(f"{origin}: bad {key} {header[key]!r}")
    if header["feasible"] not in ("true", "false"):
        raise LayoutFormatError(
            f"{origin}: feasible must be 'true' or 'false', got {header['feasible']!r}"
        )
    seed = None
    if "seed" in header:
        try:
            seed = int(header["seed"])
        except ValueError:
            raise LayoutFormatError(f"{origin}: bad seed {header['seed']!r}") from None
        # Rng takes no negative seed, so such a file could not reproduce its run
        if seed < 0:
            raise LayoutFormatError(f"{origin}: bad seed {header['seed']!r}")
    if len(coords) != n:
        raise LayoutFormatError(
            f"{origin}: header says n={n} but found {len(coords)} coordinate lines"
        )
    return LayoutDocument(
        n=n,
        radius=header["radius"],
        centers=tuple(coords),
        energy=header["energy"],
        feasible=header["feasible"] == "true",
        seed=seed,
        producer=header.get("producer"),
    )


def read_layout(source) -> LayoutDocument:
    text, origin = _read_text(source)
    return parse_document(text, origin)


@dataclass(frozen=True)
class BestKnownTable:
    """Best-known container radius per circle count."""

    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        ns = sorted(self.entries)
        previous = None
        for n in ns:
            radius = self.entries[n]
            # the rules of read_best_known, written so that NaN fails too
            if not n >= 1:
                raise TableValidationError(f"n must be >= 1, got {n}")
            if not 1.0 <= radius < math.inf:
                raise TableValidationError(f"radius for n={n} is not finite or below 1: {radius}")
            if previous is not None and radius <= previous:
                raise TableValidationError(
                    f"radii must strictly increase with n; "
                    f"n={n} has {radius} after {previous}"
                )
            previous = radius

    def radius_for(self, n: int) -> float:
        try:
            return self.entries[n]
        except KeyError:
            raise KeyError(f"no best-known radius for n={n}") from None

    def __contains__(self, n: int) -> bool:
        return n in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return sorted(self.entries.items())


def _read_table(source, columns: tuple[str, ...], fault=None) -> dict[int, tuple[float, ...]]:
    """Data rows of a CSV table headed ``columns``, keyed by their first field.

    The first field is a circle count n >= 1 that no other row repeats,
    every other field a finite float, in which ``fault``, if given, finds
    nothing wrong; blank rows are skipped. Every error names the line.
    """
    text, origin = _read_text(source)
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise LayoutFormatError(f"{origin}: empty table")
    if [cell.strip() for cell in rows[0]] != list(columns):
        raise LayoutFormatError(
            f"{origin}: line 1: expected header {','.join(columns)!r}, got {rows[0]!r}"
        )
    entries: dict[int, tuple[float, ...]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        where = f"{origin}: line {lineno}"
        if len(row) != len(columns):
            raise LayoutFormatError(f"{where}: expected {len(columns)} fields, got {len(row)}")
        try:
            n = int(row[0])
        except ValueError:
            raise LayoutFormatError(f"{where}: bad n {row[0]!r}") from None
        if n < 1:
            raise LayoutFormatError(f"{where}: n must be >= 1, got {n}")
        values = []
        for name, cell in zip(columns[1:], row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise LayoutFormatError(f"{where}: bad {name} {cell!r}") from None
            if not math.isfinite(value):
                raise LayoutFormatError(f"{where}: {name} must be finite, got {cell!r}")
            values.append(value)
        if fault is not None and (problem := fault(*values)):
            raise LayoutFormatError(f"{where}: {problem}")
        if n in entries:
            raise LayoutFormatError(f"{where}: duplicate n={n}")
        entries[n] = tuple(values)
    return entries


def read_best_known(source) -> BestKnownTable:
    entries = _read_table(source, ("n", "radius"))
    return BestKnownTable({n: radius for n, (radius,) in entries.items()})


def load_best_known() -> BestKnownTable:
    """The table bundled with the package, covering n = 1..100."""
    resource = resources.files("circlepack").joinpath("data/best_known.csv")
    with resources.as_file(resource) as path:
        return read_best_known(path)


@dataclass(frozen=True)
class ImprovementRecord:
    """A vendored radius improvement: old and new best radius for one n."""

    n: int
    old_radius: float
    new_radius: float
    magnitude: float

    @property
    def improvement(self) -> float:
        return self.old_radius - self.new_radius


def read_improvements(source) -> tuple[ImprovementRecord, ...]:
    def fault(old_radius, new_radius, magnitude):
        if not 1.0 <= new_radius < old_radius:
            return f"new_radius must be >= 1 and below old_radius, got {new_radius}"
        if not magnitude > 0.0:
            return f"magnitude must be > 0, got {magnitude}"
        return None

    entries = _read_table(source, ("n", "old_radius", "new_radius", "magnitude"), fault)
    return tuple(ImprovementRecord(n, *values) for n, values in entries.items())


def load_improvements() -> tuple[ImprovementRecord, ...]:
    resource = resources.files("circlepack").joinpath("data/improved_radii.csv")
    with resources.as_file(resource) as path:
        return read_improvements(path)


@dataclass(frozen=True)
class Violation:
    """One constraint broken beyond tolerance.

    ``kind`` is "pair" or "container"; ``first``/``second`` are circle
    indices (``second`` is None for container violations).
    """

    kind: str
    first: int
    second: int | None
    depth: float

    def __str__(self) -> str:
        if self.kind == "pair":
            return f"circles {self.first} and {self.second} overlap by {self.depth:.6e}"
        return f"circle {self.first} crosses the container by {self.depth:.6e}"


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    violations: tuple[Violation, ...]
    max_pair_depth: float
    max_container_depth: float

    @property
    def max_depth(self) -> float:
        return max(self.max_pair_depth, self.max_container_depth)


def verify_layout(doc, tolerance: float = DEFAULT_VERIFY_TOLERANCE) -> VerificationResult:
    """Re-check every pair and container constraint of a document or layout.

    All distances are recomputed from scratch; the verdict lists every
    constraint whose overlap depth exceeds ``tolerance``. Every wall term
    is checked with ``math.hypot``. numpy picks the pairs less than
    2 + 1e-9 apart from the candidates of ``geometry.candidate_pairs``,
    and only those are checked with ``math.hypot``, in lexicographic
    order, so the verdict and every depth in it are the ones a
    ``math.hypot`` scan of every pair would give. ``tolerance`` must be
    >= 0.
    """
    # written so that NaN fails too
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if isinstance(doc, Layout):
        layout = doc
    else:
        if len(doc.centers) != doc.n:
            raise LayoutFormatError(
                f"document claims n={doc.n} but carries {len(doc.centers)} centers"
            )
        layout = doc.layout()
    centers = layout.centers
    radius = layout.radius
    n = layout.n

    violations: list[Violation] = []
    max_pair = 0.0
    max_container = 0.0
    for i in range(n):
        depth = math.hypot(centers[i, 0], centers[i, 1]) + 1.0 - radius
        if depth > 0.0:
            max_container = max(max_container, depth)
            if depth > tolerance:
                violations.append(Violation("container", i, None, depth))
    pair_i, pair_j = candidate_pairs(centers, 2.0 + _PAIR_CANDIDATE_SLACK)
    delta = centers.take(pair_i, axis=0) - centers.take(pair_j, axis=0)
    close = np.hypot(delta[:, 0], delta[:, 1]) < 2.0 + _PAIR_CANDIDATE_SLACK
    for i, j in zip(pair_i[close].tolist(), pair_j[close].tolist()):
        gap = math.hypot(
            centers[i, 0] - centers[j, 0], centers[i, 1] - centers[j, 1]
        )
        depth = 2.0 - gap
        if depth > 0.0:
            max_pair = max(max_pair, depth)
            if depth > tolerance:
                violations.append(Violation("pair", i, j, depth))
    return VerificationResult(
        passed=not violations,
        violations=tuple(violations),
        max_pair_depth=max_pair,
        max_container_depth=max_container,
    )
