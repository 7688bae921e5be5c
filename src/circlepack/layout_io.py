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

from .geometry import FEASIBLE_ENERGY, Layout, all_pair_indices, total_energy

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


def format_decimal(value: float, min_significant: int = MIN_SIGNIFICANT_DIGITS) -> str:
    """Shortest exact decimal form of ``value``, zero-padded to a minimum
    number of significant digits, never in scientific notation.

    ``float(format_decimal(v)) == v`` holds for every finite input.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot format non-finite value {value!r}")
    if value == 0.0:
        return "0." + "0" * min_significant
    text = np.format_float_positional(value, unique=True, trim="0")
    digits = text.replace("-", "").replace(".", "").lstrip("0")
    fraction = len(text) - text.index(".") - 1
    missing = max(min_significant - len(digits), min_significant - fraction)
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
    for key in ("radius", "energy"):
        try:
            float(header[key])
        except ValueError:
            raise LayoutFormatError(
                f"{origin}: bad {key} {header[key]!r}"
            ) from None
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
            if radius < 1.0:
                raise TableValidationError(f"radius for n={n} is below 1: {radius}")
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


def read_best_known(source) -> BestKnownTable:
    text, origin = _read_text(source)
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise LayoutFormatError(f"{origin}: empty table")
    header = [cell.strip() for cell in rows[0]]
    if header != ["n", "radius"]:
        raise LayoutFormatError(
            f"{origin}: line 1: expected header 'n,radius', got {rows[0]!r}"
        )
    entries: dict[int, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise LayoutFormatError(
                f"{origin}: line {lineno}: expected two fields, got {len(row)}"
            )
        try:
            n = int(row[0])
        except ValueError:
            raise LayoutFormatError(
                f"{origin}: line {lineno}: bad n {row[0]!r}"
            ) from None
        try:
            radius = float(row[1])
        except ValueError:
            raise LayoutFormatError(
                f"{origin}: line {lineno}: bad radius {row[1]!r}"
            ) from None
        if n < 1:
            raise LayoutFormatError(f"{origin}: line {lineno}: n must be >= 1, got {n}")
        if not math.isfinite(radius):
            raise LayoutFormatError(
                f"{origin}: line {lineno}: radius must be finite, got {row[1]!r}"
            )
        if n in entries:
            raise LayoutFormatError(f"{origin}: line {lineno}: duplicate n={n}")
        entries[n] = radius
    return BestKnownTable(entries)


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
    text, origin = _read_text(source)
    rows = list(csv.reader(text.splitlines()))
    if not rows or [cell.strip() for cell in rows[0]] != [
        "n", "old_radius", "new_radius", "magnitude",
    ]:
        raise LayoutFormatError(f"{origin}: expected improvements header")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            records.append(
                ImprovementRecord(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
            )
        except (ValueError, IndexError):
            raise LayoutFormatError(
                f"{origin}: line {lineno}: bad improvement row {row!r}"
            ) from None
    return tuple(records)


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
    2 + 1e-9 apart, and only those are checked with ``math.hypot``, in
    lexicographic order, so the verdict and every depth in it are the ones
    a ``math.hypot`` scan of every pair would give.
    """
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
    pair_i, pair_j = all_pair_indices(n)
    delta = centers[pair_i] - centers[pair_j]
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
