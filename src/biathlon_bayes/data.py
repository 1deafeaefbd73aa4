"""Session records and the sessions CSV format.

The observational unit is a *session*: one five-shot bout by one athlete.
Files are UTF-8 CSV with LF line endings and the exact header

    athlete,stage,race_type,position,race_seq,bout_seq,hits

``race_seq`` numbers the races within a stage (so ``(stage, race_seq)``
identifies a race and all its rows must agree on ``race_type``), and
``bout_seq`` numbers the bouts within that race.  Athletes who skip a race
simply have no rows for it; absence is never encoded with sentinel values.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParseError

RACE_TYPES = ("individual", "sprint", "pursuit", "mass_start")
POSITIONS = ("prone", "standing")
SHOTS_PER_BOUT = 5
# sprints have a single prone and a single standing bout; all other formats
# shoot twice from each position
BOUTS_PER_RACE = {"individual": 4, "sprint": 2, "pursuit": 4, "mass_start": 4}

CSV_HEADER = ("athlete", "stage", "race_type", "position", "race_seq", "bout_seq", "hits")


@dataclass(frozen=True)
class SessionRecord:
    """One five-shot bout."""

    athlete: str
    stage: int
    race_type: str
    position: str
    race_seq: int
    bout_seq: int
    hits: int

    def __post_init__(self):
        if not self.athlete:
            raise DataError("empty athlete id")
        if "," in self.athlete:
            raise DataError(f"athlete id may not contain a comma: {self.athlete!r}")
        if self.stage < 1:
            raise DataError(f"stage must be >= 1, got {self.stage}")
        if self.race_type not in RACE_TYPES:
            raise DataError(f"unknown race_type {self.race_type!r}")
        if self.position not in POSITIONS:
            raise DataError(f"unknown position {self.position!r}")
        if self.race_seq < 1:
            raise DataError(f"race_seq must be >= 1, got {self.race_seq}")
        max_bouts = BOUTS_PER_RACE[self.race_type]
        if not 1 <= self.bout_seq <= max_bouts:
            raise DataError(
                f"bout_seq {self.bout_seq} out of range 1..{max_bouts} for {self.race_type}"
            )
        if not 0 <= self.hits <= SHOTS_PER_BOUT:
            raise DataError(f"hits out of range 0..{SHOTS_PER_BOUT}: {self.hits}")

    @property
    def key(self) -> tuple[str, int, int, int]:
        """Uniqueness key; position and hits are attributes, not identity."""
        return (self.athlete, self.stage, self.race_seq, self.bout_seq)


class IndexedArrays(NamedTuple):
    """Dense integer views of a dataset for vectorized model evaluation."""

    athlete: np.ndarray    # dense athlete index, 0-based
    stage0: np.ndarray     # stage - 1
    race: np.ndarray       # index into RACE_TYPES
    position: np.ndarray   # index into POSITIONS (0 = prone)
    hits: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Immutable, validated collection of session records.

    ``athletes`` lists unique ids in first-appearance order; their positions
    are the dense indices used everywhere downstream.  ``records`` preserves
    input order.
    """

    records: tuple[SessionRecord, ...]
    athletes: tuple[str, ...]
    n_stages: int
    source_digest: str = ""

    @classmethod
    def from_records(
        cls,
        records,
        n_stages: int | None = None,
        source_digest: str | None = None,
    ) -> "Dataset":
        """Build a dataset, assigning athlete indices by first appearance.

        Raises
        ------
        DataError
            On duplicate session keys, conflicting race types for one
            ``(stage, race_seq)``, or records beyond ``n_stages``.
        """
        records = tuple(records)
        athletes: list[str] = []
        seen_athletes: set[str] = set()
        seen_keys: set[tuple] = set()
        race_types: dict[tuple[int, int], str] = {}
        max_stage = 0
        for r in records:
            if r.athlete not in seen_athletes:
                seen_athletes.add(r.athlete)
                athletes.append(r.athlete)
            if r.key in seen_keys:
                raise DataError(f"duplicate session key {r.key}")
            seen_keys.add(r.key)
            race_key = (r.stage, r.race_seq)
            known = race_types.setdefault(race_key, r.race_type)
            if known != r.race_type:
                raise DataError(
                    f"conflicting race_type for stage {r.stage} race {r.race_seq}: "
                    f"{known} vs {r.race_type}"
                )
            max_stage = max(max_stage, r.stage)
        if n_stages is None:
            n_stages = max_stage if max_stage else 0
        elif max_stage > n_stages:
            raise DataError(f"record stage {max_stage} exceeds declared n_stages {n_stages}")
        if source_digest is None:
            d = cls(records, tuple(athletes), n_stages, "")
            source_digest = hashlib.sha256(serialize_sessions(d)).hexdigest()
        return cls(records, tuple(athletes), n_stages, source_digest)

    @cached_property
    def athlete_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.athletes)}

    @property
    def n_athletes(self) -> int:
        return len(self.athletes)

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def total_shots(self) -> int:
        return SHOTS_PER_BOUT * len(self.records)

    @cached_property
    def total_hits(self) -> int:
        return sum(r.hits for r in self.records)

    @cached_property
    def races(self) -> tuple[tuple[int, int, str], ...]:
        """Distinct races as (stage, race_seq, race_type), chronological."""
        seen = {}
        for r in self.records:
            seen.setdefault((r.stage, r.race_seq), r.race_type)
        return tuple((s, q, t) for (s, q), t in sorted(seen.items()))

    @cached_property
    def arrays(self) -> IndexedArrays:
        idx = self.athlete_index
        n = len(self.records)
        athlete = np.empty(n, dtype=np.int64)
        stage0 = np.empty(n, dtype=np.int64)
        race = np.empty(n, dtype=np.int64)
        position = np.empty(n, dtype=np.int64)
        hits = np.empty(n, dtype=np.int64)
        for i, r in enumerate(self.records):
            athlete[i] = idx[r.athlete]
            stage0[i] = r.stage - 1
            race[i] = RACE_TYPES.index(r.race_type)
            position[i] = POSITIONS.index(r.position)
            hits[i] = r.hits
        return IndexedArrays(athlete, stage0, race, position, hits)


def parse_sessions(source, n_stages: int | None = None) -> Dataset:
    """Parse a sessions CSV into a Dataset.

    Parameters
    ----------
    source : bytes, str, or file-like
        CSV content.  ``str`` is treated as text content, never a path;
        use :func:`load_sessions` for paths.
    n_stages : int, optional
        Declared stage range; rows beyond it are rejected.  Inferred from
        the data when omitted.

    Raises
    ------
    ParseError
        On any malformed content, with the offending 1-based line number.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        raw = source.encode("utf-8")
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raise TypeError(f"cannot parse sessions from {type(source).__name__}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not valid UTF-8: {e}") from None
    if text.startswith("﻿"):
        text = text[1:]

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("missing header", line=1) from None
    if tuple(header) != CSV_HEADER:
        raise ParseError(
            f"bad header {','.join(header)!r}; expected {','.join(CSV_HEADER)!r}", line=1
        )

    records = []
    seen: dict[tuple, int] = {}
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", line=line)
        athlete, stage_s, race_type, position, race_seq_s, bout_seq_s, hits_s = row
        stage = _int_field(stage_s, "stage", line)
        race_seq = _int_field(race_seq_s, "race_seq", line)
        bout_seq = _int_field(bout_seq_s, "bout_seq", line)
        hits = _int_field(hits_s, "hits", line)
        if n_stages is not None and stage > n_stages:
            raise ParseError(f"stage {stage} outside declared range 1..{n_stages}", line=line)
        try:
            rec = SessionRecord(athlete, stage, race_type, position, race_seq, bout_seq, hits)
        except DataError as e:
            raise ParseError(str(e), line=line) from None
        if rec.key in seen:
            raise ParseError(
                f"duplicate session key {rec.key} (first at line {seen[rec.key]})", line=line
            )
        seen[rec.key] = line
        records.append(rec)

    try:
        return Dataset.from_records(records, n_stages=n_stages, source_digest=digest)
    except DataError as e:
        raise ParseError(str(e)) from None


def _int_field(s: str, name: str, line: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"{name} is not an integer: {s!r}", line=line) from None


def load_sessions(path, n_stages: int | None = None) -> Dataset:
    """Read and parse a sessions CSV file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    return parse_sessions(raw, n_stages=n_stages)


def serialize_sessions(d: Dataset) -> bytes:
    """Render a dataset back to canonical CSV bytes (LF, no quoting)."""
    lines = [",".join(CSV_HEADER)]
    for r in d.records:
        lines.append(
            f"{r.athlete},{r.stage},{r.race_type},{r.position},{r.race_seq},{r.bout_seq},{r.hits}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class BoutAnomaly:
    """A race whose per-athlete bout pattern deviates from the format."""

    athlete: str
    stage: int
    race_seq: int
    race_type: str
    bouts_found: int
    bouts_expected: int
    positions_found: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Pure report over a dataset; never raises, never mutates.

    ``checks`` maps each check name to "pass" or "warn".  Participation gaps
    are always warnings: athletes miss races through qualification cuts and
    absences, so missing rows are expected data, not errors.
    """

    n_records: int
    n_athletes: int
    n_stages: int
    shot_totals: dict[str, int]
    hit_totals: dict[str, int]
    bout_anomalies: tuple[BoutAnomaly, ...]
    participation: dict[int, int]
    participation_gaps: dict[str, tuple[int, ...]]
    checks: dict[str, str]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(v == "pass" for v in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_athletes": self.n_athletes,
            "n_stages": self.n_stages,
            "shot_totals": dict(self.shot_totals),
            "hit_totals": dict(self.hit_totals),
            "bout_anomalies": [
                {
                    "athlete": a.athlete,
                    "stage": a.stage,
                    "race_seq": a.race_seq,
                    "race_type": a.race_type,
                    "bouts_found": a.bouts_found,
                    "bouts_expected": a.bouts_expected,
                    "positions_found": list(a.positions_found),
                }
                for a in self.bout_anomalies
            ],
            "participation": {str(k): v for k, v in self.participation.items()},
            "participation_gaps": {k: list(v) for k, v in self.participation_gaps.items()},
            "checks": dict(self.checks),
            "warnings": list(self.warnings),
            "ok": self.ok,
        }


def validate_dataset(d: Dataset) -> ValidationReport:
    """Check bout patterns and participation; report, never raise.

    A sprint should contribute one prone and one standing bout per starter;
    the four-bout formats two of each.  Anything else is flagged as an
    anomaly (warn).  An empty dataset passes with zero athletes.
    """
    shot_totals = {a: 0 for a in d.athletes}
    hit_totals = {a: 0 for a in d.athletes}
    by_race: dict[tuple, list[SessionRecord]] = {}
    stages_of: dict[str, set[int]] = {a: set() for a in d.athletes}
    for r in d.records:
        shot_totals[r.athlete] += SHOTS_PER_BOUT
        hit_totals[r.athlete] += r.hits
        by_race.setdefault((r.athlete, r.stage, r.race_seq, r.race_type), []).append(r)
        stages_of[r.athlete].add(r.stage)

    anomalies = []
    for (athlete, stage, race_seq, race_type), recs in sorted(by_race.items()):
        expected = BOUTS_PER_RACE[race_type]
        positions = tuple(r.position for r in sorted(recs, key=lambda r: r.bout_seq))
        n_prone = positions.count("prone")
        want_prone = 1 if race_type == "sprint" else 2
        if len(recs) != expected or n_prone != want_prone:
            anomalies.append(
                BoutAnomaly(athlete, stage, race_seq, race_type, len(recs), expected, positions)
            )

    participation = {
        t: sum(1 for a in d.athletes if t in stages_of[a]) for t in range(1, d.n_stages + 1)
    }
    gaps = {}
    for a in d.athletes:
        missing = tuple(t for t in range(1, d.n_stages + 1) if t not in stages_of[a])
        if missing:
            gaps[a] = missing

    warnings = []
    checks = {"bout_pattern": "pass", "participation": "pass"}
    if anomalies:
        checks["bout_pattern"] = "warn"
        warnings.append(f"bout count anomaly in {len(anomalies)} race(s)")
    if gaps:
        checks["participation"] = "warn"
        warnings.append(f"{len(gaps)} athlete(s) have participation gaps")

    return ValidationReport(
        n_records=d.n_records,
        n_athletes=d.n_athletes,
        n_stages=d.n_stages,
        shot_totals=shot_totals,
        hit_totals=hit_totals,
        bout_anomalies=tuple(anomalies),
        participation=participation,
        participation_gaps=gaps,
        checks=checks,
        warnings=tuple(warnings),
    )
