"""Exploratory season statistics.

Accuracies are kept as exact rationals (`fractions.Fraction`) everywhere;
rounding happens only at render time (0.1 percentage point, half-up), so
summary tables never accumulate float drift.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.stats import rankdata

from .data import Dataset, POSITIONS, RACE_TYPES, SHOTS_PER_BOUT
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CellStat:
    """Hits/shots for one table cell; accuracy is exact.

    Cells built from published accuracy values carry no shot counts
    (``hits``/``shots`` are None); cells with zero shots are absent.
    """

    hits: int | None = None
    shots: int | None = None
    acc: Fraction | None = None

    @classmethod
    def from_counts(cls, hits: int, shots: int) -> "CellStat":
        acc = Fraction(hits, shots) if shots else None
        return cls(hits=hits, shots=shots, acc=acc)

    @classmethod
    def from_accuracy(cls, value) -> "CellStat":
        if isinstance(value, float):
            value = str(value)
        return cls(acc=Fraction(value))

    @property
    def accuracy(self) -> Fraction | None:
        return self.acc

    @property
    def present(self) -> bool:
        return self.acc is not None


_ABSENT = CellStat()


@dataclass(frozen=True)
class AthleteSummary:
    athlete: str
    position: dict[str, CellStat]
    race: dict[str, CellStat]
    total: CellStat


@dataclass(frozen=True)
class SummaryTable:
    """Per-athlete accuracy by position and race type, plus an overall row."""

    rows: tuple[AthleteSummary, ...]
    overall: AthleteSummary

    @property
    def athletes(self) -> tuple[str, ...]:
        return tuple(r.athlete for r in self.rows)

    def row(self, athlete: str) -> AthleteSummary:
        for r in self.rows:
            if r.athlete == athlete:
                return r
        raise KeyError(athlete)

    @classmethod
    def from_race_accuracies(cls, table: Mapping[str, Mapping[str, object]]) -> "SummaryTable":
        """Build a race-accuracy-only table from published values.

        ``table`` maps athlete -> {race_type: accuracy}; missing race types
        become absent cells.  Positions and totals are absent throughout
        (shot counts are unknown), which is enough for favorite-race
        counting.
        """
        rows = []
        for athlete, cells in table.items():
            race = {
                rt: (CellStat.from_accuracy(cells[rt]) if rt in cells else _ABSENT)
                for rt in RACE_TYPES
            }
            rows.append(
                AthleteSummary(
                    athlete=athlete,
                    position={p: _ABSENT for p in POSITIONS},
                    race=race,
                    total=_ABSENT,
                )
            )
        overall = AthleteSummary(
            "overall",
            {p: _ABSENT for p in POSITIONS},
            {rt: _ABSENT for rt in RACE_TYPES},
            _ABSENT,
        )
        return cls(tuple(rows), overall)


def accuracy_summary(d: Dataset) -> SummaryTable:
    """Tabulate hits/shots per athlete by position and race type.

    Raises DataError on an empty dataset.
    """
    if d.n_records == 0:
        raise DataError("empty dataset")
    pos: dict[tuple[str, str], list[int]] = {}
    race: dict[tuple[str, str], list[int]] = {}
    tot: dict[str, list[int]] = {a: [0, 0] for a in d.athletes}
    for r in d.records:
        for key, box in ((r.position, pos), (r.race_type, race)):
            cell = box.setdefault((r.athlete, key), [0, 0])
            cell[0] += r.hits
            cell[1] += SHOTS_PER_BOUT
        tot[r.athlete][0] += r.hits
        tot[r.athlete][1] += SHOTS_PER_BOUT

    def cell(box, athlete, key):
        hits, shots = box.get((athlete, key), (0, 0))
        return CellStat.from_counts(hits, shots)

    rows = tuple(
        AthleteSummary(
            athlete=a,
            position={p: cell(pos, a, p) for p in POSITIONS},
            race={rt: cell(race, a, rt) for rt in RACE_TYPES},
            total=CellStat.from_counts(*tot[a]),
        )
        for a in d.athletes
    )
    overall = AthleteSummary(
        athlete="overall",
        position={
            p: CellStat.from_counts(
                sum(r.position[p].hits or 0 for r in rows),
                sum(r.position[p].shots or 0 for r in rows),
            )
            for p in POSITIONS
        },
        race={
            rt: CellStat.from_counts(
                sum(r.race[rt].hits or 0 for r in rows),
                sum(r.race[rt].shots or 0 for r in rows),
            )
            for rt in RACE_TYPES
        },
        total=CellStat.from_counts(d.total_hits, d.total_shots),
    )
    return SummaryTable(rows, overall)


@dataclass(frozen=True)
class FavoriteCounts:
    """How many athletes rate each race type their best / worst."""

    favorite: dict[str, int]
    least_favorite: dict[str, int]
    excluded: tuple[str, ...]
    ties: tuple[str, ...]


def favorite_race_counts(t: SummaryTable) -> FavoriteCounts:
    """Count favorite / least-favorite race types across athletes.

    Accuracy ties are broken toward the race type with more shots, then by
    race-type declaration order; ties are logged and recorded.  Athletes
    with fewer than two race types on record are excluded with a warning.
    """
    favorite = {rt: 0 for rt in RACE_TYPES}
    least = {rt: 0 for rt in RACE_TYPES}
    excluded = []
    ties = []
    for row in t.rows:
        cells = [
            (rt, c.accuracy, c.shots or 0)
            for rt, c in row.race.items()
            if c.present
        ]
        if len(cells) < 2:
            excluded.append(row.athlete)
            log.warning("favorite_race_counts: %s has <2 race types, excluded", row.athlete)
            continue
        best = max(cells, key=lambda c: (c[1], c[2], -RACE_TYPES.index(c[0])))
        worst = min(cells, key=lambda c: (c[1], -c[2], RACE_TYPES.index(c[0])))
        for label, chosen in (("favorite", best), ("least favorite", worst)):
            tied = [rt for rt, acc, _ in cells if acc == chosen[1]]
            if len(tied) > 1:
                note = f"{row.athlete}: {label} tie between {', '.join(tied)} -> {chosen[0]}"
                ties.append(note)
                log.info("favorite_race_counts: %s", note)
        favorite[best[0]] += 1
        least[worst[0]] += 1
    return FavoriteCounts(favorite, least, tuple(excluded), tuple(ties))


@dataclass(frozen=True)
class DeviationMatrix:
    """Athlete-by-stage accuracy deviations from the pooled stage mean."""

    athletes: tuple[str, ...]
    stages: tuple[int, ...]
    deviation: dict[tuple[str, int], Fraction]
    stage_mean: dict[int, Fraction]


def stage_deviation_matrix(d: Dataset) -> DeviationMatrix:
    """Per-cell (athlete stage accuracy − stage mean accuracy), exact.

    Stage means pool all athletes' shots at the stage, so each column's
    shot-weighted mean deviation is exactly zero.  Absent cells (athlete
    skipped the stage) are simply missing; stages with no records have no
    column.
    """
    if d.n_records == 0:
        raise DataError("empty dataset")
    cell: dict[tuple[str, int], list[int]] = {}
    pooled: dict[int, list[int]] = {}
    for r in d.records:
        c = cell.setdefault((r.athlete, r.stage), [0, 0])
        c[0] += r.hits
        c[1] += SHOTS_PER_BOUT
        s = pooled.setdefault(r.stage, [0, 0])
        s[0] += r.hits
        s[1] += SHOTS_PER_BOUT
    stages = tuple(sorted(pooled))
    stage_mean = {t: Fraction(h, n) for t, (h, n) in pooled.items()}
    deviation = {
        (a, t): Fraction(h, n) - stage_mean[t] for (a, t), (h, n) in cell.items()
    }
    return DeviationMatrix(d.athletes, stages, deviation, stage_mean)


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks on ties.

    Computed as the Pearson correlation of the two mid-rank transforms.
    Raises DataError on length mismatch, length < 2, or a constant input
    (the coefficient is undefined there, not zero).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise DataError("need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DataError("constant sequence: rank correlation undefined")
    rx = rankdata(x)
    ry = rankdata(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx * rx) * np.sum(ry * ry)))


def load_ranks(source) -> dict[str, float]:
    """Parse an end-of-season rank file: CSV with header ``athlete,final_rank``
    (a leading byte-order mark is dropped) and a finite rank per athlete."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        text = bytes(source).decode("utf-8")
    elif isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("rank file: missing header") from None
    if tuple(header) != ("athlete", "final_rank"):
        raise DataError(f"rank file: bad header {','.join(header)!r}")
    ranks = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"rank file: expected 2 fields, got {len(row)}")
        athlete, rank_s = row
        try:
            rank = float(rank_s)
        except ValueError:
            raise DataError(f"rank file: not a number: {rank_s!r}") from None
        if not math.isfinite(rank):
            raise DataError(f"rank file: rank of {athlete!r} is not finite: {rank_s!r}")
        if athlete in ranks:
            raise DataError(f"rank file: duplicate athlete {athlete!r}")
        ranks[athlete] = rank
    return ranks


def rank_correlations(t: SummaryTable, ranks: Mapping[str, float]) -> dict[str, float]:
    """Spearman rho of final rank against each accuracy column.

    Columns: overall, the two positions, the four race types.  Athletes
    missing a rank or the cell are dropped per column; columns with fewer
    than two paired values are omitted.
    """
    columns: dict[str, dict[str, Fraction]] = {"overall": {}}
    for row in t.rows:
        if row.total.present:
            columns["overall"][row.athlete] = row.total.accuracy
    for p in POSITIONS:
        columns[p] = {
            r.athlete: r.position[p].accuracy for r in t.rows if r.position[p].present
        }
    for rt in RACE_TYPES:
        columns[rt] = {
            r.athlete: r.race[rt].accuracy for r in t.rows if r.race[rt].present
        }
    out = {}
    for name, cells in columns.items():
        paired = [(float(ranks[a]), float(acc)) for a, acc in cells.items() if a in ranks]
        if len(paired) < 2:
            continue
        rank_vals = [r for r, _ in paired]
        accs = [v for _, v in paired]
        try:
            out[name] = spearman(rank_vals, accs)
        except DataError:
            continue  # constant column: undefined, omit rather than fake a 0
    if not out:
        raise DataError("rank file shares no usable athletes with the summary table")
    return out


@dataclass(frozen=True)
class ClusterAssignment:
    """Complete-linkage clustering of athlete accuracy profiles.

    ``merges`` follows the usual linkage convention: leaves are numbered
    0..n-1 in ``athletes`` order and merge i creates cluster id n+i.
    """

    labels: dict[str, int]
    merges: tuple[tuple[int, int, float], ...]
    athletes: tuple[str, ...]
    excluded: tuple[str, ...]


def cluster_athletes(t: SummaryTable, k: int, standardize: bool = False) -> ClusterAssignment:
    """Agglomerate athletes on their 6 accuracy features (2 positions + 4
    race types) with Euclidean distance and complete linkage.

    Distance ties break toward the pair containing the lowest original
    athlete index, so the tree is deterministic.  Athletes with any absent
    feature cell are excluded with a warning.  Cutting the tree at ``k``
    labels clusters 1..k in order of each cluster's lowest athlete index.
    """
    feats = []
    included = []
    excluded = []
    for row in t.rows:
        cells = [row.position[p] for p in POSITIONS] + [row.race[rt] for rt in RACE_TYPES]
        if all(c.present for c in cells):
            included.append(row.athlete)
            feats.append([float(c.accuracy) for c in cells])
        else:
            excluded.append(row.athlete)
            log.warning("cluster_athletes: %s has absent cells, excluded", row.athlete)
    n = len(included)
    if n == 0:
        raise DataError("no athletes with complete profiles")
    if not 1 <= k <= n:
        raise DataError(f"k={k} outside 1..{n}")

    x = np.array(feats)
    if standardize:
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        x = (x - x.mean(axis=0)) / sd

    # pairwise Euclidean distances between current clusters; complete
    # linkage updates as d(new, o) = max(d(i, o), d(j, o))
    dist = {
        (i, j): float(np.linalg.norm(x[i] - x[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    lowest = {i: i for i in range(n)}  # cluster id -> lowest original index
    active = set(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        best_key = None
        for i in sorted(active):
            for j in sorted(active):
                if j <= i:
                    continue
                d_ij = dist[(i, j) if i < j else (j, i)]
                lo, hi = sorted((lowest[i], lowest[j]))
                key = (d_ij, lo, hi)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j, d_ij)
        i, j, h = best
        left, right = (i, j) if lowest[i] <= lowest[j] else (j, i)
        merges.append((left, right, h))
        for o in active:
            if o in (i, j):
                continue
            d_new = max(
                dist[(min(i, o), max(i, o))],
                dist[(min(j, o), max(j, o))],
            )
            dist[(min(o, next_id), max(o, next_id))] = d_new
        active.discard(i)
        active.discard(j)
        active.add(next_id)
        lowest[next_id] = min(lowest[i], lowest[j])
        next_id += 1

    # cut: replay the first n-k merges over leaf sets
    members = {i: {i} for i in range(n)}
    current = set(range(n))
    for m, (left, right, _h) in enumerate(merges[: n - k]):
        new = n + m
        members[new] = members[left] | members[right]
        current.discard(left)
        current.discard(right)
        current.add(new)
    groups = sorted(current, key=lambda cid: min(members[cid]))
    labels = {}
    for label, cid in enumerate(groups, start=1):
        for leaf in members[cid]:
            labels[included[leaf]] = label

    return ClusterAssignment(labels, tuple(merges), tuple(included), tuple(excluded))


def format_pct(value: Fraction | None) -> str:
    """Render an exact accuracy as a percent with one decimal, half-up."""
    if value is None:
        return ""
    sign = "-" if value < 0 else ""
    q = abs(value) * 1000
    whole, rem = divmod(q.numerator, q.denominator)
    if 2 * rem >= q.denominator:
        whole += 1
    return f"{sign}{whole // 10}.{whole % 10}"


def summary_csv_rows(t: SummaryTable) -> list[list[str]]:
    header = (
        ["athlete"]
        + [f"{p}_pct" for p in POSITIONS]
        + [f"{rt}_pct" for rt in RACE_TYPES]
        + ["total_shots", "total_hits", "overall_pct"]
    )
    out = [header]
    for row in list(t.rows) + [t.overall]:
        out.append(
            [row.athlete]
            + [format_pct(row.position[p].accuracy) for p in POSITIONS]
            + [format_pct(row.race[rt].accuracy) for rt in RACE_TYPES]
            + [
                "" if row.total.shots is None else str(row.total.shots),
                "" if row.total.hits is None else str(row.total.hits),
                format_pct(row.total.accuracy),
            ]
        )
    return out


def favorite_csv_rows(c: FavoriteCounts) -> list[list[str]]:
    out = [["race_type", "favorite", "least_favorite"]]
    for rt in RACE_TYPES:
        out.append([rt, str(c.favorite[rt]), str(c.least_favorite[rt])])
    return out


def deviation_csv_rows(m: DeviationMatrix) -> list[list[str]]:
    out = [["athlete"] + [f"stage_{t}" for t in m.stages]]
    for a in m.athletes:
        row = [a]
        for t in m.stages:
            dev = m.deviation.get((a, t))
            row.append("" if dev is None else repr(float(dev)))
        out.append(row)
    out.append(["stage_mean"] + [repr(float(m.stage_mean[t])) for t in m.stages])
    return out


def merges_csv_rows(c: ClusterAssignment) -> list[list[str]]:
    out = [["left", "right", "height"]]
    for left, right, h in c.merges:
        out.append([str(left), str(right), repr(h)])
    return out


def labels_csv_rows(c: ClusterAssignment) -> list[list[str]]:
    out = [["athlete", "cluster"]]
    for a in c.athletes:
        out.append([a, str(c.labels[a])])
    return out


def correlations_csv_rows(rho: Mapping[str, float]) -> list[list[str]]:
    out = [["column", "spearman_rho"]]
    for name, value in rho.items():
        out.append([name, repr(value)])
    return out
