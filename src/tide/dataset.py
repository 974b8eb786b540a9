"""Timestamped click logs: loading, n-core filtering, and chronological splits.

All operations are pure: inputs are never mutated and every function returns a
new log. Backing arrays are marked read-only, so logs can be shared freely
across threads.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Raised for unreadable or malformed interaction files."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class InteractionLog:
    """Click records sorted ascending by time, ids compacted to dense ranges.

    ``ratings`` holds NaN where a record carries no rating. Duplicate
    (user, item) pairs are legal and intentionally retained: repeat clicks
    count toward popularity and conformity.
    """

    users: np.ndarray
    items: np.ndarray
    times: np.ndarray
    ratings: np.ndarray
    n_users: int
    n_items: int

    @classmethod
    def build(
        cls,
        users,
        items,
        times,
        ratings=None,
        n_users: int | None = None,
        n_items: int | None = None,
    ) -> "InteractionLog":
        """Assemble a log from parallel columns, sorting stably by time."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if ratings is None:
            ratings = np.full(users.size, np.nan)
        else:
            ratings = np.asarray(ratings, dtype=np.float64)
        if not (users.size == items.size == times.size == ratings.size):
            raise ValueError("column lengths differ")
        if n_users is None:
            n_users = int(users.max()) + 1 if users.size else 0
        if n_items is None:
            n_items = int(items.max()) + 1 if items.size else 0
        if users.size:
            if users.min() < 0 or users.max() >= n_users:
                raise ValueError("user id out of range")
            if items.min() < 0 or items.max() >= n_items:
                raise ValueError("item id out of range")
            if times.min() < 0:
                raise ValueError("negative timestamp")
        order = np.argsort(times, kind="stable")
        return cls(
            users=_frozen(users[order]),
            items=_frozen(items[order]),
            times=_frozen(times[order]),
            ratings=_frozen(ratings[order]),
            n_users=int(n_users),
            n_items=int(n_items),
        )

    def __len__(self) -> int:
        return int(self.users.size)

    @property
    def t_min(self) -> int:
        if not len(self):
            raise ValueError("empty log has no t_min")
        return int(self.times[0])

    @property
    def t_max(self) -> int:
        if not len(self):
            raise ValueError("empty log has no t_max")
        return int(self.times[-1])

    @cached_property
    def pairs(self) -> "PairSet":
        """The log's distinct (user, item) pairs, derived on first use and kept."""
        return PairSet(self)

    def subset(self, mask: np.ndarray) -> "InteractionLog":
        """Row-filtered copy keeping the parent id space (no recompaction)."""
        return InteractionLog(
            users=_frozen(self.users[mask]),
            items=_frozen(self.items[mask]),
            times=_frozen(self.times[mask]),
            ratings=_frozen(self.ratings[mask]),
            n_users=self.n_users,
            n_items=self.n_items,
        )


@dataclass(frozen=True)
class ChronoSplit:
    """Temporal train/validation/test partition over one id space."""

    train: InteractionLog
    validation: InteractionLog
    test: InteractionLog
    boundaries: list[float]
    parts: int
    split_seed: int


# The largest table PairSet.dense builds: one byte per (user, item), so
# 64 MiB holds, say, 8k users x 8k items. Larger sets keep the binary search.
DENSE_PAIR_BYTES = 64 * 2**20


class PairSet:
    """The distinct (user, item) pairs of a log, sorted by (user, item).

    ``items[offsets[u]:offsets[u + 1]]`` are user u's items, ascending.
    ``last_row[j]`` is the log row of pair j's latest click: rows are in time
    order, so of equal-time clicks the later row. The pairs are found by one
    stable argsort of the keys ``user * n_items + item``; no other module
    knows that encoding. Every array is read-only.
    """

    def __init__(self, log: InteractionLog):
        self.n_items = log.n_items
        keys = log.users * np.int64(log.n_items) + log.items
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.diff(keys, append=-1) != 0
        self._keys = _frozen(keys[last])
        self.last_row = _frozen(order[last])
        self.items = _frozen(log.items[self.last_row])
        user_starts = np.arange(log.n_users + 1) * np.int64(log.n_items)
        self.offsets = _frozen(np.searchsorted(self._keys, user_starts))

    def contains(self, users, items) -> np.ndarray:
        """Whether each (user, item) is a pair of the set, by binary search; the arguments broadcast."""
        keys = np.asarray(users) * np.int64(self.n_items) + items
        if self._keys.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        idx = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return self._keys[idx] == keys

    def dense(self) -> "PairSet | DensePairSet":
        """The same set as a boolean table when it fits ``DENSE_PAIR_BYTES``, else this sorted set."""
        if (self.offsets.size - 1) * self.n_items > DENSE_PAIR_BYTES:
            return self
        return DensePairSet(self)


class DensePairSet:
    """A PairSet's membership as a boolean (n_users, n_items) table, answered by one gather.

    Only ids in range answer correctly: a -1 padding id would read another
    user's cell, so anything that pads its ids keeps ``PairSet.contains``.
    """

    def __init__(self, pairs: PairSet):
        self.n_items = pairs.n_items
        self.offsets = pairs.offsets
        table = np.zeros((pairs.offsets.size - 1) * pairs.n_items, dtype=bool)
        table[pairs._keys] = True
        self._table = _frozen(table)

    def contains(self, users, items) -> np.ndarray:
        """Whether each (user, item) is a pair of the set; the arguments broadcast."""
        return self._table[np.asarray(users) * np.int64(self.n_items) + items]


class ItemTimeline:
    """Clicks sorted by (item, time), searchable by "clicks of item i before time t".

    The sort key is ``item * stride + rank``, rank counting the clicks at any
    earlier time: ranks, unlike raw times, cannot overflow it. Equal keys are
    equal (item, time) pairs, so the key alone fixes the layout.
    """

    def __init__(self, items, times, n_items: int):
        items = np.asarray(items, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if items.size != times.size:
            raise ValueError("items and times differ in length")
        self.clock = np.sort(times)
        # a query rank runs up to clock.size, one past the last click rank
        self.stride = np.int64(self.clock.size + 1)
        self.keys = np.sort(items * self.stride + np.searchsorted(self.clock, times))
        self.items, rank = np.divmod(self.keys, self.stride)
        self.times = self.clock[rank]
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(items, minlength=n_items))))

    def ranks(self, times) -> np.ndarray:
        """Each time's rank on the clock: the number of clicks at any earlier time."""
        return _search_left(self.clock, np.asarray(times))

    def before(self, items, times, ranks=None) -> np.ndarray:
        """Per (i, t) pair, the sorted position just past i's last click strictly before t.

        Less ``offsets[i]``, that is the number of such clicks. ``ranks`` may
        carry ``self.ranks(times)``, computed once for times that are queried
        again and again.
        """
        rank = self.ranks(times) if ranks is None else ranks
        return _search_left(self.keys, np.asarray(items, dtype=np.int64) * self.stride + rank)


def _search_left(sorted_arr: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """``np.searchsorted(side="left")``, visiting the needles in ascending order.

    Searches for ascending needles touch neighbouring memory one after the
    other, so on long random needle arrays the sort pays for itself.
    """
    order = np.argsort(needles)
    out = np.empty(needles.shape, dtype=np.intp)
    out[order] = np.searchsorted(sorted_arr, needles[order], side="left")
    return out


def _read_rows(path, delimiter: str = "\t"):
    """Parse (user, item, rating, time) rows; user/item stay strings for later compaction."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such interaction file: {path}")
    users, items, ratings, times = [], [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip("\n\r")
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) < 4:
                raise DataFormatError(f"line {lineno}: expected at least 4 columns")
            try:
                t = int(parts[3].strip())
            except ValueError:
                raise DataFormatError(f"line {lineno}: non-numeric timestamp {parts[3]!r}") from None
            if t < 0:
                raise DataFormatError(f"line {lineno}: negative timestamp")
            tok = parts[2].strip()
            try:
                r = float(tok)
            except ValueError:
                raise DataFormatError(f"line {lineno}: non-numeric rating {tok!r}") from None
            if not math.isnan(r) and not (0.5 <= r <= 5.0):  # half stars allowed
                raise DataFormatError(f"line {lineno}: rating {r} outside [0.5, 5]")
            users.append(parts[0].strip())
            items.append(parts[1].strip())
            ratings.append(r)
            times.append(t)
    if not users:
        raise DataFormatError("empty input")
    return users, items, ratings, times


_ROW = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64), ("time", np.int64)])

# bytes after which a raw id token may not be the one canonical text of its
# integer: control bytes other than tab and newline, space, signs, digit
# separators, and every non-ASCII byte (unicode digits, a byte-order mark)
_NONCANONICAL = np.zeros(256, dtype=bool)
_NONCANONICAL[:32] = True
_NONCANONICAL[[ord("\t"), ord("\n")]] = False
_NONCANONICAL[[ord(" "), ord("+"), ord("-"), ord("_")]] = True
_NONCANONICAL[128:] = True


def _canonical_tokens(data: bytes) -> bool:
    """Whether each integer in tab-separated ``data`` is written one way only.

    ``_compact`` keys raw ids by token, so "07" and "7" are two ids, while
    ``np.loadtxt`` reads both as 7. Without the bytes above, and without a
    field that starts with 0 followed by a digit, an integer token is the
    ``str`` of its value.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if _NONCANONICAL[buf].any():
        return False
    field_start = np.concatenate(([True], (buf[:-2] == ord("\t")) | (buf[:-2] == ord("\n"))))
    digit_next = (buf[1:] >= ord("0")) & (buf[1:] <= ord("9"))
    return not (field_start & (buf[:-1] == ord("0")) & digit_next).any()


def _fast_rows(path: Path, raw_ids: bool) -> np.ndarray | None:
    """The (user, item, rating, time) rows of a tab-separated file, by numpy's C reader.

    None wherever the result could differ from ``_read_rows``: a file it
    cannot read, text ``np.loadtxt`` rejects, a rating outside [0.5, 5] or a
    negative time (which ``_read_rows`` reports by line), and with
    ``raw_ids`` any id token that is not canonical.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if not data.strip() or (raw_ids and not _canonical_tokens(data)):
        return None
    try:
        rows = np.loadtxt(path, dtype=_ROW, delimiter="\t", comments=None, usecols=(0, 1, 2, 3),
                          ndmin=1, encoding="utf-8")
    except ValueError:
        return None
    ratings = rows["rating"]
    # NaN compares False both ways, so unrated rows pass
    if (rows["time"] < 0).any() or ((ratings < 0.5) | (ratings > 5.0)).any():
        return None
    return rows


def _compact(tokens: list[str]) -> tuple[np.ndarray, int]:
    """Dense 0-based ids; numeric ascending order when all tokens are ints."""
    uniq = set(tokens)
    try:
        # tokens that parse to one integer ("07", "7") tie-break by their text, not by set order
        key = {tok: (int(tok), tok) for tok in uniq}
        ordered = sorted(uniq, key=key.__getitem__)
    except ValueError:
        ordered = sorted(uniq)
    index = {tok: k for k, tok in enumerate(ordered)}
    return np.fromiter((index[t] for t in tokens), dtype=np.int64, count=len(tokens)), len(ordered)


def load_interactions(path, delimiter: str = "\t") -> InteractionLog:
    """Load a user, item, rating, time log, compacting ids and sorting by time."""
    rows = _fast_rows(Path(path), raw_ids=True) if delimiter == "\t" else None
    if rows is None:
        users, items, ratings, times = _read_rows(path, delimiter)
        u_ids, n_users = _compact(users)
        i_ids, n_items = _compact(items)
        return InteractionLog.build(u_ids, i_ids, times, ratings, n_users, n_items)
    # canonical tokens: numeric order of the distinct ids is _compact's order
    u_seen, u_ids = np.unique(rows["user"], return_inverse=True)
    i_seen, i_ids = np.unique(rows["item"], return_inverse=True)
    return InteractionLog.build(u_ids, i_ids, rows["time"], rows["rating"], u_seen.size, i_seen.size)


# rows per write: each chunk of rows is joined into one string
_WRITE_ROWS = 1 << 13


def save_interactions(log: InteractionLog, path, delimiter: str = "\t") -> None:
    """Write a log in the user, item, rating, time layout ``load_interactions`` reads.

    The rows go to a temporary file that replaces ``path`` once complete, so
    a failed or killed write never leaves a truncated log in its place.
    """
    with atomic_open(Path(path)) as fh:
        for lo in range(0, len(log), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            columns = (
                map(str, log.users[rows].tolist()),
                map(str, log.items[rows].tolist()),
                [format(r, "g") for r in log.ratings[rows].tolist()],  # nan prints as "nan"
                map(str, log.times[rows].tolist()),
            )
            fh.write("\n".join(map(delimiter.join, zip(*columns))) + "\n")


def n_core_filter(log: InteractionLog, n: int) -> InteractionLog:
    """Iteratively drop users/items with fewer than ``n`` interactions (fixpoint).

    Ids are recompacted to dense 0-based ranges afterwards, preserving
    ascending order of the retained ids.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    keep = np.ones(len(log), dtype=bool)
    while True:
        uc = np.bincount(log.users[keep], minlength=log.n_users)
        ic = np.bincount(log.items[keep], minlength=log.n_items)
        bad = keep & ((uc[log.users] < n) | (ic[log.items] < n))
        if not bad.any():
            break
        keep &= ~bad
    if not keep.any():
        raise ValueError("filter eliminated all data")
    users = log.users[keep]
    items = log.items[keep]
    u_uniq, u_new = np.unique(users, return_inverse=True)
    i_uniq, i_new = np.unique(items, return_inverse=True)
    return InteractionLog.build(
        u_new, i_new, log.times[keep], log.ratings[keep],
        n_users=u_uniq.size, n_items=i_uniq.size,
    )


def part_assignments(times: np.ndarray, t_min: int, t_max: int, parts: int) -> np.ndarray:
    """Uniform-interval part index per timestamp; boundary ties go to the later part."""
    span = int(t_max) - int(t_min)
    if span == 0:
        return np.full(times.size, parts - 1, dtype=np.int64)
    idx = ((times.astype(np.int64) - t_min) * parts) // span
    return np.minimum(idx, parts - 1)


def chrono_split(log: InteractionLog, parts: int = 10, split_seed: int = 0) -> ChronoSplit:
    """Split chronologically into uniform time parts; first ``parts - 1`` train.

    The last part's users are shuffled with ``split_seed`` and split in half:
    the first ceil(half) become validation users, the rest test users, so the
    two user sets are disjoint and every held-out record is no earlier than
    any training record.
    """
    if parts < 2:
        raise ValueError("parts must be >= 2")
    if not len(log):
        raise ValueError("cannot split an empty log")
    t_min, t_max = log.t_min, log.t_max
    span = t_max - t_min
    if span == 0:
        warnings.warn("all records share one timestamp; training part is empty")
    boundaries = [t_min + span * k / parts for k in range(parts + 1)]
    part_idx = part_assignments(log.times, t_min, t_max, parts)
    counts = np.bincount(part_idx, minlength=parts)
    empty = [k for k in range(parts) if counts[k] == 0]
    if empty:
        warnings.warn(f"empty time parts: {empty}")
    train = log.subset(part_idx < parts - 1)
    last = log.subset(part_idx == parts - 1)
    last_users = np.unique(last.users)
    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(last_users)
    n_val = math.ceil(perm.size / 2)
    val_mask = np.isin(last.users, perm[:n_val])
    return ChronoSplit(
        train=train,
        validation=last.subset(val_mask),
        test=last.subset(~val_mask),
        boundaries=boundaries,
        parts=parts,
        split_seed=split_seed,
    )


@contextmanager
def atomic_open(path: Path):
    """A text file beside ``path`` that is renamed over it when the block ends cleanly.

    If the block raises, the temporary file is removed and ``path`` keeps
    whatever it held before.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path: Path, obj) -> None:
    """The one JSON artifact format: indented, keys sorted, newline-terminated."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_SPLIT_FILES = {"train": "train.tsv", "validation": "validation.tsv", "test": "test.tsv"}


def save_split(split: ChronoSplit, outdir) -> Path:
    """Persist a split as three TSV partitions plus a JSON manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, fname in _SPLIT_FILES.items():
        save_interactions(getattr(split, name), outdir / fname)
    manifest = {
        "boundaries": split.boundaries,
        "parts": split.parts,
        "seed": split.split_seed,
        "n_users": split.train.n_users,
        "n_items": split.train.n_items,
        "counts": {name: len(getattr(split, name)) for name in _SPLIT_FILES},
    }
    manifest_path = outdir / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def load_split(indir) -> ChronoSplit:
    """Reload a split written by ``save_split``."""
    indir = Path(indir)
    manifest = json.loads((indir / "manifest.json").read_text())
    logs = {}
    for name, fname in _SPLIT_FILES.items():
        path = indir / fname
        expected = manifest["counts"][name]
        # an empty partition is an empty file, which _read_rows rejects as input
        rows = _fast_rows(path, raw_ids=False) if path.stat().st_size else np.zeros(0, dtype=_ROW)
        if rows is None:
            users, items, ratings, times = _read_rows(path)
            users, items = [int(u) for u in users], [int(i) for i in items]
        else:
            users, items, ratings, times = rows["user"], rows["item"], rows["rating"], rows["time"]
        if len(users) != expected:
            raise DataFormatError(f"{path} holds {len(users)} rows; the manifest counts {expected}")
        logs[name] = InteractionLog.build(users, items, times, ratings, manifest["n_users"], manifest["n_items"])
    return ChronoSplit(
        train=logs["train"],
        validation=logs["validation"],
        test=logs["test"],
        boundaries=list(manifest["boundaries"]),
        parts=int(manifest["parts"]),
        split_seed=int(manifest["seed"]),
    )
