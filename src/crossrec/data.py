"""Dataset ingestion and synthetic cross-domain data generation.

File boundary uses arbitrary string IDs; everything downstream runs on dense
indices assigned in first-seen order.  Each TSV is read in bulk: the whole
file as UTF-8 bytes (a leading byte-order mark dropped, CRLF read as LF), and
one numpy pass over its newline and tab bytes that finds blank lines, ``#``
headers and malformed lines (a well-formed one has two non-empty fields, or
three in the entity graph) and the byte range of each kept field.  No string
is made per field: each ID space turns its fields' bytes into integer keys,
one 8-byte word per 7 bytes of an ID with the byte count in its top byte,
numbers them in first-seen order by sorting (:func:`graph.first_seen`), and
decodes only its distinct IDs, in one call.  Users must appear in both domains
(the shared-user setting), item index spaces are disjoint per domain, and a
single entity index space is shared by both domains.

The synthetic generator plants a known latent structure: users and items get
latent vectors, items cluster around shared entity anchors, and a chosen
fraction of source interactions is drawn uniformly at random instead of from
the user's preference ("irrelevant" edges).  Ground-truth per-edge flags are
emitted for diagnostics only and never reach the model.

Every file the package writes goes through :func:`write_atomic`, and the
text of every table it writes through :func:`format_rows`.
"""

from __future__ import annotations

import os
import secrets
from collections.abc import Iterable
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .graph import (
    SOURCE,
    TARGET,
    InteractionGraph,
    KnowledgeLinkage,
    first_seen,
    scope_entity_edges,
    unique_edges,
)

# entity edges further than this many hops from every item-linked entity are trimmed
HOP_RADIUS = 1


@dataclass(frozen=True)
class DataPaths:
    source: Path
    target: Path
    kg: Path
    map_source: Path
    map_target: Path

    def all(self) -> list[Path]:
        return list(astuple(self))


@dataclass
class LoadReport:
    """Accounting of everything the loader dropped, with line provenance."""

    malformed: list[tuple[str, int, str]] = field(default_factory=list)
    raw_edges: dict[str, int] = field(default_factory=dict)
    duplicate_edges: dict[str, int] = field(default_factory=dict)
    kg_self_loops: int = 0
    single_domain_users: int = 0
    single_domain_edges: dict[str, int] = field(default_factory=dict)
    scoped_out_kg_edges: int = 0


@dataclass
class DatasetBundle:
    """A loaded cross-domain dataset with its ID dictionaries."""

    source: InteractionGraph
    target: InteractionGraph
    kg: KnowledgeLinkage
    user_ids: list[str]
    source_item_ids: list[str]
    target_item_ids: list[str]
    entity_ids: list[str]

    @property
    def user_count(self) -> int:
        return len(self.user_ids)


def _read_pairs(path: Path, report: LoadReport,
                middle_optional: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The file's UTF-8 bytes and the first and last field of each well-formed line.

    Returns the bytes, zero-padded so an 8-byte read at any field start stays
    in bounds, and an ``(n, 2, 2)`` array: ``[line, 0]`` is the first field's
    ``[start, end)`` byte range and ``[line, 1]`` the last field's.  With
    ``middle_optional`` a three-field line is well formed too, and its middle
    field (a relation label) is dropped.  Malformed lines go into
    ``report.malformed`` with their line numbers.
    """
    data = Path(path).read_bytes()
    data.decode("utf-8")  # refuse a file that is not UTF-8, as reading it as text would
    data = data.removeprefix(b"\xef\xbb\xbf")  # a byte-order mark, as utf-8-sig drops it
    if b"\r" in data:  # universal newlines, so CRLF reads as LF
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data + b"\n" + bytes(7), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    tabs = np.flatnonzero(raw == ord("\t"))
    line = np.searchsorted(ends, tabs)
    line_tabs = np.bincount(line, minlength=ends.size)
    fields = line_tabs + 1
    # an empty field: a tab that starts or ends its line, or follows another tab
    empty = (tabs == starts[line]) | (tabs + 1 == ends[line])
    empty[1:] |= np.diff(tabs) == 1
    skip = (starts == ends) | (raw[starts] == ord("#"))
    ok = ((fields == 2) | (middle_optional & (fields == 3))) & ~skip
    ok[line[empty]] = False
    report.malformed.extend((str(path), n + 1, raw[starts[n]:ends[n]].tobytes().decode("utf-8"))
                            for n in np.flatnonzero(~(ok | skip)).tolist())
    first_tab = (np.cumsum(line_tabs) - line_tabs)[ok]
    last_tab = first_tab + line_tabs[ok] - 1
    bounds = np.stack([starts[ok], tabs[first_tab], tabs[last_tab] + 1, ends[ok]], axis=1)
    return raw, bounds.reshape(-1, 2, 2)


# bytes of an ID held by one key word; the word's top byte holds their count
WORD_BYTES = 7
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(WORD_BYTES + 1)], dtype=np.uint64)
_BYTE_COUNT = np.arange(WORD_BYTES + 1, dtype=np.uint64) << np.uint64(56)


def _index(columns: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """First-seen codes of the IDs of one ID space, and each code's first position.

    Each column is a file's bytes and the ``[start, end)`` ranges of its IDs
    (an ``(n, 2)`` array); the columns are read in order.  An ID becomes one
    8-byte little-endian key word per 7 of its bytes, each holding the chunk
    and, in the top byte, its byte count (0 past the end of the ID), so IDs
    that differ only in trailing NUL bytes or in length never collide.  The
    words of longer IDs are folded one by one into dense codes.
    """
    longest = max(int((bounds[:, 1] - bounds[:, 0]).max(initial=1)) for _, bounds in columns)
    words = np.empty((-(-longest // WORD_BYTES), sum(len(bounds) for _, bounds in columns)),
                     dtype=np.uint64)
    row = 0
    for raw, bounds in columns:
        view = np.ndarray((raw.size - WORD_BYTES,), dtype="<u8", buffer=raw, strides=(1,))
        start, end = bounds[:, 0], bounds[:, 1]
        for word, out in enumerate(words[:, row:row + len(bounds)]):
            at = np.minimum(start + word * WORD_BYTES, end)
            count = np.minimum(end - at, WORD_BYTES)
            np.bitwise_or(view[at] & _LOW_BYTES[count], _BYTE_COUNT[count], out=out)
        row += len(bounds)
    key = words[0]
    for column in words[1:]:
        low, low_first = first_seen(column)
        key = first_seen(key)[0] * low_first.size + low
    return first_seen(key)


def _decode(columns: list[tuple[np.ndarray, np.ndarray]], positions: np.ndarray) -> list[str]:
    """The IDs at ascending ``positions`` of the concatenated columns, decoded at once."""
    pieces, offset = [], 0
    for raw, bounds in columns:
        local = positions[(positions >= offset) & (positions < offset + len(bounds))] - offset
        start, end = bounds[local, 0], bounds[local, 1]
        size = end - start + 1
        out = np.cumsum(size) - size
        piece = raw[np.arange(size.sum()) - np.repeat(out - start, size)]
        piece[out + size - 1] = ord("\n")
        pieces.append(piece)
        offset += len(bounds)
    # an ID holds no newline, but may hold what str.splitlines() also splits on
    return np.concatenate(pieces).tobytes().decode("utf-8").split("\n")[:-1]


def load_bundle(paths: DataPaths, hop_radius: int = HOP_RADIUS) -> tuple[DatasetBundle, LoadReport]:
    """Load and index a full cross-domain dataset.

    Users present in only one domain are dropped (counted in the report);
    no well-formed line disappears without being counted: KG self-loops go
    to ``kg_self_loops``, then each table's repeated lines to
    ``duplicate_edges``, keyed by its ``DataPaths`` field.  Entity edges
    beyond ``hop_radius`` hops from any item-linked entity are trimmed.

    IDs are indexed in first-seen order: users and items over the shared
    users' interactions (source first), then the item-entity maps (source
    first), then the KG, dropped lines included.
    """
    report = LoadReport()
    raw = {SOURCE: _read_pairs(paths.source, report), TARGET: _read_pairs(paths.target, report)}
    user_columns = [(data, lines[:, 0]) for data, lines in raw.values()]
    user_codes, user_first = _index(user_columns)
    per_domain = np.split(user_codes, [len(raw[SOURCE][1])])
    seen = [np.bincount(codes, minlength=user_first.size) > 0 for codes in per_domain]
    shared = seen[0] & seen[1]
    report.single_domain_users = user_first.size - int(shared.sum())
    # a shared user keeps every line, so renumbering keeps the first-seen order
    renumbered = np.cumsum(shared) - 1
    kept, users = {}, {}
    for (domain, (data, lines)), codes in zip(raw.items(), per_domain):
        keep = shared[codes]
        report.raw_edges[domain] = len(lines)
        report.single_domain_edges[domain] = len(lines) - int(keep.sum())
        kept[domain], users[domain] = (data, lines[keep]), renumbered[codes[keep]]

    if not shared.any():
        raise ValueError(
            "no interactions left after requiring users to appear in both domains"
        )

    maps = {SOURCE: _read_pairs(paths.map_source, report),
            TARGET: _read_pairs(paths.map_target, report)}
    kg_data, kg_lines = _read_pairs(paths.kg, report, middle_optional=True)
    item_columns, item_first, mapped_items, tables = {}, {}, {}, {}
    for domain in (SOURCE, TARGET):
        (data, lines), (map_data, map_lines) = kept[domain], maps[domain]
        item_columns[domain] = [(data, lines[:, 1]), (map_data, map_lines[:, 0])]
        codes, item_first[domain] = _index(item_columns[domain])
        tables[domain] = np.stack([users[domain], codes[:len(lines)]], axis=1)
        mapped_items[domain] = codes[len(lines):]
    # heads and tails share one ID space, so they are indexed in line order
    entity_columns = [(data, lines[:, 1]) for data, lines in maps.values()]
    entity_columns.append((kg_data, kg_lines.reshape(-1, 2)))
    entity_codes, entity_first = _index(entity_columns)
    map_ends = np.cumsum([len(lines) for _, lines in maps.values()])
    *map_entities, kg_edges = np.split(entity_codes, map_ends)
    for domain, entities in zip((SOURCE, TARGET), map_entities):
        tables[f"map_{domain}"] = np.stack([mapped_items[domain], entities], axis=1)
    kg_edges = kg_edges.reshape(-1, 2)
    loops = kg_edges[:, 0] == kg_edges[:, 1]
    tables["kg"], report.kg_self_loops = kg_edges[~loops], int(loops.sum())
    for name, codes in tables.items():
        tables[name], report.duplicate_edges[name] = unique_edges(codes)
    kg = KnowledgeLinkage(entity_first.size, tables["kg"],
                          tables["map_source"], tables["map_target"])
    linkage, report.scoped_out_kg_edges = scope_entity_edges(kg, hop_radius)

    user_ids = _decode(user_columns, user_first[shared])
    bundle = DatasetBundle(
        source=InteractionGraph(SOURCE, len(user_ids), item_first[SOURCE].size, tables[SOURCE]),
        target=InteractionGraph(TARGET, len(user_ids), item_first[TARGET].size, tables[TARGET]),
        kg=linkage,
        user_ids=user_ids,
        source_item_ids=_decode(item_columns[SOURCE], item_first[SOURCE]),
        target_item_ids=_decode(item_columns[TARGET], item_first[TARGET]),
        entity_ids=_decode(entity_columns, entity_first),
    )
    return bundle, report


def load_interactions(path: Path, report: LoadReport | None = None) -> tuple[InteractionGraph, list[str], list[str]]:
    """Load one source interactions file on its own.

    ``report`` records the malformed lines, and under ``"source"`` the raw
    lines and the repeated ones, which are dropped.
    """
    report = LoadReport() if report is None else report
    data, bounds = _read_pairs(path, report)
    report.raw_edges[SOURCE] = len(bounds)
    columns = [[(data, bounds[:, side])] for side in (0, 1)]
    (users, user_first), (items, item_first) = map(_index, columns)
    edges, report.duplicate_edges[SOURCE] = unique_edges(np.stack([users, items], axis=1))
    if not len(edges):
        raise ValueError(f"no interactions found in {path}")
    graph = InteractionGraph(SOURCE, user_first.size, item_first.size, edges)
    return graph, _decode(columns[0], user_first), _decode(columns[1], item_first)


def write_atomic(path: Path, content: str | bytes) -> None:
    """Write ``content`` (text as UTF-8) to a hidden file next to ``path``, then rename it there.

    A reader sees the previous file or the whole new one, and a failed write
    leaves the previous file and no temporary one.  The file gets the mode a
    plain ``open`` gives (0666 minus the umask).
    """
    path = Path(path)
    data = content.encode("utf-8") if isinstance(content, str) else content
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_rows(rows: Iterable[Iterable[str]]) -> str:
    """The text of a table: each row's fields joined by tabs, every row ending in a newline."""
    return "\n".join([*map("\t".join, rows), ""])


def format_pairs(pairs: np.ndarray, left_ids: list[str], right_ids: list[str]) -> str:
    """``left_id<TAB>right_id`` lines, one per row of (left, right) indices."""
    left = map(left_ids.__getitem__, pairs[:, 0].tolist())
    right = map(right_ids.__getitem__, pairs[:, 1].tolist())
    return format_rows(zip(left, right))


def save_bundle(bundle: DatasetBundle, out_dir: Path) -> dict[str, Path]:
    """Write a bundle back to the on-disk TSV formats, plus the ID maps."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    users, entities = bundle.user_ids, bundle.entity_ids
    tables = {
        "source": format_pairs(bundle.source.edges, users, bundle.source_item_ids),
        "target": format_pairs(bundle.target.edges, users, bundle.target_item_ids),
        "kg": format_pairs(bundle.kg.entity_edges, entities, entities),
        "map_source": format_pairs(bundle.kg.item_entity_source, bundle.source_item_ids, entities),
        "map_target": format_pairs(bundle.kg.item_entity_target, bundle.target_item_ids, entities),
    }
    for name, ids in (
        ("users", users),
        ("items_source", bundle.source_item_ids),
        ("items_target", bundle.target_item_ids),
        ("entities", entities),
    ):
        tables[f"ids_{name}"] = format_rows(zip(ids, map(str, range(len(ids)))))
    paths = {key: out_dir / f"{key}.tsv" for key in tables}
    for key, text in tables.items():
        write_atomic(paths[key], text)
    return paths


@dataclass(frozen=True)
class SynthSpec:
    """Shape and noise level of a generated cross-domain dataset."""

    user_count: int = 500
    source_items: int = 300
    target_items: int = 300
    latent_dim: int = 8
    entity_clusters: int = 16
    entity_neighbors: int = 4
    # data-rich source, sparse target: the setting transfer is meant for
    source_interactions: int = 12
    target_interactions: int = 6
    irrelevant_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.user_count,
            self.source_items,
            self.target_items,
            self.latent_dim,
            self.entity_clusters,
            self.entity_neighbors,
            self.source_interactions,
            self.target_interactions,
        )
        if min(counts) <= 0:
            raise ValueError(f"all counts must be positive: {self}")
        if not 0.0 <= self.irrelevant_fraction <= 1.0:
            raise ValueError(f"irrelevant_fraction must lie in [0, 1]: {self.irrelevant_fraction}")
        if self.source_interactions > self.source_items or self.target_interactions > self.target_items:
            raise ValueError(
                f"cannot draw {self.source_interactions}/{self.target_interactions} distinct "
                f"items per user from catalogs of {self.source_items}/{self.target_items}"
            )


# the entity kNN computes its cosine similarities with one matrix product per
# block of rows: as many rows as fill KNN_BLOCK float64 values (1.5 MiB, so
# the product and the argmax passes over it stay in a core's 2 MiB L2 cache),
# but at least KNN_ROWS, since every block reads all of the unit latents.
# 6,000 entities take 32 rows, 600 take 327 and 63,477 take KNN_ROWS.  A
# freed buffer above glibc's mmap threshold raises that threshold: a desk fit
# run after generate_synthetic in one process took 0.37 s with 32-row blocks
# (150 KB) against 0.26 s with 327 rows (1.5 MB), mapping fresh pages for its
# temporaries.
# The block size changes how the product rounds, which could move a near-tied
# neighbour; tests/test_data.py checks that no block size from 1 row to all
# of them moves one on the desk-shape latents
KNN_BLOCK = 3 << 16
KNN_ROWS = 32


# users whose preference distributions generate_synthetic holds at once, as a
# count of float64 values: a block holds PREFERENCE_BLOCK // catalog users
PREFERENCE_BLOCK = 1 << 15


def _choice_by_cdf(rng: np.random.Generator, p: np.ndarray, cdf: np.ndarray,
                   size: int) -> list[int]:
    """``rng.choice(len(p), size, replace=False, p=p)``, drawn from a precomputed CDF.

    ``cdf`` is ``np.cumsum(p) / its last value``.  numpy 2.4's ``choice``
    searches the CDF for ``size`` uniform draws and keeps each item's first
    occurrence; while items are missing, it zeroes the found ones in a copy of
    ``p``, rebuilds the CDF and searches ``size - found`` new draws.  This runs
    the same steps on the same stream, so it returns the same items in the
    same order and leaves ``rng`` in the same state.  The search never finds
    an item of zero probability, so ``p`` with fewer than ``size`` positive
    entries always reaches the retries, and they refuse it as ``choice``
    does, without counting ``p > 0`` for the draws that need no retry.
    """
    found = dict.fromkeys(cdf.searchsorted(rng.random(size), side="right").tolist())
    while len(found) < size:
        if np.count_nonzero(p > 0) < size:
            raise ValueError("Fewer non-zero entries in p than size")
        draws = rng.random(size - len(found))
        rest = p.copy()
        rest[list(found)] = 0
        cdf = np.cumsum(rest)
        cdf /= cdf[-1]
        found.update(dict.fromkeys(cdf.searchsorted(draws, side="right").tolist()))
    return list(found)


def choice_from_complement(rng: np.random.Generator, n: int, taken: np.ndarray,
                           size: int) -> np.ndarray:
    """``rng.choice(pool, size, replace=False)``, ``pool`` the items of ``range(n)`` not in ``taken``.

    ``choice`` over an array draws indices as ``choice`` over its length does
    and takes the array's values there, so this draws below ``len(pool)`` and
    maps each index to the pool item at that rank without building the pool.
    """
    taken = np.sort(taken)
    drawn = rng.choice(n - taken.size, size, replace=False)
    return drawn + np.searchsorted(taken - np.arange(taken.size), drawn, side="right")


def _nearest_neighbors(unit: np.ndarray, count: int) -> np.ndarray:
    """Each row's ``count`` nearest other rows of ``unit`` by cosine similarity.

    ``unit`` holds one unit vector per row, and ``count`` is below its row
    count.  Row ``i`` of the result lists its neighbours by descending
    similarity, ties to the lower index: ``np.argsort(-similarity[i],
    kind="stable")[:count]`` with ``i`` itself left out.  The similarities are
    computed for one block of rows at a time (``KNN_BLOCK`` values, at least
    ``KNN_ROWS`` rows) into one reused buffer (a fresh array per block would
    fault in its pages anew), and ``count`` passes of ``argmax``, which
    returns the first maximum, each take one neighbour per row and set it to
    -inf.  Each pass reads the whole block, so the cost grows with
    ``count``.  With one thread on an AVX-512 host, a 32-row block with its
    product took 0.27 ms at ``count`` = 4 against 1.8 ms for one
    ``argpartition`` at 6,000 entities, and 4.4 against 15 ms at 63,477; at
    ``count`` = 16 the passes still took less (0.67 against 1.9 ms, 12.4
    against 14.0 ms).  Beyond that ``argpartition`` may be faster, but the
    order it returns depends on numpy's SIMD dispatch level.
    """
    n_rows = unit.shape[0]
    block_rows = max(KNN_ROWS, KNN_BLOCK // n_rows)
    nearest = np.empty((n_rows, count), dtype=np.int64)
    buffer = np.empty((min(block_rows, n_rows), n_rows))
    for start in range(0, n_rows, block_rows):
        rows = slice(start, min(start + block_rows, n_rows))
        block = np.arange(rows.stop - start)
        # cosine similarity, each entity infinitely far from itself
        similarity = np.matmul(unit[rows], unit.T, out=buffer[: block.size])
        similarity[block, block + start] = -np.inf
        for column in range(count):
            picked = similarity.argmax(axis=1)
            nearest[rows, column] = picked
            similarity[block, picked] = -np.inf
    return nearest


def generate_synthetic(spec: SynthSpec) -> tuple[DatasetBundle, np.ndarray]:
    """Generate a bundle with planted preferences and a known noise fraction.

    Users and items carry latent vectors; item latents cluster around shared
    anchor directions.  Every item links to its own entity, and entities are
    wired to their nearest neighbors in latent space across both domains, so
    the entity graph is a cross-domain item-similarity graph (the knowledge
    bridge).  A ``irrelevant_fraction`` share of source interactions is drawn
    uniformly at random instead of from the user's preference distribution;
    the returned boolean array marks those edges, aligned with
    ``bundle.source.edges``.  Target-domain edges are always preference
    driven, so any leave-one-out holdout is a genuine signal.

    The draws are those of one ``rng.choice(n, size, replace=False,
    p=softmax(...))`` per user and domain, then one ``rng.choice(pool, ...)``
    over the rest of the catalog for the uniform edges, in that order on one
    stream, but the catalog-sized work runs in bulk.  The softmax and its CDF
    are computed for ``PREFERENCE_BLOCK // catalog`` users at a time, each
    user's logits by its own matrix-vector product (a block matrix product
    rounds differently); per user, :func:`_choice_by_cdf` searches that CDF
    with ``choice``'s draws and retries, and :func:`choice_from_complement`
    maps a choice over the pool's size onto the pool.  That rests on how
    numpy 2.4 implements ``choice``, which
    ``tests/test_data.py::test_choice_with_p_draws_as_a_cdf_search_with_retries``
    and ``test_choice_from_a_pool_draws_as_a_choice_over_its_size`` check.

    Time and memory grow with the output, not with the catalog squared: the
    entity kNN, :func:`_nearest_neighbors`, holds one block of similarity
    rows at a time, never the entities x entities matrix.  It writes each
    entity's edges by descending similarity, ties to the lower index, so the
    line order of ``kg.tsv`` does not depend on numpy's SIMD dispatch level.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    k, n_clusters = spec.latent_dim, spec.entity_clusters

    centers = rng.normal(size=(n_clusters, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    item_latents: dict[str, np.ndarray] = {}
    for domain, n_items in ((SOURCE, spec.source_items), (TARGET, spec.target_items)):
        clusters = rng.integers(0, n_clusters, size=n_items)
        item_latents[domain] = centers[clusters] + 0.3 * rng.normal(size=(n_items, k))

    user_latents = rng.normal(size=(spec.user_count, k))

    per_domain = {SOURCE: spec.source_interactions, TARGET: spec.target_interactions}
    items = {domain: np.empty((spec.user_count, n_per), dtype=np.int64)
             for domain, n_per in per_domain.items()}
    preferred_source = np.empty(spec.user_count, dtype=np.int64)
    block_users = max(1, PREFERENCE_BLOCK // max(spec.source_items, spec.target_items))
    probabilities = {domain: np.empty((block_users, latents.shape[0]))
                     for domain, latents in item_latents.items()}
    cdfs = {domain: np.empty_like(block) for domain, block in probabilities.items()}
    for start in range(0, spec.user_count, block_users):
        users = range(start, min(start + block_users, spec.user_count))
        for domain, latents in item_latents.items():
            # a row-wise softmax and CDF on a C-contiguous block give the
            # values of the same calls on each row alone
            p, cdf = probabilities[domain][:len(users)], cdfs[domain][:len(users)]
            for row, user in enumerate(users):
                np.matmul(latents, user_latents[user], out=p[row])
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            np.cumsum(p, axis=1, out=cdf)
            cdf /= cdf[:, -1:]
        for row, user in enumerate(users):
            for domain in (SOURCE, TARGET):
                n_per, n_items = per_domain[domain], item_latents[domain].shape[0]
                n_preferred = n_per
                if domain == SOURCE:
                    n_preferred -= int(np.count_nonzero(
                        rng.random(n_per) < spec.irrelevant_fraction))
                    preferred_source[user] = n_preferred
                chosen = items[domain][user]
                chosen[:n_preferred] = _choice_by_cdf(
                    rng, probabilities[domain][row], cdfs[domain][row], n_preferred)
                if n_preferred < n_per:
                    chosen[n_preferred:] = choice_from_complement(
                        rng, n_items, chosen[:n_preferred], n_per - n_preferred)
    edges = {domain: np.stack([np.repeat(np.arange(spec.user_count), n_per),
                               items[domain].ravel()], axis=1)
             for domain, n_per in per_domain.items()}
    irrelevant_flags = (np.arange(spec.source_interactions) >= preferred_source[:, None]).ravel()

    # one entity per item; entity edges = nearest neighbors in latent space
    # over the union of both catalogs, which ties similar items together
    # within and across domains
    all_latents = np.concatenate([item_latents[SOURCE], item_latents[TARGET]], axis=0)
    unit = all_latents / np.linalg.norm(all_latents, axis=1, keepdims=True)
    n_entities = all_latents.shape[0]
    neighbor_count = min(spec.entity_neighbors, n_entities - 1)
    nearest = _nearest_neighbors(unit, neighbor_count)
    kg_edges = np.stack([np.repeat(np.arange(n_entities), neighbor_count), nearest.ravel()],
                        axis=1)

    map_source = np.stack(
        [np.arange(spec.source_items), np.arange(spec.source_items)], axis=1
    )
    map_target = np.stack(
        [np.arange(spec.target_items), spec.source_items + np.arange(spec.target_items)],
        axis=1,
    )

    bundle = DatasetBundle(
        source=InteractionGraph(SOURCE, spec.user_count, spec.source_items, edges[SOURCE]),
        target=InteractionGraph(TARGET, spec.user_count, spec.target_items, edges[TARGET]),
        kg=KnowledgeLinkage(
            entity_count=n_entities,
            entity_edges=kg_edges,
            item_entity_source=map_source,
            item_entity_target=map_target,
        ),
        user_ids=[f"u{i:04d}" for i in range(spec.user_count)],
        source_item_ids=[f"s{i:04d}" for i in range(spec.source_items)],
        target_item_ids=[f"t{i:04d}" for i in range(spec.target_items)],
        entity_ids=[f"es{i:04d}" for i in range(spec.source_items)]
        + [f"et{i:04d}" for i in range(spec.target_items)],
    )
    return bundle, irrelevant_flags


def write_flags(path: Path, bundle: DatasetBundle, flags: np.ndarray) -> None:
    edges = bundle.source.edges
    users = map(bundle.user_ids.__getitem__, edges[:, 0].tolist())
    items = map(bundle.source_item_ids.__getitem__, edges[:, 1].tolist())
    labels = map(("relevant", "irrelevant").__getitem__, flags.tolist())
    write_atomic(path, format_rows(zip(users, items, labels)))
