"""The bulk loader against the line-by-line, indexer-class loader it replaced.

``oracle_load_bundle`` and ``oracle_load_interactions`` are the earlier
first-seen-order loader, kept here as an oracle: a per-line read of each
file, an ``_Indexer`` object per ID space and explicit ``np.asarray`` edge
arrays.  On randomized TSV sets (malformed lines, CRLF endings, ``#``
headers, duplicate edges, single-domain users, map-only items, KG-only
entities, three-column KG lines, KG self-loops, KG edges out of hop range),
on clean sets that hold no malformed, blank or comment line, and on the
error cases, both loaders must give the same IDs, edge arrays, report and
exceptions.  The randomized sets are also rewritten with hard IDs: 1-30
bytes, multi-byte characters across 7-byte boundaries, shared 7- and 14-byte
prefixes, IDs that are prefixes of others, NUL and line-separator-like
characters inside IDs, and a byte-order mark opening a file.
"""

import random
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import pytest

from crossrec.data import DataPaths, LoadReport, load_bundle, load_interactions
from crossrec.graph import (
    SOURCE,
    TARGET,
    InteractionGraph,
    KnowledgeLinkage,
    scope_entity_edges,
    unique_edges,
)

HOP_RADII = (0, 1, 2)
SEEDS = range(60)
CLEAN_SEEDS = range(100, 140)
FILES = ("source", "target", "kg", "map_source", "map_target")


@dataclass
class OracleReport:
    malformed: list = field(default_factory=list)
    raw_edges: dict = field(default_factory=dict)
    kept_edges: dict = field(default_factory=dict)
    duplicate_edges: dict = field(default_factory=dict)
    kg_self_loops: int = 0
    single_domain_users: int = 0
    single_domain_edges: dict = field(default_factory=dict)
    scoped_out_kg_edges: int = 0


def oracle_read_rows(path, report, columns, middle_optional=False):
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields_ = line.split("\t")
            if len(fields_) == columns and all(fields_):
                rows.append(tuple(fields_))
            elif middle_optional and len(fields_) == columns + 1 and all(fields_):
                rows.append((fields_[0], fields_[-1]))
            else:
                report.malformed.append((str(path), line_no, line))
    return rows


class _Indexer:
    def __init__(self):
        self.ids = []
        self.to_index = {}

    def index(self, key):
        idx = self.to_index.get(key)
        if idx is None:
            idx = len(self.ids)
            self.to_index[key] = idx
            self.ids.append(key)
        return idx

    def __len__(self):
        return len(self.ids)


def oracle_load_bundle(paths, hop_radius=1):
    report = OracleReport()
    raw_source = oracle_read_rows(paths.source, report, 2)
    raw_target = oracle_read_rows(paths.target, report, 2)
    report.raw_edges[SOURCE] = len(raw_source)
    report.raw_edges[TARGET] = len(raw_target)

    users_source = {u for u, _ in raw_source}
    users_target = {u for u, _ in raw_target}
    shared = users_source & users_target
    report.single_domain_users = len((users_source | users_target) - shared)

    users = _Indexer()
    items = {SOURCE: _Indexer(), TARGET: _Indexer()}
    entities = _Indexer()

    kept = {SOURCE: [], TARGET: []}
    for domain, raw in ((SOURCE, raw_source), (TARGET, raw_target)):
        dropped = 0
        for user_id, item_id in raw:
            user = users.index(user_id) if user_id in shared else None
            item = items[domain].index(item_id) if user is not None else None
            if user is None or item is None:
                dropped += 1
                continue
            kept[domain].append((user, item))
        report.single_domain_edges[domain] = dropped

    if not kept[SOURCE] or not kept[TARGET]:
        raise ValueError(
            "no interactions left after requiring users to appear in both domains"
        )

    maps = {SOURCE: [], TARGET: []}
    for domain, path in ((SOURCE, paths.map_source), (TARGET, paths.map_target)):
        for item_id, entity_id in oracle_read_rows(path, report, 2):
            maps[domain].append((items[domain].index(item_id), entities.index(entity_id)))

    kg_edges = []
    for head, tail in oracle_read_rows(paths.kg, report, 2, middle_optional=True):
        kg_edges.append((entities.index(head), entities.index(tail)))

    # IDs are indexed above; self-loops go first, then each table's repeats
    report.kg_self_loops = sum(head == tail for head, tail in kg_edges)
    kg_edges = [(head, tail) for head, tail in kg_edges if head != tail]
    tables = {"map_source": maps[SOURCE], "map_target": maps[TARGET], "kg": kg_edges}
    for name, pairs in tables.items():
        tables[name] = list(dict.fromkeys(pairs))
        report.duplicate_edges[name] = len(pairs) - len(tables[name])

    edges = {}
    for domain in (SOURCE, TARGET):
        edges[domain], dupes = unique_edges(kept[domain])
        report.duplicate_edges[domain] = dupes
        report.kept_edges[domain] = edges[domain].shape[0]

    as_edges = lambda pairs: np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)  # noqa: E731
    linkage = KnowledgeLinkage(
        entity_count=len(entities),
        entity_edges=as_edges(tables["kg"]),
        item_entity_source=as_edges(tables["map_source"]),
        item_entity_target=as_edges(tables["map_target"]),
    )
    linkage, report.scoped_out_kg_edges = scope_entity_edges(linkage, hop_radius)
    graphs = {
        domain: InteractionGraph(domain, len(users), len(items[domain]), edges[domain])
        for domain in (SOURCE, TARGET)
    }
    ids = (users.ids, items[SOURCE].ids, items[TARGET].ids, entities.ids)
    return (graphs[SOURCE], graphs[TARGET], linkage, *ids), report


def oracle_load_interactions(path, domain_tag=SOURCE):
    report = OracleReport()
    rows = oracle_read_rows(path, report, 2)
    users, items = _Indexer(), _Indexer()
    edges = [(users.index(u), items.index(i)) for u, i in rows]
    arr, _ = unique_edges(edges)
    if not len(arr):
        raise ValueError(f"no interactions found in {path}")
    return InteractionGraph(domain_tag, len(users), len(items), arr), users.ids, items.ids


def array_view(array):
    return array.dtype.str, array.shape, array.tolist()


def bundle_outcome(loader, paths, hop_radius):
    """Everything a load returns, in comparable form, or its exception."""
    try:
        loaded, report = loader(paths, hop_radius)
    except (OSError, ValueError) as error:  # the exception is the outcome
        return type(error), str(error)
    if loader is load_bundle:
        loaded = (loaded.source, loaded.target, loaded.kg, loaded.user_ids,
                  loaded.source_item_ids, loaded.target_item_ids, loaded.entity_ids)
    source, target, kg, *ids = loaded
    return {
        "ids": ids,
        "counts": (source.user_count, target.user_count, source.item_count,
                   target.item_count, kg.entity_count),
        "edges": [array_view(a) for a in (source.edges, target.edges, kg.entity_edges,
                                          kg.item_entity_source, kg.item_entity_target)],
        "report": {f.name: getattr(report, f.name) for f in fields(LoadReport)},
    }


def interactions_outcome(loader, path):
    try:
        graph, users, items = loader(path)
    except (OSError, ValueError) as error:
        return type(error), str(error)
    return graph.user_count, graph.item_count, array_view(graph.edges), users, items


MALFORMED = ["broken-line", "a\t", "\tb", "a\t\tb", "\t", "x\ty\tz\tw"]
# a well-formed KG line, but malformed in the two-column files
THREE_COLUMNS = "x\ty\tz"


def tsv(rng, rows, malformed, clean=False):
    """``rows`` as TSV text with headers, blank and malformed lines mixed in.

    A ``clean`` text holds only an optional header and the rows, all with one
    line ending.
    """
    lines = ["# provenance header"] if rng.random() < 0.5 else []
    for row in rows:
        if not clean and rng.random() < 0.1:
            lines.append(rng.choice(malformed))
        if not clean and rng.random() < 0.05:
            lines.append("")
        if not clean and rng.random() < 0.05:
            lines.append("# comment")
        lines.append("\t".join(row))
    endings = (rng.choice(("\n", "\r\n")),) if clean else ("\n", "\r\n")
    text = "".join(line + rng.choice(endings) for line in lines)
    return text.rstrip("\r\n") if rng.random() < 0.3 else text


def write_random_tsvs(directory: Path, seed: int, clean: bool = False) -> DataPaths:
    """Five TSVs whose IDs collide across spaces, some users one-domain,
    some items only in a map, repeated lines in every table, KG self-loops,
    and KG chains 1-3 hops past the linked entities.

    ``clean`` files hold no malformed, blank or comment line (see ``tsv``).
    """
    rng = random.Random(seed)
    users = [f"{rng.choice(('u', 'ü', 'x'))}{i}" for i in range(rng.randint(2, 12))]
    catalogs = {SOURCE: [f"x{i}" for i in range(rng.randint(2, 15))],
                TARGET: [f"t{i}" for i in range(rng.randint(2, 15))]}
    linked = [f"e{i}" for i in range(rng.randint(1, 8))] + ["x0"]

    text = {}
    for domain in (SOURCE, TARGET):
        rows = [
            (user, rng.choice(catalogs[domain]))
            # the first user is in both domains, so every set loads
            for user in users if user == users[0] or rng.random() < 0.8
            for _ in range(rng.randint(1, 5))
        ]
        rows += rng.sample(rows, k=min(len(rows), rng.randint(0, 3)))  # duplicate edges
        rng.shuffle(rows)
        text[domain] = tsv(rng, rows, MALFORMED + [THREE_COLUMNS], clean)
        mapped = [item for item in catalogs[domain] if rng.random() < 0.7]
        mapped += [f"m{domain[0]}{i}" for i in range(rng.randint(0, 3))]  # map-only items
        map_rows = [(item, rng.choice(linked)) for item in mapped]
        map_rows += rng.sample(map_rows, k=min(len(map_rows), rng.randint(0, 2)))  # repeats
        rng.shuffle(map_rows)
        text[f"map_{domain}"] = tsv(rng, map_rows, MALFORMED + [THREE_COLUMNS], clean)

    kg_rows = [tuple(rng.sample(linked, 2)) for _ in range(rng.randint(0, 6))]
    for chain in range(rng.randint(0, 3)):
        nodes = [rng.choice(linked)] + [f"c{chain}_{hop}" for hop in range(rng.randint(1, 4))]
        kg_rows += [pair if rng.random() < 0.5 else pair[::-1] for pair in zip(nodes, nodes[1:])]
    if rng.random() < 0.5:
        kg_rows += [("island_a", "island_b"), ("island_b", "island_c")]
    if rng.random() < 0.4:  # a self-loop, on a linked entity or on one seen nowhere else
        loop = rng.choice(linked + ["loop_only"])
        kg_rows.append((loop, loop))
    kg_rows += rng.sample(kg_rows, k=min(len(kg_rows), rng.randint(0, 2)))
    rng.shuffle(kg_rows)
    kg_rows = [(head, "related_to", tail) if rng.random() < 0.3 else (head, tail)
               for head, tail in kg_rows]
    text["kg"] = tsv(rng, kg_rows, MALFORMED, clean)

    for name in FILES:
        (directory / f"{name}.tsv").write_text(text[name], encoding="utf-8", newline="")
    return DataPaths(*(directory / f"{name}.tsv" for name in FILES))


def assert_same_loads(paths):
    for radius in HOP_RADII:
        expected = bundle_outcome(oracle_load_bundle, paths, radius)
        actual = bundle_outcome(load_bundle, paths, radius)
        assert actual == expected, f"hop radius {radius}"
    for path in (paths.source, paths.target):
        assert interactions_outcome(load_interactions, path) == interactions_outcome(
            oracle_load_interactions, path
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_tsv_sets(tmp_path, seed):
    assert_same_loads(write_random_tsvs(tmp_path, seed))


@pytest.mark.parametrize("seed", CLEAN_SEEDS)
def test_clean_tsv_sets(tmp_path, seed):
    assert_same_loads(write_random_tsvs(tmp_path, seed, clean=True))


def test_clean_sets_reach_every_case(tmp_path):
    """The clean seeds write no malformed line, yet every other kind of file and line."""
    totals = {"no final newline": 0, "lf only": 0, "crlf": 0, "header": 0, "headerless": 0,
              "utf-8": 0, "three-column": 0, "duplicates": 0, "single-domain": 0}
    for seed in CLEAN_SEEDS:
        paths = write_random_tsvs(tmp_path, seed, clean=True)
        for path in paths.all():
            raw = path.read_bytes().decode("utf-8")
            totals["no final newline"] += bool(raw) and not raw.endswith("\n")
            totals["crlf" if "\r\n" in raw else "lf only"] += 1
            totals["header" if raw.startswith("#") else "headerless"] += 1
            totals["utf-8"] += "ü" in raw
            totals["three-column"] += "\trelated_to\t" in raw
        _, report = load_bundle(paths)
        assert report.malformed == []
        totals["duplicates"] += sum(report.duplicate_edges.values())
        totals["single-domain"] += report.single_domain_users
    assert all(totals.values()), totals


def test_randomized_sets_reach_every_case(tmp_path):
    """The seeds above produce every line kind and drop the module docstring names."""
    totals = {"malformed": 0, "repeated interactions": 0, "repeated map lines": 0,
              "repeated kg lines": 0, "kg self-loops": 0, "loop-only entity": 0,
              "single-domain": 0, "three-column": 0, "crlf": 0, "map-only": 0, "kg-only": 0}
    scoped = {radius: 0 for radius in HOP_RADII}
    for seed in SEEDS:
        paths = write_random_tsvs(tmp_path, seed)
        kg_text = paths.kg.read_text(encoding="utf-8")
        totals["three-column"] += "\trelated_to\t" in kg_text
        totals["kg-only"] += "c0_0" in kg_text
        totals["loop-only entity"] += "loop_only" in kg_text
        totals["crlf"] += "\r\n" in paths.source.read_bytes().decode("utf-8")
        totals["map-only"] += "ms0\t" in paths.map_source.read_text(encoding="utf-8")
        for radius in HOP_RADII:
            _, report = load_bundle(paths, radius)
            totals["malformed"] += len(report.malformed)
            duplicates = report.duplicate_edges
            totals["repeated interactions"] += duplicates["source"] + duplicates["target"]
            totals["repeated map lines"] += duplicates["map_source"] + duplicates["map_target"]
            totals["repeated kg lines"] += duplicates["kg"]
            totals["kg self-loops"] += report.kg_self_loops
            totals["single-domain"] += report.single_domain_users
            scoped[radius] += report.scoped_out_kg_edges
    assert all(totals.values()), totals
    assert scoped[0] > scoped[1] > scoped[2] > 0, scoped


def write_files(directory, **texts):
    for name in FILES:
        (directory / f"{name}.tsv").write_text(texts.get(name, ""), encoding="utf-8")
    return DataPaths(*(directory / f"{name}.tsv" for name in FILES))


VALID = {"source": "a\ts1\nb\ts2\n", "target": "a\tt1\nb\tt2\n", "kg": "e1\te2\n",
         "map_source": "s1\te1\n", "map_target": "t1\te2\n"}


@pytest.mark.parametrize("case", [
    "no-shared-users", "all-empty", "empty-source", "empty-target", "empty-kg-and-maps",
    "only-malformed-target",
])
def test_error_and_empty_cases(tmp_path, case):
    texts = {
        "no-shared-users": dict(VALID, target="c\tt1\nd\tt2\n"),
        "all-empty": {},
        "empty-source": dict(VALID, source=""),
        "empty-target": dict(VALID, target="# header only\n"),
        "empty-kg-and-maps": dict(VALID, kg="", map_source="", map_target=""),
        "only-malformed-target": dict(VALID, target="a\n\tt1\n"),
    }[case]
    assert_same_loads(write_files(tmp_path, **texts))


@pytest.mark.parametrize("missing", FILES)
def test_missing_file(tmp_path, missing):
    paths = write_files(tmp_path, **VALID)
    getattr(paths, missing).unlink()
    assert_same_loads(paths)


def test_missing_map_after_no_shared_users(tmp_path):
    # the shared-user check runs before the maps are read
    paths = write_files(tmp_path, **dict(VALID, target="c\tt1\n"))
    paths.map_source.unlink()
    assert_same_loads(paths)


# IDs whose bytes probe an indexer that reads IDs in fixed-size byte chunks:
# shared 7- and 14-byte prefixes, a 2- or 3-byte character across byte 7 or
# 14, characters str.splitlines() would split on, NUL, and 1-byte IDs
HARD_PREFIXES = ["", "", "abcdefg", "abcdefghijklmn", "abcdefü", "abcdefghijklm€", "€€€",
                 "x\x00"]
HARD_CHARACTERS = ["a", "b", "z", "\x00", "\x0c", "\x1c", "\x85", "\u2028", "ü", "é", "€"]


def hard_ids(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct IDs of 1-30 UTF-8 bytes, prefix chains included, in random order."""
    ids = {"a", "b", "\x0c", "ab", "abc", "abcdefg", "abcdefg\x00", "abcdefga", "abcdefghijklmn",
           "abcdefghijklmna", "€" * 10}
    while len(ids) < count:
        candidate = rng.choice(HARD_PREFIXES) + "".join(
            rng.choice(HARD_CHARACTERS) for _ in range(rng.randint(0, 16)))
        if 1 <= len(candidate.encode("utf-8")) <= 30:
            ids.add(candidate)
    ids = sorted(ids)
    rng.shuffle(ids)
    return ids


def rewrite_with_hard_ids(paths: DataPaths, seed: int) -> None:
    """Give every field of every non-comment line a hard ID, one to one across the files."""
    rng = random.Random(seed)
    texts = {path: path.read_bytes().decode("utf-8") for path in paths.all()}
    lines = {path: text.split("\n") for path, text in texts.items()}
    tokens = sorted({field_ for rows in lines.values() for line in rows if not line.startswith("#")
                     for field_ in line.rstrip("\r").split("\t") if field_})
    mapping = dict(zip(tokens, hard_ids(rng, 2 * len(tokens) + 40)))

    def rewrite(line):
        if line.startswith("#"):
            return line
        ending = "\r" if line.endswith("\r") else ""
        return "\t".join(mapping.get(f, f) for f in line.rstrip("\r").split("\t")) + ending

    for path, rows in lines.items():
        text = "\n".join(map(rewrite, rows))
        if rng.random() < 0.3:
            text = "\ufeff" + text
        path.write_bytes(text.encode("utf-8"))


@pytest.mark.parametrize("seed", [*SEEDS[:20], *CLEAN_SEEDS[:20]])
def test_hard_id_sets(tmp_path, seed):
    paths = write_random_tsvs(tmp_path, seed, clean=seed in CLEAN_SEEDS)
    rewrite_with_hard_ids(paths, seed)
    assert_same_loads(paths)


def test_hard_id_sets_reach_every_case(tmp_path):
    """The hard sets hold every kind of ID the module docstring names."""
    totals = {"1 byte": 0, "30 bytes": 0, "over 14 bytes": 0, "shared 7 bytes": 0,
              "shared 14 bytes": 0, "prefix of another": 0, "across byte 7": 0,
              "across byte 14": 0, "nul": 0, "\\x0c": 0, "\\u2028": 0, "bom": 0}
    for seed in [*SEEDS[:20], *CLEAN_SEEDS[:20]]:
        paths = write_random_tsvs(tmp_path, seed, clean=seed in CLEAN_SEEDS)
        rewrite_with_hard_ids(paths, seed)
        bundle, _ = load_bundle(paths)
        ids = {*bundle.user_ids, *bundle.source_item_ids, *bundle.target_item_ids,
               *bundle.entity_ids}
        encoded = [i.encode("utf-8") for i in ids]
        totals["1 byte"] += any(len(b) == 1 for b in encoded)
        totals["30 bytes"] += any(len(b) == 30 for b in encoded)
        totals["over 14 bytes"] += any(len(b) > 14 for b in encoded)
        for size in (7, 14):
            heads = [b[:size] for b in encoded if len(b) > size]
            totals[f"shared {size} bytes"] += len(heads) > len(set(heads))
            # a character whose bytes lie on both sides of the chunk edge
            totals[f"across byte {size}"] += any(
                len(b) > size and (b[size] & 0xC0) == 0x80 for b in encoded)
        totals["prefix of another"] += any(
            a != b and b.startswith(a) for a in encoded for b in encoded)
        totals["nul"] += any("\x00" in i for i in ids)
        totals["\\x0c"] += any("\x0c" in i for i in ids)
        totals["\\u2028"] += any("\u2028" in i for i in ids)
        totals["bom"] += any(path.read_bytes().startswith(b"\xef\xbb\xbf") for path in paths.all())
    assert all(totals.values()), totals


def test_one_byte_id_ends_the_entity_graph(tmp_path):
    """The last token of the last file is 1 byte long, after 30-byte IDs, with no final newline."""
    long_ids = ["é" * 15, "€" * 10, "abcdefghijklmnopqrstuvwxyz0123"]
    texts = dict(VALID, kg=f"{long_ids[0]}\t{long_ids[1]}\n{long_ids[2]}\tq",
                 map_source=f"s1\t{long_ids[0]}\n", map_target=f"t1\t{long_ids[2]}\n")
    paths = write_files(tmp_path, **texts)
    assert paths.kg.read_bytes().endswith(b"\tq")
    assert_same_loads(paths)
    bundle, _ = load_bundle(paths)
    assert bundle.entity_ids == [long_ids[0], long_ids[2], long_ids[1], "q"]


def test_byte_order_mark_opens_a_file(tmp_path):
    """A BOM is part of the first field, as reading the file as UTF-8 text keeps it."""
    paths = write_files(tmp_path, **dict(VALID, source="\ufeffa\ts1\nb\ts2\na\ts3\n",
                                         kg="\ufeff# header\ne1\te2\n"))
    assert_same_loads(paths)
    bundle, report = load_bundle(paths)
    assert bundle.user_ids == ["b", "a"]
    assert report.single_domain_users == 1
    assert [line for _, line, _ in report.malformed] == [1]
