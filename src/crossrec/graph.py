"""Block adjacency construction and symmetric normalization.

Each domain is modelled as one square sparse matrix over the node set
``users + items + entities`` (in that row/column order).  User-item
interactions and item-entity links are mirrored into both triangles,
entity-entity edges are symmetrized, and the whole matrix is normalized
as ``D^{-1/2} A D^{-1/2}`` where ``D`` counts structural nonzeros per
row.  Repeated and self-looped input lines are dropped by the loader.

The encoder does not multiply the whole matrix.  For each set of *live*
blocks (those its initial layer fills) and each layer count, a graph builds,
once, the hops that propagation takes: hop ``l`` is the matrix restricted to
the blocks that can be nonzero after ``l`` steps and that a later hop, or the
reader of the user and item rows, needs.  Graphs are immutable once built
(the hop cache only grows) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

SOURCE = "source"
TARGET = "target"

# node blocks of a ``[users | items | entities]`` graph, in row order
USERS, ITEMS, ENTITIES = BLOCKS = (0, 1, 2)
# the blocks the encoder's readers take from its last layer
READ = (USERS, ITEMS)


class GraphBuildError(ValueError):
    """Raised on edges outside the declared index ranges and on entity self-loops."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphBuildError(f"edge list must be of shape (n, 2), got {arr.shape}")
    return arr


def _check_range(edges: np.ndarray, limits: tuple[int, int], label: str) -> None:
    for col, limit in enumerate(limits):
        bad = (edges[:, col] < 0) | (edges[:, col] >= limit)
        if bad.any():
            offender = edges[np.argmax(bad)]
            raise GraphBuildError(
                f"{label} edge {tuple(int(v) for v in offender)} out of range "
                f"(column {col} must lie in [0, {limit}))"
            )


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` of a 1-d array, by sorting and masking adjacent repeats."""
    # numpy 2.4's np.unique without return_* hashes, which is far slower on int64 keys
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of a 1-d ``keys`` numbered in first-seen order, and each code's first position.

    A key first occurs at the head of a run of equal adjacent keys, so only
    run heads are sorted: one default-kind argsort groups equal heads, the
    least position in each group is that key's first occurrence, and ranking
    those positions numbers the keys in the order they first appear.
    """
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    order = np.argsort(keys[heads])
    grouped = keys[heads[order]]
    new = np.ones(order.size, dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=new[1:])
    groups = np.flatnonzero(new)
    first = np.minimum.reduceat(order, groups)
    rank = np.argsort(first)
    code = np.empty_like(rank)
    code[rank] = np.arange(rank.size)
    head_code = np.empty_like(order)
    head_code[order] = np.repeat(code, np.diff(groups, append=order.size))
    return np.repeat(head_code, np.diff(heads, append=keys.size)), heads[first[rank]]


def unique_edges(edges) -> tuple[np.ndarray, int]:
    """The first occurrence of each (a, b) pair, in input order, and the count of repeats."""
    edges = _as_edge_array(edges)
    _, first = first_seen(edges[:, 0] * (int(edges[:, 1].max(initial=0)) + 1) + edges[:, 1])
    return edges[first], edges.shape[0] - first.size


@dataclass(frozen=True)
class InteractionGraph:
    """Implicit-feedback bipartite graph of one domain.

    ``edges`` holds (user_index, item_index) pairs; feedback is binary, so
    multiplicity carries no meaning, and a repeat collapses in the adjacency.
    """

    domain_tag: str
    user_count: int
    item_count: int
    edges: np.ndarray

    def __post_init__(self):
        if self.domain_tag not in (SOURCE, TARGET):
            raise GraphBuildError(f"unknown domain tag {self.domain_tag!r}")
        object.__setattr__(self, "edges", _as_edge_array(self.edges))
        _check_range(self.edges, (self.user_count, self.item_count), "interaction")
        self.edges.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class KnowledgeLinkage:
    """Entity graph plus the per-domain item-to-entity maps bridging domains.

    Entity edges are treated as undirected connectivity; any relation typing
    present in the raw triples has already been discarded.
    """

    entity_count: int
    entity_edges: np.ndarray
    item_entity_source: np.ndarray
    item_entity_target: np.ndarray

    def __post_init__(self):
        for name in ("entity_edges", "item_entity_source", "item_entity_target"):
            object.__setattr__(self, name, _as_edge_array(getattr(self, name)))
        _check_range(self.entity_edges, (self.entity_count, self.entity_count), "entity")
        loop = self.entity_edges[:, 0] == self.entity_edges[:, 1]
        if loop.any():
            entity = int(self.entity_edges[np.argmax(loop), 0])
            raise GraphBuildError(f"entity edge ({entity}, {entity}) is a self-loop")
        for name in ("item_entity_source", "item_entity_target"):
            arr = getattr(self, name)
            if arr.size and ((arr[:, 1] < 0) | (arr[:, 1] >= self.entity_count)).any():
                bad = arr[np.argmax((arr[:, 1] < 0) | (arr[:, 1] >= self.entity_count))]
                raise GraphBuildError(
                    f"{name} edge {tuple(int(v) for v in bad)} references entity "
                    f"outside [0, {self.entity_count})"
                )
            arr.setflags(write=False)
        self.entity_edges.setflags(write=False)

    def item_entity_for(self, domain_tag: str) -> np.ndarray:
        return self.item_entity_source if domain_tag == SOURCE else self.item_entity_target

    @classmethod
    def empty(cls) -> "KnowledgeLinkage":
        return cls(0, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


@dataclass(frozen=True)
class BlockHops:
    """The encoder's hops over one graph, for one set of live blocks and layer count.

    ``forward[0]`` takes the live blocks' rows, stacked in block order, and
    ``forward[-1]`` gives the user and item rows; every stacked layer keeps
    its blocks in block order.  ``adjoint`` holds the same matrices'
    transposes, in reverse order (CSC views sharing their arrays).  With no
    hop, the live rows of the read blocks, ``live[passed]``, are
    ``read[passed_to]``.
    """

    live_rows: int
    forward: tuple[sp.csr_matrix, ...]
    adjoint: tuple[sp.csc_matrix, ...]
    passed: slice
    passed_to: slice


@dataclass(frozen=True)
class SparseGraph:
    """CSR adjacency over ``[users | items | entities]``, raw 0/1 or normalized.

    Zero-degree rows simply have no stored entries.
    """

    user_count: int
    item_count: int
    entity_count: int
    matrix: sp.csr_matrix = field(repr=False)
    _hops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return self.user_count + self.item_count + self.entity_count

    def hops(self, live: tuple[int, ...], layers: int) -> BlockHops:
        """The block hops of ``layers`` propagation steps from the ``live`` blocks, built once."""
        key = (live, layers)
        hops = self._hops.get(key)
        if hops is None:  # two threads may both build it; the builds are equal
            hops = self._hops[key] = _block_hops(self, live, layers)
        return hops

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def _block_hops(graph: SparseGraph, live: tuple[int, ...], layers: int) -> BlockHops:
    """Restrict the matrix, per hop, to the blocks that can be nonzero and are needed.

    Let ``S_0`` be the live blocks and ``S_l`` the blocks linked to ``S_{l-1}``;
    let ``R_L`` be the read blocks and ``R_{l-1}`` those linked to ``R_l``.
    Hop ``l`` is the matrix on rows ``S_l & R_l`` and columns
    ``S_{l-1} & R_{l-1}``, except that the first hop takes every live column
    and the last gives every read row; the extra ones hold no entry there, so
    a read row outside ``S_L`` comes out zero.  A dropped entry either
    multiplies a row that is exactly zero, or feeds a row nothing reads, so
    each kept row sums the same nonzero terms in the same order.  Where a hop
    keeps every row and column, it is the matrix itself.
    """
    m = graph.matrix
    bounds = np.cumsum([0, graph.user_count, graph.item_count, graph.entity_count])
    row_block = np.repeat(BLOCKS, np.diff(m.indptr[bounds]))
    col_block = np.searchsorted(bounds[1:], m.indices, side="right")
    linked = np.bincount(row_block * 3 + col_block, minlength=9).reshape(3, 3) > 0

    def neighbours(blocks):
        return tuple(b for b in BLOCKS if linked[list(blocks), b].any())

    def rows(blocks):
        return np.concatenate([np.arange(0), *(np.arange(bounds[b], bounds[b + 1]) for b in blocks)])

    reach, need = [live], [READ]
    for _ in range(layers):
        reach.append(neighbours(reach[-1]))
        need.append(neighbours(need[-1]))
    kept = [tuple(b for b in r if b in n) for r, n in zip(reach, reversed(need))]
    kept[0], kept[-1] = live, READ
    forward = []
    for l in range(1, layers + 1):
        r, c = rows(kept[l]), rows(kept[l - 1])
        full = r.size == c.size == graph.node_count
        forward.append(m if full else m[r][:, c])
    passed = [b for b in live if b in READ]
    count = sum(int(bounds[b + 1] - bounds[b]) for b in passed)
    start = int(bounds[passed[0]]) if passed else 0
    return BlockHops(
        live_rows=rows(live).size,
        forward=tuple(forward),
        adjoint=tuple(hop.T for hop in reversed(forward)),
        passed=slice(0, count),
        passed_to=slice(start, start + count),
    )


def assemble_adjacency(graph: InteractionGraph, kg: KnowledgeLinkage) -> SparseGraph:
    """Build the unnormalized block adjacency for one domain.

    Rows/columns are ordered ``[users | items | entities]``.  Interaction and
    item-entity blocks are mirrored, entity edges are symmetrized, and the
    diagonal stays empty.  A repeated edge, or one given both ways, collapses
    to one weight-1 entry.  The sorted unique keys are the CSR entries in row
    order, so ``indptr`` and ``indices`` are built from them directly.
    """
    item_entity = kg.item_entity_for(graph.domain_tag)
    _check_range(item_entity, (graph.item_count, kg.entity_count), "item-entity")

    n_u, n_i, n_e = graph.user_count, graph.item_count, kg.entity_count
    n = n_u + n_i + n_e
    edges = np.concatenate([graph.edges + (0, n_u), item_entity + (n_u, n_u + n_i),
                            kg.entity_edges + (n_u + n_i)])
    flat = sorted_unique(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                         edges[:, 1] * n + edges[:, 0]]))
    r, c = np.divmod(flat, n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
    matrix = sp.csr_matrix((np.ones(flat.size), c, indptr), shape=(n, n))
    return SparseGraph(n_u, n_i, n_e, matrix)


def normalize_symmetric(graph: SparseGraph) -> SparseGraph:
    """Reweight every stored entry to ``1/sqrt(deg(row) * deg(col))``.

    ``graph`` is an :func:`assemble_adjacency` output, whose pattern is
    symmetric because every key is mirrored; the result is then symmetric
    too.  Degrees count structural nonzeros, so the result is idempotent
    under repeated normalization of the same pattern.  Zero-degree rows have
    no entries and are skipped; no division by zero can occur.
    """
    m = graph.matrix
    counts = np.diff(m.indptr)
    inv_sqrt = np.zeros(graph.node_count)
    nonzero = counts > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(counts[nonzero])
    row_of_entry = np.repeat(np.arange(graph.node_count), counts)
    values = inv_sqrt[row_of_entry] * inv_sqrt[m.indices]
    normalized = sp.csr_matrix(
        (values, m.indices.copy(), m.indptr.copy()), shape=m.shape
    )
    return SparseGraph(graph.user_count, graph.item_count, graph.entity_count, normalized)


def scope_entity_edges(kg: KnowledgeLinkage, hop_radius: int) -> tuple[KnowledgeLinkage, int]:
    """Restrict entity edges to the neighborhood of item-linked entities.

    Entities linked by items of either domain act as seeds; entities further
    than ``hop_radius`` hops from any seed lose their edges but keep their
    index (they become zero-degree nodes).  Returns the trimmed linkage and
    the number of dropped entity edges.
    """
    if hop_radius < 0:
        raise GraphBuildError("hop_radius must be non-negative")
    seeds = sorted_unique(np.concatenate([kg.item_entity_source[:, 1], kg.item_entity_target[:, 1]]))

    reachable = np.zeros(kg.entity_count, dtype=bool)
    reachable[seeds] = True
    frontier = reachable.copy()
    ee = kg.entity_edges
    for _ in range(hop_radius):
        if not ee.size or not frontier.any():
            break
        touched = np.zeros_like(reachable)
        hit_head = frontier[ee[:, 0]]
        hit_tail = frontier[ee[:, 1]]
        touched[ee[hit_head, 1]] = True
        touched[ee[hit_tail, 0]] = True
        frontier = touched & ~reachable
        reachable |= touched

    keep = reachable[ee[:, 0]] & reachable[ee[:, 1]]
    dropped = int((~keep).sum())
    if dropped == 0:
        return kg, 0
    trimmed = KnowledgeLinkage(
        kg.entity_count, ee[keep], kg.item_entity_source, kg.item_entity_target
    )
    return trimmed, dropped
