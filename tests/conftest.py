"""Shared fixtures: small deterministic datasets and training setups."""

import numpy as np
import pytest

from crossrec.data import SynthSpec, generate_synthetic
from crossrec.evaluation import split_leave_one_out
from crossrec.graph import InteractionGraph, KnowledgeLinkage
from crossrec.data import DatasetBundle


@pytest.fixture(scope="session")
def tiny_spec():
    return SynthSpec(
        user_count=12,
        source_items=15,
        target_items=15,
        latent_dim=4,
        entity_clusters=5,
        entity_neighbors=3,
        source_interactions=8,
        target_interactions=6,
        irrelevant_fraction=0.3,
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_bundle(tiny_spec):
    bundle, flags = generate_synthetic(tiny_spec)
    return bundle, flags


@pytest.fixture(scope="session")
def tiny_split(tiny_bundle):
    bundle, _ = tiny_bundle
    return split_leave_one_out(bundle, 3)


@pytest.fixture()
def dense_micro_bundle():
    """Four users, near-complete bipartite graphs; every parameter matters.

    Each user misses at least one item per domain so that uniform negative
    sampling always has a candidate.
    """
    rng = np.random.default_rng(1)

    def edges(n_u, n_i):
        chosen = []
        for u in range(n_u):
            missing = int(rng.integers(n_i))
            chosen.extend((u, i) for i in range(n_i) if i != missing)
        return np.asarray(chosen, dtype=np.int64)

    source = InteractionGraph("source", 4, 5, edges(4, 5))
    target = InteractionGraph("target", 4, 5, edges(4, 5))
    kg = KnowledgeLinkage(
        3,
        [(0, 1), (1, 2)],
        [(i, i % 3) for i in range(5)],
        [(i, (i + 1) % 3) for i in range(5)],
    )
    return DatasetBundle(
        source=source,
        target=target,
        kg=kg,
        user_ids=[f"u{i}" for i in range(4)],
        source_item_ids=[f"s{i}" for i in range(5)],
        target_item_ids=[f"t{i}" for i in range(5)],
        entity_ids=["e0", "e1", "e2"],
    )


@pytest.fixture()
def repeated_item_bundle():
    """u0's target edges repeat item 3 (3, 3, 3, 5); u1's items are distinct.

    Split seeds 0 and 4 hold out items 3 and 5 of u0, which leaves u0 no
    training target item.  ``load_bundle`` collapses repeated edges, so only
    a directly built bundle can hold them.
    """
    source = [(u, i) for u in range(2) for i in range(4)]
    target = [(0, 3), (0, 3), (0, 3), (0, 5), (1, 0), (1, 1), (1, 2), (1, 4)]
    return DatasetBundle(
        source=InteractionGraph("source", 2, 6, source),
        target=InteractionGraph("target", 2, 6, target),
        kg=KnowledgeLinkage.empty(),
        user_ids=["u0", "u1"],
        source_item_ids=[f"s{i}" for i in range(6)],
        target_item_ids=[f"t{i}" for i in range(6)],
        entity_ids=[],
    )
