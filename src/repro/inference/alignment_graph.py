"""The alignment graph ``G ×_P G'`` (Sect. 5.1).

Nodes are the element pairs of the pool ``P``; a directed edge
``(x, x') --(r, r')--> (x'', x''')`` exists when ``(x, r, x'')`` is a triple of
KG1, ``(x', r', x''')`` is a triple of KG2, and all three pairs belong to the
pool.  Because the KGs are augmented with inverse relations, each structural
connection appears in both directions, which is what the path-based inference
power needs.

The graph also records which class pairs each entity pair instantiates (via
type triples) and which edges carry each relation pair, for the
gradient-based inference power.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.inference.pairs import ElementPair, class_pair, entity_pair, relation_pair
from repro.kg.graph import KnowledgeGraph


def _no_edges() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class AlignmentEdge:
    """A directed edge of the alignment graph."""

    source: ElementPair
    relation: ElementPair
    target: ElementPair


@dataclass
class AlignmentGraph:
    """Adjacency view over the element-pair pool.

    Besides the :class:`AlignmentEdge` lists, every edge is held in int64
    arrays in CSR order (sorted by source, each source's out-edges in
    insertion order): ``source`` and ``target`` index ``entity_pairs``,
    ``relation`` indexes ``relation_pairs`` and ``edge_index`` indexes
    ``edges``.
    """

    entity_pairs: list[ElementPair] = field(default_factory=list)
    relation_pairs: list[ElementPair] = field(default_factory=list)
    class_pairs: list[ElementPair] = field(default_factory=list)
    edges: list[AlignmentEdge] = field(default_factory=list)
    out_edges: dict[ElementPair, list[AlignmentEdge]] = field(
        default_factory=lambda: defaultdict(list)
    )
    edges_by_relation_pair: dict[ElementPair, list[AlignmentEdge]] = field(
        default_factory=lambda: defaultdict(list)
    )
    classes_of_entity_pair: dict[ElementPair, list[ElementPair]] = field(
        default_factory=lambda: defaultdict(list)
    )
    source: np.ndarray = field(default_factory=_no_edges)
    relation: np.ndarray = field(default_factory=_no_edges)
    target: np.ndarray = field(default_factory=_no_edges)
    edge_index: np.ndarray = field(default_factory=_no_edges)

    def num_edges(self) -> int:
        return len(self.edges)


def build_alignment_graph(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    entity_pool: set[tuple[int, int]],
    relation_pool: set[tuple[int, int]] | None = None,
    class_pool: set[tuple[int, int]] | None = None,
) -> AlignmentGraph:
    """Construct the alignment graph restricted to the pool.

    ``entity_pool`` is a set of (kg1 entity idx, kg2 entity idx) candidates;
    ``relation_pool`` / ``class_pool`` default to the full cross products, as
    in the paper (schemas are small enough to keep every pair).
    """
    if relation_pool is None:
        relation_pool = {
            (r1, r2) for r1 in range(kg1.num_relations) for r2 in range(kg2.num_relations)
        }
    if class_pool is None:
        class_pool = {
            (c1, c2) for c1 in range(kg1.num_classes) for c2 in range(kg2.num_classes)
        }

    node_of = {key: i for i, key in enumerate(sorted(entity_pool))}
    relation_of = {key: i for i, key in enumerate(sorted(relation_pool))}
    graph = AlignmentGraph(
        entity_pairs=[entity_pair(a, b) for a, b in node_of],
        relation_pairs=[relation_pair(a, b) for a, b in relation_of],
        class_pairs=[class_pair(a, b) for a, b in sorted(class_pool)],
    )

    # entity-pair edges join the out-edges of both sides; class-pair
    # membership links feed the gradient-based inference power
    ids: list[tuple[int, int, int]] = []
    for left, right in set(entity_pool):
        node = node_of[(left, right)]
        source = graph.entity_pairs[node]
        for c1 in kg1.classes_of(left):
            for c2 in kg2.classes_of(right):
                if (c1, c2) in class_pool:
                    graph.classes_of_entity_pair[source].append(class_pair(c1, c2))
        right_edges = kg2.out_edges(right)
        for r1, t1 in kg1.out_edges(left):
            for r2, t2 in right_edges:
                rel = relation_of.get((r1, r2))
                tgt = None if rel is None else node_of.get((t1, t2))
                if tgt is None:
                    continue
                edge = AlignmentEdge(source, graph.relation_pairs[rel], graph.entity_pairs[tgt])
                graph.edges.append(edge)
                graph.out_edges[source].append(edge)
                graph.edges_by_relation_pair[edge.relation].append(edge)
                ids.append((node, rel, tgt))
    if ids:
        columns = np.array(ids, dtype=np.int64)
        graph.edge_index = np.argsort(columns[:, 0], kind="stable")
        graph.source, graph.relation, graph.target = columns[graph.edge_index].T.copy()
    return graph
