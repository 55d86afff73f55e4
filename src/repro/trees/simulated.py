"""Definition 7.1: k-simulated trees, verified.

An undirected graph ``G`` is a *k-simulated tree* when there is a tree
``T`` and a homomorphism ``f : V(G) → V(T)`` with (1) every fiber
``f⁻¹(v)`` of size at most ``k`` and (2) every fiber connected in ``G``.
Equivalently: a partition of ``G`` into connected parts of size ≤ k whose
quotient graph is a tree.

Graphs here are plain undirected edge sets over hashable nodes.
"""

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.util.errors import ConfigurationError

Edge = Tuple[Hashable, Hashable]


def _normalize(nodes: Iterable[Hashable], edges: Iterable[Edge]):
    node_list = list(nodes)
    node_set = set(node_list)
    edge_set: Set[frozenset] = set()
    for u, v in edges:
        if u not in node_set or v not in node_set:
            raise ConfigurationError(f"edge ({u}, {v}) references unknown node")
        if u != v:
            edge_set.add(frozenset((u, v)))
    return node_list, edge_set


def _adjacency(nodes, edge_set) -> Dict[Hashable, List[Hashable]]:
    adj: Dict[Hashable, List[Hashable]] = {v: [] for v in nodes}
    for e in edge_set:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _is_connected_subset(subset: Set[Hashable], adj) -> bool:
    subset = set(subset)
    if not subset:
        return False
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in subset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == subset


def is_tree(nodes: Iterable[Hashable], edges: Iterable[Edge]) -> bool:
    """True iff the undirected graph is connected and acyclic."""
    node_list, edge_set = _normalize(nodes, edges)
    if not node_list:
        return False
    if len(edge_set) != len(node_list) - 1:
        return False
    adj = _adjacency(node_list, edge_set)
    return _is_connected_subset(set(node_list), adj)


def check_k_simulated_tree(
    nodes: Iterable[Hashable],
    edges: Iterable[Edge],
    mapping: Dict[Hashable, Hashable],
    k: int,
) -> Dict[str, object]:
    """Verify ``mapping`` witnesses that the graph is a k-simulated tree.

    Returns a report dict with ``ok`` plus the quotient tree's nodes and
    edges; raises :class:`ConfigurationError` on malformed inputs (e.g. a
    node missing from the mapping). Checks, per Definition 7.1:

    1. the fibers partition ``V`` into sets of size ≤ k;
    2. every fiber is connected in ``G``;
    3. the quotient (image of every edge) is a tree — which makes the
       induced map a homomorphism onto that tree.
    """
    node_list, edge_set = _normalize(nodes, edges)
    missing = [v for v in node_list if v not in mapping]
    if missing:
        raise ConfigurationError(f"mapping misses nodes: {missing}")
    adj = _adjacency(node_list, edge_set)

    fibers: Dict[Hashable, Set[Hashable]] = {}
    for v in node_list:
        fibers.setdefault(mapping[v], set()).add(v)

    oversized = {t: len(f) for t, f in fibers.items() if len(f) > k}
    disconnected = [
        t for t, f in fibers.items() if not _is_connected_subset(f, adj)
    ]

    quotient_nodes = sorted(fibers.keys(), key=repr)
    quotient_edges: Set[frozenset] = set()
    for e in edge_set:
        u, v = tuple(e)
        fu, fv = mapping[u], mapping[v]
        if fu != fv:
            quotient_edges.add(frozenset((fu, fv)))
    tree_ok = is_tree(
        quotient_nodes, [tuple(e) for e in quotient_edges]
    )

    return {
        "ok": not oversized and not disconnected and tree_ok,
        "oversized_fibers": oversized,
        "disconnected_fibers": disconnected,
        "quotient_is_tree": tree_ok,
        "quotient_nodes": quotient_nodes,
        "quotient_edges": sorted(
            (tuple(sorted(e, key=repr)) for e in quotient_edges), key=repr
        ),
        "max_fiber_size": max((len(f) for f in fibers.values()), default=0),
    }
