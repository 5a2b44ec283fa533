"""Relabelling a graph, for the isomorphism-invariance tests."""

from mpart.graph import from_edges


def relabel(G, perm):
    """G with new vertex i = old vertex perm[i]."""
    new = {p: i for i, p in enumerate(perm)}
    return from_edges(G.n, [(new[u], new[v]) for u, v in G.edges()])
