"""`solve` without the interchangeable-part skip and without backjumping: the
chronological search that both prunings must agree with, kept as a reference
for witness identity.

Minimum remaining values with index tiebreak, lowest part first, forward
checking on a copy of the domains per branch; every part in a domain is tried,
and a failure returns to the vertex branched just before.
"""

from mpart.pattern import STAR


def unpruned_solve(G, M):
    """The witness's parts as a tuple, or None when G has no M-partition."""
    n, m = G.n, M.m
    diag = M.diagonal()
    if STAR in diag:
        return (diag.index(STAR),) * n
    adj = G.adj
    adj_ok, nonadj_ok = M.masks

    def search(dom, todo):
        if todo == 0:
            return dom
        best_v = -1
        best_sz = m + 1
        t = todo
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            sz = dom[v].bit_count()
            if sz < best_sz:
                best_sz = sz
                best_v = v
                if sz == 1:
                    break
        v = best_v
        rest = todo & ~(1 << v)
        row = adj[v]
        cand = dom[v]
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            cand ^= low
            aok = adj_ok[p]
            nok = nonadj_ok[p]
            new = dom[:]
            new[v] = low
            t = rest
            while t:
                lu = t & -t
                u = lu.bit_length() - 1
                t ^= lu
                d = new[u] & (aok if row >> u & 1 else nok)
                if d == 0:
                    break
                new[u] = d
            else:
                done = search(new, rest)
                if done is not None:
                    return done
        return None

    done = search([(1 << m) - 1] * n, (1 << n) - 1)
    if done is None:
        return None
    return tuple(d.bit_length() - 1 for d in done)
