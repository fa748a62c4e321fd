# This module is a port of `max_weight_matching` from networkx 3.6.1
# (networkx/algorithms/matching.py), which carries this notice:
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

"""Maximum-weight matching by Edmonds' primal-dual blossom method.

The algorithm is the one in networkx's `max_weight_matching` (after Galil,
"Efficient Algorithms for Finding Maximum Matching in Graphs", ACM Computing
Surveys, 1986), moved onto int arrays for integer weights. `matched_edges`
returns the matching as ascending indices into the edge list. It keeps every
iteration order of the original, so it picks the same matching on the same
edge list:

- vertices are numbered in order of first appearance in the edge list, and
  each vertex scans its edges in edge-list order;
- non-trivial blossoms take ids n, n+1, ... (reused once expanded) and are
  walked in creation order through the `live` dict;
- leaves, the queue and stored edge orientations follow the original.

An edge k joins endpoint[2k] and endpoint[2k + 1]; the oriented edge d runs
from endpoint[d] to endpoint[d ^ 1], so d >> 1 is its index and d ^ 1 its
reverse. Every check of the original raises InvariantError instead of
asserting, and the dual certificate of optimality (`verify_optimum`) is
checked on every solve, also under `python -O`. Its slack of an edge adds
only the blossoms of positive dual that hold both ends: they are the common
head of the ends' chains of positive-dual blossoms, built once per vertex,
as a blossom of dual 0 adds nothing and blossoms nest.

There are two starts and one main loop. The cold start, `matched_edges`, is
networkx's: every dual at the largest weight and nothing matched, so it
spends one stage per augmentation; it is the reference that the tests pin.
The warm start, `warm_matched_edges` (maximum weight only), is the jump start
of Mehlhorn & Schäfer (ACM JEA 2002) and of Kolmogorov's Blossom V: each
vertex's dual is the largest weight at it, floored at 0, and the tight edges
of positive weight are matched greedily. Then each vertex left single, in
vertex order, has its dual lowered to the least value, floored at 0, that
keeps the slacks of its edges nonnegative, and takes the first edge of
positive weight that is now tight to a single neighbour. Both leave far
fewer stages. With free vertices no longer sharing one dual, the loop then
- roots a stage only at single vertices of positive dual, and ends when
  there are none;
- takes a tight edge from an S-vertex to an unlabelled blossom with a single
  base (at dual 0) as an augmenting path;
- lowers the S-duals at most to the least of them; an S-vertex that reaches
  dual 0 ends the stage, a matched one after flipping its alternating path
  to the root so that it turns single.
The certificate is the same, so the warm start's matching has the largest
weight too, but on ties it may be another matching than networkx picks.
"""

from .model import InvariantError, check_simple_graph


def verify_optimum(endpoint, w2, mate, dualvar, blossomdual, blossomparent,
                   blossomedges, live, maxcardinality):
    """Check the complementary-slackness certificate of the final state:
    nonnegative duals and slacks, tight matched edges, zero duals on single
    vertices (up to a common offset under `maxcardinality`) and full blossoms
    wherever the blossom dual is positive."""
    vdualoffset = max(0, -min(dualvar)) if maxcardinality else 0
    if min(dualvar) + vdualoffset < 0 or any(blossomdual[b] < 0 for b in live):
        raise InvariantError("blossom optimum: negative dual variable")
    # each vertex's blossoms of positive dual from the top level down; a
    # blossom of dual 0 adds nothing to a slack, and as blossoms nest, those
    # holding both ends of an edge are the common head of the ends' chains
    chains = []
    for v in range(len(mate)):
        chain = []
        b = blossomparent[v]
        while b != -1:
            if blossomdual[b]:
                chain.append(b)
            b = blossomparent[b]
        chain.reverse()
        chains.append(chain)
    for k, wk2 in enumerate(w2):
        i, j = endpoint[2 * k], endpoint[2 * k + 1]
        s = dualvar[i] + dualvar[j] - wk2
        for bi, bj in zip(chains[i], chains[j]):
            if bi != bj:
                break
            s += 2 * blossomdual[bi]
        if s < 0:
            raise InvariantError("blossom optimum: negative edge slack")
        if mate[i] == j or mate[j] == i:
            if mate[i] != j or mate[j] != i:
                raise InvariantError("blossom optimum: asymmetric mate")
            if s != 0:
                raise InvariantError("blossom optimum: matched edge not tight")
    for v, m in enumerate(mate):
        if m == -1 and dualvar[v] + vdualoffset != 0:
            raise InvariantError("blossom optimum: single vertex with nonzero dual")
    for b in live:
        if blossomdual[b] > 0:
            edges = blossomedges[b]
            if len(edges) % 2 != 1:
                raise InvariantError("blossom optimum: even blossom")
            for d in edges[1::2]:
                i, j = endpoint[d], endpoint[d ^ 1]
                if mate[i] != j or mate[j] != i:
                    raise InvariantError("blossom optimum: positive blossom not full")


def matched_edges(edges, weights, maxcardinality):
    """Maximum-weight matching of the simple graph `edges` (node pairs) under
    int `weights`; with `maxcardinality`, maximum weight among the matchings
    of maximum cardinality. Cold start: the matching networkx picks.

    Returns the indices into `edges` of the matched edges, ascending.
    """
    return _solve(edges, weights, maxcardinality, False)


def warm_matched_edges(edges, weights):
    """A maximum-weight matching of the simple graph `edges` under int
    `weights`, solved from the warm start; its weight equals that of
    `matched_edges(edges, weights, False)`, but on ties the matching may
    differ.

    Returns the indices into `edges` of the matched edges, ascending.
    """
    return _solve(edges, weights, False, True)


def _solve(edges, weights, maxcardinality, warm):
    index = {}
    for e in edges:
        for x in e:
            index.setdefault(x, len(index))
    n, m = len(index), len(edges)
    if len(weights) != m:
        raise ValueError("edges and weights differ in length")
    if any(type(w) is not int for w in weights):
        raise TypeError("blossom weights must be ints")
    check_simple_graph(index, edges)
    if not m:
        return []
    endpoint = [index[x] for e in edges for x in e]

    # 2 * weight per edge (4 * weight from the warm start, which keeps every
    # dual even, so slacks between S-blossoms stay even), and per vertex its
    # (neighbour, oriented edge) list
    w2 = [(4 if warm else 2) * w for w in weights]
    nbrs = [[] for _ in range(n)]
    for d, v in enumerate(endpoint):
        nbrs[v].append((endpoint[d ^ 1], d))

    # Ids below n are vertices (trivial blossoms); n .. 2n-1 are blossoms.
    # The arrays below hold what networkx keeps in dicts keyed by either;
    # -1 stands for None, label 0 for "no label".
    size = 2 * n
    mate = [-1] * n
    mateedge = [-1] * n  # the oriented edge from v to mate[v]
    label = [0] * size  # 1 = S, 2 = T, 5 = S with a breadcrumb
    labeledge = [-1] * size
    inblossom = list(range(n))
    blossomparent = [-1] * size
    blossomchilds = [None] * size
    blossomedges = [None] * size  # edges[i] runs from childs[i] to childs[i + 1]
    blossombase = list(range(n)) + [-1] * n
    bestedge = [-1] * size
    mybestedges = [None] * size
    if warm:
        # vertex-local duals: the largest weight at v, so an edge that is
        # heaviest at both ends is tight; match such edges greedily
        dualvar = [0] * n
        for d, v in enumerate(endpoint):
            dualvar[v] = max(dualvar[v], w2[d >> 1] >> 1)
        for k, wk2 in enumerate(w2):
            i, j = endpoint[2 * k], endpoint[2 * k + 1]
            if wk2 > 0 and mate[i] == mate[j] == -1 and dualvar[i] + dualvar[j] == wk2:
                mate[i], mateedge[i] = j, 2 * k
                mate[j], mateedge[j] = i, 2 * k + 1
        # then lower each single vertex's dual to the least that keeps its
        # slacks nonnegative (even, like every dual here), and match it over
        # the first edge of positive weight that turns tight to a single
        # neighbour
        for v in range(n):
            if mate[v] == -1:
                dv = dualvar[v] = max(0, max(w2[d >> 1] - dualvar[x] for x, d in nbrs[v]))
                for x, d in nbrs[v]:
                    wk2 = w2[d >> 1]
                    if wk2 > 0 and mate[x] == -1 and dv + dualvar[x] == wk2:
                        mate[v], mateedge[v] = x, d
                        mate[x], mateedge[x] = v, d ^ 1
                        break
    else:
        dualvar = [max(0, max(weights))] * n  # 2 * u(v)
    blossomdual = [0] * size  # z(b)
    allowedge = [False] * m
    live = {}  # the non-trivial blossoms, in creation order
    unused = list(range(size - 1, n - 1, -1))
    queue = []

    def slack(d):
        return dualvar[endpoint[d]] + dualvar[endpoint[d ^ 1]] - w2[d >> 1]

    def leaves(b):
        stack = [*blossomchilds[b]]
        out = []
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    def setmate(v, d):
        mate[v] = endpoint[d ^ 1]
        mateedge[v] = d

    def assignLabel(w, t, d):
        # label the top-level blossom of w with t, reached over d = (v, w)
        # (d = -1: w's blossom has a single base)
        b = inblossom[w]
        if label[w] or label[b]:
            raise InvariantError("blossom: labelling a labelled vertex")
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = d
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            # a T-blossom: its base is the only vertex with an outside mate
            base = blossombase[b]
            if mate[base] == -1:
                raise InvariantError("blossom: T-blossom with a single base")
            assignLabel(mate[base], 1, mateedge[base])

    def scanBlossom(v, w):
        # trace back from v and w; the base of a new blossom, or -1 when the
        # paths reach two single vertices (an augmenting path)
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if label[b] != 1:
                raise InvariantError("blossom: tracing through a non-S blossom")
            path.append(b)
            label[b] = 5
            d = labeledge[b]
            if d == -1:
                if mate[blossombase[b]] != -1:
                    raise InvariantError("blossom: root blossom with a matched base")
                v = -1
            else:
                v = endpoint[d]
                if v != mate[blossombase[b]]:
                    raise InvariantError("blossom: S-label not through the base's mate")
                b = inblossom[v]
                if label[b] != 2:
                    raise InvariantError("blossom: S-blossom not reached from a T-blossom")
                v = endpoint[labeledge[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def check_path_label(bx):
        d = labeledge[bx]
        if d == -1 or not (label[bx] == 2 or (
                label[bx] == 1 and endpoint[d] == mate[blossombase[bx]])):
            raise InvariantError("blossom: new blossom's path is not alternating")
        return d

    def addBlossom(base, d):
        # a new S-blossom with the given base, closed by the edge d = (v, w)
        # between two S-vertices; its T-vertices join the queue
        bb = inblossom[base]
        bv = inblossom[endpoint[d]]
        bw = inblossom[endpoint[d ^ 1]]
        b = unused.pop()
        live[b] = None
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        edgs = [d]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            e = check_path_label(bv)
            edgs.append(e)
            bv = inblossom[endpoint[e]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            e = check_path_label(bw)
            edgs.append(e ^ 1)
            bw = inblossom[endpoint[e]]
        if label[bb] != 1:
            raise InvariantError("blossom: new blossom's base is not an S-blossom")
        blossomchilds[b] = path
        blossomedges[b] = edgs
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # least-slack edges from b to each neighbouring S-blossom
        bestedgeto = {}
        for bv in path:
            if bv >= n:
                nblist = mybestedges[bv]
                if nblist is not None:
                    mybestedges[bv] = None
                else:
                    nblist = [e for v in leaves(bv) for _, e in nbrs[v]]
            else:
                nblist = [e for _, e in nbrs[bv]]
            for e in nblist:
                bj = inblossom[endpoint[e ^ 1]]
                if bj == b:
                    bj = inblossom[endpoint[e]]
                if bj != b and label[bj] == 1 and (
                        bj not in bestedgeto or slack(e) < slack(bestedgeto[bj])):
                    bestedgeto[bj] = e
            bestedge[bv] = -1
        mybestedges[b] = best = list(bestedgeto.values())
        mybest = -1
        for e in best:
            eslack = slack(e)
            if mybest == -1 or eslack < mybestslack:
                mybest = e
                mybestslack = eslack
        bestedge[b] = mybest

    def expandBlossom(b, endstage):
        # trampoline: each generator yields the sub-blossoms to expand in turn
        def _recurse(b, endstage):
            childs = blossomchilds[b]
            for s in childs:
                blossomparent[s] = -1
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # expanding a T-blossom inside a stage relabels its sub-blossoms,
            # from the one it was entered through round to the base
            if not endstage and label[b] == 2:
                bedges = blossomedges[b]
                entrychild = inblossom[endpoint[labeledge[b] ^ 1]]
                j = childs.index(entrychild)
                if j & 1:
                    j -= len(childs)
                    jstep = 1
                else:
                    jstep = -1
                d = labeledge[b]
                while j != 0:
                    pq = bedges[j] if jstep == 1 else bedges[j - 1] ^ 1
                    w = endpoint[d ^ 1]
                    label[w] = 0
                    label[endpoint[pq ^ 1]] = 0
                    assignLabel(w, 2, d)
                    allowedge[pq >> 1] = True
                    j += jstep
                    d = bedges[j] if jstep == 1 else bedges[j - 1] ^ 1
                    allowedge[d >> 1] = True
                    j += jstep
                # the base sub-blossom becomes T without labelling its mate
                bw = childs[j]
                w = endpoint[d ^ 1]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = d
                bestedge[bw] = -1
                j += jstep
                while childs[j] != entrychild:
                    bv = childs[j]
                    if label[bv] == 1:
                        # labelled S through a neighbour already
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        if label[v] != 2 or inblossom[v] != bv or mate[blossombase[bv]] == -1:
                            raise InvariantError("blossom: stray label in an expanded T-blossom")
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assignLabel(v, 2, labeledge[v])
                    j += jstep
            label[b] = 0
            labeledge[b] = bestedge[b] = blossombase[b] = -1
            blossomchilds[b] = blossomedges[b] = mybestedges[b] = None
            blossomdual[b] = 0
            del live[b]
            unused.append(b)

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augmentBlossom(b, v):
        # swap matched and unmatched edges on the alternating path in b from
        # vertex v to the base, and make v the base (a trampoline, as above)
        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
                if t == -1:
                    raise InvariantError("blossom: augmenting outside the blossom")
            if t >= n:
                yield t, v
            childs = blossomchilds[b]
            bedges = blossomedges[b]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[j]
                d = bedges[j] if jstep == 1 else bedges[j - 1] ^ 1  # (w, x)
                if t >= n:
                    yield t, endpoint[d]
                j += jstep
                t = childs[j]
                if t >= n:
                    yield t, endpoint[d ^ 1]
                setmate(endpoint[d], d)
                setmate(endpoint[d ^ 1], d ^ 1)
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = bedges[i:] + bedges[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]
            if blossombase[b] != v:
                raise InvariantError("blossom: augmented blossom has the wrong base")

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augmentPath(s, e):
        # S-vertex s takes the oriented edge e = (s, x), or turns single when
        # e is -1, and the alternating path from s back to its root flips
        while True:
            bs = inblossom[s]
            if label[bs] != 1:
                raise InvariantError("blossom: augmenting from a non-S blossom")
            le = labeledge[bs]
            if mate[blossombase[bs]] != (-1 if le == -1 else endpoint[le]):
                raise InvariantError("blossom: S-label not through the base's mate")
            if bs >= n:
                augmentBlossom(bs, s)
            if e == -1:
                mate[s] = mateedge[s] = -1
            else:
                setmate(s, e)
            if le == -1:
                break  # reached the root
            t = endpoint[le]
            bt = inblossom[t]
            if label[bt] != 2:
                raise InvariantError("blossom: augmenting through a non-T blossom")
            e = labeledge[bt]  # (s, j)
            s = endpoint[e]
            j = endpoint[e ^ 1]
            if blossombase[bt] != t:
                raise InvariantError("blossom: T-blossom entered off its base")
            if bt >= n:
                augmentBlossom(bt, j)
            setmate(j, e ^ 1)

    blank_labels = [0] * size
    blank_edges = [-1] * size
    blank_allowed = [False] * m
    while True:
        # a stage: find one augmenting path
        label[:] = blank_labels
        labeledge[:] = blank_edges
        bestedge[:] = blank_edges
        for b in live:
            mybestedges[b] = None
        allowedge[:] = blank_allowed
        queue.clear()
        # label the roots S and queue their vertices: the single vertices and
        # blossoms, from the warm start only those whose dual is positive
        for v in range(n):
            if mate[v] == -1 and not label[inblossom[v]] and (dualvar[v] > 0 or not warm):
                if inblossom[v] == v:
                    label[v] = 1  # what assignLabel(v, 1, -1) does here
                    queue.append(v)
                else:
                    assignLabel(v, 1, -1)
        if not queue:
            break  # no root left

        stageover = False  # by an augmentation, or by a warm-start event
        while True:
            # a substage: label along tight edges until a path or no progress
            while queue and not stageover:
                v = queue.pop()
                bv = inblossom[v]  # changes only when a new blossom forms
                if label[bv] != 1:
                    raise InvariantError("blossom: queued vertex is not an S-vertex")
                dv = dualvar[v]
                for w, d in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue  # internal to a blossom
                    k = d >> 1
                    if not allowedge[k]:
                        kslack = dv + dualvar[w] - w2[k]
                        if kslack > 0:
                            # not tight: keep the least-slack edge to an
                            # S-blossom, or to a vertex not reached yet
                            if label[bw] == 1:
                                e = bestedge[bv]
                                if e == -1 or kslack < (dualvar[endpoint[e]]
                                                        + dualvar[endpoint[e ^ 1]] - w2[e >> 1]):
                                    bestedge[bv] = d
                            elif not label[w]:
                                e = bestedge[w]
                                if e == -1 or kslack < (dualvar[endpoint[e]]
                                                        + dualvar[endpoint[e ^ 1]] - w2[e >> 1]):
                                    bestedge[w] = d
                            continue
                        allowedge[k] = True
                    lw = label[bw]
                    if lw == 0:
                        if mate[blossombase[bw]] == -1:
                            # w's blossom has a single base at dual 0 (warm
                            # start only): an augmenting path ends there
                            if bw >= n:
                                augmentBlossom(bw, w)
                            setmate(w, d ^ 1)
                            augmentPath(v, d)
                            stageover = True
                            break
                        # w is free: label it T and its mate S
                        assignLabel(w, 2, d)
                    elif lw == 1:
                        # w is S: a new blossom or an augmenting path
                        base = scanBlossom(v, w)
                        if base != -1:
                            addBlossom(base, d)
                            bv = inblossom[v]
                        else:
                            augmentPath(v, d)
                            augmentPath(w, d ^ 1)
                            stageover = True
                            break
                    elif not label[w]:
                        # w sits in a T-blossom and is first reached now
                        if lw != 2:
                            raise InvariantError("blossom: unlabelled vertex in a non-T blossom")
                        label[w] = 2
                        labeledge[w] = d

            if stageover:
                break

            # no augmenting path on tight edges: change the duals by delta
            # (duals and slacks are doubled, so all stays integral); on a tie
            # the first candidate in the order below wins. One pass over the
            # vertices finds the S- and T-vertices, whose duals change, and
            # the least slacks of types 2 and 3 at a vertex
            svs, tvs = [], []
            edge2 = edge3 = -1
            for v in range(n):
                lv = label[inblossom[v]]
                if lv == 1:
                    svs.append(v)
                    if inblossom[v] == v and bestedge[v] != -1:
                        kslack = slack(bestedge[v])
                        if kslack % 2:
                            raise InvariantError("blossom: odd slack between S-blossoms")
                        if edge3 == -1 or kslack // 2 < slack3:
                            slack3, edge3 = kslack // 2, bestedge[v]
                elif lv == 2:
                    tvs.append(v)
                elif bestedge[v] != -1:
                    kslack = slack(bestedge[v])
                    if edge2 == -1 or kslack < slack2:
                        slack2, edge2 = kslack, bestedge[v]
            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                # the least S-vertex dual (from the cold start, that of the
                # single vertices, which is the least of all)
                deltatype = 1
                delta = min(dualvar[v] for v in svs)
            if edge2 != -1 and (deltatype == -1 or slack2 < delta):
                delta, deltatype, deltaedge = slack2, 2, edge2
            for b in live:
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    kslack = slack(bestedge[b])
                    if kslack % 2:
                        raise InvariantError("blossom: odd slack between S-blossoms")
                    if edge3 == -1 or kslack // 2 < slack3:
                        slack3, edge3 = kslack // 2, bestedge[b]
            if edge3 != -1 and (deltatype == -1 or slack3 < delta):
                delta, deltatype, deltaedge = slack3, 3, edge3
            for b in live:
                if (blossomparent[b] == -1 and label[b] == 2
                        and (deltatype == -1 or blossomdual[b] < delta)):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # max-cardinality optimum: a last update makes it verifiable
                if not maxcardinality:
                    raise InvariantError("blossom: no delta without maxcardinality")
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in svs:
                dualvar[v] -= delta
            for v in tvs:
                dualvar[v] += delta
            for b in live:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                # from the cold start every single vertex is at dual 0: the
                # optimum; from the warm start one S-vertex is, and a matched
                # one turns single by flipping its path to the root
                if warm:
                    v = next(v for v in svs if not dualvar[v])
                    if mate[v] != -1:
                        augmentPath(v, -1)
                    stageover = True
                break
            elif deltatype == 2 or deltatype == 3:
                # the least-slack edge is tight now: continue the search there
                v = endpoint[deltaedge]
                allowedge[deltaedge >> 1] = True
                if label[inblossom[v]] != 1:
                    raise InvariantError("blossom: delta edge leaves a non-S vertex")
                queue.append(v)
            else:
                expandBlossom(deltablossom, False)

        for v, x in enumerate(mate):
            if x != -1 and mate[x] != v:
                raise InvariantError("blossom: asymmetric mate")
        if not stageover:
            break  # the optimum, from the cold start
        # end of a stage: expand the S-blossoms whose dual fell to zero
        for b in list(live):
            if b in live and blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    verify_optimum(endpoint, w2, mate, dualvar, blossomdual, blossomparent,
                   blossomedges, live, maxcardinality)
    return sorted({mateedge[v] >> 1 for v in range(n) if mate[v] != -1})
