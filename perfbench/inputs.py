"""Seeded input generation for the benchmark, independent of ``tbnet``.

Nothing here imports ``tbnet``: a change to ``tbnet.generate`` must not
change the bytes that the other commands are measured on.  Networks are
grown forward in time from the root.  Each open *lineage* is an arc whose
tail exists and whose head is still to come; events hang new vertices on
lineages, and every open lineage ends in a labeled leaf.  Arcs always run
from an older vertex to a newer one, so every output is acyclic, and
vertex ids are creation order (a topological order).

Events, with what each keeps true:

``S`` speciation
    one lineage splits in two (+1 tree vertex).
``H`` merge
    two lineages with distinct tails meet in a reticulation (+1
    reticulation).  Random merges make W-fences, so ``p`` is random.
``T`` transfer
    a donor lineage gets a tree vertex ``d`` whose second arc enters a
    reticulation on a receiver lineage.  Dropping every ``d -> r`` arc
    leaves a base tree, so only ``S``/``T`` gives a tree-based network.
``E`` level hybrid
    two lineages get tree vertices ``u_a``, ``u_b`` that feed a new
    reticulation, all three at one time step.  Keeps both temporality and
    tree-basedness.
``W`` gadget
    four lineages feed two reticulations ``r``, ``r'`` at one time step,
    and both feed a third reticulation ``h``.  ``r -> h <- r'`` is a
    W-fence (a zig-zag trail with reticulation tails at both ends), so each
    gadget adds exactly one to ``p`` and keeps temporality.

Random draws come from ``random.Random(seed).getrandbits``, whose output for
an integer seed is fixed across Python versions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Net:
    """A network as generated: ids are creation order, root is 0."""

    num_vertices: int
    arcs: tuple[tuple[int, int], ...]
    labels: dict[int, str]

    @property
    def leaves(self) -> int:
        return len(self.labels)

    @property
    def reticulations(self) -> int:
        return len(self.arcs) - self.num_vertices + 1


class Rng:
    """Bounded integer draws on top of the Mersenne Twister bit stream."""

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def below(self, n: int) -> int:
        k = n.bit_length()
        while True:
            r = self._bits(k)
            if r < n:
                return r

    def distinct(self, n: int, count: int) -> list[int]:
        picked: list[int] = []
        while len(picked) < count:
            i = self.below(n)
            if i not in picked:
                picked.append(i)
        return picked


# Lineages an event needs before it may fire; W uses four distinct ones so
# that its four feeding tree vertices can share one time step.
_NEEDS = {"S": 1, "H": 3, "T": 2, "E": 2, "W": 4}


def _event_order(rng: Rng, counts: dict[str, int]) -> list[str]:
    """A random interleaving of the events, each drawn with probability
    proportional to how many of its kind remain, among those the current
    lineage count allows."""
    left = dict(counts)
    lineages = 2
    order = []
    while any(left.values()):
        allowed = [e for e in sorted(left) if left[e] and lineages >= _NEEDS[e]]
        if not allowed:
            raise ValueError(f"no event of {counts} fits {lineages} lineages")
        total = sum(left[e] for e in allowed)
        draw = rng.below(total)
        for event in allowed:
            draw -= left[event]
            if draw < 0:
                break
        left[event] -= 1
        lineages += {"S": 1, "H": -1, "T": 0, "E": 1, "W": 1}[event]
        order.append(event)
    return order


def grow(rng: Rng, counts: dict[str, int]) -> Net:
    """Run the events in ``counts`` in a random order and close every
    lineage with a leaf labeled ``x<k>``."""
    arcs: list[tuple[int, int]] = []
    open_tails = [0, 0]
    n = 1

    def vertex(*parents: int) -> int:
        nonlocal n
        for p in parents:
            arcs.append((p, n))
        n += 1
        return n - 1

    def subdivide(i: int) -> int:
        open_tails[i] = vertex(open_tails[i])
        return open_tails[i]

    for event in _event_order(rng, counts):
        k = len(open_tails)
        if event == "S":
            open_tails.append(subdivide(rng.below(k)))
        elif event == "H":
            while True:
                i, j = rng.distinct(k, 2)
                if open_tails[i] != open_tails[j]:
                    break
            open_tails[i] = vertex(open_tails[i], open_tails[j])
            open_tails[j] = open_tails[-1]
            open_tails.pop()
        elif event == "T":
            receiver, donor = rng.distinct(k, 2)
            d = subdivide(donor)
            open_tails[receiver] = vertex(open_tails[receiver], d)
        elif event == "E":
            a, b = rng.distinct(k, 2)
            open_tails.append(vertex(subdivide(a), subdivide(b)))
        else:  # "W"
            a, b, c, d = rng.distinct(k, 4)
            r1 = vertex(subdivide(a), subdivide(b))
            r2 = vertex(subdivide(c), subdivide(d))
            open_tails.append(vertex(r1, r2))
    labels = {}
    for tail in open_tails:
        labels[vertex(tail)] = f"x{len(labels) + 1}"
    return Net(n, tuple(arcs), labels)


def random_network(rng: Rng, leaves: int, retics: int) -> Net:
    """Speciations and random merges: usually neither tree-based nor temporal."""
    return grow(rng, {"S": leaves - 2 + retics, "H": retics})


def tree_based_network(rng: Rng, leaves: int, retics: int) -> Net:
    """Speciations and transfers: tree-based by construction (p = 0)."""
    return grow(rng, {"S": leaves - 2, "T": retics})


def temporal_network(rng: Rng, leaves: int, deviation: int, level: int) -> Net:
    """Temporal by construction with p = ``deviation`` exactly; it has
    3 * deviation + level reticulations.  A gadget needs four lineages, so
    ``leaves >= 4 + deviation`` whenever ``deviation > 0``."""
    return grow(rng, {"S": leaves - 2 - deviation - level, "E": level, "W": deviation})


def _children(net: Net) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(net.num_vertices)]
    for u, v in net.arcs:
        kids[u].append(v)
    return kids


def to_enewick(net: Net) -> str:
    """eNewick text: a reticulation's subtree is written at its first
    occurrence in a depth-first walk from the root, later ones as ``#H<k>``."""
    kids = _children(net)
    indeg = [0] * net.num_vertices
    for _, v in net.arcs:
        indeg[v] += 1
    tag: dict[int, int] = {}
    out: list[str] = []
    stack: list = [0]  # vertex ids to write, or literal text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if not kids[item]:
            out.append(net.labels[item])
            continue
        close = ")"
        if indeg[item] == 2:
            if item in tag:
                out.append(f"#H{tag[item]}")
                continue
            tag[item] = len(tag) + 1
            close = f")#H{tag[item]}"
        out.append("(")
        stack.append(close)
        for i, c in enumerate(reversed(kids[item])):
            if i:
                stack.append(",")
            stack.append(c)
    out.append(";")
    return "".join(out)


def to_edgelist(net: Net) -> str:
    """One ``parent child`` line per arc; internal vertices are ``v<id>``."""
    def name(v: int) -> str:
        return net.labels.get(v, f"v{v}")
    return "".join(f"{name(u)} {name(v)}\n" for u, v in net.arcs)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
