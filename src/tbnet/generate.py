"""Seeded random generation of rooted binary phylogenetic networks.

The generator grows a random binary tree by sequential leaf attachment and
then inserts reticulations by subdividing two existing edges and connecting
the new midpoints.  Acyclicity is guaranteed by a monotone potential: every
vertex carries a rank (integer depth for tree growth, dyadic rationals for
subdivision midpoints) and every edge runs from lower to higher rank, so the
connecting edge is always oriented rank-upward and can never close a cycle.
A rank is held exactly as an integer pair ``(m, e)`` meaning ``m / 2**e``;
two ranks are compared after shifting to a common exponent.  Insertion is
O(1) per reticulation, which keeps million-edge generation practical.

``generate`` refuses any shape with more than ``MAX_VERTICES`` vertices
before it allocates anything.

Randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixer), so
streams are identical across platforms and Python versions for a given
seed.  Bounded draws use the multiply-shift trick; the bias is below 2^-40
for any range this module uses and determinism is what actually matters
here.
"""

from __future__ import annotations

from typing import NamedTuple

from .network import PhyloNetwork, _adjacency

_MASK64 = (1 << 64) - 1

# The most vertices (2L + 2R - 1) ``generate`` builds: twice the largest
# size the roadmap measures (10^6).  Generation peaks near 0.7 KB per vertex
# (87 MB RSS at 10^5 on Python 3.11), so this is about 1.5 GB.
MAX_VERTICES = 2_000_000
# How many seeds ``generate`` tries for a temporal network before it gives up.
TEMPORAL_ATTEMPTS = 400


class SplitMix64:
    """SplitMix64 stream: state += golden gamma; output = mixed state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform-enough draw from 0..n-1 (multiply-shift)."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next_u64() * n) >> 64


class GenerationError(RuntimeError):
    pass


class GenSpec(NamedTuple):
    """What to generate: leaf count, reticulation count, seed, and whether
    to keep sampling until the result is temporal."""

    num_leaves: int
    num_reticulations: int
    seed: int
    temporal_only: bool = False


def _scaled(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int]:
    """Numerators of ranks ``a`` and ``b`` over their common exponent."""
    (m, e), (k, f) = a, b
    if e < f:
        return m << (f - e), k, f
    return m, k << (e - f), e


def _mid(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    m, k, e = _scaled(a, b)
    return m + k, e + 1


class _Builder:
    """Mutable edge-array construction; only the finished result is wrapped
    into an immutable network.  ``rank[v]`` is the pair ``(m, e)`` for the
    dyadic rank ``m / 2**e``."""

    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.rank: list[tuple[int, int]] = []

    def add_vertex(self, rank: tuple[int, int]) -> int:
        self.rank.append(rank)
        return len(self.rank) - 1

    def _midpoint(self, edge_index: int) -> tuple[int, int]:
        u, v = self.edges[edge_index]
        return _mid(self.rank[u], self.rank[v])

    def subdivide(self, edge_index: int) -> int:
        u, v = self.edges[edge_index]
        s = self.add_vertex(self._midpoint(edge_index))
        self.edges[edge_index] = (u, s)
        self.edges.append((s, v))
        return s

    def attach_leaf(self, edge_index: int) -> int:
        s = self.subdivide(edge_index)
        m, e = self.rank[s]
        leaf = self.add_vertex((m + (1 << e), e))
        self.edges.append((s, leaf))
        return leaf

    def add_reticulation(self, i: int, j: int) -> None:
        """Subdivide edges i and j and connect the midpoints rank-upward."""
        mi, mj, _ = _scaled(self._midpoint(i), self._midpoint(j))
        if mj < mi:
            i, j = j, i
        u1 = self.edges[i][0]
        v2 = self.edges[j][1]
        s1 = self.subdivide(i)
        s2 = self.subdivide(j)
        if mi == mj:
            # Same midpoint rank: nudge the two into strict order inside
            # their own intervals (donor low quartile, receiver high).
            rank = self.rank
            rank[s1] = _mid(rank[u1], rank[s1])
            rank[s2] = _mid(rank[s2], rank[v2])
        self.edges.append((s1, s2))


def _build(rng: SplitMix64, num_leaves: int, num_reticulations: int) -> PhyloNetwork:
    b = _Builder()
    retics_left = num_reticulations
    if num_leaves == 1:
        # Smallest one-leaf shape has two reticulations: root -> {a, r1},
        # a -> {r1, r2}, r1 -> r2 -> leaf.
        for r in (0, 1, 2, 3, 4):
            b.add_vertex((r, 0))
        b.edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
        retics_left -= 2
    else:
        root = b.add_vertex((0, 0))
        for _ in range(2):
            b.edges.append((root, b.add_vertex((1, 0))))
        for _ in range(num_leaves - 2):
            b.attach_leaf(rng.randrange(len(b.edges)))
    for _ in range(retics_left):
        i = rng.randrange(len(b.edges))
        j = rng.randrange(len(b.edges) - 1)
        if j >= i:
            j += 1
        b.add_reticulation(i, j)

    kids, pars = _adjacency(len(b.rank), b.edges)
    labels = {}
    for v, ws in enumerate(kids):
        if not ws:
            labels[v] = f"x{len(labels) + 1}"
    return PhyloNetwork.from_lists(kids, pars, labels)


def generate(spec: GenSpec) -> PhyloNetwork:
    """Generate the network described by ``spec``; deterministic per spec.

    Raises GenerationError for the one infeasible shape (one leaf with
    exactly one reticulation: the reticulation cannot reach in-degree 2
    without a parallel edge), for a shape with more than ``MAX_VERTICES``
    vertices, and when ``temporal_only`` finds no temporal network in
    ``TEMPORAL_ATTEMPTS`` seeds.  One leaf with zero reticulations yields
    the singleton network.
    """
    if spec.num_leaves < 1:
        raise GenerationError("need at least one leaf")
    if spec.num_reticulations < 0:
        raise GenerationError("reticulation count cannot be negative")
    expected = 2 * spec.num_leaves + 2 * spec.num_reticulations - 1
    if expected > MAX_VERTICES:
        raise GenerationError(
            f"{spec.num_leaves} leaves and {spec.num_reticulations} reticulations "
            f"make {expected} vertices; the limit is {MAX_VERTICES}")
    if spec.num_leaves == 1 and spec.num_reticulations == 1:
        raise GenerationError(
            "no binary network has one leaf and exactly one reticulation"
        )
    if spec.num_leaves == 1 and spec.num_reticulations == 0:
        return PhyloNetwork((), {0: "x1"}, 1)

    if spec.temporal_only:
        from .antichains import is_temporal

    for attempt in range(TEMPORAL_ATTEMPTS if spec.temporal_only else 1):
        stream_seed = (spec.seed ^ (attempt * 0xA5A5B5B5C5C5D5D5)) & _MASK64
        net = _build(SplitMix64(stream_seed), spec.num_leaves, spec.num_reticulations)
        if net.num_vertices != expected:
            raise RuntimeError("generator broke the degree identity")
        if not spec.temporal_only or is_temporal(net)[0]:
            return net
    raise GenerationError(
        f"no temporal network found for {spec} within {TEMPORAL_ATTEMPTS} attempts"
    )
