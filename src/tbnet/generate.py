"""Seeded random generation of rooted binary phylogenetic networks.

The generator grows a random binary tree by sequential leaf attachment and
then inserts reticulations by subdividing two existing edges and connecting
the new midpoints.  Acyclicity is guaranteed by a monotone potential: every
vertex carries a rank (integer depth for tree growth, dyadic rationals for
subdivision midpoints) and every edge runs from lower to higher rank, so the
connecting edge is always oriented rank-upward and can never close a cycle.
A rank is held exactly as ``m / 2**e``, its numerators ``m`` and exponents
``e`` in two int lists indexed by vertex; two ranks are compared after
shifting to a common exponent.  The arcs are two more int lists, tails and
heads.  Each leaf attachment and each reticulation is one O(1) step of one
loop, which calls only the draw and ``_mid``, the one midpoint rule; that
keeps million-edge generation practical.

``generate`` refuses any shape with more than ``MAX_VERTICES`` vertices
before it allocates anything.

Randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixer), so
streams are identical across platforms and Python versions for a given
seed.  Bounded draws use the multiply-shift trick; the bias is below 2^-40
for any range this module uses and determinism is what actually matters
here.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, count
from operator import not_

from .network import PhyloNetwork, _adjacency

_MASK64 = (1 << 64) - 1

# The most vertices (2L + 2R - 1) ``generate`` builds: twice the largest
# size the roadmap measures (10^6).  Generation peaks near 0.41 KB per
# vertex (``tracemalloc``), and ``tbnet gen`` at 57 MB RSS at 10^5 and
# 430 MB at 10^6 (Python 3.11), so this is about 0.9 GB.
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


class GenSpec(namedtuple("GenSpec", "num_leaves num_reticulations seed temporal_only", defaults=(False,))):
    """What to generate: leaf count, reticulation count, seed, and whether
    to keep sampling until the result is temporal.  ``num_leaves: int``,
    ``num_reticulations: int``, ``seed: int`` and
    ``temporal_only: bool = False``."""

    __slots__ = ()


def _mid(a: int, e: int, b: int, f: int) -> tuple[int, int]:
    """The midpoint of the ranks ``a / 2**e`` and ``b / 2**f``, as a
    numerator and an exponent one above the larger of the two."""
    if e < f:
        return (a << (f - e)) + b, f + 1
    return a + (b << (e - f)), e + 1


def _build(rng: SplitMix64, num_leaves: int, num_reticulations: int) -> tuple[list, list]:
    """The child and parent lists of a network grown on four flat lists:
    arc tails and heads, and each vertex's rank as the numerator and
    exponent of ``m / 2**e``.  Arc k keeps its index when it is subdivided,
    which is what the draws pick."""
    draw, mid = rng.next_u64, _mid
    if num_leaves == 1:
        # Smallest one-leaf shape has two reticulations: root -> {a, r1},
        # a -> {r1, r2}, r1 -> r2 -> leaf.
        tails, heads = [0, 0, 1, 1, 2, 3], [1, 2, 2, 3, 3, 4]
        nums, exps = [0, 1, 2, 3, 4], [0] * 5
        num_reticulations -= 2
    else:
        tails, heads = [0, 0], [1, 2]
        nums, exps = [0, 1, 1], [0, 0, 0]
    # A tree on m arcs has m + 1 vertices: the midpoint s of arc k takes
    # id m + 1 and its new leaf, one rank above s, id m + 2.  Each id is
    # made once, so every list holds the same int object.
    for m in range(2, 2 * num_leaves - 2, 2):
        k = (draw() * m) >> 64
        s = m + 1
        u, v = tails[k], heads[k]
        a, e = mid(nums[u], exps[u], nums[v], exps[v])
        nums += (a, a + (1 << e))
        exps += (e, e)
        heads[k] = s
        tails += (s, s)
        heads += (v, s + 1)
    # A reticulation subdivides arcs i and j of the m arcs, each at its
    # midpoint, and joins the lower midpoint s to the higher t.
    first = len(tails)
    for m in range(first, first + 3 * num_reticulations, 3):
        i = (draw() * m) >> 64
        j = (draw() * (m - 1)) >> 64
        if j >= i:
            j += 1
        u, v, w, x = tails[i], heads[i], tails[j], heads[j]
        a, e = mid(nums[u], exps[u], nums[v], exps[v])
        c, g = mid(nums[w], exps[w], nums[x], exps[x])
        ri, rj = (a, c << (e - g)) if g < e else (a << (g - e), c)
        if rj < ri:
            i, j, u, v, w, x, a, e, c, g = j, i, w, x, u, v, c, g, a, e
        s = len(nums)
        t = s + 1
        if ri == rj:
            # Same midpoint rank: nudge the two into strict order inside
            # their own intervals (donor low quartile, receiver high).
            a, e = mid(a, e, nums[u], exps[u])
            c, g = mid(c, g, nums[x], exps[x])
        nums += (a, c)
        exps += (e, g)
        heads[i], heads[j] = s, t
        tails += (s, t, s)
        heads += (v, x, t)
    # Each list goes once it is read, so the network is built beside none
    # of them.
    n = len(nums)
    del nums, exps
    return _adjacency(n, zip(tails, heads))


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
        from .temporal import temporal_map

    for attempt in range(TEMPORAL_ATTEMPTS if spec.temporal_only else 1):
        stream_seed = (spec.seed ^ (attempt * 0xA5A5B5B5C5C5D5D5)) & _MASK64
        kids, pars = _build(SplitMix64(stream_seed), spec.num_leaves, spec.num_reticulations)
        if spec.temporal_only:  # decided on the lists (root 0), so only the network kept is built
            ins = list(map(len, pars))
            if temporal_map(kids, pars, ins, [v for v in range(len(ins)) if ins[v] == 2], 0) is None:
                continue
        labels = dict(zip(compress(count(), map(not_, kids)), map("x{}".format, count(1))))
        net = PhyloNetwork.from_lists(kids, pars, labels)
        if net.num_vertices != expected:
            raise RuntimeError("generator broke the degree identity")
        return net
    raise GenerationError(
        f"no temporal network found for {spec} within {TEMPORAL_ATTEMPTS} attempts"
    )
