"""Polyhedral TIN regions, regime classification and related analyses.

A region is a set of per-user GDoF tuples cut out by prefix-sum
constraints inside each participating cell and by cyclic multi-cell
constraints indexed by cyclically ordered cell sequences.  Users outside
the chosen subnetwork are zero-forced.  All bounds are exact rationals, so
membership, regime classification and LP optima never depend on float
rounding.  Cyclic bounds are summed as Python ints on the network's
common-denominator lattice (:attr:`ChannelStrengths.scaled`) and divided
back once, so they stay exact and equal to the rational sums.  Membership
runs on ints too: a point is read once onto its own lattice (the lcm of its
coordinate denominators), and each constraint is one cross-multiplied
integer comparison against the bound's numerator and denominator.

The regions of a union share most of their constraints: a prefix block
depends on one cell's decode order, and a cyclic block on the orders of
the cells in its sequence.  :func:`polyhedral_region` therefore keeps such
blocks in a dict on the network object and builds only what belongs to one
region: the constraints of the cyclic sequences over every cell of the
network, which are never stored.  The cache is bounded by the distinct
shorter keys and lives as long as the network object (one request in the
CLI, which parses a fresh network per request).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatchError, EmptyRegionError, PreconditionError
from .network import ChannelStrengths, UserId, _exact, as_fraction
from .simplex import solve_lp


@dataclass(frozen=True)
class Subnetwork:
    """Per-cell participating slot subsets; cells with an empty subset drop out.

    The subsets are stored as tuples of ints whatever sequences of integers
    they were given as, so equal subnetworks compare and hash equal.
    """

    slots_by_cell: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "slots_by_cell", tuple(tuple(map(operator.index, s)) for s in self.slots_by_cell))
        for k, slots in enumerate(self.slots_by_cell):
            if list(slots) != sorted(set(slots)):
                raise ValueError(f"cell {k + 1}: subset {slots} must be sorted and duplicate-free")
            if slots and (slots[0] < 1):
                raise ValueError(f"cell {k + 1}: slot indices are 1-based")

    @staticmethod
    def full(net: ChannelStrengths) -> "Subnetwork":
        return Subnetwork(tuple(tuple(range(1, lk + 1)) for lk in net.L))

    def cells(self) -> tuple[int, ...]:
        """Cells with at least one participating user."""
        return tuple(k + 1 for k, slots in enumerate(self.slots_by_cell) if slots)

    def slots(self, cell: int) -> tuple[int, ...]:
        return self.slots_by_cell[cell - 1]

    def members(self) -> frozenset[UserId]:
        return frozenset(
            UserId(k + 1, l) for k, slots in enumerate(self.slots_by_cell) for l in slots
        )

    def size(self) -> int:
        return sum(len(s) for s in self.slots_by_cell)


@dataclass(frozen=True)
class LinearConstraint:
    """Sum of the named users' GDoF values is at most ``bound``.

    Ints and Fractions are kept as given; any other bound is read with
    :func:`~tincell.network.as_fraction` (a float through its decimal text).
    """

    users: frozenset[UserId]
    bound: Fraction

    def __post_init__(self):
        if not self.users:
            raise ValueError("constraint must cover at least one user")
        if not isinstance(self.bound, (int, Fraction)):
            object.__setattr__(self, "bound", as_fraction(self.bound))


@dataclass(frozen=True)
class PolyhedralRegion:
    """A polyhedral GDoF region over the network's canonical user list.

    ``users`` fixes coordinate order, ``zero`` lists zero-forced users, and
    ``d >= 0`` is implicit.  The region is nonempty iff every bound is
    nonnegative (the origin then satisfies everything).
    """

    users: tuple[UserId, ...]
    zero: frozenset[UserId]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        active = frozenset(self.users) - self.zero
        if not active.issuperset(frozenset().union(*[c.users for c in self.constraints])):
            raise ValueError("constraint mentions a zero-forced or unknown user")

    def is_empty(self) -> bool:
        return any(c.bound.numerator < 0 for c in self.constraints)

    def constraint_set(self) -> frozenset[tuple[frozenset[UserId], Fraction]]:
        return frozenset((c.users, c.bound) for c in self.constraints)


class RegimeLabel(Enum):
    TIN = "TIN"
    CTIN_ONLY = "CTIN_ONLY"
    GENERAL = "GENERAL"


def cyclic_sequences(cells: Sequence[int]) -> list[tuple[int, ...]]:
    """All cyclically ordered sequences over nonempty subsets of ``cells``.

    Each cycle is reported once, rotated so its smallest cell id comes
    first; a subset of size m contributes (m-1)! sequences.  Enumeration is
    deterministic: subsets by size then lexicographically, interior
    orderings lexicographically.
    """
    cells = sorted(set(cells))
    if not cells:
        raise ValueError("cell set must be nonempty")
    out = []
    for m in range(1, len(cells) + 1):
        for subset in itertools.combinations(cells, m):
            first, rest = subset[0], subset[1:]
            for tail in itertools.permutations(rest):
                out.append((first,) + tail)
    return out


@functools.cache
def _cycles(cells: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The cyclic sequences of length at least 2 over ``cells``."""
    return tuple(seq for seq in cyclic_sequences(cells) if len(seq) >= 2)


SubnetOrder = Mapping[int, tuple[int, ...]]


def identity_suborder(subnet: Subnetwork) -> dict[int, tuple[int, ...]]:
    """Ascending-slot decode order on a subnetwork."""
    return {i: subnet.slots(i) for i in subnet.cells()}


@functools.lru_cache(maxsize=4096)
def _prefix_groups(cell: int, perm: tuple[int, ...]) -> tuple[frozenset[UserId], ...]:
    """The users of each prefix of ``perm`` in ``cell``, shortest first."""
    return tuple(itertools.accumulate((frozenset((UserId(cell, s),)) for s in perm), frozenset.union))


@functools.lru_cache(maxsize=4096)
def _bound(total: int, D: int) -> Fraction:
    """``Fraction(total, D)``: cyclic sums recur across the regions of a union."""
    return Fraction(total, D)


def _pick(idx: list[int]):
    """A function returning the tuple of entries ``idx`` of its argument."""
    return operator.itemgetter(*idx) if len(idx) > 1 else lambda p, j=idx[0]: (p[j],)


@functools.cache
def _cycle_plan(M: tuple[int, ...], K: int) -> tuple:
    """Per cyclic sequence over the cells ``M`` of a ``K``-cell network:
    ``(seq, positions, last, pick)``.  ``positions`` pairs each cell of
    ``seq`` with its wrap-around predecessor.  For a sequence over all ``K``
    cells, ``last`` is the index in ``M`` of its last cell and ``pick``
    takes the perms of the other cells from a candidate's perms (one per
    cell of ``M``); otherwise ``last`` is None and ``pick`` takes the perms
    of every cell of ``seq``."""
    at = {i: j for j, i in enumerate(M)}
    plan = []
    for seq in _cycles(M):
        positions = tuple(zip(seq, seq[-1:] + seq[:-1]))
        last = at[seq[-1]] if len(seq) == K else None
        plan.append((seq, positions, last, _pick([at[i] for i in (seq if last is None else seq[:-1])])))
    return tuple(plan)


def _step(net: ChannelStrengths, blocks: dict, i: int, prev: int, perm: tuple[int, ...]) -> tuple:
    """``(prefix group, scaled margin against prev)`` for each prefix of
    ``perm`` in cell ``i``, kept in the network's block cache."""
    key = (i, prev, perm)
    step = blocks.get(key)
    if step is None:
        rows = net.scaled[1][i - 1]
        step = blocks[key] = tuple(
            (group, rows[top - 1][i - 1] - rows[top - 1][prev - 1])
            for group, top in zip(_prefix_groups(i, perm), perm)
        )
    return step


def _fold(steps) -> Sequence:
    """(group, scaled sum) over the positions of ``steps``, extended one
    position at a time.  The last position varies fastest and groups are
    joined left to right, so constraint order and each frozenset's member
    order (hence the region's repr) follow itertools.product and
    groups[0].union(*groups[1:])."""
    pairs = steps[0]
    for step in steps[1:]:
        pairs = [(g0 | g, s0 + m) for g0, s0 in pairs for g, m in step]
    return pairs


def polyhedral_region(
    net: ChannelStrengths, order: SubnetOrder, subnet: Subnetwork
) -> PolyhedralRegion:
    """Region of GDoF tuples achievable on ``subnet`` under decode order ``order``.

    Emits one prefix-sum constraint per (cell, prefix length) and one
    constraint per cyclic cell sequence of length >= 2 and per choice of
    per-cell prefix lengths, with the predecessor cell wrapping around the
    sequence.  No redundancy elimination is attempted.

    The regions of a union share most of their constraints, so each is
    assembled from blocks kept in the network object's block cache
    (:attr:`ChannelStrengths._blocks`), and only its own part is built:

    - the prefix constraints of each ``(cell, perm)``, and each cell's
      ``(group, scaled margin)`` steps against each predecessor cell;
    - the zero-forced set of each subnetwork;
    - the constraints of each cyclic sequence that misses some cell of the
      network, keyed by the sequence and the perms of its cells, since they
      recur for every choice of the other cells' orders;
    - for a sequence over all cells, the (group, scaled sum) pairs of its
      positions but the last, keyed by the sequence and those positions'
      perms (the wrap predecessor of the first position is the last cell,
      fixed by the sequence).  Only the last position is joined per region.

    The constraints of a sequence over all cells name every cell's perm,
    so they belong to one region and are never stored.  The cache thus
    holds at most one entry per distinct shorter key, whatever the number
    of regions built, and it lives as long as the network object.  Blocks
    are built as the region's own constraints would be, so a region is
    the same, down to its ``repr``, whichever regions were built before.
    """
    if len(subnet.slots_by_cell) != net.K or any(
        slots and slots[-1] > net.L[k] for k, slots in enumerate(subnet.slots_by_cell)
    ):
        raise DimensionMismatchError("subnetwork does not fit the network")
    M = subnet.cells()
    perms = []
    for i in M:
        perm = tuple(map(operator.index, order[i])) if i in order else None
        if perm is None or sorted(perm) != list(subnet.slots(i)):
            raise ValueError(f"order for cell {i} is not a bijection onto its subset")
        perms.append(perm)
    blocks = net._blocks
    zero = blocks.get(subnet)
    if zero is None:
        zero = blocks[subnet] = frozenset(net.users()) - subnet.members()
    constraints = []
    for i, perm in zip(M, perms):
        block = blocks.get((i, perm))
        if block is None:
            block = blocks[i, perm] = tuple(
                LinearConstraint(group, net.direct(i, top)) for group, top in zip(_prefix_groups(i, perm), perm)
            )
        constraints += block
    if len(M) >= 2:
        D = net.scaled[0]
        for seq, positions, last, pick in _cycle_plan(M, net.K):
            key = (seq, pick(perms))
            block = blocks.get(key)
            if block is None:
                # a head's perms stop one short, and so does this zip
                pairs = _fold([_step(net, blocks, i, prev, perm) for (i, prev), perm in zip(positions, key[1])])
                block = blocks[key] = pairs if last is not None else tuple(
                    LinearConstraint(group, _bound(total, D)) for group, total in pairs
                )
            if last is None:
                constraints += block
            else:
                step = _step(net, blocks, *positions[-1], perms[last])
                constraints += [LinearConstraint(g0 | g, _bound(s0 + m, D)) for g0, s0 in block for g, m in step]
    return PolyhedralRegion(users=net.users(), zero=zero, constraints=tuple(constraints))


def contains(region: PolyhedralRegion, d: Sequence) -> bool:
    """Membership test: d >= 0, zero-forced coordinates vanish, all
    constraints hold.

    Comparisons are exact and run on ints.  Ints and Fractions are taken as
    given, and any other coordinate is read with
    :func:`~tincell.network.as_fraction`, so a float counts as its decimal
    text and NaN or an infinity raises ``ValueError``.  The point is scaled
    once by ``den``, the lcm of its denominators; a constraint ``sum <= p/q``
    then holds iff ``sum(ints) * q <= p * den``.
    """
    users = region.users
    if len(d) != len(users):
        raise DimensionMismatchError(f"tuple of length {len(d)}, expected {len(users)}")
    d = _exact(d)
    den = math.lcm(*[x.denominator for x in d])
    ints = [x.numerator * (den // x.denominator) for x in d]
    if min(ints, default=0) < 0:
        return False
    value = dict(zip(users, ints))
    if any(map(value.__getitem__, region.zero)):
        return False
    for c in region.constraints:
        b = c.bound
        if sum(map(value.__getitem__, c.users)) * b.denominator > b.numerator * den:
            return False
    return True


@functools.lru_cache(maxsize=4096)
def _suborder_pools(subnet: Subnetwork) -> tuple:
    """The subnetwork's cells and each one's slot permutations (already
    lexicographic: ``permutations`` of an ascending tuple)."""
    M = subnet.cells()
    return M, tuple(tuple(itertools.permutations(subnet.slots(i))) for i in M)


def _all_suborders(subnet: Subnetwork):
    """Every decode order on the subnetwork, lexicographically per cell, as
    a fresh dict each (witnesses reach callers)."""
    M, pools = _suborder_pools(subnet)
    for combo in itertools.product(*pools):
        yield dict(zip(M, combo))


def _all_subnetworks(net: ChannelStrengths) -> tuple[Subnetwork, ...]:
    """Subnetworks in decreasing total size, lexicographic within a size;
    one shared tuple per cell-size vector ``L``."""
    return _subnetworks(tuple(net.L))


@functools.lru_cache(maxsize=64)
def _subnetworks(L: tuple[int, ...]) -> tuple[Subnetwork, ...]:
    per_cell = [[s for m in range(lk + 1) for s in itertools.combinations(range(1, lk + 1), m)] for lk in L]
    subnets = (Subnetwork(choice) for choice in itertools.product(*per_cell))
    return tuple(sorted(subnets, key=lambda s: (-s.size(), s.slots_by_cell)))


def _union_regions(net: ChannelStrengths):
    """Yield (order, subnetwork, region) over the whole union, built one at a
    time: subnetworks in decreasing size, decode orders lexicographically."""
    for subnet in _all_subnetworks(net):
        for order in _all_suborders(subnet):
            yield order, subnet, polyhedral_region(net, order, subnet)


def tina_region_contains(
    net: ChannelStrengths, d: Sequence
) -> tuple[bool, Optional[tuple[dict, Subnetwork]]]:
    """Search the full union of polyhedral regions for one containing ``d``.

    Subnetworks are tried in decreasing size and decode orders
    lexicographically; the first containing (order, subnetwork) pair is the
    witness.  ``d`` is read once, as :func:`contains` reads it.  Cost grows
    with the product of per-cell factorials, so keep networks small: a miss
    builds every region, which took about 1.1 ms for L = (2, 2, 1), 11 ms
    for (3, 2, 2), 35 ms for (2, 2, 2, 2), 42 ms for (3, 3, 2) and 0.19 s
    for (3, 3, 3) on a fresh network object (empty block cache; median of
    3-5 runs on a shared 2-core VM under Python 3.11).
    """
    d = _exact(d)
    for order, subnet, region in _union_regions(net):
        if contains(region, d):
            return True, (order, subnet)
    return False, None


def max_weighted_sum(region: PolyhedralRegion, w: Sequence) -> tuple[Fraction, tuple]:
    """Exact LP maximum of ``w . d`` over the region, with an optimal vertex.

    Ties between optimal vertices are broken deterministically by the
    simplex pivot rule (smallest index).  Raises if the region is empty or
    any weight is negative.
    """
    if len(w) != len(region.users):
        raise DimensionMismatchError(f"{len(w)} weights for {len(region.users)} users")
    w = [as_fraction(x) for x in w]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if region.is_empty():
        raise EmptyRegionError("region has a negative bound")
    index = {u: i for i, u in enumerate(region.users)}
    active = [u for u in region.users if u not in region.zero]
    if not active:
        return Fraction(0), tuple(Fraction(0) for _ in region.users)
    col = {u: j for j, u in enumerate(active)}
    A = []
    b = []
    for c in region.constraints:
        row = [0] * len(active)
        for u in c.users:
            row[col[u]] = 1
        A.append(row)
        b.append(c.bound)
    cvec = [w[index[u]] for u in active]
    value, x = solve_lp(cvec, A, b)
    full = [Fraction(0)] * len(region.users)
    for u, j in col.items():
        full[index[u]] = x[j]
    return value, tuple(full)


def tina_max_weighted_sum(net: ChannelStrengths, w: Sequence):
    """Best weighted sum over the whole union of polyhedral regions.

    Returns (value, argmax, (order, subnetwork)); empty regions are skipped.
    """
    best = None
    for order, subnet, region in _union_regions(net):
        if region.is_empty():
            continue
        value, arg = max_weighted_sum(region, w)
        if best is None or value > best[0]:
            best = (value, arg, (order, subnet))
    assert best is not None  # the empty subnetwork always yields the origin
    return best


# ---------------------------------------------------------------------------
# regime classification


def _cross_cell_holds(net: ChannelStrengths, i: int, j: int, convex: bool, slots: Sequence[int]) -> bool:
    """``direct(i, l) >= s(i, l, j) + s(k, lk, i)`` at each of ``slots`` of
    cell ``i``, for every cell ``k != i`` and slot ``lk`` of ``k``, less
    ``s(k, lk, j)`` in the convex regime when ``k != j``."""
    for l in slots:
        margin = net.direct(i, l) - net.strength(i, l, j)
        for k in range(1, net.K + 1):
            if k == i:
                continue
            for lk in range(1, net.L[k - 1] + 1):
                rhs = net.strength(k, lk, i)
                if convex and k != j:
                    rhs -= net.strength(k, lk, j)
                if margin < rhs:
                    return False
    return True


def ctin_conditions_hold(net: ChannelStrengths) -> bool:
    """Strength conditions under which the TINA region collapses to a single
    convex polyhedron (identity order, all users)."""
    for i, j in itertools.permutations(range(1, net.K + 1), 2):
        # direct - s(., j) must be non-decreasing along the cell
        margins = [net.direct(i, l) - net.strength(i, l, j) for l in range(1, net.L[i - 1] + 1)]
        if any(b < a for a, b in zip(margins, margins[1:])):
            return False
        if not _cross_cell_holds(net, i, j, convex=True, slots=(1,)):
            return False
    return True


def tin_conditions_hold(net: ChannelStrengths) -> bool:
    """Stricter strength conditions under which that polyhedron is the whole
    GDoF region (TIN is optimal)."""
    for i, j in itertools.permutations(range(1, net.K + 1), 2):
        # all slot pairs: adjacent pairs suffice only when direct links ascend
        for l in range(2, net.L[i - 1] + 1):
            a_l, cross_l = net.direct(i, l), net.strength(i, l, j)
            for lp in range(1, l):
                branch_a = a_l >= cross_l + net.direct(i, lp)
                branch_b = a_l >= 2 * cross_l + net.direct(i, lp) - net.strength(i, lp, j)
                if not (branch_a or branch_b):
                    return False
        if not _cross_cell_holds(net, i, j, convex=False, slots=(1,)):
            return False
    return True


def classify_regime(net: ChannelStrengths) -> RegimeLabel:
    """TIN if the strict conditions hold, else CTIN_ONLY, else GENERAL."""
    if tin_conditions_hold(net):
        assert ctin_conditions_hold(net)  # strict regime nests in the convex one
        return RegimeLabel.TIN
    if ctin_conditions_hold(net):
        return RegimeLabel.CTIN_ONLY
    return RegimeLabel.GENERAL


def implied_conditions_hold(net: ChannelStrengths, label: RegimeLabel) -> bool:
    """Self-consistency check: conditions stated for the weakest user of each
    cell must propagate to every user when the regime label is correct."""
    if label not in (RegimeLabel.TIN, RegimeLabel.CTIN_ONLY):
        raise PreconditionError("only meaningful for TIN / CTIN_ONLY labels")
    return all(
        _cross_cell_holds(net, i, j, label is RegimeLabel.CTIN_ONLY, range(1, net.L[i - 1] + 1))
        for i, j in itertools.permutations(range(1, net.K + 1), 2)
    )


# ---------------------------------------------------------------------------
# outer bound


def outer_bound_region(net: ChannelStrengths) -> PolyhedralRegion:
    """GDoF-scale converse region, valid when the strict regime conditions hold.

    In that regime the converse's per-cell prefix bounds and cyclic bounds
    over all cell sequences (with wrap-around predecessors) are exactly the
    constraints of the identity-order, full-participation achievable
    region, so the region is built by :func:`polyhedral_region` on that
    order and subnetwork.
    """
    if classify_regime(net) is not RegimeLabel.TIN:
        raise PreconditionError("outer bound is only claimed in the TIN regime")
    full = Subnetwork.full(net)
    return polyhedral_region(net, identity_suborder(full), full)


# ---------------------------------------------------------------------------
# interference-alignment gain (2-cell, 3-user shape)


@dataclass(frozen=True)
class IaReport:
    """Sum-GDoF of power-controlled TIN vs. the level-alignment scheme.

    Formula values are always filled in; ``applicable`` records whether the
    network sits in the sub-regime where the alignment gain is actually
    claimed (convex-regime conditions hold, the strict conditions are
    strictly violated, the weaker user is the more interfered one, and the
    gain is strictly positive).
    """

    d_tina: Fraction
    gamma_ia: Fraction
    d_ia: Fraction
    applicable: bool


def ia_sum_gdof(net: ChannelStrengths) -> IaReport:
    """Alignment-gain report for the 2-cell network with cell sizes (2, 1)."""
    if net.K != 2 or net.L != (2, 1):
        raise PreconditionError("requires exactly 2 cells with 2 and 1 users")
    a1 = net.strength(1, 1, 1)
    a2 = net.strength(1, 1, 2)
    b1 = net.strength(1, 2, 1)
    b2 = net.strength(1, 2, 2)
    g1 = net.strength(2, 1, 1)
    g2 = net.strength(2, 1, 2)
    d_tina = (b1 - b2) + (g2 - g1)
    gamma_ia = min((a1 - a2) - (b1 - 2 * b2), (b1 - b2) - (a1 - a2))
    strict_violation = (b1 - b2 < a1) and (b1 - 2 * b2 < a1 - a2)
    applicable = (
        ctin_conditions_hold(net)
        and strict_violation
        and a2 >= b2
        and gamma_ia > 0
    )
    return IaReport(d_tina=d_tina, gamma_ia=gamma_ia, d_ia=d_tina + gamma_ia, applicable=applicable)


# ---------------------------------------------------------------------------
# user partition along a cyclic bound


@dataclass(frozen=True)
class UserPartition:
    """Split of participating slots ``1..count`` of one cell, relative to the
    interference arriving from a predecessor cell.

    ``more_noisy`` holds the strongest participating user plus everyone it
    can stand in for; ``not_more_noisy`` holds the rest.  Both are ascending
    and the strongest user closes ``more_noisy``.
    """

    cell: int
    predecessor: int
    count: int
    more_noisy: tuple[int, ...]
    not_more_noisy: tuple[int, ...]

    def __post_init__(self):
        merged = sorted(self.more_noisy + self.not_more_noisy)
        if merged != list(range(1, self.count + 1)) or self.more_noisy[-1] != self.count:
            raise ValueError("partition must cover 1..count with the top user in more_noisy")


def partition_users(net: ChannelStrengths, cell: int, predecessor: int, count: int) -> UserPartition:
    """Partition slots ``1..count`` of ``cell`` against ``predecessor``'s
    interference: a weaker user joins ``more_noisy`` when the top user's
    signal-to-interference margin covers that user's whole direct link."""
    if predecessor == cell:
        raise PreconditionError("predecessor must be a different cell")
    if not (1 <= count <= net.L[cell - 1]):
        raise PreconditionError(f"count must be in 1..{net.L[cell - 1]}")
    margin = net.direct(cell, count) - net.strength(cell, count, predecessor)
    more, rest = [], []
    for s in range(1, count):
        (more if margin >= net.direct(cell, s) else rest).append(s)
    more.append(count)
    return UserPartition(
        cell=cell,
        predecessor=predecessor,
        count=count,
        more_noisy=tuple(more),
        not_more_noisy=tuple(rest),
    )


def partition_order_holds(net: ChannelStrengths, partition: UserPartition) -> bool:
    """Chain conditions on the ``not_more_noisy`` users.

    Walking that subset in ascending order (with the top user appended),
    each user must not be less noisy than its predecessor in the chain and
    must see strictly weaker predecessor-cell interference.  Guaranteed to
    hold in the strict regime; outside it the answer is informational only.
    """
    i, p = partition.cell, partition.predecessor
    chain = partition.not_more_noisy + (partition.count,)
    for s in range(len(chain) - 1):
        cur, nxt = chain[s], chain[s + 1]
        if not (net.direct(i, nxt) - net.strength(i, nxt, p) < net.direct(i, cur)):
            return False
        if not (net.direct(i, nxt) - 2 * net.strength(i, nxt, p) >= net.direct(i, cur) - net.strength(i, cur, p)):
            return False
        if not (net.strength(i, cur, p) > net.strength(i, nxt, p)):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def region_to_dict(region: PolyhedralRegion) -> dict:
    """JSON form: flat 0-based user indices into the canonical user order."""
    index = {u: i for i, u in enumerate(region.users)}
    return {
        "dimension": len(region.users),
        "zero": sorted(index[u] for u in region.zero),
        "constraints": [
            {"users": sorted(index[u] for u in c.users), "bound": float(c.bound)}
            for c in region.constraints
        ],
    }
