import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tincell as tc
import tincell.regions
from tincell.regions import _all_suborders, _all_subnetworks, _union_regions
from tincell.sampling import random_network

from sample_nets import MIXED_NETS, mknet, nets


def full_region(net):
    s = tc.Subnetwork.full(net)
    return tc.polyhedral_region(net, tc.identity_suborder(s), s)


# --- cyclic sequences -------------------------------------------------------


def test_cyclic_sequences_three_cells():
    seqs = tc.cyclic_sequences([1, 2, 3])
    assert seqs == [
        (1,), (2,), (3,),
        (1, 2), (1, 3), (2, 3),
        (1, 2, 3), (1, 3, 2),
    ]


def test_cyclic_sequences_singleton():
    assert tc.cyclic_sequences([1]) == [(1,)]


def test_cyclic_sequences_count_four_cells():
    seqs = tc.cyclic_sequences([1, 2, 3, 4])
    assert len(seqs) == 4 + 6 + 8 + 6
    assert len(set(seqs)) == len(seqs)
    # canonical: smallest id first, so no rotated duplicates survive
    for s in seqs:
        assert s[0] == min(s)


def test_cyclic_sequences_match_count_formula():
    for n in range(1, 6):
        seqs = tc.cyclic_sequences(range(1, n + 1))
        expected = sum(math.comb(n, m) * math.factorial(m - 1) for m in range(1, n + 1))
        assert len(seqs) == expected


# --- region generation ------------------------------------------------------


def test_region_net_a_constraints(net_a):
    region = full_region(net_a)
    a, b, c = tc.UserId(1, 1), tc.UserId(1, 2), tc.UserId(2, 1)
    got = region.constraint_set()
    expected = {
        (frozenset({a}), Fraction(3, 5)),
        (frozenset({a, b}), Fraction(1)),
        (frozenset({c}), Fraction(1)),
        (frozenset({a, c}), Fraction(11, 10)),
        (frozenset({a, b, c}), Fraction(8, 5)),
    }
    assert got == expected
    assert region.zero == frozenset()


def test_region_no_cross_links_is_product():
    net = mknet([[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.8]]])
    region = full_region(net)
    by_users = {frozenset(c.users): c.bound for c in region.constraints}
    a, b, c = tc.UserId(1, 1), tc.UserId(1, 2), tc.UserId(2, 1)
    # cyclic bounds collapse to sums of single-cell bounds
    assert by_users[frozenset({a, c})] == Fraction(1, 2) + Fraction(4, 5)
    assert by_users[frozenset({a, b, c})] == Fraction(1) + Fraction(4, 5)


def test_region_single_user_subnetwork(net_a):
    s = tc.Subnetwork(((2,), ()))
    region = tc.polyhedral_region(net_a, {1: (2,)}, s)
    assert region.zero == frozenset({tc.UserId(1, 1), tc.UserId(2, 1)})
    assert region.constraint_set() == {(frozenset({tc.UserId(1, 2)}), Fraction(1))}


def test_region_rejects_non_bijective_order(net_a):
    s = tc.Subnetwork(((1, 2), (1,)))
    with pytest.raises(ValueError):
        tc.polyhedral_region(net_a, {1: (1, 1), 2: (1,)}, s)


def test_region_built_directly_checks_every_constraint(net_a):
    users = net_a.users()
    a, b, c = users
    ok = tc.LinearConstraint(frozenset({a, b}), 1)
    assert tc.PolyhedralRegion(users, frozenset({c}), (ok,)).constraints == (ok,)
    for zero, bad in [(frozenset({c}), frozenset({b, c})), (frozenset(), frozenset({tc.UserId(3, 1)}))]:
        with pytest.raises(ValueError, match="zero-forced or unknown"):
            tc.PolyhedralRegion(users, zero, (ok, tc.LinearConstraint(bad, 1)))


def test_built_regions_equal_directly_checked_ones(net_a):
    # polyhedral_region checks only what it builds; the full check agrees
    for subnet in _all_subnetworks(net_a):
        for order in _all_suborders(subnet):
            region = tc.polyhedral_region(net_a, order, subnet)
            assert tc.PolyhedralRegion(region.users, region.zero, region.constraints) == region


@given(nets(min_K=2, max_K=3, max_L=3))
@settings(max_examples=40, deadline=None)
def test_cyclic_constraint_count_formula(net):
    region = full_region(net)
    single = sum(net.L)
    expected_cyclic = 0
    for seq in tc.cyclic_sequences(range(1, net.K + 1)):
        if len(seq) >= 2:
            prod = 1
            for i in seq:
                prod *= net.L[i - 1]
            expected_cyclic += prod
    assert len(region.constraints) == single + expected_cyclic


def _reference_polyhedral_region(net, order, subnet):
    """The Fraction-summing builder that the integer-lattice one replaced."""
    if len(subnet.slots_by_cell) != net.K or any(
        slots and slots[-1] > net.L[k] for k, slots in enumerate(subnet.slots_by_cell)
    ):
        raise tc.DimensionMismatchError("subnetwork does not fit the network")
    M = subnet.cells()
    for i in M:
        if i not in order or sorted(order[i]) != list(subnet.slots(i)):
            raise ValueError(f"order for cell {i} is not a bijection onto its subset")
    users = net.users()
    zero = frozenset(users) - subnet.members()
    constraints = []
    for i in M:
        perm = order[i]
        for l in range(1, len(perm) + 1):
            group = frozenset(tc.UserId(i, perm[s]) for s in range(l))
            constraints.append(tc.LinearConstraint(group, net.direct(i, perm[l - 1])))
    if len(M) >= 2:
        for seq in tc.cyclic_sequences(M):
            m = len(seq)
            if m < 2:
                continue
            for lengths in itertools.product(*(range(1, len(order[i]) + 1) for i in seq)):
                group = set()
                bound = Fraction(0)
                for j, i in enumerate(seq):
                    prev = seq[j - 1]  # wraps: predecessor of seq[0] is seq[-1]
                    l_i = lengths[j]
                    top = order[i][l_i - 1]
                    group.update(tc.UserId(i, order[i][s]) for s in range(l_i))
                    bound += net.direct(i, top) - net.strength(i, top, prev)
                constraints.append(tc.LinearConstraint(frozenset(group), bound))
    return tc.PolyhedralRegion(users=users, zero=zero, constraints=tuple(constraints))


def _general_net(shape):
    """First GENERAL net of ``shape`` from seed 0, with cross links at most 1."""
    rng = random.Random(0)
    while True:
        net = random_network(rng, len(shape), shape, cross_range=(Fraction(0), Fraction(1)))
        if tc.classify_regime(net) is tc.RegimeLabel.GENERAL:
            return net


SEEDED_NETS = [random_network(random.Random(seed), len(shape), shape)
               for seed, shape in enumerate([(2, 1), (2, 2, 1), (3, 2, 2), (2, 2, 2, 2)])]


@pytest.mark.parametrize(
    "net", SEEDED_NETS + MIXED_NETS,
    ids=["seeded-21", "seeded-221", "seeded-322", "seeded-2222", "mixed-21", "mixed-221", "canonical-212"],
)
def test_region_builder_matches_reference_on_every_union_region(net):
    for order, subnet, region in _union_regions(net):
        ref = _reference_polyhedral_region(net, order, subnet)
        assert region.users == ref.users and region.zero == ref.zero
        assert region.constraints == ref.constraints
        for c, r in zip(region.constraints, ref.constraints):
            assert type(c.bound) is Fraction and repr(c.bound) == repr(r.bound)


def _product_polyhedral_region(net, order, subnet):
    """The integer-lattice builder that walked ``itertools.product`` per cyclic
    sequence, kept as the reference for each region's ``repr``: frozenset
    member order depends on how each group was joined."""
    if len(subnet.slots_by_cell) != net.K or any(
        slots and slots[-1] > net.L[k] for k, slots in enumerate(subnet.slots_by_cell)
    ):
        raise tc.DimensionMismatchError("subnetwork does not fit the network")
    M = subnet.cells()
    for i in M:
        if i not in order or sorted(order[i]) != list(subnet.slots(i)):
            raise ValueError(f"order for cell {i} is not a bijection onto its subset")
    users = net.users()
    zero = frozenset(users) - subnet.members()
    constraints = []
    prefixes = {}
    for i in M:
        perm = order[i]
        prefixes[i] = tuple(
            itertools.accumulate((frozenset((tc.UserId(i, s),)) for s in perm), frozenset.union)
        )
        for group, top in zip(prefixes[i], perm):
            constraints.append(tc.LinearConstraint(group, net.direct(i, top)))
    if len(M) >= 2:
        D, ints = net.scaled
        for seq in tincell.regions._cycles(M):
            # per position: (prefix group, scaled margin against the predecessor)
            choices = [
                [
                    (group, ints[i - 1][top - 1][i - 1] - ints[i - 1][top - 1][prev - 1])
                    for group, top in zip(prefixes[i], order[i])
                ]
                for i, prev in zip(seq, seq[-1:] + seq[:-1])
            ]
            for picks in itertools.product(*choices):
                groups, margins = zip(*picks)
                constraints.append(
                    tc.LinearConstraint(groups[0].union(*groups[1:]), Fraction(sum(margins), D))
                )
    return tc.PolyhedralRegion(users=users, zero=zero, constraints=tuple(constraints))


@pytest.mark.parametrize(
    "net", SEEDED_NETS + MIXED_NETS,
    ids=["seeded-21", "seeded-221", "seeded-322", "seeded-2222", "mixed-21", "mixed-221", "canonical-212"],
)
def test_union_regions_print_as_the_product_builder_printed_them(net):
    for order, subnet, region in _union_regions(net):
        assert repr(region) == repr(_product_polyhedral_region(net, order, subnet))


def test_scaled_view_is_exact_and_leaves_identity_alone():
    net = MIXED_NETS[0]
    before = (repr(net), hash(net))
    D, ints = net.scaled
    assert D == 3 * 7 * 10**900  # 8 divides 10**900
    assert net.scaled is net.scaled
    for cell, icell in zip(net.alpha, ints):
        for row, irow in zip(cell, icell):
            assert all(type(x) is int and x == a * D for a, x in zip(row, irow))
    assert (repr(net), hash(net)) == before and net == MIXED_NETS[0]


def _counting(monkeypatch, builder):
    calls = []

    def build(net, order, subnet):
        calls.append((order, subnet))
        return builder(net, order, subnet)

    monkeypatch.setattr(tincell.regions, "polyhedral_region", build)
    return calls


def test_subnetwork_list_is_shared_per_cell_sizes():
    rng = random.Random(8)
    a, b = random_network(rng, 3, [2, 1, 2]), random_network(rng, 3, [2, 1, 2])
    subnets = _all_subnetworks(a)
    assert type(subnets) is tuple and subnets is _all_subnetworks(b)
    assert len(subnets) == 4 * 2 * 4 and subnets[0] == tc.Subnetwork.full(a)
    assert [(-s.size(), s.slots_by_cell) for s in subnets] == sorted((-s.size(), s.slots_by_cell) for s in subnets)
    for subnet in subnets:
        orders = list(_all_suborders(subnet))
        again = list(_all_suborders(subnet))
        # lexicographic per cell, and a fresh dict per order
        assert [tuple(o.values()) for o in orders] == sorted(tuple(o.values()) for o in orders)
        assert orders == again and all(x is not y for x, y in zip(orders, again))
        assert len(orders) == math.prod(math.factorial(len(subnet.slots(i))) for i in subnet.cells())


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 2, 2)])
def test_union_search_builds_the_same_regions_in_the_same_order(monkeypatch, shape):
    net = _general_net(shape)
    candidates = [(order, subnet) for subnet in _all_subnetworks(net) for order in _all_suborders(subnet)]
    calls = _counting(monkeypatch, tc.polyhedral_region)
    assert tc.tina_region_contains(net, [3] * net.n_users) == (False, None)
    assert calls == candidates  # a miss builds every region once
    # hits: the sum-maximizing vertex of the first nonempty region from half
    # and three quarters of the search on; a vertex lies on that region's
    # boundary, and an earlier region may hold it too
    for start in (len(candidates) // 2, 3 * len(candidates) // 4):
        for order, subnet in candidates[start:]:
            region = tc.polyhedral_region(net, order, subnet)
            if not region.is_empty() and any(d := tc.max_weighted_sum(region, [1] * net.n_users)[1]):
                break
        _counting(monkeypatch, _reference_polyhedral_region)
        expected = tc.tina_region_contains(net, d)
        calls = _counting(monkeypatch, tc.polyhedral_region)
        assert tc.tina_region_contains(net, d) == expected
        assert expected[0] and calls == candidates[: candidates.index(expected[1]) + 1]


# --- shared constraint blocks -----------------------------------------------


def _fresh(net):
    """An equal network object with an empty block cache."""
    return tc.ChannelStrengths(K=net.K, L=net.L, alpha=net.alpha)


BLOCK_NETS = SEEDED_NETS + MIXED_NETS + [_general_net((3, 2, 2)), _general_net((2, 2, 2, 2))]


@pytest.mark.parametrize(
    "index", range(len(BLOCK_NETS)),
    ids=["seeded-21", "seeded-221", "seeded-322", "seeded-2222", "mixed-21", "mixed-221", "canonical-212",
         "general-322", "general-2222"],
)
def test_regions_do_not_depend_on_what_was_built_before(index):
    net = _fresh(BLOCK_NETS[index])
    candidates = [(order, subnet) for subnet in _all_subnetworks(net) for order in _all_suborders(subnet)]
    random.Random(index).shuffle(candidates)
    for order, subnet in candidates:
        region = tc.polyhedral_region(net, order, subnet)
        assert repr(region) == repr(tc.polyhedral_region(_fresh(net), order, subnet))
        ref = _reference_polyhedral_region(net, order, subnet)
        assert (region.users, region.zero, region.constraints) == (ref.users, ref.zero, ref.constraints)


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 2, 2)])
def test_block_cache_is_bounded_by_the_shorter_keys(shape):
    net = _fresh(_general_net(shape))
    assert net._blocks == {} and _fresh(net)._blocks is not net._blocks
    assert tc.tina_region_contains(net, [3] * net.n_users) == (False, None)
    first = dict(net._blocks)
    assert tc.tina_region_contains(net, [3] * net.n_users) == (False, None)
    assert net._blocks.keys() == first.keys()  # a second miss adds nothing
    assert all(net._blocks[key] is value for key, value in first.items())
    # no stored constraint or partial sum joins every cell: the constraints
    # of a sequence over all cells belong to one region and are not kept
    groups = [
        c.users if isinstance(c, tc.LinearConstraint) else c[0]
        for value in first.values() if isinstance(value, (tuple, list))
        for c in value
    ]
    assert groups and max(len({u.cell for u in g}) for g in groups) == net.K - 1
    assert repr(net) == repr(_fresh(net)) and net == _fresh(net) and hash(net) == hash(_fresh(net))


def test_subnetwork_reads_lists_and_numpy_ints_as_tuples_of_ints():
    want = tc.Subnetwork(((1, 2), (1,)))
    for slots in ([[1, 2], [1]], ([1, 2], (1,)), [np.array([1, 2]), [np.int64(1)]], ((np.int32(1), 2), (np.uint8(1),))):
        subnet = tc.Subnetwork(slots)
        assert subnet == want and hash(subnet) == hash(want) and repr(subnet) == repr(want)
        assert all(type(s) is int for cell in subnet.slots_by_cell for s in cell)
        assert all(type(u.slot) is int for u in subnet.members())
    with pytest.raises(TypeError):
        tc.Subnetwork(((1.0,), ()))
    with pytest.raises(ValueError):
        tc.Subnetwork(([2, 1], []))


def test_region_reads_list_valued_and_numpy_int_orders(net_a):
    # the prefix groups are cached per process: start empty, so that no
    # earlier int-valued build can hide a numpy slot
    tincell.regions._prefix_groups.cache_clear()
    np_order = {1: (np.int64(2), np.int64(1)), 2: np.array([1])}
    got = tc.polyhedral_region(_fresh(net_a), np_order, tc.Subnetwork(((1, 2), (1,))))
    assert all(type(u.slot) is int for c in got.constraints for u in c.users)
    want = tc.polyhedral_region(net_a, {1: (2, 1), 2: (1,)}, tc.Subnetwork(((1, 2), (1,))))
    for order in ({1: [2, 1], 2: [1]}, {1: (2, 1), 2: [1]}, np_order):
        got = tc.polyhedral_region(_fresh(net_a), order, tc.Subnetwork([[1, 2], [1]]))
        assert repr(got) == repr(want)
        assert repr(tc.polyhedral_region(net_a, order, tc.Subnetwork([[1, 2], [1]]))) == repr(want)


# --- membership -------------------------------------------------------------


def test_contains_origin(net_a):
    assert tc.contains(full_region(net_a), [0, 0, 0])


def test_contains_tight_point(net_a):
    region = full_region(net_a)
    assert tc.contains(region, [Fraction(0), Fraction(9, 10), Fraction(7, 10)])
    assert not tc.contains(region, [Fraction(1, 10), Fraction(9, 10), Fraction(7, 10)])


def test_contains_rejects_nonzero_on_forced_user(net_a):
    s = tc.Subnetwork(((2,), (1,)))
    region = tc.polyhedral_region(net_a, {1: (2,), 2: (1,)}, s)
    assert tc.contains(region, [0, Fraction(1, 2), Fraction(1, 2)])
    assert not tc.contains(region, [Fraction(1, 100), Fraction(1, 2), Fraction(1, 2)])


def test_tina_region_contains_origin(net_a):
    ok, witness = tc.tina_region_contains(net_a, [0, 0, 0])
    assert ok and witness is not None


def test_tina_region_contains_net_a_examples(net_a):
    ok, witness = tc.tina_region_contains(net_a, [Fraction(0), Fraction(9, 10), Fraction(7, 10)])
    assert ok
    order, subnet = witness
    assert subnet == tc.Subnetwork.full(net_a)
    assert order == {1: (1, 2), 2: (1,)}
    ok, witness = tc.tina_region_contains(net_a, [Fraction(7, 10), 0, 0])
    assert not ok and witness is None


def _reference_contains(region, d):
    """Membership test: d >= 0, zero-forced coordinates vanish, all
    constraints hold.

    Comparisons are exact: rational inputs never round.
    """
    if len(d) != len(region.users):
        raise tc.DimensionMismatchError(f"tuple of length {len(d)}, expected {len(region.users)}")
    index = {u: i for i, u in enumerate(region.users)}
    if any(x < 0 for x in d):
        return False
    if any(abs(d[index[u]]) > 0 for u in region.zero):
        return False
    for c in region.constraints:
        if sum(d[index[u]] for u in c.users) > c.bound:
            return False
    return True


def _union_list(net):
    return [region for _, _, region in _union_regions(net)]


def _box_points(rng, net, count):
    """c06 box: each coordinate on the 1/100 grid in [0, direct + 1/10]."""
    tops = [int((net.direct(u.cell, u.slot) + Fraction(1, 10)) * 100) for u in net.users()]
    return [tuple(Fraction(rng.randint(0, t), 100) for t in tops) for _ in range(count)]


def _vertices(regions, n):
    """LP vertices of the nonempty regions: each lies exactly on a constraint."""
    out = []
    for region in regions:
        if not region.is_empty():
            for w in ([1] * n, [1 + i % 3 for i in range(n)]):
                out.append(tc.max_weighted_sum(region, w)[1])
    return out


def _nudged(points, rng, denominators):
    """Each point moved up or down by 1/q on one coordinate, for q in
    ``denominators``; the moved coordinate may turn negative."""
    out = []
    for p, q in zip(points, itertools.cycle(denominators)):
        j = rng.randrange(len(p))
        for sign in (1, -1):
            out.append(p[:j] + (p[j] + sign * Fraction(1, q),) + p[j + 1:])
    return out


def _with_zero_forced(points, regions, rng):
    """Points that satisfy a region except for one zero-forced coordinate."""
    out = []
    for p, region in zip(points, regions):
        forced = sorted(region.zero)
        if forced:
            j = region.users.index(rng.choice(forced))
            out.append(p[:j] + (Fraction(1, 10**9),) + p[j + 1:])
    return out


def _membership_cases(group):
    rng = random.Random(2015)
    if group == "c06-box":
        from tincell.sampling import sample_ctin_network

        for _ in range(6):
            net = sample_ctin_network(rng, 2, [rng.randint(1, 2), rng.randint(1, 2)])
            yield _union_list(net), _box_points(rng, net, 20)
    elif group == "vertices":
        for net in SEEDED_NETS[:2] + MIXED_NETS[:2]:
            regions = _union_list(net)
            vs = [tuple(v) for v in _vertices(regions, net.n_users)]
            yield regions, vs
    elif group == "zero-and-negative":
        for net in SEEDED_NETS[:2]:
            regions = [r for r in _union_list(net) if not r.is_empty()]
            vs = [tuple(tc.max_weighted_sum(r, [1] * net.n_users)[1]) for r in regions]
            yield regions, _with_zero_forced(vs, regions, rng) + _nudged(vs, rng, [1])
    elif group == "mixed":
        for net in MIXED_NETS:
            regions = _union_list(net)
            vs = [tuple(v) for v in _vertices(regions[:8], net.n_users)]
            yield regions, vs + _nudged(vs, rng, [10**900, 3 * 10**900, 7])
    elif group == "unlike-denominators":
        for net in SEEDED_NETS[:2]:
            D = net.scaled[0]
            regions = _union_list(net)
            vs = [tuple(v) for v in _vertices(regions, net.n_users)]
            qs = [q for q in (3, 7, 10**9) if D % q]
            assert len(qs) == 3
            thirds = [tuple(Fraction(rng.randint(0, 3 * 12), q) for _ in range(net.n_users))
                      for q in qs for _ in range(10)]
            yield regions, _nudged(vs, rng, qs) + thirds
    elif group == "ints":
        for net in SEEDED_NETS[:2] + MIXED_NETS[:1]:
            n = net.n_users
            points = [tuple(p) for p in itertools.product((0, 1, 2), repeat=n)]
            yield _union_list(net), points + [(-1,) + (0,) * (n - 1)]


MEMBERSHIP_GROUPS = ["c06-box", "vertices", "zero-and-negative", "mixed", "unlike-denominators", "ints"]


@pytest.mark.parametrize("group", MEMBERSHIP_GROUPS)
def test_contains_matches_the_fraction_reference(group):
    answers = collections.Counter()
    for regions, points in _membership_cases(group):
        assert points
        for region in regions:
            for p in points:
                got = tc.contains(region, p)
                assert got is _reference_contains(region, p), (region, p)
                answers[got] += 1
    assert answers[True] and answers[False], answers


def test_membership_cases_reach_the_boundary_and_the_checks():
    """The vertex group holds points on a constraint, and the nudged groups
    hold points decided by the zero-forced check alone and points just
    across a constraint."""
    (regions, vs), *_ = _membership_cases("vertices")
    tight = 0
    for region in regions:
        for v in vs:
            if _reference_contains(region, v):
                tight += any(sum(v[region.users.index(u)] for u in c.users) == c.bound
                             for c in region.constraints)
    assert tight
    zero_only = 0
    for regions, points in _membership_cases("zero-and-negative"):
        for region in regions:
            for p in points:
                cleared = tuple(0 if u in region.zero else x for u, x in zip(region.users, p))
                zero_only += min(p) >= 0 and not tc.contains(region, p) and tc.contains(region, cleared)
    assert zero_only


def test_tina_region_contains_reads_the_point_once(monkeypatch):
    net = SEEDED_NETS[1]
    seen = []

    def spy(region, d):
        seen.append(d)
        return contains(region, d)

    contains = tincell.regions.contains
    monkeypatch.setattr(tincell.regions, "contains", spy)
    point = [0.1] * net.n_users
    tc.tina_region_contains(net, point)
    assert len(seen) > 1 and all(d is seen[0] for d in seen)
    assert all(type(x) is Fraction for x in seen[0]) and seen[0][0] == Fraction(1, 10)


def _sum_region():
    """d1 + d2 <= 3/10 on two users of one cell."""
    users = (tc.UserId(1, 1), tc.UserId(1, 2))
    return tc.PolyhedralRegion(users, frozenset(), (tc.LinearConstraint(frozenset(users), Fraction(3, 10)),))


def test_contains_reads_floats_through_their_decimal_text():
    region = _sum_region()
    assert tc.contains(region, [0.1, 0.2])  # 0.1 + 0.2 > 0.3 in binary floats
    assert not tc.contains(region, [0.1, 0.2000001])
    assert tc.contains(region, np.array([0.1, 0.2]))
    assert tc.contains(region, np.array([0, 0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_membership_refuses_non_finite_coordinates(net_a, bad):
    with pytest.raises(ValueError, match="finite"):
        tc.contains(_sum_region(), [bad, 0])
    with pytest.raises(ValueError, match="finite"):
        tc.tina_region_contains(net_a, [bad, 0, 0])


def test_linear_constraint_reads_a_float_bound_exactly():
    users = frozenset({tc.UserId(1, 1)})
    assert tc.LinearConstraint(users, 0.3).bound == Fraction(3, 10)
    assert type(tc.LinearConstraint(users, 0.3).bound) is Fraction
    assert tc.LinearConstraint(users, np.float64(0.3)) == tc.LinearConstraint(users, Fraction(3, 10))
    assert tc.LinearConstraint(users, 2).bound == 2
    int_region = tc.PolyhedralRegion((tc.UserId(1, 1),), frozenset(), (tc.LinearConstraint(users, 1),))
    assert tc.contains(int_region, [1]) and not tc.contains(int_region, [Fraction(101, 100)])
    assert tc.PolyhedralRegion((tc.UserId(1, 1),), frozenset(), (tc.LinearConstraint(users, -0.1),)).is_empty()


# --- weighted sums ----------------------------------------------------------


def test_max_weighted_sum_net_a(net_a):
    value, arg = tc.max_weighted_sum(full_region(net_a), [1, 1, 1])
    assert value == Fraction(8, 5)
    assert sum(arg) == value
    assert tc.contains(full_region(net_a), arg)


def test_max_weighted_sum_unit_weight(net_a):
    value, arg = tc.max_weighted_sum(full_region(net_a), [0, 1, 0])
    assert value == 1
    assert arg[1] == 1


def test_max_weighted_sum_single_user():
    net = mknet([[[1.0]]])
    value, arg = tc.max_weighted_sum(full_region(net), [1])
    assert value == 1 and arg == (1,)


def test_max_weighted_sum_empty_region_raises():
    # strong cross link makes the cyclic bound negative
    net = mknet([[[0.5, 1.0]], [[1.0, 0.5]]])
    region = full_region(net)
    assert region.is_empty()
    with pytest.raises(tc.EmptyRegionError):
        tc.max_weighted_sum(region, [1, 1])


def test_max_weighted_sum_rejects_negative_weight(net_a):
    with pytest.raises(ValueError):
        tc.max_weighted_sum(full_region(net_a), [1, -1, 1])


def test_tina_max_weighted_sum_skips_empty(net_a):
    value, arg, (order, subnet) = tc.tina_max_weighted_sum(net_a, [1, 1, 1])
    assert value == Fraction(8, 5)


# --- regime classification --------------------------------------------------


def test_classify_net_a_tin(net_a):
    assert tc.classify_regime(net_a) is tc.RegimeLabel.TIN


def test_classify_net_b_ctin_only(net_b):
    assert tc.classify_regime(net_b) is tc.RegimeLabel.CTIN_ONLY


def test_classify_single_cell_tin():
    assert tc.classify_regime(mknet([[[0.4], [0.9]]])) is tc.RegimeLabel.TIN


def test_classify_general():
    net = mknet([[[0.5, 1.0]], [[1.0, 0.5]]])
    assert tc.classify_regime(net) is tc.RegimeLabel.GENERAL


def test_implied_conditions_net_a(net_a):
    assert tc.implied_conditions_hold(net_a, tc.RegimeLabel.TIN)


def test_implied_conditions_net_b(net_b):
    assert tc.implied_conditions_hold(net_b, tc.RegimeLabel.CTIN_ONLY)


def test_implied_conditions_rejects_general(net_a):
    with pytest.raises(tc.PreconditionError):
        tc.implied_conditions_hold(net_a, tc.RegimeLabel.GENERAL)


@given(nets())
@settings(max_examples=150, deadline=None)
def test_tin_implies_ctin(net):
    if tc.tin_conditions_hold(net):
        assert tc.ctin_conditions_hold(net)


@given(nets())
@settings(max_examples=150, deadline=None)
def test_labels_imply_remaining_user_conditions(net):
    label = tc.classify_regime(net)
    if label in (tc.RegimeLabel.TIN, tc.RegimeLabel.CTIN_ONLY):
        assert tc.implied_conditions_hold(net, label)


# Reference copies of the pairwise regime loops, kept as an independent route:
# the package checks the convex in-cell condition on adjacent slots only and
# states the cross-cell inequality once.


def _ref_ctin(net):
    K = net.K
    for i in range(1, K + 1):
        Li = net.L[i - 1]
        for j in [c for c in range(1, K + 1) if c != i]:
            for l in range(2, Li + 1):
                for lp in range(1, l):
                    if net.direct(i, l) - net.strength(i, l, j) < net.direct(i, lp) - net.strength(i, lp, j):
                        return False
            for k in range(1, K + 1):
                if k == i:
                    continue
                for lk in range(1, net.L[k - 1] + 1):
                    rhs = net.strength(i, 1, j) + net.strength(k, lk, i)
                    if k != j:
                        rhs -= net.strength(k, lk, j)
                    if net.direct(i, 1) < rhs:
                        return False
    return True


def _ref_tin(net):
    K = net.K
    for i in range(1, K + 1):
        Li = net.L[i - 1]
        for j in [c for c in range(1, K + 1) if c != i]:
            for l in range(2, Li + 1):
                for lp in range(1, l):
                    a_l = net.direct(i, l)
                    cross_l = net.strength(i, l, j)
                    branch_a = a_l >= cross_l + net.direct(i, lp)
                    branch_b = a_l >= 2 * cross_l + net.direct(i, lp) - net.strength(i, lp, j)
                    if not (branch_a or branch_b):
                        return False
            for k in range(1, K + 1):
                if k == i:
                    continue
                for lk in range(1, net.L[k - 1] + 1):
                    if net.direct(i, 1) < net.strength(i, 1, j) + net.strength(k, lk, i):
                        return False
    return True


def _ref_implied(net, label):
    K = net.K
    for i in range(1, K + 1):
        for j in [c for c in range(1, K + 1) if c != i]:
            for k in range(1, K + 1):
                if k == i:
                    continue
                for li in range(1, net.L[i - 1] + 1):
                    for lk in range(1, net.L[k - 1] + 1):
                        rhs = net.strength(i, li, j) + net.strength(k, lk, i)
                        if label is tc.RegimeLabel.CTIN_ONLY and k != j:
                            rhs -= net.strength(k, lk, j)
                        if net.direct(i, li) < rhs:
                            return False
    return True


@st.composite
def shuffled_nets(draw, **kwargs):
    """nets() with each cell's slots permuted, so direct links need not ascend."""
    net = draw(nets(**kwargs))
    alpha = [
        [list(net.alpha[k][l]) for l in draw(st.permutations(range(lk)))]
        for k, lk in enumerate(net.L)
    ]
    return tc.ChannelStrengths.from_rows(net.K, net.L, alpha)


@given(st.one_of(nets(max_num=20), shuffled_nets(max_num=20)))
@settings(max_examples=300, deadline=None)
def test_regime_conditions_match_pairwise_reference(net):
    assert tc.ctin_conditions_hold(net) == _ref_ctin(net)
    assert tc.tin_conditions_hold(net) == _ref_tin(net)
    for label in (tc.RegimeLabel.TIN, tc.RegimeLabel.CTIN_ONLY):
        assert tc.implied_conditions_hold(net, label) == _ref_implied(net, label)


def test_regime_conditions_match_reference_on_one_sided_grid():
    # Two cells with (3, 1) users and no interference into cell 1, so the
    # strict regime turns on cell 1's in-cell condition.  Every cell 1 on the
    # 1/2 grid, most with non-ascending direct links; a random draw rarely
    # hits the few where only a non-adjacent slot pair fails.
    grid = (0, Fraction(1, 2), 1)
    for values in itertools.product(grid, repeat=6):
        cell1 = [list(values[0:2]), list(values[2:4]), list(values[4:6])]
        net = tc.ChannelStrengths.from_rows(2, [3, 1], [cell1, [[0, 1]]])
        assert tc.ctin_conditions_hold(net) == _ref_ctin(net)
        assert tc.tin_conditions_hold(net) == _ref_tin(net)


def test_tin_in_cell_condition_keeps_non_adjacent_pairs():
    # Directs (3/20, 1/20, 3/4) do not ascend: both adjacent pairs pass the
    # two-branch test but the pair (3, 1) fails it.
    net = mknet([[[0.15, 0.1], [0.05, 0.0], [0.75, 0.7]], [[0.0, 1.0]]])
    assert not tc.tin_conditions_hold(net) and not _ref_tin(net)
    assert tc.classify_regime(net) is tc.RegimeLabel.CTIN_ONLY


# --- outer bound ------------------------------------------------------------


def test_outer_bound_matches_region_net_a(net_a):
    outer = tc.outer_bound_region(net_a)
    inner = full_region(net_a)
    assert outer.constraint_set() == inner.constraint_set()
    assert len(outer.constraints) == len(inner.constraints)


def test_outer_bound_single_cell_prefices():
    net = mknet([[[0.4], [0.9]]])
    outer = tc.outer_bound_region(net)
    assert outer.constraint_set() == {
        (frozenset({tc.UserId(1, 1)}), Fraction(2, 5)),
        (frozenset({tc.UserId(1, 1), tc.UserId(1, 2)}), Fraction(9, 10)),
    }


def test_outer_bound_refuses_outside_regime(net_b):
    with pytest.raises(tc.PreconditionError):
        tc.outer_bound_region(net_b)


# --- CTIN collapse (sampled) -------------------------------------------------


def test_ctin_collapse_on_samples():
    rng = random.Random(11)
    from tincell.sampling import sample_ctin_network

    for _ in range(12):
        net = sample_ctin_network(rng, 2, [rng.randint(1, 2), rng.randint(1, 2)])
        hull = full_region(net)
        # vertices of every smaller region stay inside the identity-order hull
        for subnet in _all_subnetworks(net):
            for order in _all_suborders(subnet):
                region = tc.polyhedral_region(net, order, subnet)
                if region.is_empty():
                    continue
                for w in ([1] * net.n_users, [1, 0, 2, 5][: net.n_users]):
                    if len(w) < net.n_users:
                        continue
                    _, arg = tc.max_weighted_sum(region, w)
                    assert tc.contains(hull, arg)


def test_union_exceeds_hull_outside_convex_regime():
    # non-convexity is real: pick a net where strong mutual cross links make
    # the full-participation hull empty while single-cell schemes survive
    net = mknet([[[0.5, 1.0]], [[1.0, 0.5]]])
    assert tc.classify_regime(net) is tc.RegimeLabel.GENERAL
    full = tc.Subnetwork.full(net)
    hull = tc.polyhedral_region(net, tc.identity_suborder(full), full)
    assert hull.is_empty()
    value, arg, (order, subnet) = tc.tina_max_weighted_sum(net, [1, 1])
    assert value == Fraction(1, 2)  # one cell at a time still works
    assert subnet.size() == 1


# --- interference-alignment report -------------------------------------------


def ia_net(a1, a2, b1, b2, g1, g2):
    return mknet([[[a1, a2], [b1, b2]], [[g1, g2]]])


def test_ia_fixture_values():
    rep = tc.ia_sum_gdof(ia_net(1.0, 0.5, 1.2, 0.4, 0.2, 1.0))
    assert rep.d_tina == Fraction(8, 5)
    assert rep.gamma_ia == Fraction(1, 10)
    assert rep.d_ia == Fraction(17, 10)
    assert rep.applicable


def test_ia_not_applicable_in_tin_regime(net_a):
    rep = tc.ia_sum_gdof(net_a)
    assert not rep.applicable


def test_ia_boundary_gain_collapses():
    # b1 - b2 == a1 - a2 makes the gain zero and the scheme inapplicable
    rep = tc.ia_sum_gdof(ia_net(1.0, 0.5, 1.0, 0.5, 0.2, 1.0))
    assert rep.gamma_ia == 0
    assert not rep.applicable
    assert rep.d_ia == rep.d_tina


def test_ia_wrong_shape_raises(net_b, bc2):
    with pytest.raises(tc.PreconditionError):
        tc.ia_sum_gdof(bc2)


def test_ia_dominates_lp_when_applicable():
    net = ia_net(1.0, 0.5, 1.2, 0.4, 0.2, 1.0)
    rep = tc.ia_sum_gdof(net)
    value, _ = tc.max_weighted_sum(full_region(net), [1, 1, 1])
    assert rep.d_tina == value
    assert rep.d_ia > value


# --- user partition ----------------------------------------------------------


def test_partition_all_more_noisy(net_a):
    part = tc.partition_users(net_a, 1, 2, 2)
    assert part.more_noisy == (1, 2)
    assert part.not_more_noisy == ()


def test_partition_with_not_more_noisy(net_b):
    part = tc.partition_users(net_b, 1, 2, 2)
    assert part.more_noisy == (2,)
    assert part.not_more_noisy == (1,)


def test_partition_count_one(net_a):
    part = tc.partition_users(net_a, 1, 2, 1)
    assert part.more_noisy == (1,)
    assert part.not_more_noisy == ()


def test_partition_rejects_same_cell(net_a):
    with pytest.raises(tc.PreconditionError):
        tc.partition_users(net_a, 1, 1, 2)


def test_partition_order_empty_chain_true(net_a):
    part = tc.partition_users(net_a, 1, 2, 2)
    assert tc.partition_order_holds(net_a, part)


def test_partition_order_nonempty_chain(net_c):
    assert tc.classify_regime(net_c) is tc.RegimeLabel.TIN
    part = tc.partition_users(net_c, 1, 2, 2)
    assert part.not_more_noisy == (1,)
    assert tc.partition_order_holds(net_c, part)


def test_partition_order_random_tin_networks():
    rng = random.Random(5)
    from tincell.sampling import sample_tin_network

    nonempty_seen = 0
    for _ in range(25):
        K = rng.choice([2, 3])
        net = sample_tin_network(rng, K, [rng.randint(1, 3) for _ in range(K)])
        for i in range(1, K + 1):
            for p in range(1, K + 1):
                if p == i:
                    continue
                for count in range(1, net.L[i - 1] + 1):
                    part = tc.partition_users(net, i, p, count)
                    nonempty_seen += bool(part.not_more_noisy)
                    assert tc.partition_order_holds(net, part)
    # the sampler must exercise the nontrivial branch at least sometimes
    assert nonempty_seen > 0
