"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.  Every tolerance is pinned here; exact checks use rational
arithmetic end to end.  All randomness is seeded, so the suite is
deterministic.
"""

import math
import random
from fractions import Fraction

import numpy as np

import tincell as tc
from tincell.adt import (
    AdtDistribution,
    AdtParams,
    random_product_dists,
    regime_params,
)
from tincell.sampling import (
    random_dims,
    random_network,
    random_strategy,
    sample_ctin_network,
    sample_ia_applicable_network,
    sample_tin_network,
)


def _verdict(num, name, passed, detail=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _net_21(rng, denom=100):
    """K=2, L=(2,1) network on the 1/denom grid with entries in [0, 2]."""

    def g():
        return Fraction(rng.randint(0, 2 * denom), denom)

    d = sorted([g(), g()])
    return tc.ChannelStrengths.from_rows(
        2, [2, 1], [[[d[0], g()], [d[1], g()]], [[g(), g()]]]
    )


ONES_3 = [1, 1, 1]


# --- criterion 1: forward duality inclusion ----------------------------------


def test_c01_duality_forward_inclusion():
    rng = random.Random(101)
    violations = 0
    for _ in range(500):
        K, L = random_dims(rng)
        net = random_network(rng, K, L)
        for _ in range(5):
            s = random_strategy(rng, net, "ibc")
            dl = tc.gdof_bounds_ibc(net, s.order, s.power)
            dual = tc.dualize_ibc_to_imac(net, s.order, s.power)
            ul = tc.gdof_bounds_imac(net, s.order, dual)
            if not all(u >= d for u, d in zip(ul, dl)):
                violations += 1
    _verdict(1, "duality inclusion, downlink to uplink", violations == 0,
             f"2500 strategies, {violations} violations")


# --- criterion 2: backward duality inclusion ---------------------------------


def test_c02_duality_backward_inclusion():
    rng = random.Random(102)
    violations = 0
    for _ in range(500):
        K, L = random_dims(rng)
        net = random_network(rng, K, L)
        for _ in range(5):
            s = random_strategy(rng, net, "imac")
            order, power = tc.normalize_imac_strategy(net, s.order, s.power)
            ul = tc.gdof_bounds_imac(net, order, power)
            dual = tc.dualize_imac_to_ibc(net, order, power, normalize=False)
            dl = tc.gdof_bounds_ibc(net, order, dual)
            if not all(d >= u for d, u in zip(dl, ul)):
                violations += 1
    _verdict(2, "duality inclusion, uplink to downlink", violations == 0,
             f"2500 normalized strategies, {violations} violations")


# --- criterion 3: both directions agree at grid scale -------------------------


def test_c03_grid_scale_duality():
    rng = random.Random(103)
    worst = 0.0
    for _ in range(20):
        net = _net_21(rng)
        grid = tc.GridSpec(step=Fraction(1, 20), depth=net.max_strength() + 1)
        dl = tc.oracle_max_sum(net, "ibc", ONES_3, grid, mode="exact")
        ul = tc.oracle_max_sum(net, "imac", ONES_3, grid, mode="exact")
        worst = max(worst, abs(float(dl - ul)))
    _verdict(3, "downlink/uplink oracle max-sums agree", worst <= 0.2,
             f"worst gap {worst:.4f} <= 0.2")


# --- criterion 4: every oracle point lies in the region union -----------------


def test_c04_oracle_points_inside_region_union():
    rng = random.Random(104)
    checked = 0
    violations = 0
    for _ in range(20):
        net = _net_21(rng)
        grid = tc.GridSpec(step=Fraction(1, 20), depth=net.max_strength() + 1)
        for point in sorted(tc.grid_achievable_points(net, "ibc", grid, mode="exact")):
            checked += 1
            ok, _ = tc.tina_region_contains(net, point)
            if not ok:
                violations += 1
    _verdict(4, "oracle soundness, exact membership", violations == 0,
             f"{checked} points, {violations} violations")


# --- criterion 5: completeness at grid scale, improving with resolution -------


def test_c05_oracle_completeness_gap():
    rng = random.Random(105)
    worst_gap = 0.0
    monotone = True
    nonnegative = True
    for _ in range(20):
        net = _net_21(rng)
        lp, _, _ = tc.tina_max_weighted_sum(net, ONES_3)
        depth = net.max_strength() + 1
        coarse = tc.oracle_max_sum(
            net, "ibc", ONES_3, tc.GridSpec(Fraction(1, 20), depth), mode="exact")
        fine = tc.oracle_max_sum(
            net, "ibc", ONES_3, tc.GridSpec(Fraction(1, 40), depth), mode="exact")
        gap_coarse = lp - coarse
        gap_fine = lp - fine
        nonnegative &= gap_fine >= 0 and gap_coarse >= 0
        monotone &= gap_fine <= gap_coarse
        worst_gap = max(worst_gap, float(gap_coarse))
    _verdict(5, "oracle completeness at grid scale",
             worst_gap <= 0.2 and monotone and nonnegative,
             f"worst gap {worst_gap:.4f} <= 0.2, halving step never widens it")


# --- criterion 6: convex-regime collapse to the identity-order hull -----------


def test_c06_convex_regime_collapse():
    rng = random.Random(106)
    discrepancies = 0
    tested = 0
    for _ in range(200):
        L = [rng.randint(1, 2), rng.randint(1, 2)]
        net = sample_ctin_network(rng, 2, L)
        full = tc.Subnetwork.full(net)
        hull = tc.polyhedral_region(net, tc.identity_suborder(full), full)
        box = [net.direct(u.cell, u.slot) + Fraction(1, 10) for u in net.users()]
        for _ in range(100):
            d = tuple(
                Fraction(rng.randint(0, int(top * 100)), 100) for top in box
            )
            tested += 1
            in_union, _ = tc.tina_region_contains(net, d)
            in_hull = tc.contains(hull, d)
            if in_union != in_hull:
                discrepancies += 1
    _verdict(6, "convex-regime union equals identity hull", discrepancies == 0,
             f"{tested} membership pairs, {discrepancies} discrepancies")


# --- criterion 7: converse region equals the achievable hull ------------------


def test_c07_outer_bound_identity():
    # the outer bound is built by the achievable-region builder, so the
    # constraint-set comparison alone is not a cross-check; two partners
    # that never call polyhedral_region back it up
    rng = random.Random(107)
    mismatches = 0
    converse_checks = 0
    converse_violations = 0
    for _ in range(200):
        K, L = random_dims(rng)
        net = sample_tin_network(rng, K, L)
        outer = tc.outer_bound_region(net)
        full = tc.Subnetwork.full(net)
        inner = tc.polyhedral_region(net, tc.identity_suborder(full), full)
        if outer.constraint_set() != inner.constraint_set():
            mismatches += 1
        # converse: every strategy's bounds lie inside the outer bound
        for side in ("ibc", "imac"):
            for _ in range(5):
                s = random_strategy(rng, net, side)
                converse_checks += 1
                if not tc.contains(outer, tc.gdof_bounds(net, s)):
                    converse_violations += 1
    # tightness: the outer bound's weighted-sum maximum exceeds the exact
    # grid oracle's by at most the c05 tolerance per unit weight
    worst = Fraction(0)
    oracle_above = 0
    comparisons = 0
    for L in ([2, 1], [1, 2], [1, 1], [1, 1, 1]):
        for _ in range(5):
            net = sample_tin_network(rng, len(L), L)
            outer = tc.outer_bound_region(net)
            grid = tc.GridSpec(Fraction(1, 20), net.max_strength() + 1)
            n = net.n_users
            weights = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
            for w in weights:
                if not any(w):
                    w[0] = 1
                lp, _ = tc.max_weighted_sum(outer, w)
                for side in ("ibc", "imac"):
                    gap = (lp - tc.oracle_max_sum(net, side, w, grid, mode="exact")) / max(w)
                    comparisons += 1
                    oracle_above += gap < 0
                    worst = max(worst, gap)
    _verdict(7, "converse constraints match achievable hull",
             mismatches == 0 and converse_violations == 0 and oracle_above == 0
             and worst <= Fraction(1, 5),
             f"200 networks, {mismatches} mismatches; {converse_checks} strategies, "
             f"{converse_violations} outside; {comparisons} max-sums, {oracle_above} "
             f"above the bound, worst gap {float(worst):.4f} <= 0.2 per unit weight")


# --- criterion 8: interference-alignment gain ---------------------------------


def test_c08_alignment_gain():
    fixture = tc.ChannelStrengths.from_rows(
        2, [2, 1],
        [[[Fraction(1), Fraction(1, 2)], [Fraction(6, 5), Fraction(2, 5)]],
         [[Fraction(1, 5), Fraction(1)]]],
    )
    rep = tc.ia_sum_gdof(fixture)
    exact_ok = (
        rep.d_tina == Fraction(8, 5)
        and rep.gamma_ia == Fraction(1, 10)
        and rep.d_ia == Fraction(17, 10)
        and rep.applicable
    )
    grid = tc.GridSpec(Fraction(1, 20), fixture.max_strength() + 1)
    oracle_sum = tc.oracle_max_sum(fixture, "ibc", ONES_3, grid, mode="exact")
    oracle_ok = oracle_sum <= Fraction(8, 5) + Fraction(3, 20)

    rng = random.Random(108)
    positive = 0
    for _ in range(100):
        net = sample_ia_applicable_network(rng)
        r = tc.ia_sum_gdof(net)
        if r.applicable and r.gamma_ia > 0 and r.d_ia > r.d_tina:
            positive += 1
    _verdict(8, "alignment gain values and positivity",
             exact_ok and oracle_ok and positive == 100,
             f"fixture exact, oracle sum {float(oracle_sum):.3f} <= 1.75, "
             f"{positive}/100 sampled gains positive")


# --- criterion 9: partition chain conditions in the strict regime -------------


def test_c09_partition_chain_conditions():
    rng = random.Random(109)
    failures = 0
    triples = 0
    nonempty = 0
    for _ in range(200):
        K, L = random_dims(rng)
        net = sample_tin_network(rng, K, L)
        for i in range(1, K + 1):
            for p in range(1, K + 1):
                if p == i:
                    continue
                for count in range(1, net.L[i - 1] + 1):
                    part = tc.partition_users(net, i, p, count)
                    triples += 1
                    nonempty += bool(part.not_more_noisy)
                    if not tc.partition_order_holds(net, part):
                        failures += 1
    _verdict(9, "noisiness chain holds in strict regime",
             failures == 0 and nonempty > 0,
             f"{triples} triples ({nonempty} with nonempty chains), {failures} failures")


# --- criteria 10/11: deterministic-model information inequalities -------------


def test_c10_deterministic_less_noisy():
    params = AdtParams(3, 1, 4, 1)
    rng = np.random.default_rng(110)
    dists = [AdtDistribution.uniform(params.q)] + random_product_dists(params.q, 1000, rng)
    report = tc.check_less_noisy(params, dists)
    _verdict(10, "deterministic less-noisy inequality",
             report.min_slack >= -1e-9,
             f"params (3,1,4,1), 1001 distributions, min slack {report.min_slack:.2e}")


def test_c11_deterministic_entropy_difference():
    params = AdtParams(4, 2, 4, 1)
    rng = np.random.default_rng(111)
    dists = [AdtDistribution.uniform(params.q)] + random_product_dists(params.q, 1000, rng)
    report = tc.check_entropy_diff(params, dists)
    main_ok = report.min_slack >= -1e-9  # equivalent to max diff <= 1 + 1e-9

    sweep_ok = True
    sweep = regime_params(6, "entropydiff")
    for p in sweep:
        size = 1 << p.q
        batch = [AdtDistribution.uniform(p.q)]
        batch += random_product_dists(p.q, 30, rng)
        batch += [
            AdtDistribution.point(p.q, int(rng.integers(size)), int(rng.integers(size)))
            for _ in range(10)
        ]
        if not tc.check_entropy_diff(p, batch).passed:
            sweep_ok = False
            break
    _verdict(11, "deterministic entropy-difference bound",
             main_ok and sweep_ok,
             f"params (4,2,4,1) min slack {report.min_slack:.2e}; "
             f"sweep over {len(sweep)} regime-valid parameter tuples")


# --- criterion 12: finite-SNR rates approach the GDoF bounds ------------------


def test_c12_finite_snr_convergence():
    net = tc.ChannelStrengths.from_rows(1, [2], [[[Fraction(3, 5)], [Fraction(1)]]])
    order = tc.DecodingOrder.identity(net.L)
    power = tc.PowerAllocation(((Fraction(0), Fraction(-3, 5)),))
    bounds = [float(b) for b in tc.gdof_bounds_ibc(net, order, power)]
    gaps = []
    for P in (1e6, 1e12, 1e20):
        pairs = tc.sinr_rates_ibc(net, order, power, tc.FiniteSnrConfig(P=P))
        log2p = math.log2(P)
        gaps.append([abs(rate / log2p - b) for (_, rate), b in zip(pairs, bounds)])
    final_ok = all(g <= 0.05 for g in gaps[-1])
    monotone = all(
        gaps[i + 1][u] <= gaps[i][u] for i in range(len(gaps) - 1) for u in range(2)
    )
    _verdict(12, "finite-SNR normalized rates converge",
             final_ok and monotone,
             f"final per-user gaps {['%.4f' % g for g in gaps[-1]]} <= 0.05, nonincreasing")


def test_c12_finite_snr_constant_gap():
    """Every user's rate lies within a P-independent gap of ``g log2 P``.

    User u in cell k, decoded at position l, with its codeword power
    ``q_u = P**r_u / L_k``, has the SINR ``S_u = min_m P**a_m q_u / D_m``
    over its observers m (at positions >= l), where
    ``D_m = 1 + P**a_m Q_later + sum_{j != k} P**s_mj Q_j``: ``Q_later`` sums
    the powers decoded after u and ``Q_j`` those of cell j.  The GDoF pass
    gives ``g_u = max(0, min_m pre_m)`` with ``pre_m = a_m + r_u - M_m`` and
    ``M_m = max(0, a_m + later, s_mj + top_j)``, ``later`` and ``top_j``
    the largest exponents in those sums.

    Lower side.  Each power is at most ``P**r / L``, and a sum of at most
    ``L`` of them is at most ``P**(its largest r)``.  So each of the
    ``K + 1`` groups of ``D_m`` (the noise, the later same-cell powers and
    the ``K - 1`` other cells) is at most ``P**M_m``, and
    ``S_u >= P**pre / ((K + 1) L_k)``.  Then
    ``rate >= log2 S_u >= g log2 P - log2((K + 1) L_k)`` when ``g > 0``, and
    ``rate >= 0`` covers ``g = 0``.

    Upper side.  ``D_m`` is at least its largest term, and each term is at
    least ``P**(its exponent) / max L``, so ``D_m >= P**M_m / max L`` and
    ``S_u <= max L * P**pre`` (``L_k >= 1``).  With ``pre <= g``,
    ``rate = log2(1 + S_u) <= log2((1 + max L) P**g)``.  A SILENT user has
    ``g = 0`` and rate 0, inside both sides.
    """
    rng = random.Random(112)
    cases = []
    for _ in range(600):
        net = random_network(rng, *random_dims(rng))
        cases += [(net, random_strategy(rng, net, "ibc")) for _ in range(2)]
    for shape in ((3, 3, 2), (2, 2, 2, 2)):
        for _ in range(20):
            net = random_network(rng, len(shape), list(shape))
            cases += [(net, random_strategy(rng, net, "ibc")) for _ in range(2)]
        for _ in range(5):
            net = sample_tin_network(rng, len(shape), list(shape))
            cases += [(net, random_strategy(rng, net, "ibc")) for _ in range(4)]
    pairs = violations = 0
    low_margin = high_margin = math.inf
    for net, s in cases:
        bounds = tc.gdof_bounds_ibc(net, s.order, s.power)
        cells = [u.cell for u in net.users()]
        max_l = max(net.L)
        for P in (1e2, 1e5, 1e12, 1e30, 1e60):
            log2p = math.log2(P)
            rates = tc.sinr_rates_ibc(net, s.order, s.power, tc.FiniteSnrConfig(P=P))
            for (_, rate), g, k in zip(rates, bounds, cells):
                lo = float(g) * log2p - math.log2((net.K + 1) * net.L[k - 1])
                hi = float(g) * log2p + math.log2(1 + max_l)
                pairs += 1
                if not lo <= rate <= hi + 1e-9:
                    violations += 1
                low_margin = min(low_margin, rate - lo)
                high_margin = min(high_margin, hi - rate)
    _verdict(12, "finite-SNR rates within a constant gap of the GDoF bounds",
             violations == 0,
             f"{pairs} (user, P) pairs, {violations} outside; "
             f"closest {low_margin:.3g} bits above the lower side, {high_margin:.3g} below the upper")


# --- criterion 13: classifier self-consistency --------------------------------


def test_c13_classifier_consistency():
    rng = random.Random(113)
    counterexamples = 0
    labels = {label: 0 for label in tc.RegimeLabel}
    for _ in range(10**4):
        K, L = random_dims(rng)
        # mix broad draws with regime-biased draws so all labels appear
        if rng.random() < 0.5:
            net = random_network(rng, K, L)
        else:
            net = random_network(
                rng, K, L,
                direct_range=(Fraction(1), Fraction(2)),
                cross_range=(Fraction(0), Fraction(1, 2)),
            )
        label = tc.classify_regime(net)
        labels[label] += 1
        if label is tc.RegimeLabel.TIN and not tc.ctin_conditions_hold(net):
            counterexamples += 1
        if label in (tc.RegimeLabel.TIN, tc.RegimeLabel.CTIN_ONLY):
            if not tc.implied_conditions_hold(net, label):
                counterexamples += 1
    seen_all = all(labels[label] > 0 for label in tc.RegimeLabel)
    _verdict(13, "regime classifier consistency",
             counterexamples == 0 and seen_all,
             f"10000 networks, {counterexamples} counterexamples, "
             f"label counts {[labels[l] for l in tc.RegimeLabel]}")
