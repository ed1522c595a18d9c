import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

import riskdist as rd
from riskdist.ensembles import (
    derive_rng,
    drifting_mixture_sequence,
    extremal_pair,
    random_capacity,
    random_capacity_measure,
    random_measure,
    random_two_point_params,
)
from riskdist.cli import main
from riskdist.coupling import CouplingWitness
from riskdist.errors import AxiomFailure
from riskdist.measures import evaluate_values
from riskdist.metric import (
    lipschitz_control_check,
    metric_axiom_audit,
    reverify_failure,
)
from riskdist.space import sublevel_relation

F = Fraction


class TestBottleneckDistance:
    def test_self_distance_is_zero(self, p3):
        rng = derive_rng(1, "self")
        for _ in range(6):
            mu = random_measure(p3, rng)
            if not rd.verify_axioms(mu, seed=1).ok:
                continue
            assert rd.bottleneck_distance(mu, mu, seed=1).value == 0

    def test_point_masses_extend_the_base_metric(self, p3):
        res = rd.bottleneck_distance(rd.dirac(p3, "a"), rd.dirac(p3, "c"))
        assert res.value == 2 and res.certification == "exact"

    def test_certification_follows_the_chosen_tier(self, p3):
        uniform = (F(1, 3),) * 3
        cv = rd.choquet_measure(rd.cvar(p3, uniform, F(1, 2)))
        lattice = rd.lattice_max(
            [rd.dirac(p3, "a"), rd.choquet_measure(rd.expectation(p3, uniform))]
        )
        res = rd.bottleneck_distance(cv, lattice)
        assert res.tier == "exact-lattice" and res.certification == "exact"
        # a black-box copy of the lattice has no normal form: sampled tier
        copy = rd.black_box(p3, lattice.evaluator, name="max")
        res = rd.bottleneck_distance(cv, copy)
        assert res.tier == "witness-found" and res.certification == "sampled"
        rng = derive_rng(2, "certification")
        for _ in range(6):
            mu1 = random_capacity_measure(p3, rng)
            mu2 = random_capacity_measure(p3, rng)
            res = rd.bottleneck_distance(mu1, mu2)
            assert res.tier == "exact-choquet" and res.certification == "exact"

    def test_expectations_match_the_transport_oracle(self, p3):
        mu1 = rd.choquet_measure(rd.expectation(p3, (F(1), F(0), F(0))))
        mu2 = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(0), F(1, 2))))
        assert rd.bottleneck_distance(mu1, mu2).value == 2

    def test_min_measure_to_point_mass_is_eccentricity(self, p3):
        mu = rd.choquet_measure(rd.unanimity(p3), name="min")
        res = rd.bottleneck_distance(mu, rd.dirac(p3, "b"))
        assert res.value == 1
        assert rd.verify_coupling(res.witness, seed=0).ok

    def test_ladder_has_single_switch(self, cycle4):
        rng = derive_rng(3, "ladder")
        for _ in range(10):
            mu1 = random_capacity_measure(cycle4, rng)
            mu2 = random_capacity_measure(cycle4, rng)
            res = rd.bottleneck_distance(mu1, mu2)
            statuses = [s for _, s, _ in res.ladder]
            assert statuses[-1] == "feasible"
            assert all(s == "infeasible" for s in statuses[:-1])
            # explicit full-ladder scan: feasibility is monotone in the level
            for level in rd.distance_levels(cycle4):
                verdict = rd.admissible(
                    mu1, mu2, rd.sublevel_relation(cycle4, level)
                )
                assert verdict.feasible == (level >= res.value)

    def test_witness_cost_equals_value(self, p3):
        rng = derive_rng(5, "witness-cost")
        for _ in range(8):
            mu1 = random_capacity_measure(p3, rng)
            mu2 = random_capacity_measure(p3, rng)
            res = rd.bottleneck_distance(mu1, mu2)
            assert res.witness.cost() == res.value
            assert rd.verify_coupling(res.witness, seed=0).ok

    def test_axiom_gate(self, p3):
        bad = rd.black_box(p3, lambda v: v[0] - v[1], name="bad")
        with pytest.raises(AxiomFailure):
            rd.bottleneck_distance(bad, rd.dirac(p3, "a"), seed=2)

    def test_family_pair_two_point_ladder(self, two_point):
        # ladder on a two-point space is {0, d}; members differing only in
        # the shape function are distinct (phi1 against the mean), so level
        # 0 is refuted and the pair sits at d, both decided exactly
        base = (F(1, 2), F(1, 2), F(0), F(0))
        zeros = (F(0),) * 4
        mu_f = rd.two_point_measure(
            two_point, rd.TwoPointParams(base, zeros, rd.ShapeFunction.identity())
        )
        mu_g = rd.two_point_measure(
            two_point, rd.TwoPointParams(base, zeros, rd.ShapeFunction.zero())
        )
        res = rd.bottleneck_distance(mu_f, mu_g, seed=4)
        assert res.value == F(5, 2)
        assert res.tier == "exact-two-point" and res.certification == "exact"
        assert [tier for _, _, tier in res.ladder] == ["exact-two-point"] * 2

    def test_members_equal_at_every_probe_are_told_apart(self, two_point):
        # g1 = g2 wherever t is an integer or +-5/2, which is every probe
        # of the refutation grid; they differ at t = 1/2 (1/4 against 3/8)
        base = (F(1, 2), F(1, 2), F(0), F(0))
        zeros = (F(0),) * 4
        f1 = ((F(-1), F(0)), (F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1, 2)))
        f2 = ((F(-1), F(0)), (F(0), F(0)), (F(1), F(1, 2)), (F(2), F(3, 2)))
        mu1, mu2 = (
            rd.two_point_measure(two_point, rd.TwoPointParams(base, zeros, rd.ShapeFunction(f)))
            for f in (f1, f2)
        )
        assert rd.verify_axioms(mu1).ok and rd.verify_axioms(mu2).ok
        assert [evaluate_values(mu, (F(0), F(1, 2))) for mu in (mu1, mu2)] == [F(1, 4), F(3, 8)]
        res = rd.bottleneck_distance(mu1, mu2)
        assert (res.value, res.tier, res.certification) == (F(5, 2), "exact-two-point", "exact")

    def test_a_ladder_scan_prepares_its_pair_once(self, monkeypatch):
        # however many levels one distance scans, each table of the pair is
        # lifted to the pair's scale once and read through each level's
        # inner masks at most once, each lattice builds its indicator table
        # once, when it is built, and a second scan on the space builds no
        # inner masks (an earlier scan in the process may have built them
        # all); a lone pair is a pool of two, which dies with its scan
        from conftest import make_star5
        from riskdist import coupling, measures, space as space_module

        counts = Counter()
        for module, name in (
            (coupling, "times"),
            (measures, "lift"),
            (space_module, "_inner_table"),
        ):
            counting(monkeypatch, counts, module, name)
        counting_reads(monkeypatch, counts)
        star5 = make_star5()
        uniform = rd.choquet_measure(rd.expectation(star5, (F(1, 5),) * 5))
        mu1 = rd.lattice_max([rd.dirac(star5, "o"), uniform])
        mu2 = rd.lattice_min([rd.dirac(star5, "s"), rd.dirac(star5, "r")])
        assert counts["riskdist.measures", "lift"] == 2  # one table per lattice
        result = rd.bottleneck_distance(mu1, mu2)
        assert result.tier == "exact-lattice" and len(result.ladder) >= 4
        tables = 6  # the two lattices' tables and their four parts'
        assert counts["riskdist.coupling", "times"] == tables
        assert counts["inner reads"] <= tables * len(result.ladder)
        assert counts["riskdist.measures", "lift"] == 2
        built = counts["riskdist.space", "_inner_table"]
        assert built <= 2 * len(result.ladder)
        assert rd.bottleneck_distance(mu2, mu1).ladder == result.ladder
        assert counts["riskdist.coupling", "times"] == 2 * tables
        assert counts["riskdist.space", "_inner_table"] == built

    def test_every_ladder_row_is_the_verdict_of_admissible(self):
        # the scan decides exact routes by ``refutes`` alone; each row is
        # still what ``admissible`` gives at that level, and the witness the
        # lower extension at the answer
        from conftest import fixture_spaces

        tiers = Counter()
        for space in fixture_spaces():
            for depth in (1, 2):
                rng = derive_rng(27, f"scan-{space.n}-{depth}")
                pool = [random_measure(space, rng, depth=depth) for _ in range(7)]
                pool.append(rd.black_box(space, max, name="max"))  # the sampled route
                while space.n == 2 and pool[-1].kind != "two-point":
                    member = rd.two_point_measure(space, random_two_point_params(rng))
                    if rd.verify_axioms(member).ok:
                        pool.append(member)
                pool = [mu for mu in pool if rd.verify_axioms(mu).ok]
                for i, mu1 in enumerate(pool):
                    for mu2 in pool[i:]:
                        tiers.update(assert_scanned_as_admissible(mu1, mu2))
        for tier in ("dirac", "exact-choquet", "exact-lattice", "exact-two-point",
                     "refutation-sampled", "witness-found"):
            assert tiers[tier] >= 2, (tier, tiers)

    def test_a_level_past_the_chain_budget_is_probed_in_the_scan(self, p3, monkeypatch):
        from riskdist import coupling

        a1 = rd.expectation(p3, (F(1, 2), F(0), F(1, 2)))
        a2 = rd.dirac_capacity(p3, 1)
        b = rd.Capacity(p3, tuple(map(min, a1.table, a2.table)))
        mu1 = rd.lattice_min([rd.choquet_measure(a1), rd.choquet_measure(a2)])
        mu2 = rd.choquet_measure(b)
        monkeypatch.setattr(coupling, "CHAIN_BUDGET", 0)
        tiers = assert_scanned_as_admissible(mu1, mu2)
        assert tiers["refutation-sampled"] >= 1, tiers


def assert_scanned_as_admissible(mu1, mu2) -> Counter:
    """Each ladder row of the pair's distance is (level, status, tier) of
    ``admissible`` at that level, and the witness is ``lower_coupling``
    there; returns the rows by tier."""
    from riskdist.coupling import lower_coupling
    from riskdist.space import sublevel_ladder

    res = rd.bottleneck_distance(mu1, mu2)
    ladder = sublevel_ladder(mu1.space)[: len(res.ladder)]
    want = []
    for level, relation in ladder:
        verdict = rd.admissible(mu1, mu2, relation)
        want.append((level, verdict.status, verdict.tier))
    assert list(res.ladder) == want, (mu1.kind, mu2.kind)
    assert want[-1][1] == "feasible" and res.value == want[-1][0] and res.tier == want[-1][2]
    assert res.witness == lower_coupling(mu1, mu2, ladder[-1][1])
    return Counter(tier for _, _, tier in res.ladder)


def counting(monkeypatch, counts, module, name):
    """Count the calls of ``module.name`` in ``counts``."""
    real = getattr(module, name)

    def wrapper(*args):
        counts[module.__name__, name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


def counting_reads(monkeypatch, counts):
    """Count, as "inner reads", the tables a pool reads through the
    inner-mask readers of a relation (``Relation.inner_readers``)."""
    from riskdist.coupling import Pool

    real = Pool.inner_values
    wrapped = {}

    def inner_values(self, table, read):
        if id(read) not in wrapped:
            def counted(table, read=read):
                counts["inner reads"] += 1
                return read(table)

            wrapped[id(read)] = read, counted  # the reader stays alive
        return real(self, table, wrapped[id(read)][1])

    monkeypatch.setattr(Pool, "inner_values", inner_values)


# family members of the two-point space that pass their census
CENSUS_SOUND_MEMBERS = [
    {"type": "two-point", "alpha": ["1/2", "1/2", "0", "0"], "lambda": ["0", "0", "0", "0"],
     "f": {"knots": [["0", "0"], ["1", "1"]]}},
    {"type": "two-point", "alpha": ["1/4", "1/4", "1/4", "1/4"], "lambda": ["0", "-1", "0", "0"],
     "f": {"knots": [["-2", "-1"], ["0", "0"], ["3", "1"]]}},
    {"type": "two-point", "alpha": ["1/3", "1/6", "1/6", "1/3"], "lambda": ["-inf", "0", "2", "0"],
     "f": {"knots": [["-1", "-1/2"], ["0", "0"], ["2", "1/2"]]}},
]


def two_point_pool() -> list:
    """``CENSUS_SOUND_MEMBERS``, whose breakpoints differ, two capacities,
    a mixture and a max with a member part, and a min of the capacities,
    on the two-point space."""
    from conftest import make_two_point
    from riskdist.io import load_measure

    space = make_two_point()
    rng = derive_rng(29, "two-point-pool")
    members = [load_measure(spec, space, {}) for spec in CENSUS_SOUND_MEMBERS]
    caps = [random_capacity_measure(space, rng) for _ in range(2)]
    return [
        *members,
        *caps,
        rd.mixture((F(1, 4), F(3, 4)), [members[0], caps[0]]),
        rd.lattice_max([members[1], caps[1]]),
        rd.lattice_min(caps),
    ]


def two_point_grid(pool) -> set:
    """The points a pool of measures with breakpoints reads: 0, every
    breakpoint and its negative, and for each measure one step past its
    largest such point on either side."""
    grid = set()
    for mu in pool:
        kinks = {F(0), *mu.breakpoints}
        top = max(map(abs, kinks)) + 1
        grid |= kinks | {-t for t in kinks} | {top, -top}
    return grid


def own_points(mu1, mu2) -> tuple:
    """The points of a lone pair on the two-point tier: its kinks and
    their negatives, sorted, with one step past each end."""
    kinks = {F(0), *mu1.breakpoints, *mu2.breakpoints}
    points = sorted({*kinks, *(-t for t in kinks)})
    return (points[0] - 1, *points, points[-1] + 1)


def cli_kind_specs(labels) -> list:
    """A JSON spec of every measure kind the CLI loads, on points ``labels``;
    on two points, census-sound family members too."""
    n = len(labels)
    weights = [f"{i + 1}/{n * (n + 1) // 2}" for i in range(n)]
    table = {  # the distortion |B|^2 / n^2
        ",".join(l for x, l in enumerate(labels) if m >> x & 1): f"{bin(m).count('1') ** 2}/{n * n}"
        for m in range(1, 1 << n)
    }
    first = {"type": "dirac", "point": labels[0]}
    expectation = {"type": "expectation", "weights": weights}
    specs = [
        first,
        {"type": "dirac", "point": labels[-1]},
        {"type": "choquet", "capacity": table},
        expectation,
        {"type": "var", "level": "1/2", "weights": weights},
        {"type": "cvar", "level": "1/2", "weights": weights},
        {"type": "unanimity"},
        {"type": "unanimity", "points": labels[:2]},
        {"type": "possibility", "points": labels[1:]},
        {"type": "mixture", "weights": ["1/3", "2/3"], "components": [first, expectation]},
    ]
    return specs + (CENSUS_SOUND_MEMBERS if n == 2 else [])


def combined(op, a, b) -> dict:
    if op == "mixture":
        return {"type": "mixture", "weights": ["1/3", "2/3"], "components": [a, b]}
    return {"type": op, "components": [a, b]}


def test_no_cli_kind_to_depth_two_is_sampled():
    # every kind the CLI loads, and max, min and mixtures of two of them to
    # depth 2, loaded from JSON, is scanned by a proof on every ladder level
    from itertools import combinations

    from conftest import fixture_spaces
    from riskdist.io import load_measure

    ops = ("max", "min", "mixture")
    seen = Counter()
    for space in fixture_spaces():
        rng = derive_rng(808, f"cli-kinds-{space.n}")
        depth0 = cli_kind_specs(list(space.labels))
        depth1 = [combined(op, a, b) for op in ops for a, b in combinations(depth0, 2)]
        depth2 = [
            combined(rng.choice(ops), rng.choice(depth1), rng.choice(depth0 + depth1))
            for _ in range(32)
        ]
        memo = {}
        specs = json.loads(json.dumps(depth0 + rng.sample(depth1, 32) + depth2))
        pool = [load_measure(spec, space, memo) for spec in specs]
        results, report = rd.distance_matrix(pool)
        assert report.ok, report.failures
        tiers = Counter(
            tier for i, row in enumerate(results) for res in row[i:] for _, _, tier in res.ladder
        )
        assert not tiers.keys() & {"witness-found", "refutation-sampled"}, (space.labels, tiers)
        seen.update(tiers)
    assert {"dirac", "exact-choquet", "exact-lattice", "exact-two-point"} <= seen.keys(), seen


def assert_every_witness_verifies(results):
    k = len(results)
    for i in range(k):
        for j in range(i + 1, k):
            res = results[i][j]
            assert res.witness.cost() == res.value
            assert rd.verify_coupling(res.witness, seed=0).ok


class TestDistanceMatrix:
    def test_point_mass_matrix_recovers_the_space(self, p3):
        measures = [rd.dirac(p3, lab) for lab in p3.labels]
        results, report = rd.distance_matrix(measures)
        assert report.ok
        assert_every_witness_verifies(results)
        for i in range(3):
            for j in range(3):
                assert results[i][j].value == p3.d(i, j)

    def test_near_distances_are_two_levels(self, tmp_path, capsys):
        # 1.0 and 1.0000000001 are read as the decimals they spell, so the
        # witness at each level reaches only the pairs within it
        labels = ["a", "b", "c"]
        dist = [[0.0, 1.0, 1.0000000001], [1.0, 0.0, 1.5], [1.0000000001, 1.5, 0.0]]
        space = rd.validate_metric(labels, dist)
        results, report = rd.distance_matrix([rd.dirac(space, lab) for lab in labels])
        assert report.ok, report.failures
        assert results[0][2].value == Fraction("1.0000000001")
        assert results[0][2].witness.cost() == results[0][2].value

        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({"points": labels, "dist": dist}))
        diracs = json.dumps([{"type": "dirac", "point": lab} for lab in labels])
        code = main(["matrix", "--space", str(space_file), "--measure", diracs, "--mode", "float"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("0.0,1.0,1.0000000001\n") and out.endswith("audit: ok\n")

    def test_single_measure(self, p3):
        results, report = rd.distance_matrix([rd.dirac(p3, "a")])
        assert report.ok and results[0][0].value == 0

    def test_random_capacity_ensemble(self, cycle4):
        # the matrix audit re-samples only unproved witnesses, so every
        # capacity and lattice witness is verified here
        rng = derive_rng(7, "matrix")
        measures = [random_capacity_measure(cycle4, rng) for _ in range(10)]
        lattices = [
            rd.lattice_max(measures[:2]),
            rd.lattice_min(measures[2:4]),
            rd.lattice_max([measures[4], rd.lattice_min(measures[5:7])]),
        ]
        results, report = rd.distance_matrix([*measures, *lattices])
        assert report.ok
        assert_every_witness_verifies(results)
        assert report.checks["triangle"] and report.checks["symmetry"]
        assert {r.tier for row in results for r in row} == {"exact-choquet", "exact-lattice"}

    def test_a_matrix_prepares_each_table_once(self, monkeypatch):
        # a pool in the benchmark's shape: however many pairs the matrix
        # scans, each table, a part's included, is lifted to the pool's
        # scale once, and read through a relation's inner masks at most
        # once; per pair, these counts would grow with the square of the pool
        from conftest import make_star5
        from riskdist import coupling, measures
        from riskdist.measures import indicators, normal_forms
        from riskdist.space import sublevel_ladder

        star5 = make_star5()
        rng = derive_rng(23, "pool")
        w = (F(1, 10), F(1, 5), F(3, 10), F(1, 10), F(3, 10))
        base = [
            rd.choquet_measure(random_capacity(star5, rng)),
            rd.choquet_measure(random_capacity(star5, rng)),
            rd.choquet_measure(rd.expectation(star5, w)),
            rd.choquet_measure(rd.cvar(star5, w, F(1, 2))),
            rd.choquet_measure(rd.var_quantile(star5, w, F(3, 4))),
            rd.mixture(
                (F(1, 3), F(2, 3)),
                [rd.dirac(star5, "p"), rd.choquet_measure(random_capacity(star5, rng))],
            ),
        ]
        pool = [
            *base,
            rd.lattice_max(base[:2]),
            rd.lattice_min(base[2:4]),
            rd.lattice_max([base[1], base[3], base[5]]),
            rd.lattice_min([base[0], base[4], base[5]]),
        ]
        tables = {id(indicators(mu)[0]) for mu in pool} | {
            id(c.scaled)
            for mu in pool
            for form in normal_forms(mu)
            for part in form
            for c in part
        }
        counts = Counter()
        for module, name in ((coupling, "times"), (measures, "times")):
            counting(monkeypatch, counts, module, name)
        results, report = rd.distance_matrix(pool)
        assert report.ok
        assert {r.tier for row in results for r in row} == {"exact-choquet", "exact-lattice"}
        lifted = counts["riskdist.coupling", "times"] + counts["riskdist.measures", "times"]
        assert 0 < lifted <= len(tables)
        counting_reads(monkeypatch, counts)
        assert rd.distance_matrix(pool)[0] == results
        assert 0 < counts["inner reads"] <= len(tables) * len(sublevel_ladder(star5))

    def test_every_cell_is_the_distance_of_its_pair(self):
        # the pool changes what a pair reads, never what the ladder finds
        from conftest import fixture_spaces

        tiers = Counter()
        for space in fixture_spaces():
            rng = derive_rng(4, "m")
            pool = [random_measure(space, rng, depth=2) for _ in range(8)]
            while space.n == 2 and pool[-1].kind != "two-point":
                # a family member that passes its axioms: its pairs with the
                # pool's measures with normal forms reach the two-point tier
                member = rd.two_point_measure(space, random_two_point_params(rng))
                if rd.verify_axioms(member).ok:
                    pool.append(member)
            results, report = rd.distance_matrix(pool)
            assert report.ok
            for i, mu1 in enumerate(pool):
                for j, mu2 in enumerate(pool):
                    got, want = results[i][j], rd.bottleneck_distance(mu1, mu2)
                    assert (got.value, got.ladder, got.tier, got.certification) == (
                        want.value, want.ladder, want.tier, want.certification
                    ), (space.n, i, j)
                    tiers[got.tier] += 1
        assert {"exact-choquet", "exact-lattice", "exact-two-point"} <= set(tiers), tiers

    def test_a_two_point_pool_reads_each_pair_at_its_own_points(self):
        # the pool's grid holds every member's points and more than a pair
        # of its own; each pair reads the grid at its own points, so its
        # cell, and what refutes it on each relation, are the lone pair's
        from test_coupling import full_projection_relations
        from riskdist.coupling import pooled, prepare_pair, refutes
        from riskdist.space import sublevel_ladder

        pool = two_point_pool()
        space = pool[0].space
        results, report = rd.distance_matrix(pool)
        assert report.ok, report.failures
        for i, mu1 in enumerate(pool):
            for j, mu2 in enumerate(pool):
                got, want = results[i][j], rd.bottleneck_distance(mu1, mu2)
                assert (got.value, got.ladder, got.tier) == (want.value, want.ladder, want.tier)
        rng = derive_rng(29, "two-point-pool-relations")
        relations = [rel for _, rel in sublevel_ladder(space)]
        relations += rng.sample(full_projection_relations(space), 3)
        grid = two_point_grid(pool)
        with pooled(pool):
            pairs = [(mu1, mu2, prepare_pair(mu1, mu2)) for mu1 in pool for mu2 in pool]
            found = [[refutes(pair, rel) for rel in relations] for *_, pair in pairs]
        smaller, routes = 0, Counter()
        for (mu1, mu2, shared), got in zip(pairs, found):
            alone = prepare_pair(mu1, mu2)
            assert shared.route == alone.route != "sampled"
            routes[shared.route] += 1
            if shared.route == "exact-two-point":
                assert shared.points == alone.points == own_points(mu1, mu2)
                assert set(shared.points) <= grid
                smaller += len(shared.points) < len(grid)
            assert got == [refutes(alone, rel) for rel in relations], (mu1.kind, mu2.kind)
        assert smaller >= 20, smaller
        assert routes["exact-two-point"] >= 40 and routes["exact-lattice"] >= 4, routes

    def test_a_matrix_prepares_each_member_once(self, monkeypatch):
        # one entry per member: its normal forms read once, each table
        # lifted once, and each member without normal forms evaluated once
        # per point of the pool's grid, however many pairs read them; per
        # pair, these counts would grow with the square of the pool
        from riskdist import coupling
        from riskdist.measures import indicators, normal_forms

        pool = two_point_pool()
        with_forms = [mu for mu in pool if normal_forms(mu) is not None]
        tables = {id(indicators(mu)[0]) for mu in with_forms} | {
            id(c.scaled)
            for mu in with_forms
            for form in normal_forms(mu)
            for part in form
            for c in part
        }
        counts = Counter()
        for name in ("normal_forms", "times"):
            counting(monkeypatch, counts, coupling, name)
        real = coupling.evaluate_values

        def evaluate_values(mu, values):
            counts["evaluations"] += 1
            return real(mu, values)

        monkeypatch.setattr(coupling, "evaluate_values", evaluate_values)
        results, report = rd.distance_matrix(pool)
        assert report.ok, report.failures
        assert {r.tier for row in results for r in row} == {
            "exact-choquet", "exact-lattice", "exact-two-point"
        }
        k = len(pool)
        assert counts["riskdist.coupling", "normal_forms"] == k
        assert 0 < counts["riskdist.coupling", "times"] <= len(tables)
        without = k - len(with_forms)
        assert 0 < counts["evaluations"] <= without * len(two_point_grid(pool))

    def test_ladder_scans_probe_no_supports(self, p3, monkeypatch):
        # every ladder relation holds the diagonal, so both projections are
        # full and no level can see a support escape
        import riskdist.coupling

        probed = Counter()
        real = riskdist.coupling.separating_pairs

        def counting(mu, *args, **kwargs):
            probed[mu] += 1
            return real(mu, *args, **kwargs)

        monkeypatch.setattr(riskdist.coupling, "separating_pairs", counting)
        a = rd.dirac(p3, "a")
        b = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(1, 4), F(1, 4))))
        lattices = [rd.lattice_max([a, b]), rd.lattice_min([a, b])]
        exact_results, report = rd.distance_matrix([a, b, *lattices])
        assert report.ok
        # black-box copies of them go to the sampled tier
        hi, lo = (rd.black_box(p3, mu.evaluator, name=mu.kind) for mu in lattices)
        results, report = rd.distance_matrix([a, b, hi, lo])
        assert report.ok
        assert results[2][3].tier == "witness-found"
        assert [[r.value for r in row] for row in results] == [
            [r.value for r in row] for row in exact_results
        ]
        assert rd.bottleneck_distance(hi, lo).value == results[2][3].value
        assert not probed
        # off the ladder, a projection that misses a point probes that side
        s = rd.Relation.from_pairs(p3, p3, [(0, 0), (1, 1), (0, 2)])
        verdict = rd.admissible(hi, a, s)
        assert verdict.certificate["kind"] == "support-escape"
        assert probed == {hi: 1}

    def test_matrix_resamples_only_unproved_witnesses(self, p3, monkeypatch):
        import riskdist.metric

        verified = []
        real = riskdist.metric.verify_coupling

        def recording(witness, *args, **kwargs):
            verified.append(witness)
            return real(witness, *args, **kwargs)

        monkeypatch.setattr(riskdist.metric, "verify_coupling", recording)
        rng = derive_rng(3, "matrix")
        measures = [random_capacity_measure(p3, rng) for _ in range(4)]
        lattices = [rd.lattice_max(measures[:2]), rd.lattice_min(measures[1:3])]
        results, report = rd.distance_matrix([*measures, *lattices])
        assert report.ok and report.checks["witnesses"]
        assert results[0][4].tier == "exact-lattice"
        assert verified == []
        # black-box shadows of the lattices go to the sampled tier; the 15
        # pairs all fall in the audit's sample of 24, so each unproved
        # witness is re-sampled once
        shadows = [rd.black_box(p3, mu.evaluator, name=mu.kind) for mu in lattices]
        results, report = rd.distance_matrix([*measures, *shadows])
        assert report.ok
        unproved = [
            results[i][j].witness
            for i in range(6)
            for j in range(i + 1, 6)
            if results[i][j].certification != "exact"
        ]
        assert unproved
        assert sorted(map(id, verified)) == sorted(map(id, unproved))


class TestMetricAxiomAudit:
    def test_two_point_space_with_family_members(self, two_point):
        report = metric_axiom_audit(two_point, ensemble_size=30, seed=2)
        assert report.ok, report.failures
        # ladder on two points only offers 0 and the separation
        assert report.checks["identity"] and report.checks["diameter"]

    def test_midsize_space(self, cycle4):
        report = metric_axiom_audit(cycle4, ensemble_size=25, seed=3)
        assert report.ok, report.failures
        assert report.stats["seed"] == 3

    def test_diameter_attained_by_extremal_pair(self, p3):
        lo, hi = extremal_pair(p3)
        assert rd.bottleneck_distance(lo, hi).value == p3.diameter()


class TestLipschitzControl:
    def test_no_violations_on_capacity_pairs(self, p3):
        rng = derive_rng(11, "lip")
        for _ in range(10):
            mu1 = random_capacity_measure(p3, rng)
            mu2 = random_capacity_measure(p3, rng)
            res = rd.bottleneck_distance(mu1, mu2)
            assert lipschitz_control_check(mu1, mu2, res, seed=11) == []

    def test_reverifier_flags_an_underestimated_distance(self, p3):
        mu1, mu2 = rd.dirac(p3, "a"), rd.dirac(p3, "c")
        phi = (0, 1, 2)
        payload = {
            "kind": "lipschitz-violation",
            "phi": phi,
            "gap": 2,
            "bound": 0,
            "distance": 0,  # deliberately understated
        }
        assert reverify_failure(payload, {"pair": (mu1, mu2)})
        honest = dict(payload, distance=2)
        assert not reverify_failure(honest, {"pair": (mu1, mu2)})

    def test_reverifier_rejects_kinds_it_cannot_recheck(self):
        # no audit emits this kind, so nothing can re-check it
        with pytest.raises(rd.InvalidParams, match="no-such-kind"):
            reverify_failure({"kind": "no-such-kind"}, {})

    def test_convergence_payload_reverifies(self, p3, monkeypatch):
        # an understated distance makes the audit report real violations;
        # each re-checks from its payload against the term it names
        from riskdist import metric

        terms, limit = drifting_mixture_sequence(p3, 0, 2, count=3)
        true_distance = metric.bottleneck_distance
        monkeypatch.setattr(
            metric,
            "bottleneck_distance",
            lambda mu1, mu2, **kw: dataclasses.replace(true_distance(mu1, mu2, **kw), value=0),
        )
        report = rd.convergence_audit(terms, limit, seed=1)
        assert report.failures
        for payload in report.failures:
            assert payload["kind"] == "lipschitz-violation" and payload["distance"] == 0
            pair = (terms[payload["term"] - 1], limit)
            assert reverify_failure(payload, {"pair": pair})
            assert not reverify_failure(dict(payload, distance=2), {"pair": pair})


def _diagonal_witness(mu1, mu2, res):
    # the lower extension on the diagonal fails its marginals unless the
    # two measures are equal; labelled witness-found, so sampled, since the
    # matrix audit re-samples only witnesses that no exact tier proved
    if res.value == 0:
        return res
    w = res.witness
    return dataclasses.replace(
        res,
        witness=CouplingWitness(w.left, w.right, sublevel_relation(w.left.space, 0)),
        tier="witness-found",
    )


AUDIT_FAULTS = {
    "nonzero-diagonal": lambda mu1, mu2, res: (
        dataclasses.replace(res, value=res.value + 1) if mu1 is mu2 else res
    ),
    "witness-cost-mismatch": lambda mu1, mu2, res: (
        res if mu1 is mu2 else dataclasses.replace(res, value=res.value + 1)
    ),
    "witness-verification": _diagonal_witness,
    "diameter-exceeded": lambda mu1, mu2, res: (
        res if mu1 is mu2 else dataclasses.replace(res, value=mu1.space.diameter() + 1)
    ),
    "diameter-not-attained": lambda mu1, mu2, res: (
        dataclasses.replace(res, value=0)
        if (mu1.kind, mu1.name, mu2.name) == ("choquet", "min", "max")
        else res
    ),
}


class TestReverifyAuditPayloads:
    def test_identity_payload_reverifies_against_the_pool(self, p3):
        report = metric_axiom_audit(p3, ensemble_size=6, seed=5)
        assert len(report.pool) == report.instances == 6
        context = {"measures": report.pool, "seed": 5}
        for i in range(6):
            for j in range(i + 1, 6):
                payload = {"kind": "identity-mismatch", "pair": (i, j)}
                # the audit found no mismatch, so none reproduces
                assert reverify_failure(payload, context) is False

    def test_sampled_identity_mismatch_reverifies(self, p3, monkeypatch):
        # distance 0 for the max/min pair of the pool, which equal_measures
        # separates: the audit archives a sampled-tier identity mismatch,
        # the discrepancy criterion 04 re-verifies
        from riskdist import metric

        true_distance = metric.bottleneck_distance

        def understated(mu1, mu2, **kw):
            res = true_distance(mu1, mu2, **kw)
            if {mu1.kind, mu2.kind} == {"max", "min"}:
                return dataclasses.replace(res, value=0)
            return res

        monkeypatch.setattr(metric, "bottleneck_distance", understated)
        report = metric_axiom_audit(p3, ensemble_size=6, seed=2)
        kinds = [mu.kind for mu in report.pool]
        assert report.discrepancies
        context = {"measures": report.pool, "seed": 2}
        for payload in report.discrepancies:
            i, j = payload["pair"]
            assert payload["kind"] == "identity-mismatch"
            assert {kinds[i], kinds[j]} == {"max", "min"}
            assert payload["distance-zero"] and payload["equality"] == "no"
            assert reverify_failure(payload, context) is True
        # with the true distance the same payload no longer reproduces
        monkeypatch.setattr(metric, "bottleneck_distance", true_distance)
        for payload in report.discrepancies:
            assert reverify_failure(payload, context) is False

    def test_pool_stays_out_of_the_serialized_report(self, p3):
        from riskdist.io import audit_summary

        report = metric_axiom_audit(p3, ensemble_size=4, seed=5)
        assert "pool" not in json.dumps(audit_summary(report))

    @pytest.mark.parametrize("kind", sorted(AUDIT_FAULTS))
    def test_matrix_and_diameter_payloads_reverify(self, p3, monkeypatch, kind):
        # a payload made under a fault re-checks True while the fault is in
        # place and False once it is gone
        from riskdist import metric

        true_distance = metric.bottleneck_distance
        fault = AUDIT_FAULTS[kind]
        monkeypatch.setattr(
            metric,
            "bottleneck_distance",
            lambda mu1, mu2, **kw: fault(mu1, mu2, true_distance(mu1, mu2, **kw)),
        )
        report = metric_axiom_audit(p3, ensemble_size=4, seed=5)
        payloads = [f for f in report.failures if f["kind"] == kind]
        assert payloads
        context = {"measures": report.pool, "seed": 5}
        for payload in payloads:
            assert reverify_failure(payload, context) is True
        monkeypatch.setattr(metric, "bottleneck_distance", true_distance)
        for payload in payloads:
            assert reverify_failure(payload, context) is False


def fraction_triangle_scan(results):
    """The matrix's triangle scan as it ran before the integer min-plus."""
    k = len(results)
    found = []
    for i in range(k):
        for j in range(k):
            for l in range(k):
                d_ij = results[i][j].value
                d_il = results[i][l].value
                d_lj = results[l][j].value
                if d_ij > d_il + d_lj:
                    found.append(
                        {
                            "kind": "triangle-violation",
                            "triple": (i, j, l),
                            "values": (d_ij, d_il, d_lj),
                        }
                    )
    return found


def test_triangle_scan_flags_what_the_fraction_scan_flags(monkeypatch):
    from riskdist import metric

    space = rd.validate_metric(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )
    rng = derive_rng(17, "triangle")
    pool = [random_capacity_measure(space, rng) for _ in range(6)]
    levels = rd.distance_levels(space)
    true_distance = metric.bottleneck_distance

    def injected(mu1, mu2, **kw):
        res = true_distance(mu1, mu2, **kw)
        pair = {pool.index(mu1), pool.index(mu2)}
        if pair in ({0, 1}, {1, 2}):
            return dataclasses.replace(res, value=levels[0])  # understated
        if pair == {3, 4}:
            return dataclasses.replace(res, value=levels[-1])  # overstated
        return res

    monkeypatch.setattr(metric, "bottleneck_distance", injected)
    results, report = rd.distance_matrix(pool)
    flagged = [f for f in report.failures if f["kind"] == "triangle-violation"]
    assert flagged
    assert flagged == fraction_triangle_scan(results)


class TestConvergenceAudit:
    def test_constant_sequence(self, p3):
        terms = [rd.dirac(p3, "a") for _ in range(4)]
        report = rd.convergence_audit(terms, rd.dirac(p3, "a"), seed=1)
        rows = report.stats["rows"]
        assert all(r["pointwise-gap"] == 0 for r in rows)
        assert all(r["metric"] == 0 for r in rows)
        assert all(r["support-gap"] == 0 for r in rows)
        assert not report.discrepancies and not report.failures

    def test_drifting_mixture_is_flagged(self, p3):
        terms, limit = drifting_mixture_sequence(p3, 0, 2, count=8)
        report = rd.convergence_audit(terms, limit, seed=1)
        rows = report.stats["rows"]
        gaps = [r["pointwise-gap"] for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(r["metric"] == 2 for r in rows)
        assert all(r["support-gap"] == 2 for r in rows)
        assert report.checks["pointwise-gaps-vanish"]
        assert not report.checks["metric-vanishes"]
        assert report.discrepancies
        assert not report.failures  # the one-sided bound always holds

    def test_capacity_sequence_reaching_its_limit(self, p3):
        # entrywise interpolation that lands exactly on the limit at the end
        rng = derive_rng(13, "reach")
        v0 = random_capacity(p3, rng)
        w = random_capacity(p3, rng)
        terms = []
        for eps in (F(1, 2), F(1, 4), F(1, 8), F(0)):
            cap = rd.mix_capacities((1 - eps, eps), (v0, w))
            terms.append(rd.choquet_measure(cap))
        report = rd.convergence_audit(terms, rd.choquet_measure(v0), seed=2)
        rows = report.stats["rows"]
        assert rows[-1]["metric"] == 0
        assert not report.failures


#: three isometric embeddings, then three 1-Lipschitz maps, as (source,
#: target, point map) over the fixture spaces
PUSH_MAPS = (
    ("path3", "cycle4", (0, 1, 2)),
    ("path3", "grid6", (0, 1, 2)),
    ("cycle4", "grid6", (0, 1, 4, 3)),
    ("grid6", "path3", (0, 1, 2, 0, 1, 2)),
    ("cycle4", "path3", (0, 1, 2, 1)),
    ("star5", "path3", (1, 0, 2, 2, 2)),
)

#: the exact tiers; a pair of pushforwards with forms reads no other
EXACT_TIERS = {"dirac", "exact-choquet", "exact-lattice", "exact-two-point"}


def pushed_along_maps():
    """Per map of ``PUSH_MAPS``: the target, the point map, and each of 12
    depth-2 ``random_measure``s of the source, on one named stream per
    source space, with its pushforward."""
    from conftest import make_cycle4, make_grid6, make_path3, make_star5

    spaces = {
        "path3": make_path3(), "cycle4": make_cycle4(),
        "grid6": make_grid6(), "star5": make_star5(),
    }
    sources = {}
    for name in dict.fromkeys(source for source, _, _ in PUSH_MAPS):
        rng = derive_rng(31, f"pushforward-{name}")
        sources[name] = [random_measure(spaces[name], rng, depth=2) for _ in range(12)]
    return [
        (spaces[target], fmap,
         [(mu, rd.pushforward(fmap, mu, spaces[target])) for mu in sources[source]])
        for source, target, fmap in PUSH_MAPS
    ]


def pulled_black_box(target, fmap, mu):
    """The pushforward as a black box that reads mu at phi o f."""
    return rd.black_box(
        target, lambda values: evaluate_values(mu, tuple(values[t] for t in fmap)),
        name=f"pushforward({mu.name})",
    )


def rebuilt_from_forms(mu):
    """mu rebuilt from its normal forms by the lattice constructors: a max
    of mins of Choquet measures of its max-of-min rows, or, where that
    outgrows ``MAX_FORM_TERMS``, a min of maxes of its min-of-max groups."""
    from riskdist.measures import normal_forms

    rows, groups = normal_forms(mu)
    maxmin = rd.lattice_max([rd.lattice_min(list(map(rd.choquet_measure, row))) for row in rows])
    if normal_forms(maxmin) is not None:
        return maxmin
    return rd.lattice_min([rd.lattice_max(list(map(rd.choquet_measure, g))) for g in groups])


class TestExactPushforwards:
    """A pushforward of a measure with normal forms keeps forms: its pairs
    are decided exactly, with the values of the black-box pushforward."""

    def test_pushforwards_keep_forms_tables_and_exact_axioms(self):
        from functools import reduce
        from operator import or_

        from riskdist.measures import indicators, normal_forms, reach

        kept = 0
        for target, fmap, pushed in pushed_along_maps():
            for mu, image in pushed:
                if normal_forms(mu) is None:
                    assert normal_forms(image) is None and image.kind == "blackbox"
                    continue
                assert normal_forms(image) is not None, mu.kind
                report = rd.verify_axioms(image)
                assert report.ok and report.method == "exact"
                table, scale = indicators(image)
                for u in range(1 << target.n):
                    ones = tuple(u >> x & 1 for x in range(target.n))
                    assert F(table[u], scale) == evaluate_values(image, ones)
                # the scale invariant a pool's lift needs: every part
                # capacity's scale divides the indicator scale
                parts = [c for form in normal_forms(image) for line in form for c in line]
                rows = sum(map(len, normal_forms(image)[0]))
                assert all(scale % c.scale == 0 for c in parts)
                assert reach(image) == reduce(or_, (c.support_mask() for c in parts[:rows]))
                if mu.capacity is None and mu.kind != "dirac":
                    assert image.kind == mu.kind
                    assert image.name == f"pushforward({mu.name})"
                kept += 1
        assert kept >= 60, kept

    def test_pushed_pairs_are_exact_with_the_black_box_values(self):
        # each pair of pushforwards with forms reads an exact tier on every
        # level, with the value of the black-box pushforwards, the ladder
        # of the same measures rebuilt from their forms, and an infeasible
        # verdict at each refuted level whose certificate re-checks
        from riskdist.measures import normal_forms
        from riskdist.space import sublevel_ladder
        from test_coupling import assert_certificate_rechecks

        tiers, reference_tiers, pairs = Counter(), Counter(), 0
        for target, fmap, pushed in pushed_along_maps():
            ladder = sublevel_ladder(target)
            kept = [(mu, image) for mu, image in pushed if normal_forms(image) is not None]
            boxes = [pulled_black_box(target, fmap, mu) for mu, _ in kept]
            rebuilt = [rebuilt_from_forms(image) for _, image in kept]
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    (_, a), (_, b) = kept[i], kept[j]
                    res = rd.bottleneck_distance(a, b)
                    assert {tier for *_, tier in res.ladder} <= EXACT_TIERS, res.ladder
                    tiers.update(tier for *_, tier in res.ladder)
                    # the first test pins that both pass their exact axiom
                    # check, and the black boxes read the same values
                    reference = rd.bottleneck_distance(boxes[i], boxes[j], check_axioms=False)
                    assert res.value == reference.value, (target.n, i, j)
                    reference_tiers[reference.tier] += 1
                    oracle = rd.bottleneck_distance(rebuilt[i], rebuilt[j])
                    assert {tier for *_, tier in oracle.ladder} <= EXACT_TIERS
                    assert [row[:2] for row in res.ladder] == [row[:2] for row in oracle.ladder]
                    for (_, status, _), (_, relation) in zip(res.ladder, ladder):
                        if status == "infeasible":
                            verdict = rd.admissible(a, b, relation)
                            assert verdict.tier in EXACT_TIERS and not verdict.feasible
                            cert = verdict.certificate
                            if cert["kind"] == "pair-outside-support":
                                assert not relation.matrix[a.point][b.point]
                            else:
                                assert_certificate_rechecks(a, b, relation, cert)
                    pairs += 1
        assert pairs >= 300, pairs
        assert not tiers.keys() & {"witness-found", "refutation-sampled"}, tiers
        # the black-box pushforwards of the same measures are sampled
        assert reference_tiers["witness-found"] >= 100, reference_tiers
