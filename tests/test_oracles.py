from fractions import Fraction
from itertools import product

import pytest

import riskdist as rd
from riskdist.ensembles import derive_rng
from riskdist.errors import InvalidParams
from riskdist.oracles import (
    ProbabilityVector,
    _flow_condition,
    _subset_condition,
    criterion_cross_check,
    random_probability,
    random_relation,
)
from riskdist.space import Relation, full_relation, sublevel_relation

F = Fraction


class TestProbabilityVector:
    def test_validation(self, p3):
        with pytest.raises(InvalidParams):
            ProbabilityVector(p3, (F(1, 2), F(1, 2), F(1, 2)))
        with pytest.raises(InvalidParams):
            ProbabilityVector(p3, (F(-1), F(1), F(1)))


class TestStrassenFeasible:
    def test_equal_masses_on_diagonal(self, p3):
        p = ProbabilityVector(p3, (F(1, 3),) * 3)
        assert rd.strassen_feasible(p, p, sublevel_relation(p3, 0))

    def test_blocked_mass_within_radius_one(self, p3):
        p = ProbabilityVector(p3, (F(1), F(0), F(0)))
        q = ProbabilityVector(p3, (F(1, 2), F(0), F(1, 2)))
        assert not rd.strassen_feasible(p, q, sublevel_relation(p3, 1))

    def test_full_relation_always_feasible(self, p3):
        rng = derive_rng(3, "full")
        for _ in range(10):
            p = random_probability(p3, rng)
            q = random_probability(p3, rng)
            assert rd.strassen_feasible(p, q, full_relation(p3, p3))

    def test_subset_and_flow_agree_exhaustively_on_two_points(self, two_point):
        rng = derive_rng(5, "tiny")
        vectors = [random_probability(two_point, rng) for _ in range(4)]
        for bits in range(16):
            pairs = [(i, j) for i, j in product(range(2), repeat=2) if bits >> (i * 2 + j) & 1]
            rel = Relation.from_pairs(two_point, two_point, pairs)
            for p in vectors:
                for q in vectors:
                    assert _subset_condition(p, q, rel) == _flow_condition(p, q, rel)

    def test_subset_and_flow_agree_sampled(self, cycle4, grid6):
        rng = derive_rng(7, "sampled")
        for space in (cycle4, grid6):
            for _ in range(40):
                p = random_probability(space, rng)
                q = random_probability(space, rng)
                rel = random_relation(space, rng, density=rng.choice((0.2, 0.5, 0.8)))
                assert _subset_condition(p, q, rel) == _flow_condition(p, q, rel)


class TestWinfDistance:
    def test_identical_vectors(self, p3):
        p = ProbabilityVector(p3, (F(1, 4), F(1, 4), F(1, 2)))
        assert rd.winf_distance(p, p) == 0

    def test_point_masses_recover_the_metric(self, p3):
        for x in range(3):
            for y in range(3):
                p = ProbabilityVector(p3, tuple(F(int(i == x)) for i in range(3)))
                q = ProbabilityVector(p3, tuple(F(int(i == y)) for i in range(3)))
                assert rd.winf_distance(p, q) == p3.d(x, y)

    def test_blocked_mass_needs_the_diameter(self, p3):
        p = ProbabilityVector(p3, (F(1), F(0), F(0)))
        q = ProbabilityVector(p3, (F(1, 2), F(0), F(1, 2)))
        assert rd.winf_distance(p, q) == 2

    def test_metric_axioms_on_ensembles(self, cycle4):
        rng = derive_rng(11, "winf-metric")
        vs = [random_probability(cycle4, rng) for _ in range(7)]
        d = [[rd.winf_distance(a, b) for b in vs] for a in vs]
        k = len(vs)
        for i in range(k):
            assert d[i][i] == 0
            for j in range(k):
                assert d[i][j] == d[j][i]
                assert (d[i][j] == 0) == (vs[i].weights == vs[j].weights)
                for l in range(k):
                    assert d[i][j] <= d[i][l] + d[l][j]


class TestCrossCheck:
    def test_small_run_has_no_disagreements(self, p3):
        report = criterion_cross_check(p3, instances=40, seed=17)
        assert report.ok, report.disagreements
        assert report.instances == 96
        assert report.stats["feasible"] > 0
