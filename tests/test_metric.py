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
)
from riskdist.errors import AxiomFailure
from riskdist.measures import evaluate_values
from riskdist.metric import (
    lipschitz_control_check,
    metric_axiom_audit,
    reverify_failure,
)

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
        res = rd.bottleneck_distance(mu, rd.dirac(p3, "b"), verify_witness=True)
        assert res.value == 1

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
            res = rd.bottleneck_distance(mu1, mu2, verify_witness=True)
            assert res.witness.cost() == res.value

    def test_axiom_gate(self, p3):
        bad = rd.black_box(p3, lambda v: v[0] - v[1], name="bad")
        with pytest.raises(AxiomFailure):
            rd.bottleneck_distance(bad, rd.dirac(p3, "a"), seed=2)

    def test_family_pair_two_point_ladder(self, two_point):
        # ladder on a two-point space is {0, d}; members differing only in
        # the shape function probe as equal, so the distance is 0 at the
        # sampled tier
        base = (F(1, 2), F(1, 2), F(0), F(0))
        zeros = (F(0),) * 4
        mu_f = rd.two_point_measure(
            two_point, rd.TwoPointParams(base, zeros, rd.ShapeFunction.identity())
        )
        mu_g = rd.two_point_measure(
            two_point, rd.TwoPointParams(base, zeros, rd.ShapeFunction.zero())
        )
        res = rd.bottleneck_distance(mu_f, mu_g, seed=4)
        assert res.value in (0, F(5, 2))
        assert res.tier in ("witness-found", "refutation-sampled")


class TestDistanceMatrix:
    def test_point_mass_matrix_recovers_the_space(self, p3):
        measures = [rd.dirac(p3, lab) for lab in p3.labels]
        results, report = rd.distance_matrix(measures, witness_policy="all")
        assert report.ok
        for i in range(3):
            for j in range(3):
                assert results[i][j].value == p3.d(i, j)

    def test_single_measure(self, p3):
        results, report = rd.distance_matrix([rd.dirac(p3, "a")])
        assert report.ok and results[0][0].value == 0

    def test_random_capacity_ensemble(self, cycle4):
        rng = derive_rng(7, "matrix")
        measures = [random_capacity_measure(cycle4, rng) for _ in range(10)]
        results, report = rd.distance_matrix(measures, witness_policy="all")
        assert report.ok
        assert report.checks["triangle"] and report.checks["symmetry"]

    def test_supports_are_probed_once_per_matrix(self, p3, monkeypatch):
        import riskdist.metric

        probed = Counter()
        real = riskdist.metric.support

        def counting(mu, *args, **kwargs):
            probed[mu] += 1
            return real(mu, *args, **kwargs)

        monkeypatch.setattr(riskdist.metric, "support", counting)
        a = rd.dirac(p3, "a")
        b = rd.choquet_measure(rd.expectation(p3, (F(1, 2), F(1, 4), F(1, 4))))
        hi, lo = rd.lattice_max([a, b]), rd.lattice_min([a, b])
        results, report = rd.distance_matrix([a, b, hi, lo], witness_policy="none")
        assert report.ok
        assert probed[hi] == probed[lo] == 1
        assert set(probed.values()) == {1}
        # outside a matrix each distance probes afresh, to the same values
        assert rd.bottleneck_distance(hi, lo).value == results[2][3].value
        assert probed[hi] == probed[lo] == 2


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

    def test_pool_stays_out_of_the_serialized_report(self, p3):
        from riskdist.io import audit_summary

        report = metric_axiom_audit(p3, ensemble_size=4, seed=5)
        assert "pool" not in json.dumps(audit_summary(report))


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
