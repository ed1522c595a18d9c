"""Brute-force references for coupling feasibility, kept independent of the
coupling module so they can catch derivation errors there.

For probability vectors p, q and a relation S, a probability coupling
supported inside S exists iff every subset A of the right space satisfies
q(A) <= p(points whose section meets A).  This is Strassen's theorem on
measures with given marginals (V. Strassen, The existence of probability
measures with given marginals, Ann. Math. Statist. 36 (1965) 423-439) in
its finite form.  The same question is also decided as a max-flow
feasibility problem with exact rational arithmetic; the two deciders must
agree on every instance.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .ensembles import random_capacity_measure, random_simplex
from .errors import CouplingFailure, InvalidParams, OracleDisagreement, SpaceMismatch
from .numerics import Scalar
from .space import FiniteMetricSpace, Relation, distance_levels, sublevel_relation


@dataclass(frozen=True)
class ProbabilityVector:
    space: FiniteMetricSpace
    weights: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.n:
            raise SpaceMismatch("weight vector length must match point count")
        if any(w < 0 for w in self.weights):
            raise InvalidParams("weights must be nonnegative")
        if abs(sum(self.weights) - 1) > self.space.tol:
            raise InvalidParams("weights must sum to 1")

    def mass(self, mask: int) -> Scalar:
        return sum(w for i, w in enumerate(self.weights) if mask >> i & 1)


def _subset_condition(p: ProbabilityVector, q: ProbabilityVector, s: Relation) -> bool:
    """Exhaust all subsets A: demand q(A) never exceeds reachable supply."""
    n = p.space.n
    tol = p.space.tol
    for a in range(1 << n):
        reach = 0
        for i, sec in enumerate(s.sections):
            if sec & a:
                reach |= 1 << i
        if q.mass(a) > p.mass(reach) + tol:
            return False
    return True


def _flow_condition(p: ProbabilityVector, q: ProbabilityVector, s: Relation) -> bool:
    """Max-flow feasibility: source -> left (cap p), S edges, right -> sink."""
    n = p.space.n
    source, sink = 2 * n, 2 * n + 1
    size = 2 * n + 2
    cap = [[Fraction(0)] * size for _ in range(size)]
    big = Fraction(2)
    for i in range(n):
        cap[source][i] = Fraction(p.weights[i]) if p.space.exact else p.weights[i]
        cap[n + i][sink] = Fraction(q.weights[i]) if q.space.exact else q.weights[i]
    for i in range(n):
        for j in range(n):
            if s.matrix[i][j]:
                cap[i][n + j] = big

    flow = 0
    while True:
        # BFS augmenting path (Edmonds-Karp); exact arithmetic throughout
        parent = [-1] * size
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in range(size):
                if parent[v] == -1 and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = cap[u][v] if bottleneck is None else min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck
    return abs(flow - 1) <= p.space.tol


def strassen_feasible(
    p: ProbabilityVector, q: ProbabilityVector, s: Relation
) -> bool:
    """Coupling feasibility for probability marginals inside S.

    Runs both the subset-exhaustion and the flow decider and insists they
    agree; a disagreement is a build-blocking bug, not a verdict.
    """
    if p.space != q.space:
        raise SpaceMismatch("probability vectors live on different spaces")
    by_subsets = _subset_condition(p, q, s)
    by_flow = _flow_condition(p, q, s)
    if by_subsets != by_flow:
        raise OracleDisagreement(
            f"subset exhaustion says {by_subsets}, flow says {by_flow}"
        )
    return by_subsets


def winf_distance(p: ProbabilityVector, q: ProbabilityVector) -> Scalar:
    """Bottleneck transport distance: the smallest distance level whose
    sublevel relation admits a coupling."""
    space = p.space
    for level in distance_levels(space):
        if strassen_feasible(p, q, sublevel_relation(space, level)):
            return level
    raise CouplingFailure("the full relation always admits a coupling")


# ---------------------------------------------------------------------------
# cross-validation of the derived admissibility criterion


@dataclass(frozen=True)
class CrossCheckReport:
    suite: str
    instances: int
    disagreements: tuple[dict, ...]
    stats: dict

    @property
    def ok(self) -> bool:
        return not self.disagreements


def random_probability(
    space: FiniteMetricSpace, rng: random.Random
) -> ProbabilityVector:
    return ProbabilityVector(space, random_simplex(rng, space.n, space.exact))


def random_relation(
    space: FiniteMetricSpace, rng: random.Random, density: float = 0.5
) -> Relation:
    pairs = [
        (i, j)
        for i in range(space.n)
        for j in range(space.n)
        if rng.random() < density
    ]
    return Relation.from_pairs(space, space, pairs)


def criterion_cross_check(
    space: FiniteMetricSpace,
    additive_instances: int = 200,
    choquet_instances: int = 200,
    seed: int = 0,
    witness_samples: int = 48,
) -> CrossCheckReport:
    """Validate the coupling module's derived criterion against the oracles.

    (i) On additive marginals the exact verdict must match strassen_feasible
    on every sampled (p, q, S); (ii) Dirac pairs must reduce to membership;
    (iii) every exact "feasible" must yield a witness that verifies; (iv) no
    witness attempt may succeed where the exact tier refutes.
    """
    from .coupling import admissible, lower_coupling, verify_coupling
    from .measures import choquet_measure, dirac
    from .capacity import expectation

    rng = random.Random(seed)
    disagreements: list[dict] = []
    feasible_count = 0

    for k in range(additive_instances):
        p = random_probability(space, rng)
        q = random_probability(space, rng)
        s = random_relation(space, rng, density=rng.choice((0.3, 0.5, 0.8)))
        oracle = strassen_feasible(p, q, s)
        mu_p = choquet_measure(expectation(space, p.weights))
        mu_q = choquet_measure(expectation(space, q.weights))
        verdict = admissible(mu_p, mu_q, s)
        if verdict.status == "unknown" or verdict.feasible != oracle:
            disagreements.append(
                {
                    "kind": "additive-vs-oracle",
                    "index": k,
                    "p": p.weights,
                    "q": q.weights,
                    "pairs": s.pairs(),
                    "oracle": oracle,
                    "criterion": verdict.status,
                }
            )
            continue
        report = verify_coupling(
            lower_coupling(mu_p, mu_q, s), samples=witness_samples, seed=seed
        )
        if oracle:
            feasible_count += 1
            if not report.ok:
                disagreements.append(
                    {
                        "kind": "witness-fails-verification",
                        "index": k,
                        "p": p.weights,
                        "q": q.weights,
                        "pairs": s.pairs(),
                        "violations": [v.axiom for v in report.violations],
                    }
                )
        elif report.ok:
            disagreements.append(
                {
                    "kind": "infeasible-but-witness-passes",
                    "index": k,
                    "p": p.weights,
                    "q": q.weights,
                    "pairs": s.pairs(),
                }
            )

    for k in range(choquet_instances):
        mu1 = random_capacity_measure(space, rng)
        mu2 = random_capacity_measure(space, rng)
        s = random_relation(space, rng, density=rng.choice((0.4, 0.6, 0.9)))
        verdict = admissible(mu1, mu2, s)
        witness = lower_coupling(mu1, mu2, s)
        report = verify_coupling(witness, samples=witness_samples, seed=seed + k)
        if verdict.feasible:
            feasible_count += 1
            if not report.ok:
                disagreements.append(
                    {
                        "kind": "feasible-but-witness-fails",
                        "index": k,
                        "pairs": s.pairs(),
                        "violations": [v.axiom for v in report.violations],
                    }
                )
        elif verdict.status == "infeasible" and report.ok:
            disagreements.append(
                {
                    "kind": "infeasible-but-witness-passes",
                    "index": k,
                    "pairs": s.pairs(),
                }
            )

    for k in range(16):
        x, y = rng.randrange(space.n), rng.randrange(space.n)
        s = random_relation(space, rng, density=0.5)
        verdict = admissible(dirac(space, x), dirac(space, y), s)
        member = s.matrix[x][y]
        if verdict.feasible != member:
            disagreements.append(
                {"kind": "dirac-vs-membership", "pair": (x, y), "member": member}
            )

    total = additive_instances + choquet_instances + 16
    return CrossCheckReport(
        "criterion-cross-check",
        total,
        tuple(disagreements),
        {"feasible": feasible_count, "seed": seed},
    )
