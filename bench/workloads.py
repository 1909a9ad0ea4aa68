"""The benchmark's four workloads: input streams, measured calls, gates, digests.

Every workload turns ``--seed`` into a deterministic stream of inputs.  Unit
``k`` of seed ``S`` is drawn from instance seed ``S * SEED_STRIDE + k`` (for
stratified workloads, candidate ``k``), so seed 0 walks the same instance
seeds as the acceptance tests.  Stratified workloads sort candidates into
strata by an input property and emit them on a fixed cyclic schedule, so
every run measures the same mix of cheap and expensive inputs and only the
inputs inside each stratum vary with the seed.  That keeps run-to-run
spread low on workloads whose cost is heavy-tailed.

The program receives only the generated inputs, through the same loader
path as the CLI (``Instance.to_json`` -> ``json.loads`` ->
``validate_instance``), and only its public library functions are called.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from cutoffmatch import egalitarian, engine, milp, oracle
from cutoffmatch.flow import SipFeasibility, check_feasibility, verify_allocation
from cutoffmatch.model import Instance, format_rational, generate_random, validate_instance
from cutoffmatch.oracle import SmtiInstance
from cutoffmatch.stability import check_stability, induce, matching_feasible

SEED_STRIDE = 1_000_000


class GateFailure(Exception):
    """An output failed one of the benchmark's independent correctness checks."""


# -- generators (copies of the test-suite helpers, frozen here) ------------


def random_instance(seed: int, max_applicants: int, max_projects: int,
                    max_supervisors: int, density: str, budget_range: tuple) -> Instance:
    """Shape drawn from the seed, then the library generator with that seed."""
    rng = random.Random(seed)
    n_a = rng.randint(2, max_applicants)
    n_p = rng.randint(2, max_projects)
    n_s = rng.randint(1, max_supervisors)
    return generate_random(seed, n_a, n_p, n_s, pref_density=Fraction(density),
                           budget_range=budget_range)


def random_smti(seed: int, max_men: int = 3, max_ties: int = 1,
                balanced: bool = False) -> SmtiInstance:
    """A restricted SMTI instance: men strict, each woman strict or holding
    a single tie of exactly two men."""
    rng = random.Random(seed)
    n_men = rng.randint(1, max_men)
    men = tuple(f"m{i}" for i in range(1, n_men + 1))
    n_women = n_men if balanced else rng.randint(1, 3)
    women = [f"w{j}" for j in range(1, n_women + 1)]

    accept = {}
    for w in women:
        size = rng.randint(1, n_men)
        accept[w] = rng.sample(men, size)
    for m in men:
        if not any(m in accept[w] for w in women):
            accept[rng.choice(women)].append(m)

    women_strict, women_tie = {}, {}
    ties = 0
    for w in women:
        ms = accept[w]
        if len(ms) == 2 and ties < max_ties and rng.random() < Fraction(1, 2):
            women_tie[w] = tuple(ms)
            ties += 1
        else:
            rng.shuffle(ms)
            women_strict[w] = tuple(ms)

    men_prefs = {}
    for m in men:
        listed = [w for w in women if m in accept[w]]
        rng.shuffle(listed)
        men_prefs[m] = tuple(listed)
    return SmtiInstance(men=men, men_prefs=men_prefs,
                        women_strict=women_strict, women_tie=women_tie)


def stratified(candidates: Iterator[Any], key: Callable[[Any], Any],
               schedule: tuple) -> Iterator[Any]:
    """Yield candidates so that their strata follow ``schedule`` cyclically.

    Candidates are consumed in order; one whose stratum is not yet due waits
    in its stratum's queue, and one whose stratum is not scheduled is
    skipped.  Any prefix of the output therefore has the schedule's mix.
    """
    wanted = set(schedule)
    waiting: dict[Any, deque] = {k: deque() for k in wanted}
    while True:
        for k in schedule:
            while not waiting[k]:
                x = next(candidates)
                kx = key(x)
                if kx in wanted:
                    waiting[kx].append(x)
            yield waiting[k].popleft()


def interleave(weights: dict) -> tuple:
    """A cyclic schedule giving each stratum its weight, spread evenly."""
    total = sum(weights.values())
    slots = [((j + 0.5) * total / w, i, k)
             for i, (k, w) in enumerate(weights.items()) for j in range(w)]
    return tuple(k for _, _, k in sorted(slots))


# -- shared helpers ----------------------------------------------------------


@dataclass
class SetupClock:
    """Time spent in the model layer while inputs are prepared."""

    generate_s: float = 0.0
    validate_s: float = 0.0


def load_like_cli(instance: Instance, clock: SetupClock) -> Instance:
    """Round-trip a generated instance through the CLI loader path."""
    t0 = time.perf_counter()
    text = instance.to_json()
    t1 = time.perf_counter()
    loaded = validate_instance(json.loads(text))
    t2 = time.perf_counter()
    clock.generate_s += t1 - t0
    clock.validate_s += t2 - t1
    return loaded


def timed_candidates(make: Callable[[int], Any], seed: int,
                     clock: SetupClock) -> Iterator[Any]:
    k = 0
    while True:
        t0 = time.perf_counter()
        x = make(seed * SEED_STRIDE + k)
        clock.generate_s += time.perf_counter() - t0
        yield x
        k += 1


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pairs(matching) -> list:
    return sorted(matching.pairs)


def _supervised_pairs(instance: Instance) -> int:
    return sum(len(ps) for ps in instance.supervised.values())


class Context:
    """How a measured call reaches the library.

    The untraced context calls straight through; the tracer substitutes one
    that records a span around each call and counts feasibility queries.
    """

    feasibility = SipFeasibility

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    pool_size: int
    inputs: Callable[[int, SetupClock], Iterator[Any]]
    run: Callable[[Any, Context], Any]
    gate: Callable[[Any, Any], None]
    summary: Callable[[Any, Any], Any]


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise GateFailure(what)


# solve-cohort: the `cutoffmatch solve` path on a 50-applicant cohort.

COHORT_SHAPE = dict(n_applicants=50, n_projects=10, n_supervisors=5,
                    pref_density=Fraction(3, 10), budget_range=(0, 10))


def _cohort_inputs(seed: int, clock: SetupClock) -> Iterator[Instance]:
    make = lambda s: generate_random(s, **COHORT_SHAPE)
    for inst in timed_candidates(make, seed, clock):
        yield load_like_cli(inst, clock)


def _cohort_run(inst: Instance, ctx: Context):
    matching, cutoffs, trace = ctx.call(
        "engine.solve", engine.solve, inst, feasibility=ctx.feasibility(inst))
    verdict = ctx.call("stability.check_stability", check_stability,
                       inst, matching, ctx.feasibility(inst))
    return matching, cutoffs, trace, verdict


def _cohort_gate(inst: Instance, out) -> None:
    matching, cutoffs, trace, verdict = out
    _check(induce(inst, cutoffs) == matching, "matching is not induced by the cutoffs")
    _check(verdict.at_least("cutoff"), f"verdict {verdict.level}, expected cutoff stable")
    _check(check_feasibility(inst, matching)[0], "matching is not fundable")
    feas = SipFeasibility(inst)
    for p in inst.projects:
        if cutoffs[p] > 0:
            lower = induce(inst, cutoffs.decremented(p))
            _check(not matching_feasible(inst, lower, feas), f"cutoff of {p} is not minimal")
    bound = (len(inst.applicants) + 1) * len(inst.projects) ** 2
    _check(trace.feasibility_calls <= bound, "feasibility calls exceed (|A|+1)|P|^2")


def _cohort_summary(inst: Instance, out):
    matching, cutoffs, _, verdict = out
    return {"matching": _pairs(matching), "cutoffs": dict(cutoffs.cutoffs),
            "verdict": verdict.to_json_dict()}


# optimize-small: the exact MILP on the acceptance-test shape, stratified by
# the number of mutually acceptable pairs (the MILP's binary variables),
# which sets most of the branch-and-bound cost.

OPTIMIZE_SHAPE = dict(max_applicants=7, max_projects=3, max_supervisors=2,
                      density="3/5", budget_range=(0, 3))
OPTIMIZE_SCHEDULE = (2, 3, 4, 5, 6)


def _acceptable_pairs(inst: Instance) -> int:
    return len(inst.acceptable_pairs())


def _optimize_inputs(seed: int, clock: SetupClock) -> Iterator[Instance]:
    make = lambda s: random_instance(s, **OPTIMIZE_SHAPE)
    for inst in stratified(timed_candidates(make, seed, clock), _acceptable_pairs,
                           OPTIMIZE_SCHEDULE):
        yield load_like_cli(inst, clock)


def _optimize_run(inst: Instance, ctx: Context):
    return ctx.call("milp.solve_max_cutoff_stable", milp.solve_max_cutoff_stable, inst)


def _optimize_gate(inst: Instance, out) -> None:
    matching = out[0]
    best, _ = oracle.max_cutoff_stable_bruteforce(inst, guard=len(inst.applicants))
    _check(len(matching) == best, f"MILP size {len(matching)}, brute force {best}")


def _optimize_summary(inst: Instance, out):
    matching, _, objective, _ = out
    return {"size": len(matching), "objective": format_rational(objective)}


# allocate-leximin: leximin funding for the engine's matching; stratified by
# the number of supervisor-project pairs, which sets how many LPs are solved.

ALLOCATE_SHAPE = dict(n_applicants=12, n_projects=5, n_supervisors=3,
                      pref_density=Fraction(3, 10), budget_range=(0, 10))
ALLOCATE_SCHEDULE = (7, 8, 9)


def _allocate_inputs(seed: int, clock: SetupClock) -> Iterator[tuple]:
    make = lambda s: generate_random(s, **ALLOCATE_SHAPE)
    pool = stratified(timed_candidates(make, seed, clock), _supervised_pairs,
                      ALLOCATE_SCHEDULE)
    for inst in pool:
        inst = load_like_cli(inst, clock)
        matching, _, _ = engine.solve(inst)
        yield inst, matching


def _allocate_run(inp, ctx: Context):
    inst, matching = inp
    return ctx.call("egalitarian.egalitarian_allocation",
                    egalitarian.egalitarian_allocation, inst, matching)


def _allocate_gate(inp, result) -> None:
    inst, matching = inp
    _check(verify_allocation(inst, matching.counts(inst), result.allocation),
           "allocation violates the funding constraints")


def _allocate_summary(inp, result):
    return {"allocation": [[s, p, format_rational(x)]
                           for (s, p), x in sorted(result.allocation.items())]}


# oracle-reduce: both SMTI reductions solved by brute force; stratified by
# the number of men and whether the strong-stability input has a tie.

ORACLE_SCHEDULE = interleave({(1, 0): 7, (2, 0): 6, (3, 0): 3, (2, 1): 3, (3, 1): 1})


def _smti_pair(s: int) -> tuple:
    return (random_smti(s, max_men=3, max_ties=1, balanced=True),
            random_smti(s, max_men=3, max_ties=3))


def _smti_key(pair) -> tuple:
    strong = pair[0]
    return len(strong.men), len(strong.women_tie)


def _oracle_inputs(seed: int, clock: SetupClock) -> Iterator[tuple]:
    return stratified(timed_candidates(_smti_pair, seed, clock), _smti_key, ORACLE_SCHEDULE)


def _oracle_run(pair, ctx: Context):
    strong_in, size_in = pair
    reduced = ctx.call("oracle.reduce_smti_strong", oracle.reduce_smti_strong, strong_in)
    has_strong = ctx.call("oracle.exists_strongly_stable", oracle.exists_strongly_stable,
                          reduced, guard=len(reduced.applicants))
    reduced2, offset = ctx.call("oracle.reduce_smti_maxsize", oracle.reduce_smti_maxsize,
                                size_in)
    size, _ = ctx.call("oracle.max_cutoff_stable_bruteforce",
                       oracle.max_cutoff_stable_bruteforce,
                       reduced2, guard=len(reduced2.applicants))
    return has_strong, size + offset


def _oracle_gate(pair, out) -> None:
    has_strong, size = out
    _, complete = oracle.smti_weakly_stable_bruteforce(pair[0])
    _check(has_strong == complete, "strong-stability reduction disagrees with SMTI")
    want, _ = oracle.smti_weakly_stable_bruteforce(pair[1])
    _check(size == want, f"max-size reduction gives {size}, SMTI gives {want}")


def _oracle_summary(pair, out):
    return {"has_strong": out[0], "size": out[1]}


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-cohort",
        "generate_random(s, 50, 10, 5, pref_density=3/10, budget_range=(0,10))",
        210, _cohort_inputs, _cohort_run, _cohort_gate, _cohort_summary),
    Workload(
        "optimize-small",
        "acceptance-test MILP shape (<=7 applicants, <=3 projects, <=2 supervisors, "
        "density 3/5, budgets (0,3)) with 2, 3, 4, 5, 6 acceptable pairs in turn",
        700, _optimize_inputs, _optimize_run, _optimize_gate, _optimize_summary),
    Workload(
        "allocate-leximin",
        "generate_random(s, 12, 5, 3, pref_density=3/10, budget_range=(0,10)) with "
        "7, 8, 9 supervised pairs in turn; matching by engine.solve in set-up",
        390, _allocate_inputs, _allocate_run, _allocate_gate, _allocate_summary),
    Workload(
        "oracle-reduce",
        "random_smti pairs (strong: 3 men, 1 tie, balanced; max-size: 3 men, 3 ties) "
        "by (men, ties) in the ratio (1,0):(2,0):(3,0):(2,1):(3,1) = 7:6:3:3:1",
        260, _oracle_inputs, _oracle_run, _oracle_gate, _oracle_summary),
)}


def build_pool(workload: Workload, seed: int, size: int) -> tuple[list, SetupClock]:
    clock = SetupClock()
    stream = workload.inputs(seed, clock)
    return [next(stream) for _ in range(size)], clock


def check_output(workload: Workload, inp, out) -> str:
    """Run the correctness gate and return the output's digest."""
    workload.gate(inp, out)
    return digest(workload.summary(inp, out))
