"""The cutoff-decreasing solver: worked traces, order dependence, the
strategic misreport example, minimality of the final cutoffs, and the
feasibility-call budget."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import M, random_instance, random_matching

from cutoffmatch.engine import solve
from cutoffmatch.flow import SipFeasibility, build_flow_graph, max_flow
from cutoffmatch.model import GADGET_NAMES, gadget, generate_random, make_instance
from cutoffmatch.stability import (
    CutoffVector,
    check_stability,
    induce,
    matching_feasible,
)


def test_example2_trace():
    inst = gadget("example2_unsolvable")
    matching, cutoffs, trace = solve(inst)
    assert matching == M(("a1", "p1"))
    assert cutoffs.cutoffs == {"p1": 2, "p2": 3}


def test_thm7_item1_order_and_misreport():
    inst = gadget("thm7_item1")
    matching, _, _ = solve(inst, project_order=("p1", "p2"))
    assert matching == M(("a1", "p1"))

    # a2 flips her list to p2, p1 and walks away with her true favourite
    lying = make_instance(
        applicants=["a1", "a2"],
        applicant_prefs={"a1": ["p2", "p1"], "a2": ["p2", "p1"]},
        project_prefs={"p1": ["a2", "a1"], "p2": ["a2", "a1"]},
        capacities={"p1": 1, "p2": 1},
        supervised={"s": ["p1", "p2"]},
        budgets={"s": 1},
    )
    matching, _, _ = solve(lying, project_order=("p1", "p2"))
    assert matching == M(("a2", "p2"))


def test_thm7_item3_output_depends_on_project_order():
    inst = gadget("thm7_item3")
    m_a, _, _ = solve(inst, project_order=("p1", "p2", "p3"))
    m_b, _, _ = solve(inst, project_order=("p1", "p3", "p2"))
    assert m_a == M(("a1", "p2"), ("a2", "p1"))
    assert m_b == M(("a1", "p1"), ("a3", "p3"))
    for m in (m_a, m_b):
        assert check_stability(inst, m).at_least("cutoff")


def test_thm7_item4_unreachable_matching():
    inst = gadget("thm7_item4")
    produced = set()
    for order in itertools.permutations(inst.projects):
        m, _, _ = solve(inst, project_order=order)
        produced.add(m.pairs)
    assert produced == {frozenset({("a1", "p2"), ("a2", "p1")})}
    # yet the other matching is itself cutoff stable
    other = M(("a1", "p1"), ("a2", "p2"))
    assert check_stability(inst, other).at_least("cutoff")


def test_final_cutoffs_induce_the_matching_and_are_minimal():
    for name in GADGET_NAMES:
        inst = gadget(name)
        feas = SipFeasibility(inst)
        matching, cutoffs, _ = solve(inst)
        assert induce(inst, cutoffs) == matching
        assert matching_feasible(inst, matching, feas)
        for p in inst.projects:
            if cutoffs[p] == 0:
                continue
            dec = induce(inst, cutoffs.decremented(p))
            assert not matching_feasible(inst, dec, feas), (name, p)


def test_output_cutoff_stable_on_gadgets():
    for name in GADGET_NAMES:
        inst = gadget(name)
        matching, _, _ = solve(inst)
        assert check_stability(inst, matching).at_least("cutoff"), name


def test_feasibility_call_budget():
    for seed in range(30):
        inst = random_instance(seed, max_applicants=8, max_projects=8,
                               max_supervisors=4)
        _, _, trace = solve(inst)
        bound = (len(inst.applicants) + 1) * len(inst.projects) ** 2
        assert trace.feasibility_calls <= bound


def test_reinduced_cutoffs_agree_with_incremental_updates():
    # replay the trace: after every applied decrement the cutoffs so far
    # induce a matching of the traced size, and the final ones induce the
    # returned matching
    for name in GADGET_NAMES:
        inst = gadget(name)
        for order in (inst.projects, inst.projects[::-1]):
            matching, cutoffs, trace = solve(inst, project_order=order)
            replay = {p: inst.max_cutoff() for p in inst.projects}
            for entry in trace.entries:
                replay[entry.project] = entry.new_cutoff
                induced = induce(inst, CutoffVector(dict(replay)))
                assert len(induced) == entry.matching_size, (name, entry)
            assert replay == dict(cutoffs.cutoffs), name
            assert induce(inst, cutoffs) == matching, name


def test_custom_feasibility_function():
    # with no funding limits at all the applicants sort themselves by score
    inst = gadget("thm7_item1")
    matching, _, _ = solve(inst, feasibility=lambda counts: True)
    assert matching == M(("a1", "p1"), ("a2", "p2"))


def test_trace_is_json_lines():
    import json

    inst = gadget("example2_unsolvable")
    _, _, trace = solve(inst)
    lines = trace.to_json_lines().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"project", "new_cutoff", "matching_size",
                              "feasibility_calls"}
    # cutoffs never increase along the trace, per project
    last = {}
    for line in lines:
        entry = json.loads(line)
        p = entry["project"]
        assert entry["new_cutoff"] < last.get(p, len(inst.applicants) + 2)
        last[p] = entry["new_cutoff"]


def test_rejects_non_permutation_order():
    inst = gadget("example1")
    with pytest.raises(ValueError):
        solve(inst, project_order=("p1",))
    with pytest.raises(ValueError):
        solve(inst, project_order=("p1", "p1"))


def test_deterministic():
    inst = random_instance(3)
    assert solve(inst)[0] == solve(inst)[0]


# -- the memoised, warm-started oracle against a cold one ------------------

def cold_feasibility(instance):
    """Budget feasibility by a fresh max-flow from zero flow on every call:
    no memo, no warm start, no cut screen."""
    def feasible(counts):
        value, _ = max_flow(build_flow_graph(instance, counts))
        return value == sum(counts.values())
    return feasible


DIFFERENTIAL_SWEEP = (
    [gadget(name) for name in GADGET_NAMES]
    + [random_instance(seed, max_applicants=12, max_projects=6, max_supervisors=4,
                       budget_range=(0, 4)) for seed in range(60)]
    + [generate_random(seed, 50, 10, 5, pref_density=Fraction(3, 10), budget_range=(0, 10))
       for seed in range(6)]
)


def test_solve_with_the_default_oracle_equals_a_cold_oracle():
    for inst in DIFFERENTIAL_SWEEP:
        matching, cutoffs, trace = solve(inst)
        cold_matching, cold_cutoffs, cold_trace = solve(
            inst, feasibility=cold_feasibility(inst))
        assert matching == cold_matching, inst.applicants
        assert cutoffs == cold_cutoffs
        assert trace.to_json_lines() == cold_trace.to_json_lines()
        assert trace.feasibility_calls == cold_trace.feasibility_calls


def test_check_stability_with_the_default_oracle_equals_a_cold_oracle():
    levels = set()
    for seed, inst in enumerate(DIFFERENTIAL_SWEEP):
        rng = random.Random(seed)
        for matching in [solve(inst)[0]] + [random_matching(inst, rng) for _ in range(3)]:
            verdict = check_stability(inst, matching)
            cold = check_stability(inst, matching, cold_feasibility(inst))
            assert verdict.to_json_dict() == cold.to_json_dict(), (seed, matching)
            levels.add(verdict.level)
    assert levels == {"infeasible", "unfair", "fair", "weak", "cutoff", "strong"}
