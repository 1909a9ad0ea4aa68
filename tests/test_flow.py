"""Funding feasibility: exact max-flow, certificates, and the structural
properties the stability layer depends on (heredity, anonymity,
integrality)."""

import itertools
import math
import random
import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import M, random_instance, random_matching

from cutoffmatch import flow as flow_module
from cutoffmatch.flow import (
    SINK,
    SOURCE,
    SipFeasibility,
    build_flow_graph,
    check_feasibility,
    max_flow,
    min_cut_reachable,
    to_dot,
    verify_allocation,
)
from cutoffmatch.model import gadget, make_instance


def test_max_flow_hand_example():
    inst = gadget("example1")
    graph = build_flow_graph(inst, {"p1": 0, "p2": 1})
    value, flow = max_flow(graph)
    assert value == 1
    # the cut certifies optimality: all arcs leaving the reachable set are
    # saturated, so value == cut capacity
    reach = min_cut_reachable(graph, flow)
    assert SOURCE in reach and SINK not in reach
    cut = sum(
        cap for (u, v), cap in graph.capacity.items()
        if u in reach and v not in reach
    )
    assert cut == value


def test_check_feasibility_example1_triple():
    inst = gadget("example1")
    # s1 and s2 together hold 7/10 + 1/2, but p1 is funded by s1 alone
    ok, alloc = check_feasibility(inst, M(("a2", "p1")))
    assert not ok and alloc is None
    for m in (M(), M(("a1", "p2")), M(("a2", "p2"))):
        ok, alloc = check_feasibility(inst, m)
        assert ok
        assert verify_allocation(inst, m.counts(inst), alloc)


def test_check_feasibility_rejects_invalid_matchings():
    inst = gadget("example1")
    assert check_feasibility(inst, M(("a1", "p1"), ("a1", "p2")))[0] is False
    assert check_feasibility(inst, M(("a9", "p1")))[0] is False


def test_fractional_certificate_splits_funding():
    inst = gadget("example1")
    ok, alloc = check_feasibility(inst, M(("a1", "p2")))
    assert ok
    assert sum(alloc.values()) == 1
    assert alloc[("s1", "p2")] + alloc[("s2", "p2")] == 1


def test_verify_allocation_rejects_violations():
    inst = gadget("example1")
    counts = {"p1": 0, "p2": 1}
    assert verify_allocation(inst, counts, {("s2", "p2"): Fraction(1, 2),
                                            ("s1", "p2"): Fraction(1, 2)})
    # wrong total at the project
    assert not verify_allocation(inst, counts, {("s2", "p2"): Fraction(1, 2)})
    # supervisor over budget
    assert not verify_allocation(inst, counts, {("s2", "p2"): Fraction(1)})
    # funding a project outside the supervised set
    assert not verify_allocation(inst, {"p1": 1, "p2": 0}, {("s2", "p1"): Fraction(1)})


def test_sip_feasibility_counts_every_call():
    inst = gadget("example1")
    feas = SipFeasibility(inst)
    assert feas({"p1": 0, "p2": 1})
    assert feas({"p1": 0, "p2": 1})  # memo hit still counts
    assert feas.calls == 2


def test_feasible_counts_matches_check_feasibility():
    inst = gadget("thm7_item3")
    for m in (M(), M(("a1", "p2"), ("a2", "p2")), M(("a1", "p1"), ("a3", "p3"))):
        assert SipFeasibility(inst)(m.counts(inst)) == check_feasibility(inst, m)[0]


def test_heredity_and_anonymity_random_sweep():
    for seed in range(40):
        inst = random_instance(seed, max_applicants=6, max_projects=5, max_supervisors=3)
        rng = random.Random(seed * 31 + 1)
        feas = SipFeasibility(inst)
        m = random_matching(inst, rng)
        counts = m.counts(inst)
        if feas(counts):
            # heredity: any pointwise smaller count vector stays feasible
            sub = {p: rng.randint(0, c) for p, c in counts.items()}
            assert feas(sub)
        # anonymity: feasibility only reads the count vector, so any
        # matching with the same counts agrees
        ok1, _ = check_feasibility(inst, m)
        assert ok1 == feas(counts)


def test_integrality_with_integer_budgets():
    for seed in range(30):
        inst = random_instance(seed, max_applicants=6, max_projects=5,
                               max_supervisors=3, budget_range=(0, 3))
        if any(q.denominator != 1 for q in inst.budgets.values()):
            continue
        rng = random.Random(seed)
        m = random_matching(inst, rng)
        ok, alloc = check_feasibility(inst, m)
        if ok:
            assert all(x.denominator == 1 for x in alloc.values())


def test_integrality_fixture():
    inst = make_instance(
        applicants=["a1", "a2"],
        applicant_prefs={"a1": ["p1"], "a2": ["p2"]},
        project_prefs={"p1": ["a1"], "p2": ["a2"]},
        capacities={"p1": 1, "p2": 1},
        supervised={"s1": ["p1", "p2"], "s2": ["p2"]},
        budgets={"s1": 1, "s2": 1},
    )
    ok, alloc = check_feasibility(inst, M(("a1", "p1"), ("a2", "p2")))
    assert ok
    assert all(x.denominator == 1 for x in alloc.values())
    assert verify_allocation(inst, {"p1": 1, "p2": 1}, alloc)


def test_to_dot_lists_every_arc():
    inst = gadget("example1")
    graph = build_flow_graph(inst, {"p1": 0, "p2": 1})
    dot = to_dot(graph)
    assert dot.startswith("digraph funding {")
    assert dot.count("->") == len(graph.capacity)


def test_to_dot_flow_and_capacity_parse_back():
    # fractional budgets: "flow=0/7/10" could not say which slash divides
    inst = make_instance(
        applicants=["a1"],
        applicant_prefs={"a1": ["p"]},
        project_prefs={"p": ["a1"], "q": []},
        capacities={"p": 1, "q": 1},
        supervised={"s1": ["p"], "s2": ["p"], "s3": ["q"]},
        budgets={"s1": "3/4", "s2": "3/4", "s3": "7/10"},
    )
    graph = build_flow_graph(inst, {"p": 1})
    _, flow = max_flow(graph)
    labels = re.findall(r'"([^"]+)" -> "([^"]+)" \[label="flow=([^,"]+), cap=([^,"]+)"\]',
                        to_dot(graph, flow))
    assert len(labels) == len(graph.capacity)
    values = {(u, v): (Fraction(f), Fraction(c)) for u, v, f, c in labels}
    assert values == {arc: (flow.get(arc, Fraction(0)), cap)
                      for arc, cap in graph.capacity.items()}
    assert (Fraction(0), Fraction(7, 10)) in values.values()
    assert any(f.denominator > 1 and c.denominator > 1 for f, c in values.values())


# -- the integer kernel against Gale's supply-demand condition ------------

# denominators 3 and 7 give the kernel a scale of L = 21; zero budgets
# and unsupervised projects appear too
MIXED_BUDGETS = (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1),
                 Fraction(5, 3), Fraction(9, 7))


def mixed_instance(seed):
    """Up to 4 projects (capacities 0-2) and 3 supervisors with budgets
    from MIXED_BUDGETS; every applicant accepts every project, so any
    count vector within capacity is some matching's."""
    rng = random.Random(seed)
    projects = [f"p{j}" for j in range(1, rng.randint(1, 4) + 1)]
    supervisors = [f"s{k}" for k in range(1, rng.randint(1, 3) + 1)]
    capacities = {p: rng.randint(0, 2) for p in projects}
    applicants = [f"a{i}" for i in range(1, sum(capacities.values()) + 1)]
    return make_instance(
        applicants=applicants,
        applicant_prefs={a: projects for a in applicants},
        project_prefs={p: applicants for p in projects},
        capacities=capacities,
        supervised={s: rng.sample(projects, rng.randint(0, len(projects)))
                    for s in supervisors},
        budgets={s: rng.choice(MIXED_BUDGETS) for s in supervisors},
        projects=projects,
        supervisors=supervisors,
    )


def count_vectors(inst):
    """Every count vector within capacity, as (counts, matching) pairs."""
    ranges = [range(inst.capacities[p] + 1) for p in inst.projects]
    for vector in itertools.product(*ranges):
        applicants = iter(inst.applicants)
        pairs = [(next(applicants), p) for p, c in zip(inst.projects, vector) for _ in range(c)]
        yield dict(zip(inst.projects, vector)), M(*pairs)


def gale_violations(inst, counts):
    """Project sets Q whose demand exceeds the budget of their supervisors
    N(Q); the counts are feasible iff there are none (Gale 1957)."""
    out = []
    for r in range(1, len(inst.projects) + 1):
        for q in itertools.combinations(inst.projects, r):
            supply = sum((inst.budgets[s] for s in inst.supervisors
                          if set(inst.supervised[s]) & set(q)), Fraction(0))
            if sum(counts[p] for p in q) > supply:
                out.append(q)
    return out


MIXED_SWEEP = [mixed_instance(seed) for seed in range(400)]


def test_mixed_sweep_covers_the_edge_cases():
    denominators = {q.denominator for inst in MIXED_SWEEP for q in inst.budgets.values()}
    assert {3, 7} <= denominators
    assert any(q == 0 for inst in MIXED_SWEEP for q in inst.budgets.values())
    assert any(not inst.supervisors_of(p) for inst in MIXED_SWEEP for p in inst.projects)


def test_sip_feasibility_equals_gale_condition():
    verdicts = {True: 0, False: 0}
    for inst in MIXED_SWEEP:
        feas = SipFeasibility(inst)
        for counts, _ in count_vectors(inst):
            ok = feas(counts)
            assert ok == (not gale_violations(inst, counts)), (inst, counts)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 500


def test_certificates_verify_and_cuts_name_violated_sets():
    for inst in MIXED_SWEEP:
        for counts, m in count_vectors(inst):
            ok, alloc = check_feasibility(inst, m)
            if ok:
                assert verify_allocation(inst, counts, alloc), (inst, counts)
                continue
            graph = build_flow_graph(inst, counts)
            value, flow = max_flow(graph)
            assert value < sum(counts.values())
            reach = min_cut_reachable(graph, flow)
            assert SOURCE in reach and SINK not in reach
            # the cut's capacity is the flow value: the flow is maximum
            assert value == sum(cap for (u, v), cap in graph.capacity.items()
                                if u in reach and v not in reach)
            q = [p for p in inst.projects if p not in reach]
            supply = sum((inst.budgets[s] for s in inst.supervisors
                          if set(inst.supervised[s]) & set(q)), Fraction(0))
            assert sum(counts[p] for p in q) > supply, (inst, counts)


def supply_of(inst, projects):
    """The budget of the supervisors of a project set, N(Q)."""
    return sum((inst.budgets[s] for s in inst.supervisors
                if set(inst.supervised[s]) & set(projects)), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_warm_started_memo_equals_a_cold_max_flow(data):
    # probe sequences through one memo: random vectors, some given as
    # partial mappings, and the engine's and checker's +e_p (-e_q) moves
    # from the last feasible vector
    inst = data.draw(st.sampled_from(MIXED_SWEEP))
    projects = inst.projects
    feas = SipFeasibility(inst)
    base = dict.fromkeys(projects, 0)
    seen_cuts = set()
    answered = set()
    solved = []
    inner = flow_module.max_flow

    def recording_max_flow(graph):
        solved.append(graph)
        return inner(graph)

    for _ in range(data.draw(st.integers(1, 25))):
        if data.draw(st.booleans()):
            counts = {p: data.draw(st.integers(0, 3)) for p in projects}
        else:
            counts = dict(base)
            counts[data.draw(st.sampled_from(projects))] += 1
            drop = data.draw(st.sampled_from((None, *projects)))
            if drop is not None and counts[drop]:
                counts[drop] -= 1
        probe = counts
        if data.draw(st.booleans()):
            probe = {p: c for p, c in counts.items() if c}
        solved.clear()
        flow_module.max_flow = recording_max_flow
        try:
            ok = feas(probe)
        finally:
            flow_module.max_flow = inner
        # a memo miss runs one max-flow unless a stored cut answers it
        key = tuple(counts[p] for p in projects)
        screened = any(sum(key[j] for j in positions) > bound for positions, bound in seen_cuts)
        assert len(solved) == (key not in answered and not screened)
        answered.add(key)
        value, _ = max_flow(build_flow_graph(inst, counts))
        assert ok == (value == sum(counts.values())), (inst, counts)
        assert ok == (not gale_violations(inst, counts)), (inst, counts)
        cuts = {cut for listed in feas._cuts for cut in listed}
        for positions, bound in cuts - seen_cuts:
            # only an infeasible max-flow stores a cut, and it names a set
            # its vector violates, with the supply of N(Q) rounded down
            assert not ok
            q = [projects[j] for j in positions]
            supply = supply_of(inst, q)
            assert sum(counts[p] for p in q) > supply, (inst, counts, q)
            assert bound == math.floor(supply)
        seen_cuts = cuts
        if ok:
            base = counts


def test_flows_are_fractions_in_budget_units():
    inst = next(inst for inst in MIXED_SWEEP
                if {q.denominator for q in inst.budgets.values()} >= {3, 7})
    counts = {p: inst.capacities[p] for p in inst.projects}
    value, flow = max_flow(build_flow_graph(inst, counts))
    assert isinstance(value, Fraction)
    assert value == sum(flow[(p, SINK)] for p in inst.projects)
    for s in inst.supervisors:
        assert flow[(SOURCE, s)] <= inst.budgets[s]
        assert flow[(SOURCE, s)] == sum((flow[(s, p)] for p in inst.supervised[s]),
                                        Fraction(0))


def test_supervisor_named_like_a_project_stays_a_separate_node():
    # s2 funds only p1; the supervisor *named* "p1" funds only p2 and has
    # no budget.  On a graph keyed by name the two p1 nodes merge and s2's
    # budget leaks through to p2.
    inst = make_instance(
        applicants=["a"],
        applicant_prefs={"a": ["p2"]},
        project_prefs={"p1": [], "p2": ["a"]},
        capacities={"p1": 1, "p2": 1},
        supervised={"s2": ["p1"], "p1": ["p2"]},
        budgets={"s2": 5, "p1": 0},
        projects=["p1", "p2"],
        supervisors=["s2", "p1"],
    )
    assert not SipFeasibility(inst)({"p2": 1})
    assert SipFeasibility(inst)({"p1": 1})
    assert check_feasibility(inst, M(("a", "p2"))) == (False, None)
