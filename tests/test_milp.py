"""Maximum-size cutoff stable matching by exact branch and bound:
model structure, gadget optima against the brute-force oracle, the LP file
export, and the node-limit escape hatch."""

import pytest

from conftest import M, random_instance

from cutoffmatch.milp import (
    NodeLimitExceeded,
    build_model,
    export_lp_file,
    solve_max_cutoff_stable,
)
from cutoffmatch.model import GADGET_NAMES, gadget, generate_random
from cutoffmatch.oracle import max_cutoff_stable_bruteforce
from cutoffmatch.stability import check_stability, induce


def test_model_shape_example4():
    model = build_model(gadget("example4_distinct"))
    # mutually acceptable pairs: a1 x 3, a2 x 2, a3 x 1
    assert len(model.y_vars) == 6
    assert len(model.d_vars) == 3
    assert len(model.x_vars) == 3
    assert model.big_w == 3 * 4 + 1
    lp = model.program
    for name, _, _ in model.y_vars:
        assert (lp.lower[name], lp.upper[name]) == (0, 1)
        assert lp.objective[name] == model.big_w
    for name, _ in model.d_vars:
        assert (lp.lower[name], lp.upper[name]) == (0, 4)
        assert lp.objective[name] == -1


def test_model_shape_example2():
    model = build_model(gadget("example2_unsolvable"))
    assert len(model.y_vars) == 4
    assert len(model.d_vars) == 2
    assert len(model.x_vars) == 2
    # one applicant row each, one coupling + one capacity row per project,
    # one budget row, one admission and one rejection row per pair
    assert len(model.program.constraints) == 2 + 2 * 2 + 1 + 2 * 4


def test_gadget_optima_match_oracle():
    expected = {
        "example1": 1,
        "example2_unsolvable": 1,
        "example3_cycle": 3,
        "example4_distinct": 2,
        "thm7_item1": 1,
        "thm7_item3": 2,
        "thm7_item4": 2,
    }
    for name in GADGET_NAMES:
        inst = gadget(name)
        matching, cutoffs, objective, nodes = solve_max_cutoff_stable(inst)
        assert len(matching) == expected[name], name
        assert len(matching) == max_cutoff_stable_bruteforce(inst)[0]
        assert check_stability(inst, matching).at_least("cutoff")
        assert induce(inst, cutoffs) == matching
        assert nodes >= 1


def test_example3_optimum_is_exact():
    inst = gadget("example3_cycle")
    matching, _, objective, _ = solve_max_cutoff_stable(inst)
    w = build_model(inst).big_w
    # size-3 optimum; the cutoff term is whatever the chosen witness needs
    assert 3 * w - 4 * inst.max_cutoff() <= objective < 4 * w


def test_secondary_objective_prefers_small_cutoffs():
    # the two supervisors can fund both projects, three applicants compete;
    # among same-size solutions the solver must pick minimal cutoffs, which
    # is what makes the answer cutoff stable rather than just fair
    inst = generate_random(1, 3, 4, 1, pref_density="7/10", budget_range=(0, 3))
    matching, cutoffs, objective, _ = solve_max_cutoff_stable(inst)
    assert matching == M(("a2", "p1"), ("a3", "p4"))
    w = build_model(inst).big_w
    assert objective == 2 * w - 6


def test_node_limit():
    inst = gadget("example3_cycle")
    with pytest.raises(NodeLimitExceeded):
        solve_max_cutoff_stable(inst, node_limit=2)


def test_random_sweep_matches_oracle():
    for seed in range(12):
        inst = random_instance(seed, max_applicants=6, max_projects=3,
                               max_supervisors=2, density="3/5")
        matching, _, _, _ = solve_max_cutoff_stable(inst)
        assert len(matching) == max_cutoff_stable_bruteforce(inst)[0], seed


# nodes explored per seed on the acceptance test's c07 shape; the simplex
# must return the same vertex for every LP, or branch and bound strays
C07_NODES = [29, 3, 1, 7, 17, 9, 11, 19, 5, 31, 31, 17, 27, 37, 1, 3, 7, 23, 9, 53]


def test_branch_and_bound_path_is_pinned():
    nodes = []
    for seed in range(20):
        inst = random_instance(seed, max_applicants=7, max_projects=3,
                               max_supervisors=2, density="3/5")
        nodes.append(solve_max_cutoff_stable(inst, verify=False)[3])
    assert nodes == C07_NODES


def test_export_lp_file(tmp_path):
    model = build_model(gadget("example2_unsolvable"))
    path = tmp_path / "model.lp"
    export_lp_file(model, str(path))
    text = path.read_text()
    assert text.startswith("Maximize\n")
    assert text.endswith("End\n")
    for name, _, _ in model.y_vars + model.x_vars:
        assert name in text
    for name, _ in model.d_vars:
        assert name in text
    # byte-stable across exports
    export_lp_file(model, str(path))
    assert path.read_text() == text
