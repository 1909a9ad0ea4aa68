"""Command-line interface: subcommands, exit codes, output shapes, and
determinism of the file-producing commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_instance, random_smti

import cutoffmatch
from cutoffmatch.cli import EXIT_GUARD, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main
from cutoffmatch.model import GADGET_NAMES, gadget, validate_instance
from cutoffmatch.oracle import max_cutoff_stable_bruteforce, reduce_smti_maxsize


@pytest.fixture
def ex2(tmp_path):
    path = tmp_path / "ex2.json"
    assert main(["gadget", "example2_unsolvable", "--out", str(path)]) == EXIT_OK
    return path


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_gadget_writes_loadable_instance(tmp_path, ex2):
    raw = json.loads(ex2.read_text())
    assert raw["applicants"] == ["a1", "a2"]
    # byte-stable across invocations
    again = tmp_path / "again.json"
    main(["gadget", "example2_unsolvable", "--out", str(again)])
    assert again.read_text() == ex2.read_text()


def test_check_feasible(tmp_path, ex2, capsys):
    m = write_json(tmp_path, "m.json", {"pairs": [["a1", "p1"]]})
    code, report, _ = run_json(capsys, ["check", str(ex2), str(m)])
    assert code == EXIT_OK
    assert report["feasible"] is True
    assert report["allocation"] == {"s->p1": "1"}
    assert report["stability"]["level"] == "cutoff"


def test_check_infeasible_exit_code(tmp_path, capsys):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a2", "p1"]])  # bare-list form
    code, report, _ = run_json(capsys, ["check", str(inst), str(m)])
    assert code == EXIT_NEGATIVE
    assert report["feasible"] is False


def test_check_dot_output(tmp_path, ex2, capsys):
    m = write_json(tmp_path, "m.json", [])
    dot = tmp_path / "flow.dot"
    code, _, _ = run_json(capsys, ["check", str(ex2), str(m), "--dot", str(dot)])
    assert code == EXIT_OK
    assert dot.read_text().startswith("digraph funding {")


def test_check_dot_unknown_project_is_infeasible(tmp_path, capsys):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a1", "p9"]])
    code, plain, _ = run_json(capsys, ["check", str(inst), str(m)])
    dot = tmp_path / "flow.dot"
    code_dot, report, err = run_json(capsys, ["check", str(inst), str(m), "--dot", str(dot)])
    assert code == code_dot == EXIT_NEGATIVE
    assert report == plain == {"command": "check", "matching": [["a1", "p9"]],
                               "feasible": False}
    assert err == ""
    assert dot.read_text().startswith("digraph funding {")


def test_check_pair_order_ignores_hash_seed(tmp_path):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a1", "p2"], ["a1", "p1"]])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(cutoffmatch.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "cutoffmatch.cli", "check", str(inst), str(m)],
            capture_output=True, env=env, check=False)
        assert proc.returncode == EXIT_NEGATIVE and proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["matching"] == [["a1", "p1"], ["a1", "p2"]]


def test_every_subcommand_prints_the_same_bytes_twice(tmp_path, ex2, capsys):
    m = write_json(tmp_path, "m.json", [["a1", "p1"]])
    commands = [
        ["check", str(ex2), str(m)],
        ["solve", str(ex2), "--trace"],
        ["optimize", str(ex2)],
        ["allocate", str(ex2), str(m)],
        ["generate", "--seed", "3"],
        ["gadget", "example3_cycle"],
        ["oracle", str(ex2)],
    ]
    for argv in commands:
        for fmt in ("json", "text"):
            runs = []
            for _ in range(2):
                assert main(["--format", fmt, *argv]) == EXIT_OK, argv
                runs.append(capsys.readouterr())
            assert runs[0].out and runs[0] == runs[1], argv


@pytest.mark.parametrize("pairs", [["ap"], [[1, "p1"]]])
def test_check_rejects_malformed_matching(tmp_path, ex2, capsys, pairs):
    m = write_json(tmp_path, "m.json", pairs)
    assert main(["check", str(ex2), str(m)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {m}: expected a list of [applicant, project] pairs\n"


def test_solve_with_order_and_trace(tmp_path, ex2, capsys):
    code, report, err = run_json(
        capsys, ["solve", str(ex2), "--order", "p2,p1", "--trace"])
    assert code == EXIT_OK
    assert report["matching"] == [["a2", "p2"]]
    assert report["cutoffs"] == {"p1": 3, "p2": 2}
    assert report["cutoff_stable"] is True
    assert report["feasibility_calls"] == 2
    for line in err.strip().splitlines():
        assert set(json.loads(line)) == {"project", "new_cutoff",
                                         "matching_size", "feasibility_calls"}


def test_solve_rejects_bad_order(ex2):
    assert main(["solve", str(ex2), "--order", "p1"]) == EXIT_INPUT


def test_optimize(tmp_path, ex2, capsys):
    lp_out = tmp_path / "model.lp"
    code, report, _ = run_json(
        capsys, ["optimize", str(ex2), "--export-lp", str(lp_out)])
    assert code == EXIT_OK
    assert report["size"] == 1
    assert report["matching"] == [["a1", "p1"]]
    assert report["objective"] == "2"  # 1*W - (2+3) with W = 7
    assert lp_out.read_text().startswith("Maximize\n")


def test_optimize_ids_that_join_alike(tmp_path, capsys):
    # "a_b" + "c" and "a" + "b_c" would both read y_a_b_c if named by id
    payload = {
        "applicants": ["a_b", "a"],
        "projects": [{"id": "c", "capacity": 1, "prefs": ["a_b"]},
                     {"id": "b_c", "capacity": 1, "prefs": ["a"]}],
        "supervisors": [{"id": "s", "budget": "1", "projects": ["c", "b_c"]}],
        "applicant_prefs": {"a_b": ["c"], "a": ["b_c"]},
    }
    inst = write_json(tmp_path, "inst.json", payload)
    lp_out = tmp_path / "model.lp"
    code, report, _ = run_json(capsys, ["optimize", str(inst), "--export-lp", str(lp_out)])
    assert code == EXIT_OK
    assert report["size"] == max_cutoff_stable_bruteforce(validate_instance(payload))[0]
    legend = [line for line in lp_out.read_text().splitlines() if line.startswith("\\ ")]
    assert legend[:2] == ['\\ y_0_0: applicant "a_b", project "c"',
                          '\\ y_1_1: applicant "a", project "b_c"']


def test_optimize_node_limit_exit(ex2):
    assert main(["optimize", str(ex2), "--node-limit", "1"]) == EXIT_GUARD


def test_allocate_fixture(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", {
        "applicants": ["a1"],
        "projects": [{"id": "p", "capacity": 1, "prefs": ["a1"]}],
        "supervisors": [
            {"id": "s1", "budget": "1/4", "projects": ["p"]},
            {"id": "s2", "budget": "2", "projects": ["p"]},
        ],
        "applicant_prefs": {"a1": ["p"]},
    })
    m = write_json(tmp_path, "m.json", [["a1", "p"]])
    code, report, _ = run_json(capsys, ["allocate", str(inst), str(m)])
    assert code == EXIT_OK
    assert report["ratios"] == ["3/2", "1/2"]
    assert report["pairs"][0]["x"] == "1/4"
    assert report["lp_solves"] == 0

    custom = write_json(tmp_path, "t.json", [
        {"supervisor": "s1", "project": "p", "target": "1/4"},
        {"supervisor": "s2", "project": "p", "target": "3/4"},
    ])
    code, report, _ = run_json(
        capsys, ["allocate", str(inst), str(m), "--targets", str(custom)])
    assert code == EXIT_OK


def test_allocate_infeasible_matching(tmp_path, capsys):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a2", "p1"]])
    assert main(["allocate", str(inst), str(m)]) == EXIT_NEGATIVE


EX1_TARGETS = [
    {"supervisor": "s1", "project": "p1", "target": "1"},
    {"supervisor": "s1", "project": "p2", "target": "1/2"},
    {"supervisor": "s2", "project": "p2", "target": "1/2"},
]


@pytest.mark.parametrize("records, message", [
    ([{"supervisor": "zz", "project": "p1", "target": "1"}],
     "unknown supervisor 'zz'"),
    (EX1_TARGETS[1:],
     "project p1: strict mode needs a target per supervisor"),
    ([{"supervisor": "s1", "target": "1"}],
     "expected a list of {supervisor, project, target} records"),
    ([{**EX1_TARGETS[0], "target": "0"}] + EX1_TARGETS[1:],
     "target for (s1, p1) must be positive, got 0"),
])
def test_allocate_rejects_bad_targets(tmp_path, capsys, records, message):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a1", "p2"]])
    t = write_json(tmp_path, "t.json", records)
    capsys.readouterr()
    assert main(["allocate", str(inst), str(m), "--targets", str(t)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {t}: {message}\n"


@pytest.mark.parametrize("target, message", [
    (True, "target for (s1, p1) True must be a string or integer, not a boolean"),
    (0.5, "target for (s1, p1) 0.5 must be a string or integer, not a float"),
    ("half", "target for (s1, p1) 'half' is not a rational number"),
])
def test_bad_target_value_names_the_target(tmp_path, capsys, target, message):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    m = write_json(tmp_path, "m.json", [["a1", "p2"]])
    t = write_json(tmp_path, "t.json", [{**EX1_TARGETS[0], "target": target}] + EX1_TARGETS[1:])
    capsys.readouterr()
    assert main(["allocate", str(inst), str(m), "--targets", str(t)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {t}: {message}\n"


@pytest.mark.parametrize("flag", ["--density", "--budgets"])
def test_bad_generate_number_names_the_flag(capsys, flag):
    assert main(["generate", "--seed", "1", f"{flag}=half"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} 'half' is not a rational number\n"


@pytest.mark.parametrize("value", ["1e1000000", "-1E-10000000", "2.5e+1_000_000"])
def test_huge_decimal_exponent_exits_2(tmp_path, capsys, value):
    # each would build a number of millions of digits before any other check
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    raw = json.loads(inst.read_text())
    raw["supervisors"][0]["budget"] = value
    bad = write_json(tmp_path, "bad.json", raw)
    m = write_json(tmp_path, "m.json", [["a1", "p2"]])
    t = write_json(tmp_path, "t.json", [{**EX1_TARGETS[0], "target": value}] + EX1_TARGETS[1:])
    capsys.readouterr()
    for argv in (["solve", str(bad)], ["allocate", str(inst), str(m), "--targets", str(t)],
                 ["generate", "--seed", "1", f"--density={value}"],
                 ["generate", "--seed", "1", f"--budgets=0,{value}"]):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{value!r}: decimal exponent beyond ±100" in captured.err


def test_allocate_infeasible_matching_with_targets(tmp_path, capsys):
    inst = tmp_path / "ex1.json"
    main(["gadget", "example1", "--out", str(inst)])
    t = write_json(tmp_path, "t.json", EX1_TARGETS)
    ok = write_json(tmp_path, "ok.json", [["a1", "p2"]])
    bad = write_json(tmp_path, "bad.json", [["a2", "p1"]])
    assert main(["allocate", str(inst), str(ok), "--targets", str(t)]) == EXIT_OK
    assert main(["allocate", str(inst), str(bad), "--targets", str(t)]) == EXIT_NEGATIVE


@pytest.mark.parametrize("records", [
    [{"supervisor": "s1", "project": "p", "target": "1"}],
    [],
])
def test_allocate_lenient_targets_that_cannot_fund_the_matching(tmp_path, capsys, records):
    # s1 has no budget and s2, the only funded supervisor, has no target
    inst = write_json(tmp_path, "inst.json", {
        "applicants": ["a1"],
        "projects": [{"id": "p", "capacity": 1, "prefs": ["a1"]}],
        "supervisors": [
            {"id": "s1", "budget": "0", "projects": ["p"]},
            {"id": "s2", "budget": "1", "projects": ["p"]},
        ],
        "applicant_prefs": {"a1": ["p"]},
    })
    m = write_json(tmp_path, "m.json", [["a1", "p"]])
    t = write_json(tmp_path, "t.json", records)
    argv = ["allocate", str(inst), str(m), "--targets", str(t), "--mode", "lenient"]
    assert main(argv) == EXIT_NEGATIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("the target pairs cannot fund the matching; "
                            "no funding allocation exists\n")


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--seed", "7", "--sizes", "6,4,3", "--density", "7/10"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_generate_rejects_bad_sizes():
    assert main(["generate", "--seed", "1", "--sizes", "x"]) == EXIT_INPUT


@pytest.mark.parametrize("flags", [["--density", "1/0"], ["--budgets", "1/0,2"]])
def test_generate_rejects_zero_denominator(capsys, flags):
    assert main(["generate", "--seed", "1", *flags]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: zero denominator in --density or --budgets: "
                            "Fraction(1, 0)\n")


def test_oracle_classification(tmp_path, ex2, capsys):
    code, report, _ = run_json(capsys, ["oracle", str(ex2)])
    assert code == EXIT_OK
    levels = {tuple(map(tuple, e["matching"])): e["level"]
              for e in report["matchings"]}
    assert levels[()] == "fair"
    assert levels[(("a1", "p1"),)] == "cutoff"
    assert levels[(("a1", "p2"),)] == "unfair"


def test_oracle_max_size_equals_bruteforce(tmp_path, capsys):
    # random_instance(49) has a larger matching than any cutoff stable one;
    # the seed-12 reduction has cutoff stable matchings of sizes 1 and 2
    instances = [gadget(name) for name in GADGET_NAMES]
    instances += [random_instance(49, max_applicants=6, max_projects=4, max_supervisors=3),
                  reduce_smti_maxsize(random_smti(12))[0]]
    path = tmp_path / "inst.json"
    for inst in instances:
        path.write_text(inst.to_json())
        code, report, _ = run_json(capsys, ["oracle", str(path)])
        size, witnesses = max_cutoff_stable_bruteforce(inst)
        assert code == EXIT_OK
        assert report["max_cutoff_stable_size"] == size
        assert report["max_cutoff_stable_witnesses"] == [
            [list(pair) for pair in m.sorted_pairs(inst)] for m in witnesses]


def test_guard_exit_codes(tmp_path):
    big = tmp_path / "big.json"
    main(["generate", "--seed", "7", "--sizes", "11,3,2", "--out", str(big)])
    assert main(["oracle", str(big)]) == EXIT_GUARD
    assert main(["optimize", str(big)]) == EXIT_GUARD
    assert main(["oracle", str(big), "--guard", "11"]) == EXIT_OK


def test_input_errors(tmp_path, ex2):
    assert main(["check", str(tmp_path / "nope.json"), str(ex2)]) == EXIT_INPUT
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["check", str(broken), str(ex2)]) == EXIT_INPUT


def test_text_format(tmp_path, ex2, capsys):
    code = main(["--format", "text", "solve", str(ex2)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "matching: " in out and "cutoff_stable: True" in out
    assert "wall_time_s" not in out


EX_PROJECT = {"id": "p", "capacity": 1, "prefs": ["a"]}


@pytest.mark.parametrize("payload, message", [
    ({"applicants": ["a"], "projects": [{"capacity": 1, "prefs": ["a"]}]},
     'projects[0]: missing-id: no "id" field'),
    ([EX_PROJECT],
     "instance: bad-type: expected an object, got array"),
    ({"applicants": [["a"]], "projects": [EX_PROJECT]},
     "applicants[0]: bad-id: expected a string id, got array"),
    ({"applicants": ["a"], "projects": ["p"]},
     "projects[0]: bad-type: expected an object, got string"),
    ({"applicants": ["a"], "projects": [{**EX_PROJECT, "capacity": True}],
      "supervisors": [{"id": "s", "budget": "1", "projects": ["p"]}],
      "applicant_prefs": {"a": ["p"]}},
     "p: bad-capacity: capacity True is not an integer"),
])
def test_solve_rejects_malformed_instances(tmp_path, capsys, payload, message):
    inst = write_json(tmp_path, "inst.json", payload)
    assert main(["solve", str(inst)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inst}: invalid instance: {message}\n"


def assert_one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {prefix}") and captured.err.count("\n") == 1
    return captured.err


def test_instance_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == EXIT_INPUT
    assert_one_error_line(capsys, f"{tmp_path}: cannot read: ")


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"applicants": ["\xff"]}')
    assert main(["solve", str(bad)]) == EXIT_INPUT
    assert_one_error_line(capsys, f"{bad}: not UTF-8 text (byte 17)\n")


def test_deeply_nested_matching_exits_2(tmp_path, ex2, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", str(ex2), str(deep)]) == EXIT_INPUT
    assert_one_error_line(capsys, f"{deep}: JSON nested too deeply\n")


@pytest.mark.parametrize("argv", [
    ["check", "{ex2}", "{m}", "--dot", "{missing}/flow.dot"],
    ["gadget", "example1", "--out", "{missing}/ex1.json"],
    ["generate", "--seed", "1", "--out", "{missing}/g.json"],
    ["optimize", "{ex2}", "--export-lp", "{missing}/model.lp"],
])
def test_unwritable_output_path_exits_2(tmp_path, ex2, capsys, argv):
    m = write_json(tmp_path, "m.json", [])
    missing = tmp_path / "missing"
    argv = [a.format(ex2=ex2, m=m, missing=missing) for a in argv]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    assert_one_error_line(capsys, f"{missing}/")
    assert not missing.exists()


@pytest.mark.parametrize("budgets, message", [
    ("5,1", "--budgets '5,1': lo exceeds hi"),
    ("1,2,3", "--budgets '1,2,3' must be two comma-separated rationals lo,hi"),
    ("1", "--budgets '1' must be two comma-separated rationals lo,hi"),
])
def test_bad_budget_range_names_the_flag(capsys, budgets, message):
    assert main(["generate", "--seed", "1", f"--budgets={budgets}"]) == EXIT_INPUT
    assert_one_error_line(capsys, f"{message}\n")


def test_equal_budget_bounds_are_a_range(capsys):
    assert main(["generate", "--seed", "1", "--budgets", "1,1"]) == EXIT_OK
    raw = json.loads(capsys.readouterr().out)
    assert {s["budget"] for s in raw["supervisors"]} == {"1"}


def test_negative_node_limit_names_the_flag(ex2, capsys):
    assert main(["optimize", str(ex2), "--node-limit", "-1"]) == EXIT_INPUT
    assert_one_error_line(capsys, "--node-limit must be non-negative, not -1\n")
    assert main(["optimize", str(ex2), "--node-limit", "0"]) == EXIT_GUARD


@pytest.mark.parametrize("command", ["oracle", "optimize"])
def test_negative_guard_names_the_flag(ex2, capsys, command):
    assert main([command, str(ex2), "--guard", "-1"]) == EXIT_INPUT
    assert_one_error_line(capsys, "--guard must be non-negative, not -1\n")
    assert main([command, str(ex2), "--guard", "0"]) == EXIT_GUARD


@pytest.mark.parametrize("command", ["oracle", "optimize"])
@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_guard_variable_names_the_variable(ex2, capsys, monkeypatch, command, value):
    monkeypatch.setenv("CUTOFFMATCH_GUARD", value)
    assert main([command, str(ex2)]) == EXIT_INPUT
    assert_one_error_line(
        capsys, f"CUTOFFMATCH_GUARD must be a non-negative integer, not {value!r}\n")
    # the flag wins over the variable
    assert main([command, str(ex2), "--guard", "10"]) == EXIT_OK
