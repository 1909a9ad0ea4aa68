"""Command-line front end.

Subcommands: check, solve, optimize, allocate, generate, gadget, oracle.
Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input
error, 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from cutoffmatch import egalitarian, engine, milp, oracle
from cutoffmatch.flow import build_flow_graph, check_feasibility, max_flow, to_dot
from cutoffmatch.model import (
    GADGET_NAMES,
    Instance,
    ValidationError,
    format_rational,
    gadget,
    generate_random,
    parse_rational,
    validate_instance,
)
from cutoffmatch.stability import Matching, check_stability

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")


def _write_file(path: str, write) -> None:
    """Run ``write(path)``, reporting a file the system refuses as an
    input error."""
    try:
        write(path)
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror}")


def _load_instance(path: str) -> Instance:
    raw = _load_json(path)
    try:
        return validate_instance(raw)
    except ValidationError as exc:
        raise InputError(f"{path}: {exc}")


def _load_matching(path: str) -> Matching:
    raw = _load_json(path)
    pairs = raw.get("pairs") if isinstance(raw, dict) else raw
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
        for pair in pairs
    ):
        raise InputError(f"{path}: expected a list of [applicant, project] pairs")
    return Matching(frozenset((a, p) for a, p in pairs))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            sys.stdout.write(f"{key}: {json.dumps(value)}\n")
        else:
            sys.stdout.write(f"{key}: {value}\n")


def _matching_json(matching: Matching, instance: Instance) -> list[list[str]]:
    return [[a, p] for a, p in matching.sorted_pairs(instance)]


def cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    matching = _load_matching(args.matching)
    feasible, allocation = check_feasibility(instance, matching)
    report = {
        "command": "check",
        "matching": _matching_json(matching, instance),
        "feasible": feasible,
    }
    if feasible:
        report["allocation"] = {
            f"{s}->{p}": format_rational(x) for (s, p), x in sorted(allocation.items())
        }
        verdict = check_stability(instance, matching)
        report["stability"] = verdict.to_json_dict()
    if args.dot:
        # a project the instance lacks has no node, so its pairs drop out
        graph = build_flow_graph(instance, Counter(p for _, p in matching.pairs))
        _, flow = max_flow(graph)
        _write_file(args.dot, lambda path: Path(path).write_text(to_dot(graph, flow)))
    _emit(report, args.format)
    return EXIT_OK if feasible else EXIT_NEGATIVE


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    order = None
    if args.order:
        order = tuple(args.order.split(","))
        unknown = set(order) - set(instance.projects)
        if unknown:
            raise InputError(f"unknown projects in --order: {sorted(unknown)}")
        if sorted(order) != sorted(instance.projects):
            raise InputError("--order must list every project exactly once")
    matching, cutoffs, trace = engine.solve(instance, project_order=order)
    verdict = check_stability(instance, matching)
    report = {
        "command": "solve",
        "matching": _matching_json(matching, instance),
        "cutoffs": dict(cutoffs.cutoffs),
        "cutoff_stable": verdict.at_least("cutoff"),
        "feasibility_calls": trace.feasibility_calls,
    }
    if args.trace:
        sys.stderr.write(trace.to_json_lines())
    _emit(report, args.format)
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.node_limit is not None and args.node_limit < 0:
        raise InputError(f"--node-limit must be non-negative, not {args.node_limit}")
    limit = _size_guard(args.guard)
    instance = _load_instance(args.instance)
    if len(instance.applicants) > limit:
        sys.stderr.write(
            f"instance exceeds size guard ({len(instance.applicants)} > {limit}); "
            "raise CUTOFFMATCH_GUARD to override\n"
        )
        return EXIT_GUARD
    if args.export_lp:
        model = milp.build_model(instance)
        _write_file(args.export_lp, lambda path: milp.export_lp_file(model, path))
    try:
        matching, cutoffs, objective, nodes = milp.solve_max_cutoff_stable(
            instance, node_limit=args.node_limit
        )
    except milp.NodeLimitExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_GUARD
    report = {
        "command": "optimize",
        "matching": _matching_json(matching, instance),
        "size": len(matching),
        "cutoffs": dict(cutoffs.cutoffs),
        "objective": format_rational(objective),
        "nodes": nodes,
    }
    _emit(report, args.format)
    return EXIT_OK


def _load_targets(path: str, instance: Instance, strict: bool) -> egalitarian.TargetProfile:
    raw = _load_json(path)
    try:
        targets = egalitarian.TargetProfile({
            (entry["supervisor"], entry["project"]): parse_rational(
                entry["target"], f"target for ({entry['supervisor']}, {entry['project']})")
            for entry in raw
        })
        targets.validate(instance, strict=strict)
    except (KeyError, TypeError):
        raise InputError(f"{path}: expected a list of {{supervisor, project, target}} records")
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: {exc}")
    return targets


def cmd_allocate(args) -> int:
    instance = _load_instance(args.instance)
    matching = _load_matching(args.matching)
    strict = args.mode == "strict"
    targets = _load_targets(args.targets, instance, strict) if args.targets else None
    try:
        result = egalitarian.egalitarian_allocation(
            instance, matching, targets, strict=strict
        )
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_NEGATIVE
    targets = targets or egalitarian.default_targets(instance, matching)
    report = {
        "command": "allocate",
        **result.to_json_dict(targets),
        "ratios": [format_rational(r) for r in result.ratios],
        "lp_solves": result.lp_solves,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
        n_a, n_p, n_s = sizes
    except ValueError:
        raise InputError("--sizes must be three comma-separated integers")
    try:
        density = parse_rational(args.density, "--density")
        budgets = tuple(parse_rational(b, "--budgets") for b in args.budgets.split(","))
        if len(budgets) != 2:
            raise ValueError(f"--budgets {args.budgets!r} must be two comma-separated "
                             "rationals lo,hi")
        if budgets[0] > budgets[1]:
            raise ValueError(f"--budgets {args.budgets!r}: lo exceeds hi")
        instance = generate_random(
            seed=args.seed,
            n_applicants=n_a,
            n_projects=n_p,
            n_supervisors=n_s,
            pref_density=density,
            budget_range=budgets,
        )
    except ValueError as exc:
        raise InputError(str(exc))
    except ZeroDivisionError as exc:
        raise InputError(f"zero denominator in --density or --budgets: {exc}")
    _write_instance(instance, args.out)
    return EXIT_OK


def cmd_gadget(args) -> int:
    try:
        instance = gadget(args.name)
    except KeyError as exc:
        raise InputError(str(exc))
    _write_instance(instance, args.out)
    return EXIT_OK


def _write_instance(instance: Instance, out: str | None) -> None:
    text = instance.to_json()
    if out:
        _write_file(out, lambda path: Path(path).write_text(text))
    else:
        sys.stdout.write(text)


def _size_guard(flag: int | None) -> int:
    """The enumeration size limit from ``--guard`` or CUTOFFMATCH_GUARD."""
    if flag is not None and flag < 0:
        raise InputError(f"--guard must be non-negative, not {flag}")
    try:
        return oracle.size_guard(flag)
    except ValueError as exc:
        raise InputError(str(exc))


def cmd_oracle(args) -> int:
    limit = _size_guard(args.guard)
    instance = _load_instance(args.instance)
    try:
        table = oracle.classify_all(instance, limit)
    except oracle.GuardExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_GUARD
    cutoff_stable = [m for m, verdict in table.items() if verdict.at_least("cutoff")]
    size = max(map(len, cutoff_stable), default=0)
    report = {
        "command": "oracle",
        "matchings": [
            {
                "matching": _matching_json(m, instance),
                "level": verdict.level,
            }
            for m, verdict in table.items()
        ],
        "max_cutoff_stable_size": size,
        "max_cutoff_stable_witnesses": [
            _matching_json(m, instance) for m in cutoff_stable if len(m) == size
        ],
    }
    _emit(report, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutoffmatch",
        description="matching with supervisor budget constraints",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="feasibility and stability of a matching")
    p.add_argument("instance")
    p.add_argument("matching")
    p.add_argument("--dot", help="write the funding flow graph in DOT format")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="compute a cutoff stable matching")
    p.add_argument("instance")
    p.add_argument("--order", help="comma-separated project scan order")
    p.add_argument("--trace", action="store_true", help="emit JSON-lines trace to stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize", help="maximum-size cutoff stable matching (exact MILP)")
    p.add_argument("instance")
    p.add_argument("--export-lp", help="write the model in LP file format")
    p.add_argument("--node-limit", type=int, default=None,
                   help="branch-and-bound node budget")
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("allocate", help="egalitarian funding allocation")
    p.add_argument("instance")
    p.add_argument("matching")
    p.add_argument("--targets", help="JSON list of {supervisor, project, target}")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("generate", help="random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", default="6,4,3", help="applicants,projects,supervisors")
    p.add_argument("--density", default="1")
    p.add_argument("--budgets", default="0,2", help="budget range lo,hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gadget", help="write a named fixture instance")
    p.add_argument("name", choices=GADGET_NAMES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("oracle", help="brute-force classification (small instances)")
    p.add_argument("instance")
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
