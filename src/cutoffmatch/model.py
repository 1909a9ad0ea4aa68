"""Instance data model, validation, scores, gadgets, and generators.

An instance consists of applicants, projects with capacities and preference
lists, and supervisors with divisible budgets spread over the projects they
supervise.  Budgets are exact rationals throughout; nothing in this package
touches floating point.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence


class ValidationError(ValueError):
    """Raised when an instance description violates structural rules.

    ``violations`` is a list of (entity id, rule name, message) triples.
    """

    def __init__(self, violations: list[tuple[str, str, str]]):
        self.violations = violations
        lines = "; ".join(f"{ent}: {rule}: {msg}" for ent, rule, msg in violations)
        super().__init__(f"invalid instance: {lines}")


@dataclass(frozen=True)
class Instance:
    """A validated matching instance.

    Treat as immutable after construction; derived lookup tables are
    precomputed and shared.  Use :func:`validate_instance` rather than
    building directly from untrusted data.
    """

    applicants: tuple[str, ...]
    projects: tuple[str, ...]
    supervisors: tuple[str, ...]
    applicant_prefs: Mapping[str, tuple[str, ...]]
    project_prefs: Mapping[str, tuple[str, ...]]
    capacities: Mapping[str, int]
    budgets: Mapping[str, Fraction]
    supervised: Mapping[str, tuple[str, ...]]

    # derived, filled in __post_init__
    _supervisors_of: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _scores: dict[str, dict[str, int]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _applicant_rank: dict[str, dict[str, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        by_project: dict[str, list[str]] = {p: [] for p in self.projects}
        for s in self.supervisors:
            for p in self.supervised[s]:
                by_project[p].append(s)
        self._supervisors_of.update({p: tuple(ss) for p, ss in by_project.items()})
        n = len(self.applicants)
        for p in self.projects:
            self._scores[p] = {
                a: n - k + 1 for k, a in enumerate(self.project_prefs[p], start=1)
            }
        for a in self.applicants:
            self._applicant_rank[a] = {
                p: k for k, p in enumerate(self.applicant_prefs[a])
            }

    # -- lookups ---------------------------------------------------------

    def supervisors_of(self, project: str) -> tuple[str, ...]:
        """S_p: the supervisors able to fund ``project``."""
        return self._supervisors_of[project]

    def score(self, applicant: str, project: str) -> int | None:
        """Score of ``applicant`` at ``project``: |A|-rank+1, or None if the
        project does not list the applicant."""
        return self._scores[project].get(applicant)

    def scores_at(self, project: str) -> Mapping[str, int]:
        """Score of every applicant ``project`` lists; empty for an unknown
        project."""
        return MappingProxyType(self._scores.get(project, {}))

    def ranks_of(self, applicant: str) -> Mapping[str, int]:
        """0-based rank of every project on ``applicant``'s list; empty for
        an unknown applicant."""
        return MappingProxyType(self._applicant_rank.get(applicant, {}))

    def mutually_acceptable(self, applicant: str, project: str) -> bool:
        return (
            applicant in self._scores[project]
            and project in self._applicant_rank[applicant]
        )

    def prefers(self, applicant: str, project: str, over: str | None) -> bool:
        """True iff ``applicant`` strictly prefers ``project`` to ``over``
        (``over=None`` means unmatched, which ranks below every acceptable
        project)."""
        ranks = self._applicant_rank[applicant]
        if project not in ranks:
            return False
        if over is None:
            return True
        return ranks[project] < ranks[over]

    def project_prefers(self, project: str, applicant: str, over: str) -> bool:
        """True iff ``project`` ranks ``applicant`` strictly above ``over``."""
        sc = self._scores[project]
        return applicant in sc and over in sc and sc[applicant] > sc[over]

    def acceptable_pairs(self) -> list[tuple[str, str]]:
        """All mutually acceptable (applicant, project) pairs, applicant-major
        in the applicant's preference order."""
        out = []
        for a in self.applicants:
            for p in self.applicant_prefs[a]:
                if a in self._scores[p]:
                    out.append((a, p))
        return out

    def max_cutoff(self) -> int:
        """|A|+1: a cutoff nobody reaches."""
        return len(self.applicants) + 1

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "applicants": list(self.applicants),
            "projects": [
                {
                    "id": p,
                    "capacity": self.capacities[p],
                    "prefs": list(self.project_prefs[p]),
                }
                for p in self.projects
            ],
            "supervisors": [
                {
                    "id": s,
                    "budget": format_rational(self.budgets[s]),
                    "projects": list(self.supervised[s]),
                }
                for s in self.supervisors
            ],
            "applicant_prefs": {a: list(self.applicant_prefs[a]) for a in self.applicants},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def format_rational(x: Fraction) -> str:
    """Render a rational as "num/den", or a plain integer string."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# Fraction("1e1000000") builds 10**1000000 exactly: nine characters of input
# for a million digits, which every later operation then carries
_MAX_EXPONENT = 100
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(raw, field: str = "value") -> Fraction:
    """Parse "num/den", decimal strings, or ints exactly (no float round-trip).

    A decimal exponent beyond ±100 is rejected before any number is built.
    Error messages name ``field``, the input the value was read from.
    """
    if isinstance(raw, bool):
        raise ValueError(f"{field} {raw!r} must be a string or integer, not a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ValueError(f"{field} {raw!r} must be a string or integer, not a float")
    text = str(raw)
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"{field} {text!r}: decimal exponent beyond ±{_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"{field} {text!r} is not a rational number") from None


_ARRAY = (list, tuple)


def _json_type(value) -> str:
    """The JSON name of a parsed value's type."""
    for kind, name in ((bool, "boolean"), (int, "number"), (float, "number"),
                       (str, "string"), (_ARRAY, "array"), (dict, "object")):
        if isinstance(value, kind):
            return name
    return "null" if value is None else type(value).__name__


def _check_ids(out: list, value, where: str) -> None:
    """Report ``value`` unless it is an array of string ids."""
    if not isinstance(value, _ARRAY):
        out.append((where, "bad-type", f"expected an array, got {_json_type(value)}"))
        return
    for i, x in enumerate(value):
        if not isinstance(x, str):
            out.append((f"{where}[{i}]", "bad-id", f"expected a string id, got {_json_type(x)}"))


def _shape_violations(raw) -> list[tuple[str, str, str]]:
    """Type errors in the parsed JSON that the semantic checks cannot read
    past: the instance and every record must be objects, ids strings, and
    id lists arrays."""
    if not isinstance(raw, dict):
        return [("instance", "bad-type", f"expected an object, got {_json_type(raw)}")]
    out: list[tuple[str, str, str]] = []
    _check_ids(out, raw.get("applicants", []), "applicants")
    for key, members in (("projects", "prefs"), ("supervisors", "projects")):
        records = raw.get(key, [])
        if not isinstance(records, _ARRAY):
            out.append((key, "bad-type", f"expected an array, got {_json_type(records)}"))
            continue
        for i, rec in enumerate(records):
            where = f"{key}[{i}]"
            if not isinstance(rec, dict):
                out.append((where, "bad-type", f"expected an object, got {_json_type(rec)}"))
                continue
            if "id" not in rec:
                out.append((where, "missing-id", 'no "id" field'))
            elif not isinstance(rec["id"], str):
                out.append((f"{where}.id", "bad-id",
                            f"expected a string id, got {_json_type(rec['id'])}"))
            _check_ids(out, rec.get(members, []), f"{where}.{members}")
    prefs = raw.get("applicant_prefs", {})
    if not isinstance(prefs, dict):
        out.append(("applicant_prefs", "bad-type", f"expected an object, got {_json_type(prefs)}"))
    else:
        for a, ps in prefs.items():
            _check_ids(out, ps, f"applicant_prefs.{a}")
    return out


def validate_instance(raw: Mapping) -> Instance:
    """Validate an instance description (parsed JSON) into an Instance.

    Raises ValidationError carrying every violation found (dangling ids,
    duplicates, negative budgets or capacities).  A JSON shape the checks
    cannot read (a non-object instance or record, a missing or non-string
    id, a non-list id list) is reported alone, before those checks.  A
    project without any supervisor is permitted (it can never be funded)
    and only flagged in ``Instance`` consumers, not here.
    """
    violations = _shape_violations(raw)
    if violations:
        raise ValidationError(violations)

    applicants = tuple(raw.get("applicants", ()))
    project_records = raw.get("projects", ())
    supervisor_records = raw.get("supervisors", ())
    applicant_prefs_raw = raw.get("applicant_prefs", {})

    projects = tuple(rec["id"] for rec in project_records)
    supervisors = tuple(rec["id"] for rec in supervisor_records)

    for name, ids in (("applicant", applicants), ("project", projects),
                      ("supervisor", supervisors)):
        seen = set()
        for i in ids:
            if i in seen:
                violations.append((i, "duplicate-id", f"duplicate {name} id"))
            seen.add(i)

    applicant_set = set(applicants)
    project_set = set(projects)

    capacities: dict[str, int] = {}
    project_prefs: dict[str, tuple[str, ...]] = {}
    for rec in project_records:
        p = rec["id"]
        cap = rec.get("capacity", 0)
        if isinstance(cap, bool) or not isinstance(cap, int):
            violations.append((p, "bad-capacity", f"capacity {cap!r} is not an integer"))
            cap = 0
        elif cap < 0:
            violations.append((p, "negative-capacity", f"capacity {cap!r}"))
            cap = 0
        capacities[p] = cap
        prefs = tuple(rec.get("prefs", ()))
        if len(set(prefs)) != len(prefs):
            violations.append((p, "duplicate-preference", "repeated applicant in prefs"))
        for a in prefs:
            if a not in applicant_set:
                violations.append((p, "dangling-id", f"unknown applicant {a!r} in prefs"))
        project_prefs[p] = prefs

    budgets: dict[str, Fraction] = {}
    supervised: dict[str, tuple[str, ...]] = {}
    for rec in supervisor_records:
        s = rec["id"]
        try:
            q = parse_rational(rec.get("budget", 0), "budget")
        except (ValueError, ZeroDivisionError) as exc:
            violations.append((s, "bad-budget", str(exc)))
            q = Fraction(0)
        if q < 0:
            violations.append((s, "negative-budget", f"budget {q}"))
        budgets[s] = q
        ps = tuple(rec.get("projects", ()))
        if len(set(ps)) != len(ps):
            violations.append((s, "duplicate-preference", "repeated project in supervised list"))
        for p in ps:
            if p not in project_set:
                violations.append((s, "dangling-id", f"unknown project {p!r}"))
        supervised[s] = ps

    applicant_prefs: dict[str, tuple[str, ...]] = {}
    for a in applicants:
        prefs = tuple(applicant_prefs_raw.get(a, ()))
        if len(set(prefs)) != len(prefs):
            violations.append((a, "duplicate-preference", "repeated project in prefs"))
        for p in prefs:
            if p not in project_set:
                violations.append((a, "dangling-id", f"unknown project {p!r} in prefs"))
        applicant_prefs[a] = prefs
    for a in applicant_prefs_raw:
        if a not in applicant_set:
            violations.append((a, "dangling-id", "applicant_prefs for unknown applicant"))

    if violations:
        raise ValidationError(violations)

    return Instance(
        applicants=applicants,
        projects=projects,
        supervisors=supervisors,
        applicant_prefs=applicant_prefs,
        project_prefs=project_prefs,
        capacities=capacities,
        budgets=budgets,
        supervised=supervised,
    )


def make_instance(
    applicants: Sequence[str],
    applicant_prefs: Mapping[str, Sequence[str]],
    project_prefs: Mapping[str, Sequence[str]],
    capacities: Mapping[str, int],
    supervised: Mapping[str, Sequence[str]],
    budgets: Mapping[str, object],
    projects: Sequence[str] | None = None,
    supervisors: Sequence[str] | None = None,
) -> Instance:
    """Convenience constructor from in-code literals, routed through
    validate_instance."""
    projects = list(projects) if projects is not None else list(project_prefs)
    supervisors = list(supervisors) if supervisors is not None else list(supervised)
    raw = {
        "applicants": list(applicants),
        "projects": [
            {"id": p, "capacity": capacities[p], "prefs": list(project_prefs[p])}
            for p in projects
        ],
        "supervisors": [
            {"id": s, "budget": str(budgets[s]), "projects": list(supervised[s])}
            for s in supervisors
        ],
        "applicant_prefs": {a: list(applicant_prefs[a]) for a in applicants},
    }
    return validate_instance(raw)


# -- REG embedding -------------------------------------------------------


def embed_reg(
    regions: Mapping[str, Sequence[str]],
    region_quotas: Mapping[str, int],
    residents: Sequence[str],
    resident_prefs: Mapping[str, Sequence[str]],
    hospital_prefs: Mapping[str, Sequence[str]],
    hospital_capacities: Mapping[str, int],
) -> Instance:
    """Embed a hospital-residents instance with disjoint regional quotas.

    Each region becomes one supervisor whose budget equals the region's
    quota and who supervises exactly that region's hospitals.  Regions must
    partition the hospital set.
    """
    seen: dict[str, str] = {}
    for r, hospitals in regions.items():
        for h in hospitals:
            if h in seen:
                raise ValueError(f"hospital {h!r} appears in regions {seen[h]!r} and {r!r}")
            seen[h] = r
    missing = set(hospital_prefs) - set(seen)
    if missing:
        raise ValueError(f"hospitals not covered by any region: {sorted(missing)}")

    return make_instance(
        applicants=residents,
        applicant_prefs=resident_prefs,
        project_prefs=hospital_prefs,
        capacities=hospital_capacities,
        supervised={r: list(hs) for r, hs in regions.items()},
        budgets={r: region_quotas[r] for r in regions},
        projects=list(hospital_prefs),
        supervisors=list(regions),
    )


# -- gadget instances ----------------------------------------------------

GADGET_NAMES = (
    "example1",
    "example2_unsolvable",
    "example3_cycle",
    "example4_distinct",
    "thm7_item1",
    "thm7_item3",
    "thm7_item4",
)


def gadget(name: str) -> Instance:
    """Small fixed instances used throughout the test-suite and docs.

    ``example2_unsolvable`` has no strongly stable matching;
    ``example3_cycle`` has exactly two, covering different applicants;
    ``example4_distinct`` separates the three stability levels; the
    ``thm7_*`` instances exhibit the cutoff-decreasing algorithm's
    order-dependence and manipulability.
    """
    if name == "example1":
        return make_instance(
            applicants=["a1", "a2"],
            applicant_prefs={"a1": ["p2", "p1"], "a2": ["p1", "p2"]},
            project_prefs={"p1": ["a1", "a2"], "p2": ["a2", "a1"]},
            capacities={"p1": 1, "p2": 1},
            supervised={"s1": ["p1", "p2"], "s2": ["p2"]},
            budgets={"s1": "7/10", "s2": "1/2"},
        )
    if name == "example2_unsolvable":
        return make_instance(
            applicants=["a1", "a2"],
            applicant_prefs={"a1": ["p2", "p1"], "a2": ["p1", "p2"]},
            project_prefs={"p1": ["a1", "a2"], "p2": ["a2", "a1"]},
            capacities={"p1": 1, "p2": 1},
            supervised={"s": ["p1", "p2"]},
            budgets={"s": 1},
        )
    if name == "example3_cycle":
        return make_instance(
            applicants=["a1", "a2", "a3", "a4"],
            applicant_prefs={
                "a1": ["p2", "p1"],
                "a2": ["p3", "p2"],
                "a3": ["p4", "p3"],
                "a4": ["p1", "p4"],
            },
            project_prefs={
                "p1": ["a1", "a4"],
                "p2": ["a2", "a1"],
                "p3": ["a3", "a2"],
                "p4": ["a4", "a3"],
            },
            capacities={"p1": 1, "p2": 1, "p3": 1, "p4": 1},
            supervised={"s1": ["p1", "p3"], "s2": ["p2"], "s3": ["p4"]},
            budgets={"s1": 1, "s2": 1, "s3": 1},
        )
    if name == "example4_distinct":
        return make_instance(
            applicants=["a1", "a2", "a3"],
            applicant_prefs={"a1": ["p1", "p2", "p3"], "a2": ["p2", "p1"], "a3": ["p3"]},
            project_prefs={"p1": ["a2", "a1"], "p2": ["a1", "a2"], "p3": ["a1", "a3"]},
            capacities={"p1": 1, "p2": 1, "p3": 1},
            supervised={"s": ["p1", "p2", "p3"]},
            budgets={"s": 2},
        )
    if name == "thm7_item1":
        return make_instance(
            applicants=["a1", "a2"],
            applicant_prefs={"a1": ["p2", "p1"], "a2": ["p2"]},
            project_prefs={"p1": ["a2", "a1"], "p2": ["a2", "a1"]},
            capacities={"p1": 1, "p2": 1},
            supervised={"s": ["p1", "p2"]},
            budgets={"s": 1},
        )
    if name == "thm7_item3":
        return make_instance(
            applicants=["a1", "a2", "a3"],
            applicant_prefs={"a1": ["p2", "p1"], "a2": ["p1", "p2"], "a3": ["p3"]},
            project_prefs={"p1": ["a1", "a2"], "p2": ["a2", "a1"], "p3": ["a3"]},
            capacities={"p1": 1, "p2": 2, "p3": 1},
            supervised={"s": ["p1", "p2", "p3"]},
            budgets={"s": 2},
        )
    if name == "thm7_item4":
        return make_instance(
            applicants=["a1", "a2"],
            applicant_prefs={"a1": ["p1", "p2"], "a2": ["p2", "p1"]},
            project_prefs={"p1": ["a2", "a1"], "p2": ["a1", "a2"]},
            capacities={"p1": 1, "p2": 1},
            supervised={"s": ["p1", "p2"]},
            budgets={"s": 2},
        )
    raise KeyError(f"unknown gadget {name!r}; choose from {GADGET_NAMES}")


# -- random instances ----------------------------------------------------


def generate_random(
    seed: int,
    n_applicants: int,
    n_projects: int,
    n_supervisors: int,
    pref_density: Fraction | float = Fraction(1),
    budget_range: tuple = (0, 2),
) -> Instance:
    """Deterministic random instance for a given seed.

    Mutually acceptable pairs are drawn independently with probability
    ``pref_density``; both sides then rank their partners in a random
    order.  Each project gets 1-3 supervisors; budgets are uniform
    rationals over ``budget_range`` snapped to denominator 100.
    """
    if min(n_applicants, n_projects, n_supervisors) <= 0:
        raise ValueError("sizes must be positive")
    density = Fraction(pref_density).limit_denominator(10**6)
    if not 0 < density <= 1:
        raise ValueError("pref_density must be in (0, 1]")
    rng = random.Random(seed)

    applicants = [f"a{i}" for i in range(1, n_applicants + 1)]
    projects = [f"p{j}" for j in range(1, n_projects + 1)]
    supervisors = [f"s{k}" for k in range(1, n_supervisors + 1)]

    pairs = [
        (a, p)
        for a in applicants
        for p in projects
        if rng.random() < density  # density==1 always passes: random() < 1
    ]
    a_lists: dict[str, list[str]] = {a: [] for a in applicants}
    p_lists: dict[str, list[str]] = {p: [] for p in projects}
    for a, p in pairs:
        a_lists[a].append(p)
        p_lists[p].append(a)
    for a in applicants:
        rng.shuffle(a_lists[a])
    for p in projects:
        rng.shuffle(p_lists[p])

    supervised: dict[str, list[str]] = {s: [] for s in supervisors}
    for p in projects:
        k = rng.randint(1, min(3, n_supervisors))
        for s in rng.sample(supervisors, k):
            supervised[s].append(p)

    lo, hi = (Fraction(str(b)) for b in budget_range)
    budgets = {
        s: Fraction(rng.randint(int(lo * 100), int(hi * 100)), 100)
        for s in supervisors
    }
    capacities = {p: rng.randint(1, max(1, n_applicants // 2)) for p in projects}

    return make_instance(
        applicants=applicants,
        applicant_prefs=a_lists,
        project_prefs=p_lists,
        capacities=capacities,
        supervised=supervised,
        budgets=budgets,
        projects=projects,
        supervisors=supervisors,
    )
