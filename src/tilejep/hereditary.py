"""Hereditary classes: forbidden-pattern lists plus semantic rules.

A compiled class carries two views of the same prohibition set: explicit
``ConstraintPattern`` objects, matched by the search engine, and semantic
rules that recompute the violation predicate from derived relations.  Each
rule declares the pattern tags it decides (``SemanticRule.decides``).  That
declaration is the class's route table: a tag some rule of the class decides
is decided by the rule route alone, and every other tag by its patterns.
``check`` runs only this authoritative route per tag.  The two views are
implemented independently; ``check(use_rules=False)`` (the whole pattern
route) and ``check(use_patterns=False)`` (the whole rule route) are the
cross-check the test suite runs against each other.

Classes are rules-first.  Patterns come in ``PatternFamily`` declarations,
each with its tag, built and cached only when something reads them: the
pattern route, tags no rule decides (in ``check`` and in the witness
search's grounding), bundle writing, and the pattern consumers
(``subset(...).patterns``, the edge/non-edge transform).  Every compiled
class has a rule for each tag, so neither its compile nor its default
``check`` builds a pattern.  One key, ``pattern_tag``, names a pattern's tag
in the route table, in ``subset`` and in ``constraint_groups``.

A rule may also declare how the witness search grounds it into clauses
(``SemanticRule.ground``); a rule that declares nothing is decided only by
the search's leaf ``check``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional

from .core import ColoredGraph
from .matching import BudgetExceededError, ConstraintPattern, SearchBudget, match_pattern

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


class MembershipError(ValueError):
    """An input outside an operation's domain: a violator where a class member
    is required, or a tiling map that leaves a needed cell blank."""


@dataclass(frozen=True)
class Violation:
    constraint: str
    source: str          # pattern or rule name that fired
    witness: tuple       # host vertices involved, deterministic order

    def __str__(self) -> str:
        w = ",".join(map(str, self.witness))
        return f"[{self.constraint}] {self.source} on ({w})"


@dataclass(frozen=True)
class CheckReport:
    status: str
    violations: tuple = ()
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def constraint_ids(self) -> set:
        return {v.constraint for v in self.violations}

    def summary(self) -> str:
        if self.status == PASS:
            return "pass"
        if self.status == INDETERMINATE:
            return "indeterminate: " + "; ".join(self.notes)
        head = f"fail ({len(self.violations)} violations)"
        lines = [head] + [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class SemanticRule:
    """A named violation predicate recomputed from derived relations.

    ``descriptor`` is a flat, serializable record sufficient to rebuild the
    rule (used by the bundle format); ``fn`` maps a graph and a budget to a
    list of Violations.  ``decides`` lists the pattern tags whose verdict
    this rule is authoritative for; an entry ending in ``*`` covers every
    tag with that prefix.  A rule that decides no tag only adds its own
    violations.

    ``ground``, if declared, maps ``(g, may_present, may_absent, budget)``
    to one ``(present_pairs, absent_pairs)`` entry per violation that some
    completion of ``g`` could have: the host pairs the violation reads as
    edges and as non-edges, under the two predicates on the undecided pairs.
    Every completion holding those reads must violate the class; the
    witness search turns each entry into a clause.
    """

    name: str
    constraint: str
    descriptor: dict
    fn: Callable[[ColoredGraph, SearchBudget], list]
    decides: tuple = ()
    ground: Optional[Callable] = None

    def check(self, g: ColoredGraph, budget: SearchBudget) -> list:
        return self.fn(g, budget)

    def decides_tag(self, tag: str) -> bool:
        return any(tag == d or (d.endswith("*") and tag.startswith(d[:-1])) for d in self.decides)


def monotone_ground(fn: Callable[[ColoredGraph, SearchBudget], list]) -> Callable:
    """The grounding of an edge-monotone rule that reads no undecided pair:
    a violation on the decided graph survives in every completion, so each
    becomes the empty clause."""

    def ground(g, may_present, may_absent, budget):
        return [((), ()) for _ in fn(g, budget)]

    return ground


def _kept_violations(fn: Callable, keep: set) -> Callable:
    def kept(g: ColoredGraph, budget: SearchBudget) -> list:
        return [v for v in fn(g, budget) if v.constraint in keep]

    return kept


def pattern_tag(p: ConstraintPattern) -> str:
    """The route-table key of a pattern: its constraint tag, else its name."""
    return p.constraint or p.name


@dataclass(frozen=True, eq=False)
class PatternFamily:
    """A run of patterns sharing one tag, built on first read and cached.

    ``build`` returns the patterns; every one of them must carry ``tag`` as
    its ``pattern_tag``.
    """

    tag: str
    build: Callable[[], Iterable[ConstraintPattern]]

    @cached_property
    def patterns(self) -> tuple:
        return tuple(self.build())


def _as_family(item) -> PatternFamily:
    if isinstance(item, PatternFamily):
        return item
    return PatternFamily(pattern_tag(item), lambda p=item: (p,))


class HereditaryClass:
    """A finitely constrained hereditary class over colored (or pure) graphs.

    ``patterns`` takes ``ConstraintPattern`` objects, ``PatternFamily``
    declarations, or both; the compilers declare families, so a compile
    builds no pattern.  The ``patterns`` attribute is the built tuple, in
    declaration order, and building it builds every family.
    """

    def __init__(self, name: str, palette: tuple, patterns: Iterable = (), rules: tuple = (),
                 meta: dict | None = None):
        self.name = name
        self.palette = palette
        self.families = tuple(map(_as_family, patterns))
        self.rules = tuple(rules)
        self.meta = {} if meta is None else meta

    @cached_property
    def patterns(self) -> tuple:
        return tuple(p for f in self.families for p in f.patterns)

    @cached_property
    def _pattern_routed(self) -> tuple:
        """The families whose tag no rule of this class decides."""
        return tuple(f for f in self.families if not any(r.decides_tag(f.tag) for r in self.rules))

    def pattern_routed_tags(self) -> set:
        """Tags decided by their patterns in the default ``check``."""
        return {f.tag for f in self._pattern_routed}

    def constraint_groups(self) -> dict:
        groups: dict = {}
        for f in self.families:
            groups.setdefault(f.tag, []).extend(f.patterns)
        return groups

    def subset(self, constraints: Iterable[str], name: str = "") -> "HereditaryClass":
        """The families with a tag and the rules with a constraint in
        ``constraints``, plus every other rule that decides a kept tag.
        Such a rule reports only the violations of kept tags and loses its
        grounding, whose entries carry no tag.  Families are shared, so
        nothing is built."""
        keep = set(constraints)
        rules = tuple(
            r if r.constraint in keep else replace(r, fn=_kept_violations(r.fn, keep), ground=None)
            for r in self.rules
            if r.constraint in keep or any(map(r.decides_tag, keep))
        )
        return HereditaryClass(
            name=name or f"{self.name}|{','.join(sorted(keep))}",
            palette=self.palette,
            patterns=tuple(f for f in self.families if f.tag in keep),
            rules=rules,
            meta=dict(self.meta),
        )

    def host_patterns(self, families: Iterable[PatternFamily], g: ColoredGraph) -> list:
        """The patterns of ``families`` that ``check`` matches on ``g``: not
        those larger than ``g``, nor those that need a multicolored vertex
        when ``g`` has none, nor, above ``meta['pattern_host_cap']``
        vertices, the wedged and guard patterns, which the pure stage's
        rules decide.  Edges play no part, so every completion of ``g``
        gets the same list."""
        patterns = [p for f in families for p in f.patterns if len(p) <= len(g)]
        host_cap = self.meta.get("pattern_host_cap")
        if host_cap is not None and len(g) > host_cap:
            # direct matching of the wedged and guard patterns is reserved
            # for hosts small enough to afford it
            patterns = [p for p in patterns
                        if not (p.constraint.startswith("w:") or p.constraint in ("H1", "H2"))]
        if any(p.multicolored for p in patterns) and not g.multicolored_vertices():
            patterns = [p for p in patterns if not p.multicolored]
        return patterns

    def check(
        self,
        g: ColoredGraph,
        budget: SearchBudget | None = None,
        *,
        use_patterns: bool = True,
        use_rules: bool = True,
        max_witnesses_per_pattern: int = 4,
    ) -> CheckReport:
        """Membership verdict; pass iff no violation.

        By default each tag is decided by its authoritative route only:
        every rule runs, and patterns run only for the tags no rule of this
        class decides; those are the only families it builds.
        ``use_rules=False`` runs every pattern and no rule (the pattern
        route); ``use_patterns=False`` runs every rule and no pattern (the
        rule route).  The two are the cross-check.

        Budget exhaustion yields an indeterminate verdict, never a pass.
        Violations are merged in deterministic (constraint, source, witness)
        order.  Patterns are matched as ``host_patterns`` selects them.
        Definite default-route verdicts without an explicit budget are
        cached on the (immutable) graph per class object and witness cap.
        """
        cache_ok = budget is None and use_patterns and use_rules
        memo = g.__dict__.setdefault("_membership_memo", {})
        # the entry holds the class itself, so its id cannot be reused
        key = (id(self), max_witnesses_per_pattern)
        if cache_ok and key in memo:
            return memo[key][1]
        budget = budget or SearchBudget(80_000_000)
        violations: list = []
        notes: list = []
        families = (self._pattern_routed if use_rules else self.families) if use_patterns else ()
        try:
            for p in self.host_patterns(families, g):
                found = match_pattern(p, g, budget=budget, limit=max_witnesses_per_pattern)
                for m in found:
                    wit = tuple(g.sorted_vertices(m.map.values()))
                    violations.append(Violation(pattern_tag(p), p.name, wit))
            if use_rules:
                for r in self.rules:
                    violations.extend(r.check(g, budget))
        except BudgetExceededError as exc:
            return CheckReport(INDETERMINATE, tuple(violations), (str(exc),))
        violations = sorted(
            set(violations),
            key=lambda v: (v.constraint, v.source, tuple(map(str, v.witness))),
        )
        status = PASS if not violations else FAIL
        report = CheckReport(status, tuple(violations), tuple(notes))
        if cache_ok:
            memo[key] = (self, report)
        return report

    def member(self, g: ColoredGraph, budget: SearchBudget | None = None) -> bool:
        """Strict membership: indeterminate is not membership."""
        return self.check(g, budget=budget).ok

    def require_member(self, g: ColoredGraph, budget: SearchBudget | None = None, what: str = "input") -> None:
        report = self.check(g, budget=budget)
        if report.status == FAIL:
            raise MembershipError(f"{what} is not a member of {self.name}:\n{report.summary()}")
        if report.status == INDETERMINATE:
            raise MembershipError(f"membership of {what} in {self.name} is indeterminate: {report.notes}")
