"""Batch verification front end.

Resolves an algebra from a builtin id or an input file, runs the requested
check suites in dependency order, and emits a deterministic text or JSON
report.  Exit codes: 0 all executed checks passed, 1 at least one identity
failed, 2 invalid input (unreadable file, malformed description, a group
order above MAX_GROUP_ORDER, a cocycle root order above MAX_ROOT_ORDER, or
a table that fails the cocycle gate),
3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import dataclass, field
from functools import partial

from .algebra import StructureConstants, multiply
from .heisenberg import (
    build_H1,
    build_H1_dual,
    canonical_element,
    canonical_elements,
    check_double,
    check_theorem_4_4,
    check_theorem_4_5,
    leg_pairs,
    pentagon_lefts,
    probe_invertibility,
)
from .quasihopf import (
    DerivedElements,
    check_lemma41,
    check_qp_identities,
    check_quasi_antipode,
    check_quasi_bialgebra,
    check_twist_identities,
    derive_elements,
    twist_alternatives,
)
from .report import Recorder
from .twisted import (
    Cocycle3,
    FiniteGroup,
    GroupError,
    build_k_omega_G,
    check_cocycle,
    check_section5_expansions,
    closed_form_double,
    closed_form_elements,
    cyclic_cocycle,
    invertibility_criterion,
    klein_cocycle,
    trivial_cocycle,
)

# Cost grows polynomially in the group order n (the invertibility probe solves
# systems in n^4 unknowns), so larger orders are refused before any n^2 or n^3
# table is built.
MAX_GROUP_ORDER = 32
# Scalars of Q(zeta_N) carry phi(N) coefficients and a phi(N) x phi(N)
# reduction table, so `cocycle table N` is refused above this before any
# scalar is built; twice the largest root order a builtin uses.
MAX_ROOT_ORDER = 64


class InputError(ValueError):
    """Unusable source: bad id, unreadable file, or failed validation."""


def check_group_order(n: int, where: str = "") -> None:
    """Refuse a group order above MAX_GROUP_ORDER; `where` prefixes the message."""
    if n > MAX_GROUP_ORDER:
        raise InputError(f"{where}group order {n} exceeds the limit of {MAX_GROUP_ORDER}")


@dataclass
class RunSpec:
    source: str
    suites: tuple = ("all",)
    backend: str = "exact"
    report_format: str = "text"
    out: str | None = None
    timings: bool = False

    def selected(self) -> tuple:
        names = []
        for s in self.suites:
            if s == "all":
                names.extend(SUITE_ORDER)
            elif s in SUITE_ORDER:
                names.append(s)
            else:
                raise InputError(f"unknown suite {s!r} (valid: all, {', '.join(SUITE_ORDER)})")
        if not names:
            raise InputError(f"no suite selected (valid: all, {', '.join(SUITE_ORDER)})")
        return tuple(n for n in SUITE_ORDER if n in names)


# -- source resolution ----------------------------------------------------------


def resolve_builtin(example: str) -> Cocycle3:
    parts = example.split(":")
    try:
        if parts[0] == "zn" and len(parts) == 3:
            n, k = int(parts[1]), int(parts[2])
            if n < 1:
                raise InputError(f"cyclic order must be positive in {example!r}")
            check_group_order(n)
            return cyclic_cocycle(n, k)
        if parts[0] == "trivial" and len(parts) == 2:
            n = int(parts[1])
            if n < 1:
                raise InputError(f"cyclic order must be positive in {example!r}")
            check_group_order(n)
            return trivial_cocycle(FiniteGroup.cyclic(n))
        if parts[0] == "v4" and len(parts) == 2:
            return klein_cocycle(int(parts[1]))
    except ValueError as e:
        raise InputError(f"bad builtin example {example!r}: {e}") from e
    raise InputError(
        f"unknown builtin example {example!r} (use zn:<n>:<k>, trivial:<n>, v4:<id>)")


def _fail(path: str, lineno: int, msg: str):
    raise InputError(f"{path}:{lineno}: {msg}")


def _parse_group_tokens(tokens: list, lineno: int, path: str):
    """The group of a `cyclic n` or `product <spec> <spec>` token list, and
    the tokens left after it."""
    if not tokens:
        _fail(path, lineno, "empty group specification")
    head, rest = tokens[0], tokens[1:]
    if head == "cyclic":
        if not rest:
            _fail(path, lineno, "cyclic group needs an order")
        try:
            n = int(rest[0])
        except ValueError as e:
            _fail(path, lineno, f"bad cyclic group: {e}")
        check_group_order(n, f"{path}:{lineno}: ")
        try:
            return FiniteGroup.cyclic(n), rest[1:]
        except (ValueError, GroupError) as e:
            _fail(path, lineno, f"bad cyclic group: {e}")
    if head == "product":
        g1, rest = _parse_group_tokens(rest, lineno, path)
        g2, rest = _parse_group_tokens(rest, lineno, path)
        check_group_order(g1.order * g2.order, f"{path}:{lineno}: ")
        return FiniteGroup.direct_product(g1, g2), rest
    _fail(path, lineno, f"unknown group form {head!r} (use cyclic, product, table)")


def parse_input(path: str):
    """Parse the line-oriented group/cocycle description.

    Two stanzas: `group` (cyclic n | product <spec> <spec> | table n followed
    by n Cayley rows) and `cocycle` (trivial | cyclic k | table N followed by
    `a b c -> e` lines).  Tables are validated; violations report the line or
    the offending triple/quadruple.  Only a `cocycle table` is checked as a
    cocycle: `trivial` and `cyclic k` build theirs by construction, as the
    builtin ids do.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e

    lines = []
    for idx, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            lines.append((idx, text))

    pos = 0

    fail = partial(_fail, path)

    def next_line(expect):
        nonlocal pos
        if pos >= len(lines):
            raise InputError(f"{path}: unexpected end of file, expected {expect}")
        item = lines[pos]
        pos += 1
        return item

    lineno, text = next_line("a `group` stanza")
    tokens = text.split()
    if tokens[0] != "group":
        fail(lineno, f"expected `group ...`, found {text!r}")
    if tokens[1:2] == ["table"]:
        if len(tokens) != 3:
            fail(lineno, "usage: group table <n>")
        try:
            n = int(tokens[2])
        except ValueError:
            fail(lineno, f"bad table size {tokens[2]!r}")
        check_group_order(n, f"{path}:{lineno}: ")
        rows = []
        for r in range(n):
            rl, rt = next_line(f"Cayley row {r + 1} of {n}")
            try:
                row = [int(x) for x in rt.split()]
            except ValueError:
                fail(rl, f"non-integer entry in Cayley row: {rt!r}")
            if len(row) != n or any(x < 0 or x >= n for x in row):
                fail(rl, f"Cayley row must hold {n} indices in 0..{n - 1}")
            rows.append(row)
        try:
            group = FiniteGroup(rows)
        except GroupError as e:
            fail(lineno, f"not a group: {e}")
    else:
        group, leftover = _parse_group_tokens(tokens[1:], lineno, path)
        if leftover:
            fail(lineno, f"trailing tokens after group spec: {' '.join(leftover)}")

    lineno, text = next_line("a `cocycle` stanza")
    tokens = text.split()
    if tokens[0] != "cocycle":
        fail(lineno, f"expected `cocycle ...`, found {text!r}")
    if tokens[1:] == ["trivial"]:
        w = trivial_cocycle(group)
    elif tokens[1:2] == ["cyclic"]:
        if len(tokens) != 3:
            fail(lineno, "usage: cocycle cyclic <k>")
        n = group.order
        if group.cayley != FiniteGroup.cyclic(n).cayley:
            fail(lineno, "cocycle cyclic requires the group stanza `group cyclic n`")
        try:
            w = cyclic_cocycle(n, int(tokens[2]))
        except ValueError:
            fail(lineno, f"bad twist level {tokens[2]!r}")
    elif tokens[1:2] == ["table"]:
        if len(tokens) != 3:
            fail(lineno, "usage: cocycle table <root_order>")
        try:
            root = int(tokens[2])
        except ValueError:
            fail(lineno, f"bad root order {tokens[2]!r}")
        if root < 1:
            fail(lineno, "root order must be positive")
        if root > MAX_ROOT_ORDER:
            fail(lineno, f"root order {root} exceeds the limit of {MAX_ROOT_ORDER}")
        n = group.order
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        seen_at: dict = {}  # (a, b, c) -> line number of its entry
        while pos < len(lines):
            el, et = next_line("exponent entry")
            parts = et.replace("->", " -> ").split()
            if len(parts) != 5 or parts[3] != "->":
                fail(el, f"expected `a b c -> e`, found {et!r}")
            try:
                a, b, c, e = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[4])
            except ValueError:
                fail(el, f"non-integer exponent entry: {et!r}")
            if not all(0 <= x < n for x in (a, b, c)):
                fail(el, f"indices out of range 0..{n - 1}: ({a}, {b}, {c})")
            first = seen_at.setdefault((a, b, c), el)
            if first != el:
                fail(el, f"({a}, {b}, {c}) repeats the entry of line {first}")
            table[a][b][c] = e % root
        w = Cocycle3(group, root, tuple(tuple(tuple(r) for r in p) for p in table))
        # the only stanza whose table is not a cocycle by construction
        rep = check_cocycle(w)
        if not rep.ok:
            msgs = []
            for t in rep.normalization_violations:
                msgs.append(f"normalization fails at {t}")
            for q, lhs, rhs in rep.cocycle_violations:
                msgs.append(f"cocycle identity fails at {q}: exponents {lhs} != {rhs}")
            raise InputError(f"{path}: invalid cocycle table: " + "; ".join(msgs[:10]))
    else:
        fail(lineno, f"unknown cocycle form {text!r} (use trivial, cyclic, table)")

    if pos < len(lines):
        fail(lines[pos][0], f"trailing content: {lines[pos][1]!r}")
    return group, w


def resolve_source(spec: RunSpec) -> Cocycle3:
    if spec.source.startswith("file:"):
        return parse_input(spec.source[5:])[1]
    return resolve_builtin(spec.source)


# -- the run context -------------------------------------------------------------


class RunContext:
    """Shared lazily-built artifacts, kept in one memo by key: each is built
    on first use, so a suite builds only the artifacts it reads and never
    recomputes another suite's."""

    def __init__(self, w: Cocycle3):
        self.w = w
        self.H = build_k_omega_G(w)
        self._memo: dict = {}

    def _once(self, key, build, *args):
        """The artifact under key, built as build(*args) on first use."""
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]

    def derived(self) -> DerivedElements:
        return self._once("derived", derive_elements, self.H)

    def doubles(self):
        """(H1(H*), H1(H)): the dual side's double and the plain side's."""
        return self._once("doubles", lambda H: (build_H1_dual(H), build_H1(H)), self.H)

    def double(self, side: str):
        return self.doubles()[side == "plain"]

    def elements(self):
        """The full canonical elements; their W and W-bar are kept where
        `canonical` reads them, so neither is built twice."""
        ce = self._once("elements", canonical_elements, *self.doubles(), self.derived())
        self._memo["W", "dual"], self._memo["W", "plain"] = ce.W, ce.Wbar
        return ce

    def canonical(self, side: str):
        """W on "dual", W-bar on "plain": the full elements' when some suite
        built them, else the double's own, which needs no derived element.
        The probe, its one reader, runs after every suite that builds the
        full elements, so each side's W is built once."""
        return self._once(("W", side), canonical_element, self.double(side))

    def pentagon_lefts(self, side: str):
        """The two left parenthesizations of the quasi-pentagon equation of
        one side: 4.6's on "dual", which hopf.pentagon reuses, and 4.9's on
        "plain", which section 5 expands."""
        ce = self.elements()
        x, phi = (ce.W, ce.PhiBoldInv) if side == "dual" else (ce.What, ce.PhiBarS)
        return self._once(("lefts", side), pentagon_lefts, self.double(side), x, phi)

    def closed_form(self):
        return self._once("closed_form", closed_form_elements, self.w)


# -- suites ----------------------------------------------------------------------


def _suite_axioms(run: RunContext, rec: Recorder):
    check_quasi_bialgebra(run.H, rec)
    check_quasi_antipode(run.H, rec)


def _suite_twist(run: RunContext, rec: Recorder):
    H = run.H
    gamma_alt, delta_alt = twist_alternatives(H)
    d = run.derived()
    rec.tensor_check("2.gamma", "both expressions for gamma agree", d.gamma, gamma_alt)
    rec.tensor_check("2.delta", "both expressions for delta agree", d.delta, delta_alt)
    one2 = H.mult.unit_tensor(2)
    rec.tensor_check("2.f-inv", "twist times inverse twist is the unit tensor",
                     multiply(H.mult, d.twist, d.twist_inv), one2)
    rec.tensor_check("2.f-inv'", "inverse twist times twist is the unit tensor",
                     multiply(H.mult, d.twist_inv, d.twist), one2)
    check_twist_identities(H, d, rec)
    check_qp_identities(H, d, rec)


def _suite_lemma41(run: RunContext, rec: Recorder):
    d = run.derived()
    check_lemma41(run.H, d, rec)
    cf = run.closed_form()
    rec.tensor_check("4.U-closed-form", "U matches its twisted closed form", d.U, cf.U)
    rec.tensor_check("4.V-closed-form", "V-tilde matches its twisted closed form",
                     d.Vtilde, cf.Vtilde)


def _suite_heisenberg(run: RunContext, rec: Recorder):
    for ha in run.doubles():
        check_double(ha, rec)
    closed = tuple(zip(run.doubles(), closed_form_double(run.w)))
    for ha, (sc, _) in closed:
        rec.bool_check(f"5.cf-product-{ha.side}",
                       f"{ha.side}-side product table equals the twisted closed form",
                       _products_equal(ha.sc, sc))
    for ha, (_, action) in closed:
        rec.bool_check(f"5.cf-action-{ha.side}",
                       f"{ha.side}-side action equals the twisted closed form",
                       _actions_equal(ha.action, action))


def _products_equal(a: StructureConstants, b: StructureConstants) -> bool:
    """Same unit and same cells, row by row, each cell compared as a {k: c}
    map so the order in which a cell's terms are listed does not matter."""
    return a.unit == b.unit and a.dim == b.dim and all(
        ra.keys() == rb.keys() and all(dict(cell) == dict(rb[j]) for j, cell in ra.items())
        for ra, rb in zip(a.rows, b.rows))


def _actions_equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(a.get(k, {}) == b.get(k, {}) for k in keys)


def _suite_theorems(run: RunContext, rec: Recorder):
    had, hap = run.doubles()
    ce = run.elements()
    check_theorem_4_4(ce, had, rec, run.pentagon_lefts("dual"))
    check_theorem_4_5(ce, hap, rec, run.pentagon_lefts("plain"))
    cf = run.closed_form().elements
    for name in ("W", "Wtilde", "Wbar", "What",
                 "PhiBoldInv", "PhiBold321S", "PhiBarInv321", "PhiBarS"):
        rec.tensor_check(f"5.cf-{name}", f"{name} matches its twisted closed form",
                         getattr(ce, name), getattr(cf, name))

    unit2d = had.sc.unit_tensor(2)
    ww = multiply(had.sc, ce.W, ce.Wtilde)
    wwr = multiply(had.sc, ce.Wtilde, ce.W)
    rec.info("4.info-WWtilde",
             "product of the canonical element with its quasi-inverse (reported only)",
             f"W*Wt == unit: {ww == unit2d}; Wt*W == unit: {wwr == unit2d}")

    # the Hopf case is Phi = 1 (x) 1 (x) 1
    if run.H.associator == run.H.mult.unit_tensor(3):
        w12, _, w23 = leg_pairs(ce.W)
        rec.tensor_check("hopf.pentagon", "plain pentagon in the untwisted case",
                         run.pentagon_lefts("dual")[0], multiply(had.sc, w23, w12))
        rec.tensor_check("hopf.Wtilde-inverse", "quasi-inverse is the genuine inverse",
                         ww, unit2d)
        rec.tensor_check("hopf.Wtilde-inverse'", "quasi-inverse is a two-sided inverse",
                         wwr, unit2d)
        unit2p = hap.sc.unit_tensor(2)
        rec.tensor_check("hopf.What-inverse", "plain-side quasi-inverse is the inverse",
                         multiply(hap.sc, ce.Wbar, ce.What), unit2p)
        rec.tensor_check("hopf.What-inverse'", "plain-side quasi-inverse is two-sided",
                         multiply(hap.sc, ce.What, ce.Wbar), unit2p)
        rec.tensor_check("hopf.corrections-dual-1", "dual correction tensors are unit tensors",
                         ce.PhiBoldInv, had.sc.unit_tensor(3))
        rec.tensor_check("hopf.corrections-dual-2", "reversed dual correction is the unit tensor",
                         ce.PhiBold321S, had.sc.unit_tensor(3))
        rec.tensor_check("hopf.corrections-plain-1", "plain correction tensors are unit tensors",
                         ce.PhiBarInv321, hap.sc.unit_tensor(3))
        rec.tensor_check("hopf.corrections-plain-2", "reversed plain correction is the unit tensor",
                         ce.PhiBarS, hap.sc.unit_tensor(3))


def _suite_section5(run: RunContext, rec: Recorder):
    check_section5_expansions(run.w, *run.pentagon_lefts("plain"), rec)


def _suite_invertibility(run: RunContext, rec: Recorder):
    w = run.w
    holds, obstructions = invertibility_criterion(w)
    if holds:
        detail = "omega(a, a^-1, a) = 1 for every a"
    else:
        a, ex = obstructions[0]
        detail = (f"omega(a, a^-1, a) != 1 at a={a}: value zeta_{w.root_order}^{ex}")
    rec.info("5.r-criterion", "diagonal obstruction values of the cocycle", detail)

    had, hap = run.doubles()
    for label, ha, name in (("5.r-W", had, "canonical element, dual side"),
                            ("5.r-Wbar", hap, "canonical element, plain side")):
        res = probe_invertibility(ha, run.canonical(ha.side))
        ok = (res.status == "two_sided") == holds
        if holds:
            msg = (f"{name}: two-sided inverse found and verified" if ok else
                   f"{name}: expected invertible, probe says {res.status}")
        else:
            msg = (f"{name}: not two-sided invertible ({res.status}); obstruction {detail}"
                   if ok else
                   f"{name}: probe found a two-sided inverse despite the obstruction")
        rec.bool_check(label, f"invertibility probe agrees with the criterion ({name})",
                       ok, detail=msg)


SUITES = {
    "axioms": _suite_axioms,
    "twist": _suite_twist,
    "lemma41": _suite_lemma41,
    "heisenberg": _suite_heisenberg,
    "theorems": _suite_theorems,
    "section5": _suite_section5,
    "invertibility": _suite_invertibility,
}
SUITE_ORDER = tuple(SUITES)
SUITE_DEPS = {
    "axioms": (),
    "twist": ("axioms",),
    "lemma41": ("twist",),
    "heisenberg": ("axioms",),
    "theorems": ("lemma41", "heisenberg"),
    "section5": ("theorems",),
    "invertibility": ("heisenberg",),
}


# -- runner and rendering ---------------------------------------------------------


@dataclass
class Report:
    spec: RunSpec
    suites: list = field(default_factory=list)  # (name, Recorder)

    def counts(self):
        total = passed = failed = skipped = 0
        for _, rec in self.suites:
            for item in rec.items:
                total += 1
                if item.status == "pass":
                    passed += 1
                elif item.status == "fail":
                    failed += 1
                else:
                    skipped += 1
        return total, passed, failed, skipped

    @property
    def exit_code(self) -> int:
        return 0 if self.counts()[2] == 0 else 1

    def to_dict(self) -> dict:
        suites = []
        for name, rec in self.suites:
            for item in rec.items:
                entry = {
                    "suite": name,
                    "label": item.label,
                    "name": item.name,
                    "status": item.status,
                    "discrepancies": [
                        {"index": list(d.index), "lhs": d.lhs, "rhs": d.rhs}
                        for d in item.discrepancies
                    ],
                }
                if item.detail:
                    entry["detail"] = item.detail
                if item.float_status is not None:
                    entry["float_status"] = item.float_status
                if item.millis is not None:
                    entry["millis"] = item.millis
                suites.append(entry)
        total, passed, failed, skipped = self.counts()
        return {
            "spec": {
                "source": self.spec.source,
                "suites": list(self.spec.selected()),
                "backend": self.spec.backend,
                "report_format": self.spec.report_format,
            },
            "suites": suites,
            "summary": {
                "checks": total,
                "passed": passed,
                "failed": failed,
                "skipped": skipped,
                "exit_code": self.exit_code,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"source: {self.spec.source}", f"backend: {self.spec.backend}"]
        for name, rec in self.suites:
            lines.append(f"suite {name}")
            for item in rec.items:
                mark = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}[item.status]
                extra = f"  [{item.millis}ms]" if item.millis is not None else ""
                fl = f"  float={item.float_status}" if item.float_status else ""
                lines.append(f"  [{mark}] {item.label:22s} {item.name}{fl}{extra}")
                if item.detail:
                    lines.append(f"         {item.detail}")
                for d in item.discrepancies:
                    lines.append(f"         at {d.index}: lhs={d.lhs} rhs={d.rhs}")
        total, passed, failed, skipped = self.counts()
        lines.append(
            f"summary: {total} checks, {passed} passed, {failed} failed, {skipped} skipped")
        return "\n".join(lines) + "\n"


def _release_free_lists():
    """Hand the interpreter's free lists of tuples, floats, lists and dicts
    back to the allocator.  Only a full collection empties them; with every
    object frozen first it has nothing to traverse.  Objects a caller froze
    would be thawed with the rest, so then nothing is done."""
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.collect()
        gc.unfreeze()


def run(spec: RunSpec) -> Report:
    """Execute the selected suites; a prerequisite that failed or was skipped
    marks its dependents as skipped rather than running them on bad data.
    A prerequisite that was not selected does not block.

    The cyclic garbage collector is paused for the run and switched back on
    afterwards only if it was on.  The contractions allocate millions of
    tuples, dicts and scalars but no reference cycle, so reference counting
    frees all of them and the collector's passes over the growing heap are
    pure cost (tests/test_cli.py checks that a run leaves no cyclic garbage).
    The free lists, which the collector's full passes would have emptied,
    are released before each suite instead, so that a suite's peak memory
    does not include the dead tuples its predecessors left in them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w = resolve_source(spec)
        ctx = RunContext(w)
        report = Report(spec)
        outcomes: dict[str, str] = {}  # "passed", "failed" or "was skipped"
        float_check = spec.backend == "float"
        for name in spec.selected():
            _release_free_lists()
            rec = Recorder(float_check=float_check, timings=spec.timings)
            blocked = [d for d in SUITE_DEPS[name] if outcomes.get(d, "passed") != "passed"]
            if blocked:
                rec.skip(name, f"{name} suite",
                         f"skipped: prerequisite suite {blocked[0]} {outcomes[blocked[0]]}")
                outcomes[name] = "was skipped"
            else:
                SUITES[name](ctx, rec)
                outcomes[name] = "passed" if rec.ok else "failed"
            report.suites.append((name, rec))
        return report
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhd",
        description="Verify the defining identities, canonical-element equations, "
                    "and invertibility behavior of a twisted function algebra "
                    "and its Heisenberg doubles, in exact cyclotomic arithmetic.")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--example", metavar="ID",
                     help="builtin source: zn:<n>:<k>, trivial:<n>, or v4:<id>")
    src.add_argument("--input", metavar="PATH",
                     help="path to a group/cocycle description file")
    parser.add_argument("--check", default="all", metavar="SUITES",
                        help=f"comma-separated: all, {', '.join(SUITE_ORDER)}")
    parser.add_argument("--backend", choices=("exact", "float"), default="exact",
                        help="exact arithmetic, optionally cross-checked in floats")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    parser.add_argument("--timings", action="store_true",
                        help="include per-check timings (non-deterministic output)")
    args = parser.parse_args(argv)

    source = args.example if args.example is not None else f"file:{args.input}"
    spec = RunSpec(
        source=source,
        suites=tuple(s.strip() for s in args.check.split(",") if s.strip()),
        backend=args.backend,
        report_format=args.report,
        out=args.out,
        timings=args.timings,
    )
    try:
        spec.selected()
        report = run(spec)
        text = report.to_json() if spec.report_format == "json" else report.to_text()
    except (InputError, GroupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must not pass as "identity failed" (1)
        # imported only here: importing it with the module slowed set-up by
        # about 5 % on the benchmark's `doubles` workload
        import traceback

        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 3
    if spec.out is not None:
        try:
            with open(spec.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {spec.out}: {e}", file=sys.stderr)
            return 2
        total, passed, failed, skipped = report.counts()
        print(f"{passed}/{total} checks passed; report written to {spec.out}")
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
