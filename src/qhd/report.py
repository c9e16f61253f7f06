"""Check recording: pass/fail items with bounded discrepancy listings.

Every identity check reports both sides; a failing check carries up to ten
offending multi-indices with the two coefficients, so 6-index mismatches
stay debuggable.  The optional float path re-evaluates each comparison in
complex doubles at tolerance 1e-9; when it disagrees with the exact
verdict, the float path is the one reported as defective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .algebra import SparseTensor

FLOAT_TOL = 1e-9
MAX_DISCREPANCIES = 10


@dataclass
class Discrepancy:
    index: tuple
    lhs: str
    rhs: str


@dataclass
class CheckItem:
    label: str
    name: str
    status: str  # pass | fail | skipped
    discrepancies: list = field(default_factory=list)
    detail: str = ""
    float_status: str | None = None
    millis: float | None = None


def _diff_entries(lhs: SparseTensor, rhs: SparseTensor, prefix=()):
    out = []
    for k in sorted(set(lhs.entries) | set(rhs.entries)):
        a = lhs.entries.get(k)
        b = rhs.entries.get(k)
        if a is None or b is None or a != b:
            out.append(Discrepancy(prefix + k, "0" if a is None else str(a),
                                   "0" if b is None else str(b)))
    return out


def _float_agrees(lhs: SparseTensor, rhs: SparseTensor) -> bool:
    for k in set(lhs.entries) | set(rhs.entries):
        a = lhs.entries.get(k)
        b = rhs.entries.get(k)
        av = a.to_complex() if a is not None else 0j
        bv = b.to_complex() if b is not None else 0j
        if abs(av - bv) > FLOAT_TOL:
            return False
    return True


class Recorder:
    """Collects CheckItems; shared by the library checks and the CLI."""

    def __init__(self, float_check: bool = False, timings: bool = False):
        self.float_check = float_check
        self.timings = timings
        self.items: list[CheckItem] = []
        self._t0 = time.perf_counter()

    def _stamp(self, item: CheckItem):
        if self.timings:
            now = time.perf_counter()
            item.millis = round((now - self._t0) * 1000.0, 3)
            self._t0 = now
        self.items.append(item)

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.items)

    def tensor_check(self, label: str, name: str, lhs: SparseTensor, rhs: SparseTensor,
                     detail: str = "") -> bool:
        return self._compare(label, name, (((), lhs, rhs),), detail)

    def family_check(self, label: str, name: str, triples) -> bool:
        """triples: iterable of (prefix, lhs, rhs); one item for the family.  An
        index is prefix + key, keys sort within a triple, triples are read in the
        order given, so pairs merged under a shorter prefix report the same."""
        return self._compare(label, name, triples)

    def _compare(self, label: str, name: str, triples, detail: str = "") -> bool:
        """One item for every (prefix, lhs, rhs): the exact verdict, the first
        MAX_DISCREPANCIES differing entries and, if asked, the float verdict."""
        disc = []
        passed = fpass = True
        for prefix, lhs, rhs in triples:
            if not isinstance(prefix, tuple):
                prefix = (prefix,)
            if lhs != rhs:
                passed = False
                if len(disc) < MAX_DISCREPANCIES:
                    disc.extend(_diff_entries(lhs, rhs, prefix)[: MAX_DISCREPANCIES - len(disc)])
                # equal sides hold the same interned scalars, so the same floats
                if self.float_check and not _float_agrees(lhs, rhs):
                    fpass = False
        item = CheckItem(label, name, "pass" if passed else "fail", disc, detail)
        if self.float_check:
            item.float_status = "pass" if fpass else "fail"
            if fpass != passed:
                item.detail = (detail + "; " if detail else "") + \
                    "float path disagrees with exact result (float defect)"
        self._stamp(item)
        return passed

    def bool_check(self, label: str, name: str, ok: bool, detail: str = "") -> bool:
        self._stamp(CheckItem(label, name, "pass" if ok else "fail", detail=detail))
        return ok

    def info(self, label: str, name: str, detail: str):
        self._stamp(CheckItem(label, name, "pass", detail=detail))

    def skip(self, label: str, name: str, reason: str):
        self._stamp(CheckItem(label, name, "skipped", detail=reason))
