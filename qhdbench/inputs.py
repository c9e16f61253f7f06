"""Seeded instance files for the benchmark workloads.

Every instance is written as an explicit `group table` / `cocycle table`
description, so the program only ever sees generated files.  Seed 0 keeps
the canonical labels; any other seed relabels the group elements by a
seeded permutation (the identity may move off index 0), which leaves every
verdict unchanged.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One verification input: a group, a 3-cocycle and the suites to run."""

    name: str
    cayley: tuple          # n x n table of 0-based indices, identity at 0
    root_order: int
    exponents: dict        # (a, b, c) -> e, nonzero entries only
    checks: str            # value of `qhd --check`
    backend: str = "exact"
    report_format: str = "text"


def cyclic_group(n: int) -> tuple:
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def s3_group():
    """S3 as permutations of (0, 1, 2) in lexicographic order, with signs."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    cayley = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms)
    sign = tuple(sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
                 for p in perms)
    return cayley, sign


def cyclic_instance(name: str, n: int, k: int, checks: str, **kw) -> Instance:
    """Z/n at level k: exponent k*a*b*c mod n, as `cyclic_cocycle` builds it."""
    exps = {(a, b, c): (k * a * b * c) % n
            for a in range(n) for b in range(n) for c in range(n)}
    return Instance(name, cyclic_group(n), n,
                    {t: e for t, e in exps.items() if e}, checks, **kw)


def untwisted_instance(name: str, n: int, checks: str, **kw) -> Instance:
    """Z/n with the trivial cocycle, written as `cocycle table 1`."""
    return Instance(name, cyclic_group(n), 1, {}, checks, **kw)


def s3_sign_instance(name: str, checks: str, **kw) -> Instance:
    """S3 with the sign-pullback cocycle s(a)s(b)s(c) mod 2 (Dijkgraaf,
    Pasquier and Roche 1990: the nontrivial Z/2 cocycle pulled back along
    the sign homomorphism)."""
    cayley, s = s3_group()
    n = len(cayley)
    exps = {(a, b, c): 1 for a in range(n) for b in range(n) for c in range(n)
            if s[a] * s[b] * s[c]}
    return Instance(name, cayley, 2, exps, checks, **kw)


# Sizes are chosen so that one verification of a workload takes seconds, not
# minutes: zn:10 invertibility (about 70 s) would not fit 22 runs, and v4
# (0.4 s) would show nothing.
WORKLOADS = {
    # multiply on the diagonal function algebra at degrees 2-4: the pentagon
    # 2.3 and the per-associator loops of 2.7-2.13; no double, no solve.
    "identities": (
        cyclic_instance("z8_k1", 8, 1, "axioms,twist,lemma41"),
    ),
    # solve_linear dominates.  Z/7 is obstructed (one_sided_both) with
    # Fraction-valued pivots since phi(7) = 6; untwisted Z/6 takes the
    # two_sided path, a stacked solve plus re-verification.
    "probe": (
        cyclic_instance("z7_k1", 7, 1, "invertibility"),
        untwisted_instance("z6_untwisted", 6, "invertibility"),
    ),
    # multiply on the dense 100-dim degree-3 Heisenberg-double tables, the
    # only nonabelian group and the only float comparison path.
    "doubles": (
        cyclic_instance("z10_k1", 10, 1, "heisenberg,theorems,section5",
                        backend="float", report_format="json"),
        s3_sign_instance("s3_sign", "heisenberg,theorems,section5",
                         backend="float", report_format="json"),
    ),
}


def relabel(inst: Instance, seed: int) -> Instance:
    """The same instance under a seeded permutation of the group elements."""
    n = len(inst.cayley)
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    cayley = tuple(tuple(perm[inst.cayley[inv[a]][inv[b]]] for b in range(n))
                   for a in range(n))
    exps = {(perm[a], perm[b], perm[c]): e for (a, b, c), e in inst.exponents.items()}
    return Instance(inst.name, cayley, inst.root_order, exps, inst.checks,
                    inst.backend, inst.report_format)


def render(inst: Instance) -> str:
    n = len(inst.cayley)
    lines = [f"group table {n}"]
    lines += [" ".join(map(str, row)) for row in inst.cayley]
    lines.append(f"cocycle table {inst.root_order}")
    lines += [f"{a} {b} {c} -> {e}" for (a, b, c), e in sorted(inst.exponents.items())]
    return "\n".join(lines) + "\n"


def write_instances(workload: str, seed: int, directory: str) -> list:
    """Write the workload's instances under `directory` for `seed`; return
    (instance, file name) pairs.  File names do not depend on the seed, so
    the report's `source` field is the same on every run."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for inst in WORKLOADS[workload]:
        fname = f"{inst.name}.qhd"
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(render(relabel(inst, seed)))
        out.append((inst, fname))
    return out
