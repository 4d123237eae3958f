"""Acceptance suite: one callable check per release criterion.

Each criterion is implemented at its stated tolerance and reports one
pass/fail line; all of them must pass.

Two reference values in the acceptance checklist carry sign slips, and
the checks below assert the corrected values.  Each correction is
certified by a route that does not go through the companion factor, and
the transcribed value stays on record as a named erratum in the check's
detail text:

* criterion 3, the four-block expansion: the transcribed form has `+` on
  the xy term and `-` on the constant; the determinant of the 4x4 block
  quotient matrix has `-` and `+`.  Each sampled tuple is also checked
  against the determinant-route characteristic polynomial.
* criterion 8, the shared cubic at -(2i+1): the transcribed value is
  -24i^3 - 16i^2 + 6i; expanding the cubic there gives -24i^3 - 16i^2 - 2i.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import families, linalg, spectra
from .intpoly import (
    Poly,
    divide_exact,
    evaluate,
    format_poly,
    mul,
    mul_xk,
    normalize,
    poly_pow,
)
from .sequences import (
    adjacency_matrix,
    enumerate_connected,
    format_sequence,
    from_blocks,
    nth_connected,
    to_blocks,
)

CORPUS_MAX_N = 11
FAMILY_MAX_I = 15
CUBIC_MAX_I = 50
HUNT_ORDER = 14


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:02d} {self.name}: {status} "
                f"({self.elapsed:.2f}s) {self.detail}")


@lru_cache(maxsize=1)
def _corpus(max_n: int) -> tuple[tuple[tuple[int, ...], Poly, Poly], ...]:
    """(sequence, block-formula polynomial, determinant polynomial) for
    every connected threshold graph with at most max_n vertices."""
    rows = []
    for n in range(2, max_n + 1):
        for bits in enumerate_connected(n):
            formula = spectra.char_poly(to_blocks(bits))
            oracle = linalg.charpoly(adjacency_matrix(bits))
            rows.append((bits, formula, oracle))
    return tuple(rows)


def _root_multiplicity(p: Poly, divisor: Poly) -> int:
    count = 0
    while True:
        quotient = divide_exact(p, divisor)
        if quotient is None:
            return count
        p = quotient
        count += 1


def criterion_1() -> CriterionResult:
    """Block formula equals the determinant polynomial on the full corpus."""
    started = time.perf_counter()
    mismatches = []
    rows = _corpus(CORPUS_MAX_N)
    for bits, formula, oracle in rows:
        if formula != oracle:
            mismatches.append(bits)
    detail = f"{len(rows)} graphs with n <= {CORPUS_MAX_N}, {len(mismatches)} mismatches"
    if mismatches:
        detail += f"; first: {format_sequence(mismatches[0])}"
    return CriterionResult(1, "formula-vs-determinant-oracle", not mismatches,
                           detail, time.perf_counter() - started)


def criterion_2() -> CriterionResult:
    """Counted multiplicities of 0 and -1 match the block-count formulas."""
    started = time.perf_counter()
    bad = 0
    rows = _corpus(CORPUS_MAX_N)
    first = ""
    for bits, _, oracle in rows:
        blocks = to_blocks(bits)
        want0 = spectra.multiplicity_zero(blocks)
        want1 = spectra.multiplicity_minus_one(blocks)
        got0 = _root_multiplicity(oracle, (0, 1))
        got1 = _root_multiplicity(oracle, (1, 1))
        if (want0, want1) != (got0, got1):
            bad += 1
            if not first:
                first = (f"; first: {format_sequence(bits)} formula "
                         f"({want0},{want1}) vs counted ({got0},{got1})")
    detail = f"{len(rows)} graphs, {bad} disagreements{first}"
    return CriterionResult(2, "zero-and-minus-one-multiplicities", bad == 0,
                           detail, time.perf_counter() - started)


def _four_block_expansion(a1: int, a2: int, a3: int, a4: int,
                          xy_sign: int, const_sign: int) -> Poly:
    """x^2 y^2 - (a2+a4) x^2 y +- (a1a2+a1a4+a3a4) xy + (a2a3a4) x
    +- a1a2a3a4, with y = x + 1 and the two contested signs injected."""
    out = [0] * 5
    # x^2 y^2 = x^4 + 2x^3 + x^2
    out[4] += 1
    out[3] += 2
    out[2] += 1
    # -(a2 + a4) x^2 y = -(a2+a4)(x^3 + x^2)
    out[3] -= a2 + a4
    out[2] -= a2 + a4
    # (+-)(a1a2 + a1a4 + a3a4) xy = s(x^2 + x)
    s = xy_sign * (a1 * a2 + a1 * a4 + a3 * a4)
    out[2] += s
    out[1] += s
    # (a2a3a4) x
    out[1] += a2 * a3 * a4
    # (+-) a1a2a3a4
    out[0] += const_sign * a1 * a2 * a3 * a4
    return normalize(out)


def criterion_3() -> CriterionResult:
    """Four-block expansion versus the engine and the determinant route,
    20 pseudo-random tuples.

    Erratum: the transcribed expansion has `+` on the xy term and `-` on
    the constant term.  The corrected form (`-` and `+`) is the
    determinant of the block quotient matrix; it is certified here by
    x^s0 (x+1)^s1 times it equalling the determinant-route characteristic
    polynomial, which does not use the companion factor.
    """
    started = time.perf_counter()
    rng = random.Random(20250806)
    engine_bad = 0
    oracle_bad = 0
    literal_bad = 0
    first = ""
    for _ in range(20):
        a1, a2, a3, a4 = (rng.randint(1, 6) for _ in range(4))
        blocks = ((0, a1), (1, a2), (0, a3), (1, a4))
        engine = spectra.q_polynomial(blocks)
        corrected = _four_block_expansion(a1, a2, a3, a4, xy_sign=-1, const_sign=1)
        literal = _four_block_expansion(a1, a2, a3, a4, xy_sign=1, const_sign=-1)
        oracle = linalg.charpoly(adjacency_matrix(from_blocks(blocks)))
        # x^s0 (x+1)^s1 with the block surpluses s0 = a1+a3-2, s1 = a2+a4-2
        surplus = mul_xk(poly_pow((1, 1), a2 + a4 - 2), a1 + a3 - 2)
        if engine != corrected:
            engine_bad += 1
            if not first:
                first = (f"; e.g. (a1..a4)=({a1},{a2},{a3},{a4}): engine "
                         f"[{format_poly(engine)}] vs corrected "
                         f"[{format_poly(corrected)}]")
        if mul(corrected, surplus) != oracle:
            oracle_bad += 1
        if mul(literal, surplus) != oracle:
            literal_bad += 1
    detail = (f"20 tuples: engine mismatched the corrected form (xy "
              f"negative, constant positive) on {engine_bad}, the "
              f"determinant route on {oracle_bad}; erratum: the transcribed "
              f"form (xy positive, constant negative) mismatched the "
              f"determinant route on {literal_bad}/20{first}")
    return CriterionResult(3, "four-block-identity",
                           engine_bad == 0 and oracle_bad == 0, detail,
                           time.perf_counter() - started)


def criterion_4() -> CriterionResult:
    """Index-sequence sets for (7,4) and (6,4) match the reference sets."""
    started = time.perf_counter()
    want_7_4 = {(2, 3, 4, 5), (2, 3, 4, 7), (2, 3, 6, 7), (2, 5, 6, 7),
                (4, 5, 6, 7)}
    want_6_4 = {(1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 5, 6), (1, 4, 5, 6),
                (3, 4, 5, 6)}
    got_7_4 = spectra.index_sequences(7, 4)
    got_6_4 = spectra.index_sequences(6, 4)
    ok = got_7_4 == want_7_4 and got_6_4 == want_6_4
    detail = (f"(7,4): {'match' if got_7_4 == want_7_4 else got_7_4}; "
              f"(6,4): {'match' if got_6_4 == want_6_4 else got_6_4}")
    return CriterionResult(4, "index-sequence-sets", ok, detail,
                           time.perf_counter() - started)


def criterion_5() -> CriterionResult:
    """Closed-form factorizations equal the engine for i = 1..15."""
    started = time.perf_counter()
    bad = []
    lines = []
    for fam in (families.FamilyId.FOUR_BLOCK, families.FamilyId.SIX_BLOCK):
        for i in range(1, FAMILY_MAX_I + 1):
            pair = families.family_pair(fam, i)
            for member, blocks in (("G", pair.g), ("G'", pair.g_prime)):
                engine = spectra.char_poly(blocks)
                closed = families.closed_form_char_poly(fam, i, member)
                if engine != closed:
                    bad.append((fam.value, i, member))
                    lines.append(f"engine:      {format_poly(engine)}")
                    lines.append(f"closed form: {format_poly(closed)}")
    detail = f"{4 * FAMILY_MAX_I} member polynomials compared, {len(bad)} diffs"
    if bad:
        detail += f"; first at {bad[0]}: " + " | ".join(lines[:2])
    return CriterionResult(5, "family-closed-forms", not bad, detail,
                           time.perf_counter() - started)


def criterion_6() -> CriterionResult:
    """Pairs are noncospectral with overlapping energies at 1e-12 and
    exactly equal energies by the shared-factor route, i = 1..15."""
    started = time.perf_counter()
    tol = Fraction(4, 10 ** 12)
    failures = []
    for fam in (families.FamilyId.FOUR_BLOCK, families.FamilyId.SIX_BLOCK):
        for i in range(1, FAMILY_MAX_I + 1):
            report = families.verify_family(fam, i, tol)
            if not (report.noncospectral and report.energy_overlap
                    and report.energy_gap_bound <= tol
                    and report.exact_equal_energy):
                failures.append((fam.value, i, report))
    detail = f"{2 * FAMILY_MAX_I} pairs at precision 1e-12, {len(failures)} failures"
    if failures:
        fam, i, rep = failures[0]
        detail += f"; first {fam} i={i}: {rep.details}"
    return CriterionResult(6, "family-pairs-noncospectral-equienergetic",
                           not failures, detail, time.perf_counter() - started)


def criterion_7() -> CriterionResult:
    """Energy bounds against the complete graph for i = 1..15."""
    started = time.perf_counter()
    slack = Fraction(1, 10 ** 9)
    k_tol = Fraction(1, 10 ** 10)
    problems = []
    for i in range(1, FAMILY_MAX_I + 1):
        for fam in (families.FamilyId.FOUR_BLOCK, families.FamilyId.SIX_BLOCK):
            pair = families.family_pair(fam, i)
            for blocks in (pair.g, pair.g_prime):
                _, hi = spectra.energy(from_blocks(blocks), Fraction(1, 10 ** 12))
                if not hi < 18 * i + 8:
                    problems.append((fam.value, i, "upper >= 18i+8", float(hi)))
                if not hi <= 18 * i + 6 + slack:
                    problems.append((fam.value, i, "upper > 18i+6+1e-9", float(hi)))
        n = 9 * i + 5
        complete = (0,) + (1,) * (n - 1)
        klo, khi = spectra.energy(complete, k_tol)
        target = 18 * i + 8
        if not (klo <= target <= khi and khi - klo <= k_tol
                and max(abs(khi - target), abs(target - klo)) <= k_tol):
            problems.append(("complete", i, "E(K_n) != 18i+8", (float(klo), float(khi))))
    detail = f"checked i=1..{FAMILY_MAX_I} both families, {len(problems)} violations"
    if problems:
        detail += f"; first: {problems[0]}"
    return CriterionResult(7, "family-energy-bounds", not problems, detail,
                           time.perf_counter() - started)


def criterion_8() -> CriterionResult:
    """Cubic sign values and root localization for i = 1..50.

    Erratum: the transcribed value at -(2i+1) is -24i^3 - 16i^2 + 6i.
    Expanding x^3 - (7i+2)x^2 - (7i+3)x + 12i^3 + 18i^2 + 6i there gives
    -24i^3 - 16i^2 - 2i, which is asserted exactly.  Both are negative for
    i >= 1, so the localization conclusions are the same under either.
    """
    started = time.perf_counter()
    value_bad = []
    localization_bad = []
    for i in range(1, CUBIC_MAX_I + 1):
        cubic = families.shared_cubic(i)
        at_zero = evaluate(cubic, 0)
        at_lower = evaluate(cubic, -(2 * i + 1))
        stated_zero = 12 * i ** 3 + 18 * i ** 2 + 6 * i
        stated_lower = -24 * i ** 3 - 16 * i ** 2 - 2 * i
        if not (at_zero == stated_zero and at_zero > 0
                and at_lower == stated_lower and at_lower < 0):
            value_bad.append((i, at_zero, at_lower))
        report = families.cubic_root_localization(i)
        if not (report.first_root_localized and report.upper_roots_positive
                and report.root_sum_contains_trace):
            localization_bad.append(i)
    ok = not value_bad and not localization_bad
    detail = (f"i=1..{CUBIC_MAX_I}: value at 0 is 12i^3+18i^2+6i and value "
              f"at -(2i+1) is -24i^3-16i^2-2i for "
              f"{CUBIC_MAX_I - len(value_bad)} of {CUBIC_MAX_I} i; erratum: "
              f"the transcribed value at -(2i+1), -24i^3-16i^2+6i, is off "
              f"by 8i")
    if value_bad:
        i, got_zero, got_lower = value_bad[0]
        detail += (f"; first mismatch i={i}: computed {got_zero} at 0 and "
                   f"{got_lower} at -(2i+1)")
    if localization_bad:
        detail += f"; localization failed for i in {localization_bad[:5]}"
    return CriterionResult(8, "cubic-sign-and-root-localization", ok, detail,
                           time.perf_counter() - started)


def criterion_9() -> CriterionResult:
    """The order-14 hunt recovers both constructed pairs via the CLI."""
    from . import cli

    started = time.perf_counter()
    buffer = io.StringIO()
    code = cli.run(["hunt", "--n", str(HUNT_ORDER), "--precision", "1e-10",
                    "--json"], out=buffer)
    if code != 0:
        return CriterionResult(9, "hunt-n14-recovers-pairs", False,
                               f"hunt exited with {code}",
                               time.perf_counter() - started)
    record = json.loads(buffer.getvalue())
    classes = record["results"]["classes"]
    missing = []
    for fam in (families.FamilyId.FOUR_BLOCK, families.FamilyId.SIX_BLOCK):
        pair = families.family_pair(fam, 1)
        text_g = format_sequence(from_blocks(pair.g))
        text_gp = format_sequence(from_blocks(pair.g_prime))
        found = False
        for cls in classes:
            names = {m["sequence"] for m in cls["members"]}
            if text_g in names and text_gp in names:
                polys = {tuple(m["char_poly"]) for m in cls["members"]
                         if m["sequence"] in (text_g, text_gp)}
                if len(polys) == 2:
                    found = True
                    break
        if not found:
            missing.append(fam.value)
    stats = record["results"]["stats"]
    detail = (f"{stats['graphs']} graphs, {stats['equienergetic_classes']} "
              f"equienergetic classes, scan {stats['elapsed_seconds']}s; "
              f"missing pairs: {missing or 'none'}")
    return CriterionResult(9, "hunt-n14-recovers-pairs", not missing, detail,
                           time.perf_counter() - started)


def criterion_10() -> CriterionResult:
    """Energy equals twice the positive-root sum within 4*n*precision for
    200 random connected sequences with n <= 16."""
    started = time.perf_counter()
    rng = random.Random(987654321)
    precision = Fraction(1, 10 ** 10)
    worst = Fraction(0)
    bad = 0
    for _ in range(200):
        n = rng.randint(2, 16)
        idx = rng.getrandbits(n - 2) if n > 2 else 0
        bits = nth_connected(n, idx)
        summary = spectra.spectral_summary(bits, precision)
        mid_energy = (summary.energy_lo + summary.energy_hi) / 2
        positive = sum((r.multiplicity * r.midpoint
                        for r in summary.roots if r.lo > 0), Fraction(0))
        err = abs(mid_energy - 2 * positive)
        worst = max(worst, err / n)
        if err > 4 * n * precision:
            bad += 1
    detail = (f"200 sequences, {bad} outside 4*n*precision; worst |err|/n "
              f"= {float(worst):.3e}")
    return CriterionResult(10, "energy-identity-random-sequences", bad == 0,
                           detail, time.perf_counter() - started)


def criterion_11() -> CriterionResult:
    """Complete-graph energy equals 2n - 2 within 1e-10 for n = 2..50."""
    started = time.perf_counter()
    tol = Fraction(1, 10 ** 10)
    bad = []
    for n in range(2, 51):
        bits = (0,) + (1,) * (n - 1)
        lo, hi = spectra.energy(bits, tol)
        target = 2 * n - 2
        if not (lo <= target <= hi
                and max(abs(hi - target), abs(target - lo)) <= tol):
            bad.append(n)
    detail = f"n = 2..50, {len(bad)} misses{': ' + str(bad) if bad else ''}"
    return CriterionResult(11, "complete-graph-energy", not bad, detail,
                           time.perf_counter() - started)


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}
