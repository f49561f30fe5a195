"""Acceptance gate: seven primary criteria, one pass/fail line each.

Each test prints a single ``ACCEPTANCE <k> <name>: PASS|FAIL (<detail>)``
line on the real stdout (bypassing capture) and then asserts, so a plain
``pytest -v`` run shows the verdict for every criterion at its stated
tolerance.  Criterion 7 replays every certificate emitted by the earlier
criteria; the suites after the first two emit no certificates, so the
replay set is exactly the certificates produced by criteria 1 and 2 (the
module accumulates them in CERTS, and regenerates them if criterion 7 is
invoked on its own).
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from math import gcd

import conftest

from braidcert import _kernel
from braidcert import (
    BraidWord,
    Certificate,
    LSpaceStatus,
    OrderSign,
    SplitBinding,
    Verdict,
    baldwin_lspace_double_cover,
    certify_genus1_cover,
    compare,
    dehornoy_floor,
    delta,
    fdtc_exact_b3,
    fdtc_interval_by_floor,
    fdtc_lift,
    full_twist,
    is_trivial,
    normal_form,
    sigma_sign,
    verify_certificate,
)
from braidcert.ordering import Comparison

CERTS: list[Certificate] = []

C3 = full_twist(3)

# The three periodic-family words and, per family, the central powers d
# for which some cover is a total L-space, mapped to the largest such
# cover order n.
FAMILY_WORDS = {1: (-1, -2), 2: (-1, -1, -2), 3: (-1, -1, -1, -2)}
TOTAL_LSPACE_CAP = {1: {0: 5, 1: 2}, 2: {0: 3, 1: 3}, 3: {0: 2, 1: 5}}


def _verdict_line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# criterion 1: genus-one cyclic-cover table


def _run_genus1_table() -> tuple[list[str], int, list[Certificate]]:
    mismatches: list[str] = []
    certs: list[Certificate] = []
    cases = 0
    for family, letters in FAMILY_WORDS.items():
        word = BraidWord(3, letters)
        for d in range(-6, 7):
            h = C3 ** d * word
            for n in range(2, 13):
                cases += 1
                cert = certify_genus1_cover(h, n)
                certs.append(cert)
                cap = TOTAL_LSPACE_CAP[family].get(d)
                expected = (Verdict.TOTAL_L_SPACE
                            if cap is not None and n <= cap
                            else Verdict.EXCELLENT)
                if cert.verdict is not expected:
                    mismatches.append(
                        f"family {family} d={d} n={n}: got"
                        f" {cert.verdict.value}, table says {expected.value}")
    return mismatches, cases, certs


def test_criterion_1_genus_one_table():
    start = time.perf_counter()
    mismatches, cases, certs = _run_genus1_table()
    elapsed = time.perf_counter() - start
    CERTS.extend(certs)
    ok = not mismatches and elapsed < 10.0
    detail = (f"{cases} (family, d, n) cases, {len(mismatches)} mismatches,"
              f" {elapsed:.2f}s < 10s")
    if mismatches:
        detail += "; e.g. " + "; ".join(mismatches[:3])
    _verdict_line(1, "genus-one table", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: double-cover verdicts against the L-space list


def _run_baldwin_consistency() -> tuple[list[str], int, list[Certificate]]:
    rng = random.Random(96321)
    mismatches: list[str] = []
    certs: list[Certificate] = []
    samples = 600
    for _ in range(samples):
        length = rng.randint(1, 30)
        h = BraidWord(3, tuple(rng.choice((-2, -1, 1, 2))
                               for _ in range(length)))
        try:
            cert = certify_genus1_cover(h, 2)
            certs.append(cert)
            is_total = cert.verdict is Verdict.TOTAL_L_SPACE
        except SplitBinding:
            is_total = False
        is_lspace = (baldwin_lspace_double_cover(normal_form(h * h))
                     is LSpaceStatus.L_SPACE)
        if is_total != is_lspace:
            mismatches.append(f"{h.letters}: cover says"
                              f" {'total' if is_total else 'non'}-L-space,"
                              f" double-branched-cover list says"
                              f" {'L-space' if is_lspace else 'not'}")
    return mismatches, samples, certs


def test_criterion_2_baldwin_consistency():
    mismatches, samples, certs = _run_baldwin_consistency()
    CERTS.extend(certs)
    ok = not mismatches
    detail = f"{samples} random 3-braids (length <= 30), " \
             f"{len(mismatches)} mismatches"
    if mismatches:
        detail += "; e.g. " + "; ".join(mismatches[:3])
    _verdict_line(2, "Baldwin double-cover consistency", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: exact FDTC values on the classified families


def _criterion_3_cases() -> tuple[list[tuple[BraidWord, Fraction]], int, int]:
    """Criterion 3's words with their exact twists, and how many of them
    are pseudo-Anosov and periodic."""
    rng = random.Random(777)
    cases: list[tuple[BraidWord, Fraction]] = []
    pa_cases = 100
    for _ in range(pa_cases):
        d = rng.randint(-5, 5)
        letters: list[int] = []
        for _ in range(rng.randint(1, 6)):
            letters.append(1)
            letters.extend([-2] * rng.randint(1, 4))
        cases.append((C3 ** d * BraidWord(3, tuple(letters)), Fraction(d)))

    periodic_cases = 0
    for d in range(-5, 6):
        for tail, offset in (((-2, -1), Fraction(1, 3)),
                             ((-1, -2, -1), Fraction(1, 2)),
                             ((-2, -1, -2, -1), Fraction(2, 3))):
            periodic_cases += 1
            cases.append((C3 ** d * BraidWord(3, tail), d - offset))
    return cases, pa_cases, periodic_cases


def test_criterion_3_fdtc_exactness():
    start = time.perf_counter()
    failures: list[str] = []

    def check(b: BraidWord, expected: Fraction) -> None:
        got = fdtc_exact_b3(b)
        if got != expected:
            failures.append(f"{b.letters}: c={got}, expected {expected}")
            return
        bracket = fdtc_interval_by_floor(b, Fraction(1, 24))
        if bracket.is_exact:
            if bracket.value != expected:
                failures.append(f"{b.letters}: floor method gave exact"
                                f" {bracket.value} != {expected}")
        elif not (bracket.lo <= expected <= bracket.hi
                  and bracket.hi - bracket.lo <= Fraction(1, 24)):
            failures.append(f"{b.letters}: {expected} not inside"
                            f" [{bracket.lo}, {bracket.hi}] at width 1/24")

    cases, pa_cases, periodic_cases = _criterion_3_cases()
    for b, expected in cases:
        check(b, expected)

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    detail = (f"{pa_cases} pseudo-Anosov words c=d, {periodic_cases} periodic"
              f" words c=d-1/3|1/2|2/3, floor-bracket containment at tol"
              f" 1/24, {len(failures)} failures, {elapsed:.2f}s < 60s")
    if failures:
        detail += "; e.g. " + "; ".join(failures[:3])
    _verdict_line(3, "FDTC exactness", ok, detail)
    assert ok, detail


def test_criterion_3_floor_cost(monkeypatch):
    """The twist intervals of criterion 3 feed the kernel's sign queries
    fewer letters than restarting the floor search on b^24 does.  Both
    paths run here, on every fifth criterion-3 word to keep the slow
    restart path short; letters are counted, not timed."""
    words = [b for b, _ in _criterion_3_cases()[0][::5]]
    fed = [0]
    sign_of = _kernel.sign_of

    def counting(letters, strands):
        fed[0] += len(letters)
        return sign_of(letters, strands)

    monkeypatch.setattr(_kernel, "sign_of", counting)
    for b in words:
        fdtc_interval_by_floor(b, Fraction(1, 24))
    refined, fed[0] = fed[0], 0
    for b in words:
        dehornoy_floor(b**24)
    assert 0 < refined < fed[0], (refined, fed[0])


# ---------------------------------------------------------------------------
# criterion 4: Dehornoy floor identities


def test_criterion_4_floor_identities():
    failures: list[str] = []
    for m in (3, 4, 5):
        for d in range(-5, 6):
            got = dehornoy_floor(delta(m) ** (2 * d))
            if got != abs(d):
                failures.append(f"floor(delta_{m}^{2 * d}) = {got} != {abs(d)}")
    for k in range(1, 31):
        got = dehornoy_floor(BraidWord(3, (2,) * k))
        if got != 0:
            failures.append(f"floor(sigma2^{k}) = {got} != 0")
    ok = not failures
    detail = (f"33 full-twist powers over 3<=m<=5, 30 sigma2 powers,"
              f" {len(failures)} failures")
    if failures:
        detail += "; e.g. " + "; ".join(failures[:3])
    _verdict_line(4, "floor identities", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 5: boundary-cover lift formula


def test_criterion_5_lift_formula():
    failures: list[str] = []
    if fdtc_lift(Fraction(5, 4), 4, 3) != Fraction(5, 12):
        failures.append(f"worked value: lift(5/4, 4, 3) ="
                        f" {fdtc_lift(Fraction(5, 4), 4, 3)} != 5/12")
    rng = random.Random(41)
    triples = 1000
    for _ in range(triples):
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        m = rng.randint(2, 9)
        n = rng.randint(1, 9)
        if fdtc_lift(c, m, 1) != c:
            failures.append(f"lift({c}, {m}, 1) != {c}")
        expected = Fraction(gcd(m, n), n) * c
        if fdtc_lift(c, m, n) != expected:
            failures.append(f"lift({c}, {m}, {n}) != {expected}")
    ok = not failures
    detail = (f"worked value 5/4 -> 5/12, identity and gcd-homogeneity on"
              f" {triples} random triples, exact, {len(failures)} failures")
    if failures:
        detail += "; e.g. " + "; ".join(failures[:3])
    _verdict_line(5, "lift formula", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: order axioms at scale


def _random_word(rng: random.Random, m: int, max_len: int = 40) -> BraidWord:
    pool = [x for k in range(1, m) for x in (k, -k)]
    return BraidWord(m, tuple(rng.choice(pool)
                              for _ in range(rng.randint(1, max_len))))


def test_criterion_6_order_axioms():
    start = time.perf_counter()
    rng = random.Random(112358)
    failures: list[str] = []
    triples = 1000
    for i in range(triples):
        m = rng.randint(2, 5)
        u, v, w = (_random_word(rng, m) for _ in range(3))

        cuv, cvu = compare(u, v), compare(v, u)
        cvw, cuw = compare(v, w), compare(u, w)
        if cuv.value != -cvu.value:
            failures.append(f"antisymmetry broke at triple {i}")
        if compare(u, u) is not Comparison.EQUAL:
            failures.append(f"reflexive comparison broke at triple {i}")
        if cuv is Comparison.LESS and cvw is Comparison.LESS \
                and cuw is not Comparison.LESS:
            failures.append(f"transitivity broke at triple {i}")
        if cuv is Comparison.EQUAL and cuw is not cvw:
            failures.append(f"substitution of equals broke at triple {i}")
        if compare(w * u, w * v) is not cuv:
            failures.append(f"left-invariance broke at triple {i}")

        positive = BraidWord(m, tuple(rng.randint(1, m - 1)
                                      for _ in range(rng.randint(1, 40))))
        if sigma_sign(positive) is not OrderSign.POSITIVE:
            failures.append(f"positive word not Positive at triple {i}")

        twist = full_twist(m)
        if not is_trivial(twist * u * twist ** -1 * u ** -1):
            failures.append(f"full-twist centrality broke at triple {i}")

        if failures:
            break
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    detail = (f"{triples} random triples (length <= 40, m <= 5): strict"
              f" total order, left-invariance, positive words Positive,"
              f" full-twist centrality; {len(failures)} violations,"
              f" {elapsed:.1f}s < 120s")
    if failures:
        detail += "; " + failures[0]
    _verdict_line(6, "order axioms", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: certificate replay


def test_criterion_7_certificate_replay():
    if not CERTS:  # standalone invocation: regenerate the emitting suites
        CERTS.extend(_run_genus1_table()[2])
        CERTS.extend(_run_baldwin_consistency()[2])
    definite = [c for c in CERTS if c.verdict is not Verdict.UNKNOWN]
    failures = sum(1 for cert in definite if not verify_certificate(cert))
    ok = failures == 0 and definite
    detail = (f"{len(definite)} certificates from the table and double-cover"
              f" suites re-verified by the independent inequality replayer"
              f" (the other suites emit none), {failures} failures")
    _verdict_line(7, "certificate replay", bool(ok), detail)
    assert ok, detail
