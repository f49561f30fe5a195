"""The three seeded workloads: inputs, the program call, and the oracle.

Every workload is an endless stream of *groups*.  A group is a list of
calls that one oracle check covers together (a compare issued in both
orders is checked for antisymmetry as a pair).  The runner times each
call on its own, and checks a group only after its last call returned,
so no oracle work sits inside a timed region.

The stream is stratified: each round visits a fixed list of slots
(strand count, family, twist, tolerance, ...) and the seed only draws
what varies inside a slot (conjugators, exponents, letters).  That keeps
the cost of a round, and so every end-to-end figure, close to the same
for every seed.

Program calls look the API up on its module at call time
(``fdtc.fdtc_interval``, not a name bound at import), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from braidcert import braid, cli, fdtc, ordering, replay
from braidcert.braid import BraidWord, format_braid, full_twist
from braidcert.certify import Certificate, Justification, Verdict
from braidcert.errors import SplitBinding

#: Seed whose cert-corpus output is pinned by CORPUS_DIGEST.
DEFAULT_SEED = 1
TWISTS = range(-3, 4)


@dataclass(frozen=True)
class Call:
    """One program call and what the oracle knows about its answer."""

    op: str
    args: tuple
    expect: Any = None


def random_letters(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """n letters drawn uniformly from the 2(m-1) generators and inverses."""
    return tuple(rng.choices([x for k in range(1, m) for x in (k, -k)], k=n))


def random_word(rng: random.Random, m: int, n: int) -> BraidWord:
    """A word of n random letters on m strands (freely reduced after)."""
    return BraidWord(m, random_letters(rng, m, n))


@functools.lru_cache(maxsize=None)
def twist_letters(m: int, d: int) -> tuple[int, ...]:
    """Letters of the d-th power of the full twist on m strands."""
    return (full_twist(m) ** d).letters


def conjugate(m: int, w: tuple[int, ...], core: tuple[int, ...]) -> BraidWord:
    """w core w^-1 on m strands, freely reduced once."""
    return BraidWord(m, w + core + tuple(-x for x in reversed(w)))


def periodic_twist_braid(rng: random.Random, m: int, kind: str, d: int,
                         k: int, conj_len: int) -> tuple[BraidWord, Fraction]:
    """w Delta^(2d) X w^-1 with its twist coefficient c, known by
    construction: X = delta^j gives d + j/m, X = epsilon^j gives
    d + j/(m-1), X = sigma_1^k gives d.  The seed draws j and the
    letters of w, which has conj_len letters before free reduction."""
    delta = tuple(range(1, m))  # delta^m is the full twist
    if kind == "delta":
        j = rng.randint(1, m - 1)
        x, c = delta * j, d + Fraction(j, m)
    elif kind == "epsilon":  # epsilon = delta sigma_1, epsilon^(m-1) = full twist
        j = rng.randint(1, m - 2)
        x, c = (delta + (1,)) * j, d + Fraction(j, m - 1)
    elif kind == "sigma1":
        x, c = (1 if k > 0 else -1,) * abs(k), Fraction(d)
    else:
        raise ValueError(f"unknown family {kind!r}")
    w = random_letters(rng, m, conj_len)
    return conjugate(m, w, twist_letters(m, d) + x), c


def pa_letters(d: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """C^d prod_i sigma_1 sigma_2^-a_i."""
    letters: list[int] = []
    for ai in a:
        letters.append(1)
        letters.extend([-2] * ai)
    return twist_letters(3, d) + tuple(letters)


def check_twist_interval(value, c: Fraction, tol: Fraction) -> str | None:
    """The interval must contain c and be no wider than tol."""
    if not isinstance(value, fdtc.FdtcValue):
        return f"expected an FdtcValue, got {value!r}"
    if not value.contains(c):
        return f"[{value.lo}, {value.hi}] misses c = {c}"
    if value.width > tol:
        return f"[{value.lo}, {value.hi}] is wider than {tol}"
    return None


class Workload:
    """Defaults shared by the workloads."""

    #: Groups the runner completes before it may stop.
    min_groups = 1

    def prepare(self, call: Call) -> None:
        """Work done before the call's clock starts."""

    def units(self, call: Call) -> int:
        """Entries one call completes, for entries_per_s."""
        return 1

    def final_check(self, seed: int) -> str | None:
        """An oracle over the whole run, after the last call."""
        return None


# ---------------------------------------------------------------------------
# twist-floor


class TwistFloor(Workload):
    """Twist intervals on braids whose twist c is known by construction.

    Floor searches on long powers b^k and the kernel queries they issue
    do nearly all the work; mixing twist sizes and tolerances makes a
    refinement that helps high-twist powers but costs low-twist ones
    show up.
    """

    name = "twist-floor"
    #: Size of the traced pass per second of --seconds, in groups.
    trace_groups_per_s = 7  # five 49-slot rounds at --seconds 35

    #: The 3-strand a-lists are 3 exponents in 1..4 summing to 7.
    PA_SYLLABLES, PA_SUM = 3, 7

    @staticmethod
    def slots() -> list[tuple[int, str, int, Fraction, int, int]]:
        """(strands, family, d, tol, |k| of sigma_1^k, conjugator length).
        Every slot fixes what drives a call's cost most, so the seed
        moves the cost of a round little."""
        out = []
        for d in TWISTS:
            out.append((3, "pa", d, Fraction(1, 24), 0, 0))
            for m in (4, 5):
                for i, kind in enumerate(("delta", "epsilon", "sigma1")):
                    tol = Fraction(1, 24 if (d + m + i) % 2 == 0 else 12)
                    conj_len = 7 * len(out) % 21
                    out.append((m, kind, d, tol, 1 + (d + m) % 4, conj_len))
        return out

    def groups(self, seed: int) -> Iterator[list[Call]]:
        rng = random.Random(seed)
        slots = self.slots()
        while True:
            for m, kind, d, tol, k, conj_len in slots:
                if m == 3:
                    a = self._a_list(rng)
                    b = BraidWord(3, pa_letters(d, a))
                    yield [Call("interval_by_floor", (b, tol), Fraction(d))]
                else:
                    k *= rng.choice((1, -1))
                    b, c = periodic_twist_braid(rng, m, kind, d, k, conj_len)
                    yield [Call("interval", (b, tol), c)]

    def _a_list(self, rng: random.Random) -> tuple[int, ...]:
        while True:
            a = tuple(rng.randint(1, 4) for _ in range(self.PA_SYLLABLES))
            if sum(a) == self.PA_SUM:
                return a

    def run(self, call: Call):
        b, tol = call.args
        if call.op == "interval_by_floor":
            return fdtc.fdtc_interval_by_floor(b, tol)
        return fdtc.fdtc_interval(b, tol)

    def check(self, group: list[Call], outcomes: list) -> list[str | None]:
        out = []
        for call, value in zip(group, outcomes):
            b, tol = call.args
            c = call.expect
            if call.op == "interval_by_floor":
                exact = fdtc.fdtc_exact_b3(b)
                if exact != c:
                    out.append(f"fdtc_exact_b3 gave {exact}, built with c = {c}")
                    continue
            out.append(check_twist_interval(value, c, tol))
        return out


# ---------------------------------------------------------------------------
# order-mix


class OrderMix(Workload):
    """Sign, comparison, reduction and word-problem queries on random
    words: the kernel without any floor search.  Early-exit sign queries
    (positive words) sit beside full reductions, so a kernel change that
    trades one for the other shows up.
    """

    name = "order-mix"
    trace_groups_per_s = 30
    LENGTHS = (20, 100, 200, 300, 400)

    def groups(self, seed: int) -> Iterator[list[Call]]:
        rng = random.Random(seed)
        while True:
            for n in self.LENGTHS:
                for m in (3, 4, 5, 6):
                    yield self._group(rng, m, n)

    @staticmethod
    def _group(rng: random.Random, m: int, n: int) -> list[Call]:
        u, v = random_word(rng, m, n), random_word(rng, m, n)
        p = BraidWord(m, tuple(rng.randint(1, m - 1) for _ in range(n)))
        twist = twist_letters(m, 1)
        commutator = BraidWord(m, twist + u.letters + twist_letters(m, -1)
                               + u.inverse().letters)
        return [
            Call("sign", (u,), "pair"),
            Call("sign", (u.inverse(),), "pair"),
            Call("sign", (p,), ordering.OrderSign.POSITIVE),
            Call("compare", (u, v), "pair"),
            Call("compare", (v, u), "pair"),
            Call("reduce", (u,)),
            Call("trivial", (commutator,), True),
        ]

    def run(self, call: Call):
        if call.op == "sign":
            return ordering.sigma_sign(*call.args)
        if call.op == "compare":
            return ordering.compare(*call.args)
        if call.op == "reduce":
            return ordering.reduced_word(*call.args)
        return braid.is_trivial(*call.args)

    def check(self, group: list[Call], outcomes: list) -> list[str | None]:
        out: list[str | None] = [None] * len(group)
        for i, (call, got) in enumerate(zip(group, outcomes)):
            if isinstance(got, Exception):
                out[i] = f"{call.op} raised {type(got).__name__}: {got}"
            elif call.op == "reduce":
                out[i] = _check_reduced(call.args[0], got)
            elif call.expect != "pair" and got != call.expect:
                out[i] = f"{call.op} gave {got}, expected {call.expect}"
        for first, second in ((0, 1), (3, 4)):
            a, b = outcomes[first], outcomes[second]
            if out[first] is None and out[second] is None and a.value != -b.value:
                out[second] = (f"{group[second].op} is not antisymmetric:"
                               f" {a.name} then {b.name}")
        return out


def _check_reduced(u: BraidWord, r) -> str | None:
    """reduced_word must be sigma-definite and keep the permutation and
    the exponent sum of its input."""
    if not isinstance(r, BraidWord):
        return f"reduce gave {r!r}"
    if r.letters:
        low = min(abs(x) for x in r.letters)
        if len({x for x in r.letters if abs(x) == low}) != 1:
            return f"reduced word is not sigma-definite at sigma_{low}"
    if r.permutation() != u.permutation():
        return "reduced word changed the permutation"
    if r.exponent_sum != u.exponent_sum:
        return "reduced word changed the exponent sum"
    return None


# ---------------------------------------------------------------------------
# cert-corpus

#: sha256 of the JSON report of the first DIGEST_BATCHES batches for
#: DEFAULT_SEED.  A change to any record of the CLI shows here.
CORPUS_DIGEST = "6776f05298c3aa0073972b8fc9e0efedd9ea0d3e0023a7106cab652b7882572c"
DIGEST_BATCHES = 4

_PERIODIC_FRACTION = {-1: Fraction(-1, 3), -2: Fraction(-1, 2), -3: Fraction(-2, 3)}
_DEFINITE = (Verdict.EXCELLENT.value, Verdict.TOTAL_L_SPACE.value)


@dataclass
class Entry:
    """One corpus line and the facts its construction fixes."""

    task: str
    params: str
    word: BraidWord
    form: dict | None = None   # constructed Classify3 record
    twist: Fraction | None = None   # constructed c (3 strands)
    floor_range: tuple[int, int] | None = None
    split: bool = False        # Genus1 must raise SplitBinding
    genus1: str | None = None  # Genus1 verdict fixed by the family


def three_braid_case(rng: random.Random, family: str, d: int,
                     conj_max: int = 12) -> tuple[BraidWord, dict, Fraction]:
    """w (C^d family word) w^-1 with its Classify3 record and twist."""
    if family == "pa":
        a = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        core = pa_letters(d, a)
        form = {"type": "PseudoAnosov", "d": d,
                "a": list(min(a[i:] + a[:i] for i in range(len(a))))}
        c = Fraction(d)
    elif family == "reducible":
        k = rng.randint(-4, 4)
        core = twist_letters(3, d) + (2 if k > 0 else -2,) * abs(k)
        form = {"type": "Reducible", "d": d, "m": k, "central": k == 0}
        c = Fraction(d)
    else:
        k = -rng.randint(1, 3)
        core = twist_letters(3, d) + (-1,) * -k + (-2,)
        form = {"type": "Periodic", "d": d, "m": k}
        c = d + _PERIODIC_FRACTION[k]
    w = random_letters(rng, 3, rng.randint(0, conj_max))
    return conjugate(3, w, core), form, c


class CertCorpus(Workload):
    """Fixed-size corpus batches through the CLI, then replay of every
    definite certificate.  Classification, certifiers, replay, parsing
    and CLI dispatch do the work; the kernel does little.
    """

    name = "cert-corpus"
    trace_groups_per_s = 10
    min_groups = DIGEST_BATCHES
    #: Entries per batch, by task; each batch holds every task type.
    MIX = (("Classify3", 8), ("Fdtc", 8), ("CoverCertify", 8),
           ("Genus1", 12), ("Satellite", 8), ("Floor", 4))

    def __init__(self, work_dir: Path):
        self.path = work_dir / "batch.tsv"
        self.texts: list[str] = []  # reports of the first DIGEST_BATCHES

    def groups(self, seed: int) -> Iterator[list[Call]]:
        rng = random.Random(seed)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for index in itertools.count():
            entries = [self._entry(rng, task, i)
                       for task, n in self.MIX for i in range(n)]
            text = "".join(f"e{k}\t{e.task}\t{e.params}\t{format_braid(e.word)}\n"
                           for k, e in enumerate(entries))
            yield [Call("corpus", (text, index), entries)]

    def prepare(self, call: Call) -> None:
        self.path.write_text(call.args[0], encoding="utf-8")

    def units(self, call: Call) -> int:
        return len(call.expect)

    @staticmethod
    def _entry(rng: random.Random, task: str, i: int) -> Entry:
        families = ("pa", "pa", "reducible", "periodic")
        family = families[i % len(families)]
        d = TWISTS[rng.randrange(len(TWISTS))]
        if task == "Floor":
            m = 4 + i % 2
            kind = ("delta", "epsilon", "sigma1")[rng.randrange(3)]
            k = rng.choice((1, -1)) * rng.randint(1, 4)
            b, c = periodic_twist_braid(rng, m, kind, rng.randint(-1, 1), k,
                                        rng.randint(0, 6))
            top = abs(c)
            return Entry(task, "-", b,
                         floor_range=(max(math.ceil(top) - 1, 0), math.floor(top)))
        if task == "Genus1" and i == 0:
            family, d = "reducible", 0  # a split binding
        b, form, c = three_braid_case(rng, family, d)
        e = Entry(task, "-", b, form=form, twist=c)
        if task == "Fdtc":
            e.params = "tol=1/24" if i % 2 else "-"
        elif task == "CoverCertify":
            e.params = f"t={rng.randint(2, 6)}" + (" pa" if i % 3 == 0 else "")
        elif task == "Genus1":
            e.params = f"n={rng.randint(2, 6)}"
            e.split = form["type"] == "Reducible" and form["d"] == 0
            if form["type"] == "PseudoAnosov":
                e.genus1 = (Verdict.TOTAL_L_SPACE.value if form["d"] == 0
                            else Verdict.EXCELLENT.value)
            elif form["type"] == "Reducible" and not e.split:
                e.genus1 = Verdict.EXCELLENT.value
        elif task == "Satellite":
            c_text = ("0", "1/2", "-1/3", "1/4,1/3", "-2,-1")[rng.randrange(5)]
            flags = ("", " zero", " pa", " pa zero")[rng.randrange(4)]
            e.params = f"n={rng.randint(2, 7)} c={c_text}{flags}"
        return e

    def run(self, call: Call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["corpus", str(self.path), "--report", "json"])
        text = buf.getvalue()
        records = [json.loads(line) for line in text.splitlines()]
        replayed = [replay.verify_certificate(rebuild_certificate(r))
                    if r.get("verdict") in _DEFINITE else None
                    for r in records]
        return rc, text, records, replayed

    def check(self, group: list[Call], outcomes: list) -> list[str | None]:
        (call,), (got,) = group, outcomes
        if isinstance(got, Exception):
            return [f"corpus batch raised {type(got).__name__}: {got}"]
        rc, text, records, replayed = got
        if call.args[1] == len(self.texts) < DIGEST_BATCHES:  # first pass only
            self.texts.append(text)
        problems = []
        if len(records) != len(call.expect):
            problems.append(f"{len(records)} records for {len(call.expect)} entries")
        for k, (entry, rec, ok) in enumerate(zip(call.expect, records, replayed)):
            msg = check_entry(entry, rec, ok)
            if msg:
                problems.append(f"e{k} {entry.task}: {msg}")
        # The corpus runner exits 1 exactly when an entry raised.
        if (rc == 1) != any(e.split for e in call.expect) or rc not in (0, 1, 2):
            problems.append(f"exit status {rc}")
        return ["; ".join(problems[:3])] if problems else [None]

    def final_check(self, seed: int) -> str | None:
        if seed != DEFAULT_SEED or len(self.texts) < DIGEST_BATCHES:
            return None
        got = corpus_digest(self.texts)
        if got != CORPUS_DIGEST:
            return f"report digest {got} differs from the pinned {CORPUS_DIGEST}"
        return None


def rebuild_certificate(record: dict) -> Certificate:
    """A Certificate from its JSON record, for replay."""
    return Certificate(
        Verdict(record["verdict"]),
        tuple(Justification(j["rule"], j["citation"], j["inequality"])
              for j in record["justifications"]),
        tuple(record["assumptions"]),
        tuple(record["notes"]),
    )


def check_entry(entry: Entry, rec: dict, replayed: bool | None) -> str | None:
    """Oracle for one corpus record."""
    if entry.split:
        if rec.get("error") != SplitBinding.__name__:
            return f"expected SplitBinding, got {rec}"
        return None
    if "error" in rec:
        return f"unexpected {rec['error']}: {rec.get('message')}"
    if entry.task == "Classify3":
        got = {k: v for k, v in rec.items() if k not in ("id", "task")}
        if got != entry.form:
            return f"classified as {got}, built as {entry.form}"
    elif entry.task == "Fdtc":
        if rec.get("kind") != "exact" or Fraction(rec["value"]) != entry.twist:
            return f"twist {rec}, built with c = {entry.twist}"
    elif entry.task == "Floor":
        lo, hi = entry.floor_range
        if not lo <= rec["floor"] <= hi:
            return f"floor {rec['floor']} outside the twist bound [{lo}, {hi}]"
    else:
        if entry.task == "Genus1" and entry.genus1 and rec["verdict"] != entry.genus1:
            return f"verdict {rec['verdict']}, the family fixes {entry.genus1}"
        if rec["verdict"] in _DEFINITE and replayed is not True:
            return f"{rec['verdict']} certificate fails replay"
    return None


def corpus_digest(texts: list[str]) -> str:
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
