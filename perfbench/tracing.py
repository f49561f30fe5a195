"""Spans around braidcert's public entry points, and the per-layer
metrics derived from them.

The library imports functions by name (``from braidcert.ordering import
dehornoy_floor``), so a function is wrapped where it is looked up: every
``braidcert`` module attribute bound to the original object is replaced
by the wrapper, and put back on ``uninstall``.  Nothing in ``src/`` is
edited.

A span is ``[id, parent, name, start, end, note]``; spans live in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ID, PARENT, NAME, START, END, NOTE = range(6)


def _letters(args, kwargs, result):
    return len(args[0])


def _power(args, kwargs, result):
    return [args[1], len(result.letters)]


def _exact(args, kwargs, result):
    return result.is_exact


def _always_exact(args, kwargs, result):
    return True


def _verdict(args, kwargs, result):
    return result.verdict.value


def _result(args, kwargs, result):
    return result


#: (module, attribute, span name, note taken from the call).  A dotted
#: attribute names a method on a class.
TARGETS = (
    ("braidcert._kernel", "sign_of", "kernel.sign", _letters),
    ("braidcert._kernel", "reduce_word", "kernel.reduce", _letters),
    ("braidcert.braid", "parse_braid", "braid.parse", None),
    ("braidcert.braid", "BraidWord.__pow__", "braid.power", _power),
    ("braidcert.ordering", "dehornoy_floor", "ordering.floor", None),
    ("braidcert.ordering", "sigma_sign", "ordering.query", None),
    ("braidcert.ordering", "compare", "ordering.query", None),
    ("braidcert.ordering", "reduced_word", "ordering.query", None),
    ("braidcert.fdtc", "fdtc_interval", "fdtc", _exact),
    ("braidcert.fdtc", "fdtc_interval_by_floor", "fdtc", _exact),
    ("braidcert.fdtc", "fdtc_exact_b3", "fdtc", _always_exact),
    ("braidcert.threebraid", "normal_form", "threebraid.normal_form", None),
    ("braidcert.certify", "certify_closed_braid_cover", "certify", _verdict),
    ("braidcert.certify", "certify_genus1_cover", "certify", _verdict),
    ("braidcert.certify", "certify_satellite", "certify", _verdict),
    ("braidcert.certify", "certify_fibred_cover", "certify", _verdict),
    ("braidcert.certify", "certify_orbifold_cover", "certify", _verdict),
    ("braidcert.replay", "verify_certificate", "replay.verify", _result),
    ("braidcert.replay", "evaluate_inequality", "replay.inequality", None),
    ("braidcert.cli", "main", "cli.main", None),
    ("braidcert.cli", "_cmd_corpus", "cli.corpus", None),
    ("braidcert.cli", "_run_corpus_entry", "cli.entry", None),
)


class Tracer:
    """Records spans for calls made through the functions it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn, note=None):
        """fn, recording a span per call; note(args, kwargs, result)
        gives the span's note, or an exception records its type name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[NOTE] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a braidcert module binds it.  The
        bindings are found on the first call, which must find the
        library untraced."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in reversed(self._patches):
            setattr(target, key, original)

    def _find_patches(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "braidcert" or n.startswith("braidcert."))]
        for module_name, attr, name, note in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                yield cls, meth, original, self.wrap(name, original, note)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, note)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        yield module, key, original, wrapper

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(header, out)
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _ancestors(spans: list[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p]
        p = spans[p][PARENT]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced pass."""
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        count[s[NAME]] += 1
        self_s[s[NAME]] += t

    def of(name):
        return [s for s in spans if s[NAME] == name]

    def outermost(name):
        return [s for s in of(name)
                if all(a[NAME] != name for a in _ancestors(spans, s[ID]))]

    signs = of("kernel.sign")
    floor_signs = [s for s in signs
                   if any(a[NAME] == "ordering.floor" for a in _ancestors(spans, s[ID]))]
    floors = count["ordering.floor"]
    fdtc_calls = outermost("fdtc")
    powers = [s for s in of("braid.power")
              if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "fdtc"]
    certs = outermost("certify")
    definite = [s for s in certs if s[NOTE] in ("Excellent", "TotalLSpace")]
    verifies = of("replay.verify")

    def share(part, whole):
        return len(part) / len(whole) if whole else 0.0

    kernel = [s for s in spans if s[NAME].startswith("kernel.")]
    return {
        "braid.parse_calls": count["braid.parse"],
        "braid.parse_s": self_s["braid.parse"],
        "braid.power_calls": count["braid.power"],
        "braid.power_letters": sum(s[NOTE][1] for s in of("braid.power")
                                   if isinstance(s[NOTE], list)),
        "braid.power_s": self_s["braid.power"],
        "kernel.sign_calls": count["kernel.sign"],
        "kernel.sign_letters": sum(s[NOTE] for s in signs if isinstance(s[NOTE], int)),
        "kernel.sign_max_letters": max((s[NOTE] for s in signs
                                        if isinstance(s[NOTE], int)), default=0),
        "kernel.sign_s": self_s["kernel.sign"],
        "kernel.reduce_calls": count["kernel.reduce"],
        "kernel.reduce_letters": sum(s[NOTE] for s in of("kernel.reduce")
                                     if isinstance(s[NOTE], int)),
        "kernel.reduce_s": self_s["kernel.reduce"],
        "kernel.budget_exceeded": sum(
            1 for s in kernel
            if isinstance(s[NOTE], dict) and s[NOTE]["error"] == "ReductionBudgetExceeded"),
        "ordering.floor_calls": floors,
        "ordering.floor_s": self_s["ordering.floor"],
        "ordering.floor_sign_queries": len(floor_signs),
        "ordering.floor_letters": sum(s[NOTE] for s in floor_signs
                                      if isinstance(s[NOTE], int)),
        "ordering.queries_per_floor": len(floor_signs) / floors if floors else 0.0,
        "ordering.query_calls": count["ordering.query"],
        "ordering.query_s": self_s["ordering.query"],
        "fdtc.calls": len(fdtc_calls),
        "fdtc.s": self_s["fdtc"],
        "fdtc.exact_share": share([s for s in fdtc_calls if s[NOTE] is True], fdtc_calls),
        "fdtc.mean_power": (sum(s[NOTE][0] for s in powers) / len(powers)
                            if powers else 0.0),
        "threebraid.normal_form_calls": count["threebraid.normal_form"],
        "threebraid.normal_form_s": self_s["threebraid.normal_form"],
        "certify.calls": len(certs),
        "certify.s": self_s["certify"],
        "certify.definite_share": share(definite, certs),
        "replay.certs": len(verifies),
        "replay.inequalities": count["replay.inequality"],
        "replay.s": self_s["replay.verify"] + self_s["replay.inequality"],
        "replay.rejected": sum(1 for s in verifies if s[NOTE] is not True),
        "cli.entries": count["cli.entry"],
        "cli.self_s": self_s["cli.main"] + self_s["cli.corpus"] + self_s["cli.entry"],
    }
