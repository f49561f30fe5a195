"""Command-line surface for the braid certifier.

Braid words are written ``"m: i1 i2 ..."`` — the strand count, a colon,
then signed generator indices (``2`` for sigma_2, ``-2`` for its
inverse).  Reports come in two formats: ``text`` (human-readable) and
``json`` (one record per input, stable field order, every rational
exact as ``"numerator/denominator"`` — never floats).  Every number, in
a braid, an option or a corpus parameter, is read by
:func:`braidcert.braid.parse_decimal`: plain ASCII, without ``_``.

Every task is one entry of :data:`TASKS`, which both the subcommands and
the ``corpus`` runner read: a corpus row may give only the parameters
and flags its task declares for the corpus.

Exit status: 0 on success, 1 on any error, 2 when a run performed
certifications and every verdict came back Unknown.

The handle-reduction budget is controlled by the environment variable
BRAIDCERT_REDUCTION_BUDGET; BRAIDCERT_KERNEL forces the pure-Python or
compiled kernel.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from braidcert.braid import BLANKS, BraidWord, number_repr, parse_braid, parse_decimal
from braidcert.errors import BadParameters, BraidError, ParseError
from braidcert.ordering import compare, dehornoy_floor, sigma_sign

if TYPE_CHECKING:
    from braidcert.certify import Certificate
    from braidcert.fdtc import FdtcValue

_MISSING_ASSERTION_NOTE = (
    "{what} was not explicitly asserted on the command line; the verdict is"
    " conditional on the echoed assumptions"
)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return parse_decimal(text, Fraction)
    except (ValueError, ZeroDivisionError):
        raise BadParameters(f"{what} must be a rational like 5/12, got"
                            f" {number_repr(text)}")


def _parse_tol(text: str) -> Fraction:
    return _parse_rational(text.strip(BLANKS), "tol")


def _parse_fdtc_value(text: str) -> FdtcValue:
    """Exact rational "a/b", or interval "lo,hi"."""
    from braidcert.fdtc import FdtcValue

    if "," in text:
        lo_text, _, hi_text = text.partition(",")
        lo = _parse_rational(lo_text.strip(BLANKS), "interval endpoint")
        hi = _parse_rational(hi_text.strip(BLANKS), "interval endpoint")
        return FdtcValue.interval(lo, hi, "command line")
    return FdtcValue.exact(_parse_rational(text.strip(BLANKS), "twist value"),
                           "command line")


#: What a required corpus parameter of each type takes, for error messages.
_TYPE_NAMES = {int: "int", _parse_fdtc_value: "rational|lo,hi"}


@dataclass(frozen=True)
class Param:
    """One parameter or flag of a task.

    ``option`` is the subcommand spelling (``"--t"``, or a bare name for
    a positional); ``corpus`` is the spelling in a corpus params field,
    None when only the subcommand takes it.  ``type`` parses the text,
    and is None for a flag.  ``caveat`` names what a subcommand's
    verdict stays conditional on while the flag is not passed.
    """

    option: str
    corpus: str | None = None
    type: Callable[[str], object] | None = str
    default: object = None
    required: bool = False
    help: str | None = None
    caveat: str | None = None

    @property
    def dest(self) -> str:
        return self.option.lstrip("-").replace("-", "_")


def _flag(option: str, help: str, corpus: str | None = None,
          caveat: str | None = None) -> Param:
    return Param(option, corpus, None, False, help=help, caveat=caveat)


Result = tuple[dict, str, "Certificate | None"]


@dataclass(frozen=True)
class Task:
    """A subcommand and, when ``corpus`` is set, the corpus task of that
    name: how the braid is given (None when the task takes no braid),
    its parameters and flags in subcommand order, and the runner that
    maps the braid and the parameter values, keyed by ``dest``, to
    (record, text, certificate-or-None)."""

    command: str
    help: str
    corpus: str | None
    braid: Param | None
    params: tuple[Param, ...]
    run: Callable[[BraidWord | None, dict], Result]


# ---------------------------------------------------------------------------
# task runners
#
# Each runner imports the library functions it calls when it runs, so a
# command loads only the modules it uses.  The import reads the module's
# attribute on every call.


def _order(braid: BraidWord, v: dict) -> Result:
    if v["other"] is None:
        name = sigma_sign(braid).name.title()
        return {"sign": name}, name, None
    name = compare(braid, parse_braid(v["other"])).name.title()
    return {"comparison": name}, name, None


def _floor(braid: BraidWord, v: dict) -> Result:
    value = dehornoy_floor(braid)
    return {"floor": value}, str(value), None


def _fdtc(braid: BraidWord, v: dict) -> Result:
    from braidcert.fdtc import fdtc_interval

    value = fdtc_interval(braid, v["tol"])
    if value.is_exact:
        return ({"kind": "exact", "value": str(value.value),
                 "provenance": value.provenance}, f"c = {value.value}", None)
    return ({"kind": "interval", "lo": str(value.lo), "hi": str(value.hi),
             "provenance": value.provenance}, f"c in [{value.lo}, {value.hi}]", None)


def _classify3(braid: BraidWord, v: dict) -> Result:
    from braidcert.threebraid import PseudoAnosovForm, ReducibleForm, normal_form

    nf = normal_form(braid)
    d = nf.central_power
    if isinstance(nf, PseudoAnosovForm):
        a = list(nf.twist_exponents)
        return ({"type": "PseudoAnosov", "d": d, "a": a},
                f"PseudoAnosov d={d} a=[{','.join(map(str, a))}]", None)
    if isinstance(nf, ReducibleForm):
        m = nf.sigma2_power
        central = " central" if m == 0 else ""
        return ({"type": "Reducible", "d": d, "m": m, "central": m == 0},
                f"Reducible d={d} m={m}{central}", None)
    m = nf.sigma1_power
    return {"type": "Periodic", "d": d, "m": m}, f"Periodic d={d} m={m}", None


def _lspace2(braid: BraidWord, v: dict) -> Result:
    from braidcert.threebraid import baldwin_lspace_double_cover, normal_form

    status = baldwin_lspace_double_cover(normal_form(braid)).value
    return {"status": status}, status, None


def _certified(cert: Certificate) -> Result:
    return cert.to_record(), cert.verdict.value, cert


def _certify_cover(braid: BraidWord, v: dict) -> Result:
    from braidcert.certify import certify_closed_braid_cover

    return _certified(certify_closed_braid_cover(
        braid, v["t"], pa_asserted=v["assert_pa"], tol=v["tol"]))


def _certify_genus1(braid: BraidWord, v: dict) -> Result:
    from braidcert.certify import certify_genus1_cover

    return _certified(certify_genus1_cover(braid, v["n"]))


def _certify_surgery(braid: None, v: dict) -> Result:
    from braidcert.certify import certify_fibred_cover

    return _certified(certify_fibred_cover(v["c"], v["n"], v["q"], genus=v["genus"]))


def _certify_satellite(braid: BraidWord, v: dict) -> Result:
    from braidcert.certify import certify_satellite

    return _certified(certify_satellite(
        braid, v["n"], v["c"], companion_exact_zero=v["zero_companion"],
        pa_asserted=v["assert_pa"]))


# ---------------------------------------------------------------------------
# the task table


_BRAID = Param("braid", required=True)
_TOL = Param("--tol", "tol", _parse_tol, Fraction(1, 12),
             help="interval width target for floor-based twist bounds"
                  " (rational, default 1/12)")

TASKS = (
    Task("order", "Dehornoy sign of a braid, or comparison of two braids", None,
         Param("braid", required=True, help='braid word, e.g. "3: 1 -2"'),
         (Param("other", help="optional second braid to compare against"),),
         _order),
    Task("floor", "Dehornoy floor of a braid", "Floor", _BRAID, (), _floor),
    Task("fdtc", "fractional Dehn twist coefficient: exact on 3 strands,"
                 " certified interval otherwise", "Fdtc", _BRAID, (_TOL,), _fdtc),
    Task("classify3", "Nielsen-Thurston normal form of a 3-braid", "Classify3",
         _BRAID, (), _classify3),
    Task("lspace2", "double branched cover L-space status of a 3-braid closure",
         None, _BRAID, (), _lspace2),
    Task("certify-cover", "excellence of the t-fold cyclic branched cover of a"
                          " braid closure", "CoverCertify",
         Param("--word", required=True, help="braid word"),
         (Param("--t", "t", int, required=True, help="cover order (>= 2)"),
          _flag("--assert-pa", "assert the braid is pseudo-Anosov", "pa"),
          _TOL),
         _certify_cover),
    Task("certify-genus1", "verdict for the n-fold cyclic branched cover of a"
                           " genus-one fibred knot (monodromy as a 3-braid)",
         "Genus1",
         Param("--word", required=True, help="monodromy word"),
         (Param("--n", "n", int, required=True, help="cover order (>= 2)"),
          _flag("--assert-irreducible", "assert the ambient manifold is irreducible",
                caveat="ambient irreducibility")),
         _certify_genus1),
    Task("certify-surgery", "excellence of surgery on the lifted binding in a"
                            " cyclic branched cover of a fibred knot", None, None,
         (Param("--c", type=_parse_fdtc_value, required=True,
                help='monodromy twist: exact "a/b" or interval "lo,hi"'),
          Param("--n", type=int, required=True, help="cover order (>= 1)"),
          Param("--q", type=int, required=True, help="surgery coefficient"),
          Param("--genus", type=int,
                help="fibre genus, enables the 0-surgery lower-bound rule"),
          _flag("--assert-hyperbolic", "assert the knot is hyperbolic",
                caveat="hyperbolicity of the knot")),
         _certify_surgery),
    Task("certify-satellite", "excellence of the n-fold cyclic branched cover"
                              " of a satellite", "Satellite",
         Param("--pattern", required=True,
               help="pattern braid word (closed braid in the solid torus)"),
         (Param("--n", "n", int, required=True, help="cover order (>= 2)"),
          Param("--c", "c", _parse_fdtc_value, required=True,
                help='companion twist: exact "a/b" or interval "lo,hi"'),
          _flag("--zero-companion", "assert the companion twist is exactly zero",
                "zero"),
          _flag("--assert-pa", "assert the pattern braid is pseudo-Anosov", "pa"),
          _flag("--assert-hyperbolic", "assert the companion is hyperbolic",
                caveat="hyperbolicity of the companion")),
         _certify_satellite),
)


@dataclass(frozen=True)
class _CorpusTask:
    """A corpus task and its tables, built once with :data:`TASKS`: the
    parameters and flags it declares for the corpus, by their corpus
    spelling, each with the dest it sets; the values of an empty params
    field; the dest that takes the corpus command's tolerance, if any;
    and each required parameter's dest with the error for its absence."""

    task: Task
    declared: dict[str, tuple[Param, str]]
    defaults: dict
    tol_dest: str | None
    required: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, task: Task) -> "_CorpusTask":
        declared = {p.corpus: (p, p.dest) for p in task.params if p.corpus}
        return cls(
            task, declared, {p.dest: p.default for p in task.params},
            _TOL.dest if any(p is _TOL for p in task.params) else None,
            tuple((dest, f"task needs parameter {p.corpus}=<{_TYPE_NAMES[p.type]}>")
                  for p, dest in declared.values() if p.required))


_CORPUS_TASKS = {task.corpus: _CorpusTask.of(task) for task in TASKS if task.corpus}


# ---------------------------------------------------------------------------
# subcommands


@lru_cache(maxsize=1)
def _json_encoder():
    """The encoder of every report line, built on the first one, so that
    a command that prints no JSON does not load json."""
    import json

    return json.JSONEncoder(separators=(", ", ": "))


def _json_line(record: dict) -> str:
    """One JSON report line, in the stable separators of the goldens."""
    return _json_encoder().encode(record)


def _emit(args, record: dict, text: str) -> None:
    print(_json_line(record) if args.report == "json" else text)


def _exit_for(certs: list[Certificate]) -> int:
    if not certs:
        return 0
    from braidcert.certify import Verdict

    return 2 if all(c.verdict is Verdict.UNKNOWN for c in certs) else 0


def _cli_value(args, param: Param):
    """A subcommand's value for param.  argparse parses integers only,
    so that any other bad value is reported as an error of the run."""
    value = getattr(args, param.dest)
    return param.type(value) if isinstance(value, str) else value


def _run_command(args) -> int:
    task = args.task
    braid = parse_braid(getattr(args, task.braid.dest)) if task.braid else None
    values = {p.dest: _cli_value(args, p) for p in task.params}
    record, text, cert = task.run(braid, values)
    if cert is None:
        _emit(args, record, text)
        return 0
    notes = tuple(_MISSING_ASSERTION_NOTE.format(what=p.caveat)
                  for p in task.params if p.caveat and not values[p.dest])
    if notes:
        cert = dataclasses.replace(cert, notes=cert.notes + notes)
    _emit(args, cert.to_record(), cert.render_text())
    return _exit_for([cert])


# ---------------------------------------------------------------------------
# corpus batches


def _corpus_value(param: Param, raw: str, line_no: int):
    if param.type is not int:
        return param.type(raw)
    try:
        return parse_decimal(raw)
    except ValueError:
        raise ParseError(f"parameter {param.corpus} must be an integer, got"
                         f" {number_repr(raw)}", line=line_no)


def _parse_params(entry: _CorpusTask, text: str, tol: Fraction, line_no: int) -> dict:
    """The task's parameter values from a corpus params field: k=v pairs
    and bare flags the task declares, each at most once, separated by
    spaces, or - for none.  The tolerance defaults to the corpus
    command's --tol."""
    values = dict(entry.defaults)
    if entry.tol_dest:
        values[entry.tol_dest] = tol
    given: set[str] = set()
    for token in [] if text == "-" else filter(None, text.split(" ")):
        key, eq, raw = token.partition("=")
        param, dest = entry.declared.get(key, (None, None))
        if not eq:
            if param is None or param.type is not None:
                raise ParseError(f"unknown parameter flag {token!r}", line=line_no)
        elif not key or not raw:
            raise ParseError(f"malformed parameter {token!r}", line=line_no)
        elif param is None or param.type is None:
            raise ParseError(f"unknown parameter {key!r}", line=line_no)
        if key in given:
            raise ParseError(f"duplicate parameter {key!r}", line=line_no)
        given.add(key)
        values[dest] = _corpus_value(param, raw, line_no) if eq else True
    for dest, missing in entry.required:
        if values[dest] is None:
            raise ParseError(missing, line=line_no)
    return values


def _run_corpus_entry(name: str, params: str, braid_text: str, tol: Fraction,
                      line_no: int) -> Result:
    entry = _CORPUS_TASKS.get(name)
    if entry is None:
        raise ParseError(f"unknown task {name!r}; expected one of"
                         f" {', '.join(_CORPUS_TASKS)}", line=line_no)
    values = _parse_params(entry, params, tol, line_no)
    return entry.task.run(parse_braid(braid_text, line=line_no), values)


def _cmd_corpus(args) -> int:
    tol = _cli_value(args, _TOL)
    try:
        with open(args.file, encoding="utf-8-sig") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeError) as exc:
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return 1

    seen_ids: set[str] = set()
    had_error = False
    certs: list[Certificate] = []
    out: list[str] = []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip(BLANKS)
        if not line or line.startswith("#"):
            continue
        entry_id = f"line-{line_no}"
        try:
            fields = raw.split("\t")
            if len(fields) != 4:
                raise ParseError("expected id<tab>task<tab>params<tab>braid",
                                 line=line_no)
            entry_id, task, params, braid_text = (f.strip(BLANKS) for f in fields)
            if not entry_id:
                raise ParseError("empty id", line=line_no)
            if entry_id in seen_ids:
                raise ParseError(f"duplicate id {entry_id!r}", line=line_no)
            seen_ids.add(entry_id)
            payload, text, cert = _run_corpus_entry(task, params, braid_text,
                                                    tol, line_no)
            if cert is not None:
                certs.append(cert)
            if args.report == "json":
                out.append(_json_line({"id": entry_id, "task": task, **payload}))
            else:
                out.append(f"{entry_id}\t{text}")
        except BraidError as exc:
            had_error = True
            name = type(exc).__name__
            if args.report == "json":
                out.append(_json_line({"id": entry_id, "error": name,
                                       "message": str(exc)}))
            else:
                out.append(f"{entry_id}\terror: {name}: {exc}")

    print("\n".join(out))
    if had_error:
        return 1
    return _exit_for(certs)


# ---------------------------------------------------------------------------
# parser assembly


def _option_int(text: str) -> int:
    """An integer option's value by :func:`parse_decimal`, failing with
    argparse's own usage message for a bad value."""
    try:
        return parse_decimal(text.strip(BLANKS))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {number_repr(text)}") from None


def _add_param(p: argparse.ArgumentParser, param: Param) -> None:
    if param.type is None:
        p.add_argument(param.option, action="store_true", help=param.help)
    elif param.option.startswith("-"):
        p.add_argument(param.option, type=_option_int if param.type is int else None,
                       required=param.required, default=param.default,
                       help=param.help)
    elif param.required:
        p.add_argument(param.option, help=param.help)
    else:
        p.add_argument(param.option, nargs="?", default=param.default,
                       help=param.help)


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", choices=("json", "text"), default="text",
                   help="output format (default: text)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one.  It carries data only: each subcommand's task, never
    a function, so that :func:`main` looks its handler up when it runs."""
    parser = argparse.ArgumentParser(
        prog="braidcert",
        description="Braid-order computations and branched-cover certificates"
                    " with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS:
        p = sub.add_parser(task.command, help=task.help)
        for param in ((task.braid,) if task.braid else ()) + task.params:
            _add_param(p, param)
        _add_report(p)
        p.set_defaults(task=task)

    p = sub.add_parser("corpus", help="batch-run tasks from a corpus file"
                                      " (id<tab>task<tab>params<tab>braid;"
                                      " params is k=v/flag tokens, or - for"
                                      " none)")
    p.add_argument("file")
    _add_param(p, _TOL)
    _add_report(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_corpus(args) if args.command == "corpus" else _run_command(args)
    except BraidError as exc:
        name = type(exc).__name__
        if getattr(args, "report", "text") == "json":
            print(_json_line({"error": name, "message": str(exc)}))
        else:
            print(f"error: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
