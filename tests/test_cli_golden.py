"""Golden-file checks of the command line's visible surface.

Every case runs ``braidcert`` in-process with ``--report text`` and with
``--report json`` and compares stdout, stderr and the exit status with
``tests/golden/<case>.txt``.  The cases cover every subcommand, with and
without its ``--assert-*`` flags, the parse-, parameter-, usage- and
budget-error paths, and a corpus (``tests/golden/corpus.tsv``) that runs
every task on 3, 4 and 5 strands next to rows that fail.
``tests/golden/parser.json`` pins the subcommands and their options.
Every case runs under both reduction kernels, with the same expected
files.

After an intended change of output, rewrite the expected files with
``PYTHONPATH=src python tests/test_cli_golden.py --write`` and review the
diff.  Run as a script, the module writes nothing without ``--write``
and refuses any other argument.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from braidcert.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"

PA_TWISTED = "3: 1 2 1 1 2 1 1 2 1 1 2 1 1 -2"
DELTA4_9 = "4: " + " ".join(["1 2 3"] * 9)
#: (sigma_1 sigma_2 sigma_3^-1)^3, pseudo-Anosov, and no root b^q =
#: Delta^(2p) refutes an assertion on it, though its exponent sum lets
#: q = 4 be tried; with Delta^6 after it, its twist is about 3.
PA4_3 = "4: " + " ".join(["1 2 -3"] * 3)
PA4_3_TWISTED = PA4_3 + " " + " ".join(["1 2 3 1 2 1"] * 6)

#: name -> (argv without --report, extra environment)
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "order-sign": (["order", "3: 1 -2"], {}),
    "order-compare": (["order", "3: 1", "3: 2 1"], {}),
    "floor": (["floor", "3: 1 2 1 1 2 1"], {}),
    "fdtc-3": (["fdtc", "3: 1 2"], {}),
    "fdtc-4": (["fdtc", "4: 1 2 3 1 2 3", "--tol", "1/4"], {}),
    "fdtc-4-default-tol": (["fdtc", "4: 1 2 3 -1"], {}),
    "classify3-pa": (["classify3", "3: 1 -2"], {}),
    "classify3-reducible": (["classify3", "3: 2 2"], {}),
    "classify3-central": (["classify3", "3: 1 2 1 1 2 1"], {}),
    "classify3-periodic": (["classify3", "3: 1 2"], {}),
    "lspace2": (["lspace2", "3: 1 -2"], {}),
    "lspace2-not": (["lspace2", PA_TWISTED], {}),
    "cover-3": (["certify-cover", "--word", PA_TWISTED, "--t", "2"], {}),
    "cover-3-unknown": (["certify-cover", "--word", "3: 1 -2", "--t", "2"], {}),
    "cover-3-assert-pa": (["certify-cover", "--word", "3: 1 2", "--t", "2",
                           "--assert-pa"], {}),
    "cover-4": (["certify-cover", "--word", DELTA4_9, "--t", "2"], {}),
    "cover-4-assert-pa": (["certify-cover", "--word", DELTA4_9, "--t", "3",
                           "--assert-pa", "--tol", "1/2"], {}),
    "cover-4-assert-pa-aperiodic": (["certify-cover", "--word", PA4_3_TWISTED,
                                     "--t", "3", "--assert-pa"], {}),
    "genus1": (["certify-genus1", "--word", "3: -1 -2", "--n", "6"], {}),
    "genus1-assert": (["certify-genus1", "--word", "3: -1 -2", "--n", "5",
                       "--assert-irreducible"], {}),
    "genus1-split": (["certify-genus1", "--word", "3: 2 2", "--n", "2"], {}),
    "surgery": (["certify-surgery", "--c", "1/2", "--n", "2", "--q", "0"], {}),
    "surgery-assert": (["certify-surgery", "--c", "1/2", "--n", "2", "--q", "0",
                        "--assert-hyperbolic"], {}),
    "surgery-interval": (["certify-surgery", "--c", "2/5,3/5", "--n", "4",
                          "--q", "3", "--genus", "2"], {}),
    "surgery-genus-rule": (["certify-surgery", "--c", "1/7,1/5", "--n", "6",
                            "--q", "0", "--genus", "2"], {}),
    "satellite": (["certify-satellite", "--pattern", "3: 1 -2", "--n", "2",
                   "--c", "0/1", "--zero-companion"], {}),
    "satellite-assert": (["certify-satellite", "--pattern", "4: 1 2 3", "--n", "3",
                          "--c", "1/4,1/3", "--assert-pa", "--assert-hyperbolic"], {}),
    "satellite-assert-aperiodic": (["certify-satellite", "--pattern", PA4_3, "--n", "3",
                                    "--c", "1/4,1/3", "--assert-pa",
                                    "--assert-hyperbolic"], {}),
    "satellite-unknown": (["certify-satellite", "--pattern", "3: 1 -2", "--n", "3",
                           "--c", "0/1"], {}),
    "error-parse": (["floor", "3: 1 y"], {}),
    "error-parse-second-braid": (["order", "3: 1", "3: x"], {}),
    "error-out-of-range": (["classify3", "3: 5"], {}),
    "error-bad-twist": (["certify-surgery", "--c", "abc", "--n", "2", "--q", "0"], {}),
    "error-zero-tol": (["fdtc", "4: 1", "--tol", "0"], {}),
    "error-not-three-braid": (["lspace2", "4: 1 2 3"], {}),
    "usage-missing-option": (["certify-cover", "--word", "3: 1"], {}),
    "usage-bad-int": (["certify-genus1", "--word", "3: 1", "--n", "x"], {}),
    "budget-floor": (["floor", "4: 1 2 3 -1 -2 -3 2 1"],
                     {"BRAIDCERT_REDUCTION_BUDGET": "5"}),
    "budget-fdtc": (["fdtc", "4: 1 2 3 -1"], {"BRAIDCERT_REDUCTION_BUDGET": "30"}),
    "corpus": (["corpus", "corpus.tsv"], {}),
    "corpus-tol": (["corpus", "corpus.tsv", "--tol", "1/4"], {}),
    "corpus-unreadable": (["corpus", "missing.tsv"], {}),
}


@contextlib.contextmanager
def _environment(extra: dict[str, str]):
    # COLUMNS fixes the width argparse wraps its usage lines to.
    extra = {"COLUMNS": "80", **extra}
    saved = {key: os.environ.get(key) for key in extra}
    cwd = os.getcwd()
    os.environ.update(extra)
    os.chdir(GOLDEN)
    try:
        yield
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render_case(name: str) -> str:
    argv, env = CASES[name]
    parts = []
    with _environment(env):
        for report in ("text", "json"):
            full = argv + ["--report", report]
            code, out, err = _run(full)
            prefix = "".join(f"{k}={v} " for k, v in env.items())
            parts.append(f"$ {prefix}braidcert {shlex.join(full)}\n"
                         f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "\n".join(parts)


def parser_surface() -> dict:
    """Subcommands with their help, and every option of each."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {"prog": parser.prog, "description": parser.description}
    for name, subparser in sub.choices.items():
        surface[name] = {
            "help": helps[name],
            "options": [
                {"action": type(a).__name__, "option_strings": a.option_strings,
                 "dest": a.dest, "nargs": a.nargs, "const": repr(a.const),
                 "default": repr(a.default), "choices": a.choices,
                 "required": a.required, "help": a.help, "metavar": a.metavar}
                for a in subparser._actions
            ],
        }
    return surface


def render_parser() -> str:
    return json.dumps(parser_surface(), indent=1) + "\n"


def write_goldens(argv: list[str]) -> None:
    """Rewrite every golden file; ``--write`` is required."""
    cli = argparse.ArgumentParser(
        prog="test_cli_golden.py", allow_abbrev=False,
        description="Rewrite the expected files under tests/golden/.")
    cli.add_argument("--write", action="store_true", required=True,
                     help="rewrite every golden file")
    cli.parse_args(argv)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render_case(case), encoding="utf-8")
    (GOLDEN / "parser.json").write_text(render_parser(), encoding="utf-8")
    print(f"wrote {len(CASES) + 1} golden files to {GOLDEN}", file=sys.stderr)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render_case(name) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_under_the_other_kernel(name, other_kernel):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render_case(name) == expected


def test_parser_matches_golden():
    expected = (GOLDEN / "parser.json").read_text(encoding="utf-8")
    assert render_parser() == expected


@pytest.mark.parametrize("argv", [[], ["--help"], ["--wri"], ["--write", "extra"]])
def test_script_refuses_all_but_write(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    with pytest.raises(SystemExit):
        write_goldens(argv)
    assert list(tmp_path.iterdir()) == []


def test_script_writes_with_write(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    write_goldens(["--write"])
    assert len(list(tmp_path.iterdir())) == len(CASES) + 1


if __name__ == "__main__":
    write_goldens(sys.argv[1:])
