"""Independent replay of certificate inequalities.

Certificates carry their justifying inequalities as strings over a tiny
arithmetic grammar: integer literals, + - * / %, unary minus, abs() and
gcd(), chained comparisons, `and` / `or` / `not`, parentheses.  This
module re-parses and re-evaluates those strings exactly, sharing no code
with the certifiers that emitted them, so a bug in a certifier's
decision logic cannot silently vouch for itself.  Literals and the
results of + - * %, abs() and gcd() on integers stay Python ints; only
/ makes a Fraction, and every later operation on it stays exact.

The checker fails closed: on any input it returns a bool or raises
:class:`ReplayError`.  Inputs longer than ``MAX_INEQUALITY_CHARS``,
division or ``%`` by zero, and nesting too deep to parse or evaluate
are all ReplayErrors.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction

from braidcert.certify import Certificate, Verdict


class ReplayError(ValueError):
    """The inequality string leaves the allowed grammar, or cannot be
    evaluated (too long, too deeply nested, division by zero)."""


#: Longest inequality string the checker reads: the longest that any
#: certificate rule emits from numbers of at most 600 characters, the
#: cap of the library's number parser.  That is a twist-gap inequality,
#: 87 characters of template around 14 number slots: 10 integers (the
#: scale, p and q) of at most 600 characters, and 4 twist bounds (lo and
#: hi) of at most 1,200, as a decimal ".11...1" of 599 digits prints as
#: a fraction over 10^599.  Every other rule is shorter.
MAX_INEQUALITY_CHARS = 87 + 10 * 600 + 4 * 1200


_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: Fraction,  # Fraction(a, b) is a / b, exactly
    ast.Mod: lambda a, b: _as_int(a, "%") % _as_int(b, "%"),
}

_CMP_OPS = {
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
}


def _as_int(value: int | Fraction, context: str) -> int:
    if type(value) is int:
        return value
    if value.denominator != 1:
        raise ReplayError(f"{context} needs an integer, got {value}")
    return value.numerator


def _number(node) -> int | Fraction:
    """The value of an operand that must be a number, not a comparison:
    a Python bool is an int, so True would otherwise count as 1."""
    value = _eval(node)
    if type(value) is bool:
        raise ReplayError("a comparison is used as a number")
    return value


def _eval(node):
    if isinstance(node, ast.Expression):
        return _eval(node.body)
    if isinstance(node, ast.Constant):
        if type(node.value) is not int:
            raise ReplayError(f"literal {node.value!r} is not an integer")
        return node.value
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return -_number(node.operand)
        if isinstance(node.op, ast.Not):
            operand = _eval(node.operand)
            if not isinstance(operand, bool):
                raise ReplayError("not needs a comparison operand")
            return not operand
        raise ReplayError(f"unary operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.BinOp):
        fn = _BIN_OPS.get(type(node.op))
        if fn is None:
            raise ReplayError(f"operator {type(node.op).__name__} not allowed")
        return fn(_number(node.left), _number(node.right))
    if isinstance(node, ast.Compare):
        left = _number(node.left)
        for op, comp in zip(node.ops, node.comparators):
            fn = _CMP_OPS.get(type(op))
            if fn is None:
                raise ReplayError(f"comparison {type(op).__name__} not allowed")
            right = _number(comp)
            if not fn(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.BoolOp):
        values = [_eval(v) for v in node.values]
        if not all(isinstance(v, bool) for v in values):
            raise ReplayError("and/or operands must be comparisons")
        return all(values) if isinstance(node.op, ast.And) else any(values)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ReplayError("only plain abs(x) and gcd(a, b) calls are allowed")
        name = node.func.id
        args = [_number(a) for a in node.args]
        if name == "abs" and len(args) == 1:
            return abs(args[0])
        if name == "gcd" and len(args) == 2:
            return math.gcd(_as_int(args[0], "gcd"), _as_int(args[1], "gcd"))
        raise ReplayError(f"call to {name}/{len(args)} not allowed")
    raise ReplayError(f"syntax {type(node).__name__} not allowed")


def evaluate_inequality(text: str) -> bool:
    """Exactly re-evaluate one inequality string; True iff it holds."""
    if not isinstance(text, str):
        raise ReplayError(f"inequality must be a string, got {type(text).__name__}")
    if len(text) > MAX_INEQUALITY_CHARS:
        raise ReplayError(
            f"inequality of {len(text)} characters exceeds {MAX_INEQUALITY_CHARS}"
        )
    try:
        result = _eval(ast.parse(text, mode="eval"))
    except SyntaxError as exc:
        raise ReplayError(f"unparseable inequality: {exc.msg}") from None
    except ZeroDivisionError:
        raise ReplayError("division or % by zero") from None
    except (RecursionError, MemoryError):
        # CPython 3.11's parser overflows its stack on about 6,000 nested
        # operators with a MemoryError
        raise ReplayError("inequality is nested too deeply") from None
    if not isinstance(result, bool):
        raise ReplayError("expression is arithmetic, not a comparison")
    return result


def verify_certificate(cert: Certificate) -> bool:
    """Replay every cited inequality of a certificate.

    True iff all inequalities re-evaluate to True and any definite
    verdict (Excellent, TotalLSpace) is backed by at least one
    justification.  Raises ReplayError on malformed inequality strings
    rather than vouching for what it cannot read.
    """
    definite = cert.verdict in (Verdict.EXCELLENT, Verdict.TOTAL_L_SPACE)
    if definite and not cert.justifications:
        return False
    return all(evaluate_inequality(j.inequality) for j in cert.justifications)
