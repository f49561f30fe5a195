"""Independent replay of certificate inequalities.

Certificates carry their justifying inequalities as strings over a tiny
arithmetic grammar: integer literals, + - * / %, unary minus, abs() and
gcd(), chained comparisons, `and` / `or` / `not`, parentheses.  This
module re-parses and re-evaluates those strings with exact rational
arithmetic (every division is a Fraction), sharing no code with the
certifiers that emitted them, so a bug in a certifier's decision logic
cannot silently vouch for itself.

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


#: Longest inequality string the checker reads; the certifiers emit a
#: few dozen characters per inequality.
MAX_INEQUALITY_CHARS = 4096


_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: Fraction(a) / Fraction(b),
    ast.Mod: lambda a, b: a % b,
}

_CMP_OPS = {
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
}


def _as_int(value, context: str) -> int:
    value = Fraction(value)
    if value.denominator != 1:
        raise ReplayError(f"{context} needs an integer, got {value}")
    return int(value)


def _eval(node):
    if isinstance(node, ast.Expression):
        return _eval(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise ReplayError(f"literal {node.value!r} is not an integer")
        return Fraction(node.value)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return -_eval(node.operand)
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
        left, right = _eval(node.left), _eval(node.right)
        if isinstance(node.op, ast.Mod):
            return Fraction(_as_int(left, "%") % _as_int(right, "%"))
        return fn(left, right)
    if isinstance(node, ast.Compare):
        left = _eval(node.left)
        for op, comp in zip(node.ops, node.comparators):
            fn = _CMP_OPS.get(type(op))
            if fn is None:
                raise ReplayError(f"comparison {type(op).__name__} not allowed")
            right = _eval(comp)
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
        args = [_eval(a) for a in node.args]
        if name == "abs" and len(args) == 1:
            return abs(args[0])
        if name == "gcd" and len(args) == 2:
            return Fraction(math.gcd(_as_int(args[0], "gcd"), _as_int(args[1], "gcd")))
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
    except RecursionError:
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
