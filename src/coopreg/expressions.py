"""Minimal arithmetic grammar for spatial profiles.

Scenario files describe functions of z with expressions over
+, -, *, /, ^, sin, cos, exp, parentheses, numeric literals, and the
constants pi and e.  Python's own parser reads them once ``^`` is ``**``,
and a whitelist of syntax nodes compiles the tree to numpy-vectorized
closures; nothing is ever passed to eval().
"""

import ast
import math
import operator
import re
import warnings

import numpy as np

from .errors import ParseError

# The grammar's characters.  Python alone would read a fullwidth name as its
# ASCII twin and a comma as an argument separator.
_ALPHABET = re.compile(r"[A-Za-z0-9_.+\-*/^()\s]*", re.ASCII)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")  # 01 is a SyntaxError in Python
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?", re.ASCII)
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
_SIGNS = {ast.UAdd: False, ast.USub: True}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class Expression:
    """Compiled spatial profile; callable on scalars or arrays of z."""

    def __init__(self, source: str):
        self.source = source.strip()
        if not _ALPHABET.fullmatch(self.source) or "**" in self.source:
            raise ParseError(f"cannot read expression {self.source!r}")
        text = _LEADING_ZEROS.sub("", " ".join(self.source.split())).replace("^", "**")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a parser warning rejects the input
                self._fn = _compile(ast.parse(text, mode="eval").body, text)
        except (SyntaxError, RecursionError):
            raise ParseError(f"cannot read expression {self.source!r}") from None

    def __call__(self, z):
        return self._fn(np.asarray(z, dtype=float))


def _compile(node, text: str):
    """Closure of z for one whitelisted syntax node of `text`."""
    negative = False
    while isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:  # --z is z itself
        negative ^= _SIGNS[type(node.op)]
        node = node.operand
    if negative:
        inner = _compile(node, text)
        return lambda z: -inner(z)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op, a, b = _OPERATORS[type(node.op)], _compile(node.left, text), _compile(node.right, text)
        return lambda z: op(a(z), b(z))
    value = ast.get_source_segment(text, node)
    if isinstance(node, ast.Name) and node.id == "z":
        return lambda z: z
    number = isinstance(node, ast.Constant) and _NUMBER.fullmatch(value)
    if number or isinstance(node, ast.Name) and node.id in _CONSTANTS:
        v = float(value) if number else _CONSTANTS[node.id]
        return lambda z: np.full_like(z, v, dtype=float)
    name = isinstance(node, ast.Call) and getattr(node.func, "id", None)
    # sin(z), not (sin)(z): the function's name opens the call
    if name in _FUNCTIONS and value.startswith(name) and len(node.args) == 1 and not node.keywords:
        f, arg = _FUNCTIONS[name], _compile(node.args[0], text)
        return lambda z: f(arg(z))
    raise ParseError(f"unsupported syntax {value!r} in expression")
