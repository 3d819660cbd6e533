"""Scenario language: a small, total, printable grammar for describing
base spaces, forms, connections, gauges and verification tasks.

Grammar (semicolon-terminated statements):

    scenario := stmt*
    stmt     := space | def | task
    space    := "space" "R" nat ["T" nat] ";"
    def      := ("form"|"fn"|"conn"|"gauge"|"idem") name "=" expr ";"
    task     := ("ch"|"cs"|"equiv"|"realize"|"holonomy"|"suite")
                expr* ";"
    expr     := sum of products of powers of atoms
    atom     := nat | "tau" | x<i> | th<i> | dx<i> | dth<i> | name
              | builtin "(" args ")" | "(" expr ")"

Coordinates are 1-indexed on the surface and 0-indexed internally.
An expression tree is at most MAX_DEPTH levels high.
Errors carry line and column; lexical, syntactic and semantic failures
are distinct exception types.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .connections import (Connection, GaugeTransform, Idempotent,
                          direct_sum, gauge_apply, grassmann_sum, tensor)
from .forms import MatrixForm
from .functions import BaseSpace, ChartFunction
from .scalars import GaussRational, TauScalar


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class LexError(DslError):
    pass


class ParseError(DslError):
    pass


class SemanticError(DslError):
    pass


# ---------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[;=(),+\-*/^]|\s+|#[^\n]*")

DEF_KINDS = ("form", "fn", "conn", "gauge", "idem")
TASK_KINDS = ("ch", "cs", "equiv", "realize", "holonomy", "suite")
BUILTINS = ("line", "flat", "apply", "dsum", "tensor", "grassmann",
            "fourier", "unipotent", "shear", "diagproj", "fexp", "d")
KEYWORDS = ("space", "R", "T", "tau", "i") + DEF_KINDS + TASK_KINDS


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'sym', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if not chunk.isspace() and not chunk.startswith("#"):
            if chunk[0].isdigit():
                kind = "int"
            elif chunk[0].isalpha() or chunk[0] == "_":
                kind = "ident"
            else:
                kind = "sym"
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Tau:
    def __str__(self):
        return "tau"


@dataclass(frozen=True)
class Imag:
    def __str__(self):
        return "i"


@dataclass(frozen=True)
class Coord:
    kind: str  # 'x' or 'th'
    index: int  # 1-based surface index

    def __str__(self):
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class Diff:
    kind: str  # 'x' or 'th'
    index: int

    def __str__(self):
        return f"d{self.kind}{self.index}"


@dataclass(frozen=True)
class Name:
    ident: str

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple

    def __str__(self):
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Neg:
    arg: object

    def __str__(self):
        return f"-{_paren(self.arg, 2)}"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/', '^'
    left: object
    right: object

    def __str__(self):
        lv = _LEVEL[self.op]
        if self.op in "+-":
            return f"{_paren(self.left, lv)} {self.op} {_paren(self.right, lv + 1)}"
        if self.op in "*/":
            return f"{_paren(self.left, lv)}{self.op}{_paren(self.right, lv + 1)}"
        return f"{_paren(self.left, lv + 1)}^{_paren(self.right, lv + 1)}"


_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def _node_level(node) -> int:
    if isinstance(node, Bin):
        return _LEVEL[node.op]
    if isinstance(node, Neg):
        return 0
    return 3


def _paren(node, need: int) -> str:
    s = str(node)
    return f"({s})" if _node_level(node) < need else s


@dataclass(frozen=True)
class Scenario:
    chart_dim: int
    torus_dim: int
    defs: tuple  # of (kind, name, expr)
    tasks: tuple  # of (kind, (expr, ...))
    # (line, column) of the first token of each definition and task; not
    # part of the value, so a rendered scenario parses back equal
    def_at: tuple = field(compare=False, repr=False)
    task_at: tuple = field(compare=False, repr=False)

    @property
    def base(self) -> BaseSpace:
        return BaseSpace(self.chart_dim, self.torus_dim)

    def render(self) -> str:
        lines = []
        decl = f"space R {self.chart_dim}"
        if self.torus_dim:
            decl += f" T {self.torus_dim}"
        lines.append(decl + ";")
        for kind, name, expr in self.defs:
            lines.append(f"{kind} {name} = {expr};")
        for kind, args in self.tasks:
            parts = " ".join(str(a) for a in args)
            lines.append(f"task {kind}{' ' + parts if parts else ''};")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# parser

_COORD_RE = re.compile(r"^(d?)(x|th)([1-9]\d*)$")


class _Parser:
    """Recursive descent.  Expression methods return (node, height), and
    ``open`` counts the parentheses and calls being parsed; both stop at
    MAX_DEPTH.  A parenthesis adds no height, so a rendered scenario,
    which has only the parentheses its trees need, parses back."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, found {got!r}", t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail(repr(text))
        return self.next()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail("a number")
        return int(self.next().text)

    def above(self, t: Token, height: int) -> int:
        """The height of a node over a child of height height, built at
        t, once MAX_DEPTH allows it."""
        if height >= MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels",
                             t.line, t.col)
        return height + 1

    def nested(self, t: Token, parse, names: set[str]):
        """parse(names) inside the parenthesis or call opened at t."""
        self.above(t, self.open)
        self.open += 1
        result = parse(names)
        self.open -= 1
        return result

    def scenario(self) -> Scenario:
        chart = torus = None
        defs: list = []
        tasks: list = []
        def_at: list = []
        task_at: list = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "space":
                if chart is not None:
                    raise ParseError("duplicate space declaration",
                                     t.line, t.col)
                if defs or tasks:
                    raise ParseError("space declaration must come first",
                                     t.line, t.col)
                self.next()
                self.expect("R")
                chart = self.expect_int()
                torus = 0
                if self.peek().text == "T":
                    self.next()
                    torus = self.expect_int()
                self.expect(";")
            elif t.text in DEF_KINDS:
                kind = self.next().text
                nt = self.peek()
                if nt.kind != "ident" or nt.text in KEYWORDS + BUILTINS \
                        or _COORD_RE.match(nt.text):
                    self.fail("a fresh identifier")
                name = self.next().text
                if name in names:
                    raise SemanticError(f"name {name!r} already defined",
                                        nt.line, nt.col)
                self.expect("=")
                expr = self.expr(names)[0]
                self.expect(";")
                names.add(name)
                defs.append((kind, name, expr))
                def_at.append((t.line, t.col))
            elif t.text == "task":
                self.next()
                kt = self.peek()
                if kt.text not in TASK_KINDS:
                    self.fail("a task kind (" + "|".join(TASK_KINDS) + ")")
                kind = self.next().text
                args = []
                while self.peek().text != ";":
                    args.append(self.expr(names)[0])
                self.expect(";")
                tasks.append((kind, tuple(args)))
                task_at.append((t.line, t.col))
            else:
                self.fail("'space', a definition, or 'task'")
        if chart is None:
            t = self.peek()
            raise ParseError("missing space declaration", t.line, t.col)
        return Scenario(chart, torus, tuple(defs), tuple(tasks),
                        tuple(def_at), tuple(task_at))

    def expr(self, names: set[str]):
        node, height = self.term(names)
        while self.peek().text in ("+", "-"):
            t = self.next()
            right, rh = self.term(names)
            node, height = Bin(t.text, node, right), self.above(t, max(height, rh))
        return node, height

    def term(self, names: set[str]):
        node, height = self.unary(names)
        while self.peek().text in ("*", "/"):
            t = self.next()
            right, rh = self.unary(names)
            node, height = Bin(t.text, node, right), self.above(t, max(height, rh))
        return node, height

    def unary(self, names: set[str]):
        minuses = []
        while self.peek().text == "-":
            minuses.append(self.next())
        node, height = self.power(names)
        for t in reversed(minuses):
            node, height = Neg(node), self.above(t, height)
        return node, height

    def power(self, names: set[str]):
        # '^' is the wedge product between forms and the power operator
        # when the right-hand side is an integer; left associative
        node, height = self.atom(names)
        while self.peek().text == "^":
            t = self.next()
            if self.peek().text == "-":
                self.next()
                right, rh = Neg(Num(self.expect_int())), 2
            else:
                right, rh = self.atom(names)
            node, height = Bin("^", node, right), self.above(t, max(height, rh))
        return node, height

    def atom(self, names: set[str]):
        t = self.peek()
        if t.kind == "int":
            return Num(int(self.next().text)), 1
        if t.text == "(":
            self.next()
            node, height = self.nested(t, self.expr, names)
            self.expect(")")
            return node, height
        if t.kind != "ident":
            self.fail("an expression")
        if t.text == "tau":
            self.next()
            return Tau(), 1
        if t.text == "i":
            self.next()
            return Imag(), 1
        m = _COORD_RE.match(t.text)
        if m and t.text not in names:
            self.next()
            d, kind, idx = m.groups()
            node = Coord(kind, int(idx)) if not d else Diff(kind, int(idx))
            return node, 1
        if t.text in BUILTINS:
            return self.nested(t, self.call, names)
        if t.text in KEYWORDS:
            self.fail("an expression")
        if t.text not in names:
            raise SemanticError(f"unknown name {t.text!r}", t.line, t.col)
        return Name(self.next().text), 1

    def call(self, names: set[str]):
        t = self.next()
        self.expect("(")
        args = []
        if self.peek().text != ")":
            args.append(self.expr(names))
            while self.peek().text == ",":
                self.next()
                args.append(self.expr(names))
        self.expect(")")
        return (Call(t.text, tuple(a for a, _ in args)),
                self.above(t, max((h for _, h in args), default=0)))


def parse_scenario(text: str) -> Scenario:
    return _Parser(tokenize(text)).scenario()


# ---------------------------------------------------------------------
# evaluation

# the largest |n| that '^' accepts as an integer exponent; checked before
# any multiplication, so an input cannot ask for unbounded work
MAX_EXPONENT = 64

# the largest rank or matrix size a builtin builds, checked before it
# builds anything, so an input cannot ask for an unbounded matrix
MAX_RANK = 64

# the largest product of two term counts that a '*', a wedge or one step
# of an integer '^' multiplies out, checked before it multiplies, so an
# input cannot ask for an unbounded product; about a second of work
MAX_TERMS = 100_000

# the largest height of an expression tree (each call, unary minus and
# binary operator is a level) and the most parentheses and calls open at
# once; checked as the parser reads, so that parsing, evaluating and
# rendering stay a few hundred Python frames deep
MAX_DEPTH = 64

# value kinds in promotion order: TauScalar < ChartFunction < MatrixForm;
# Connection, GaugeTransform, Idempotent do not mix in arithmetic


def _err(msg: str) -> SemanticError:
    """A SemanticError without a position; ``located`` supplies it."""
    return SemanticError(msg, 0, 0)


def _rank(n: int, what: str) -> int:
    """n, once it is a rank or size the evaluator may build."""
    if not 0 <= n <= MAX_RANK:
        raise _err(f"{what} {n} is outside 0..{MAX_RANK}")
    return n


@contextlib.contextmanager
def located(at: tuple[int, int]):
    """Re-raise a position-less DslError, or a library ValueError as a
    SemanticError, at at, a statement's (line, column)."""
    try:
        yield
    except DslError as exc:
        if exc.line:
            raise
        raise type(exc)(exc.message, *at) from None
    except ValueError as exc:
        raise SemanticError(str(exc), *at) from None


def _terms(v) -> int:
    if isinstance(v, MatrixForm):
        return sum(len(f.terms) for f in v.entries.values())
    return len(v.terms)


def _times(a, b):
    """a * b, or a ^ b for forms, once the term budget allows it."""
    if _terms(a) * _terms(b) > MAX_TERMS:
        raise _err(f"a product of {_terms(a)} by {_terms(b)} terms exceeds "
                   f"the limit {MAX_TERMS}")
    return a.wedge(b) if isinstance(a, MatrixForm) else a * b


def _promote(v, base: BaseSpace, want: int):
    if _rank_of(v) > want:
        raise _err("value of the wrong kind in arithmetic")
    if isinstance(v, TauScalar) and want >= 1:
        v = ChartFunction.constant(base, v)
    if isinstance(v, ChartFunction) and want == 2:
        v = MatrixForm.scalar(base, v, ())
    return v


def _rank_of(v) -> int:
    if isinstance(v, TauScalar):
        return 0
    if isinstance(v, ChartFunction):
        return 1
    if isinstance(v, MatrixForm):
        return 2
    return 3


class Evaluator:
    """Evaluates expression trees over a base space and an environment
    of named values."""

    def __init__(self, base: BaseSpace, env: dict | None = None):
        self.base = base
        self.env = dict(env or {})

    def eval(self, node):
        if isinstance(node, Num):
            return TauScalar.rational(node.value)
        if isinstance(node, Tau):
            return TauScalar.tau_power(1)
        if isinstance(node, Imag):
            return TauScalar.imag_unit()
        if isinstance(node, Coord):
            return self._coord_fn(node)
        if isinstance(node, Diff):
            return MatrixForm.scalar(self.base, ChartFunction.one(self.base),
                                     (self._coord_index(node.kind, node.index),))
        if isinstance(node, Name):
            if node.ident not in self.env:
                raise _err(f"unknown name {node.ident!r}")
            return self.env[node.ident]
        if isinstance(node, Neg):
            v = self.eval(node.arg)
            if _rank_of(v) > 2:
                raise _err("cannot negate this value")
            return -v
        if isinstance(node, Bin):
            return self._binop(node)
        if isinstance(node, Call):
            return self._call(node)
        raise _err(f"cannot evaluate node {node!r}")

    def _coord_index(self, kind: str, index: int) -> int:
        if kind == "x":
            if index > self.base.chart_dim:
                raise _err(f"coordinate x{index} exceeds the chart dimension")
            return index - 1
        if index > self.base.torus_dim:
            raise _err(f"angle th{index} exceeds the torus dimension")
        return self.base.chart_dim + index - 1

    def _coord_fn(self, node: Coord) -> ChartFunction:
        idx = self._coord_index(node.kind, node.index)
        if node.kind == "th":
            raise _err("bare angles are not functions; use fexp(j, k) "
                       "for the Fourier mode exp(i k th_j)")
        return ChartFunction.coord(self.base, idx)

    def _binop(self, node: Bin):
        if node.op == "^":
            return self._power(node)
        left = self.eval(node.left)
        right = self.eval(node.right)
        if node.op == "/":
            n = _as_int(right, "the divisor")
            if n == 0:
                raise _err("division by zero")
            if isinstance(left, TauScalar):
                return left.scale(Fraction(1, n))
            if isinstance(left, (ChartFunction, MatrixForm)):
                return left.scale_rational(Fraction(1, n))
            raise _err("cannot divide this value")
        want = max(_rank_of(left), _rank_of(right))
        if want > 2:
            raise _err(f"'{node.op}' is not defined for this value kind")
        left = _promote(left, self.base, want)
        right = _promote(right, self.base, want)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return _times(left, right)

    def _power(self, node: Bin):
        v = self.eval(node.left)
        right = self.eval(node.right)
        if not (isinstance(right, TauScalar) and right.is_integer()):
            # wedge product of forms
            lw = _promote(v, self.base, 2)
            rw = _promote(right, self.base, 2)
            if not isinstance(lw, MatrixForm) or not isinstance(rw, MatrixForm):
                raise _err("'^' needs forms or an integer exponent")
            return _times(lw, rw)
        n = _as_int(right, "the exponent")
        if abs(n) > MAX_EXPONENT:
            raise _err(f"exponent {n} exceeds the limit {MAX_EXPONENT}")
        if isinstance(v, TauScalar) and v == TauScalar.tau_power(1):
            return TauScalar.tau_power(n)
        if n < 0:
            raise _err("negative powers only apply to tau")
        if isinstance(v, TauScalar):
            out = TauScalar.one()
        elif isinstance(v, ChartFunction):
            out = ChartFunction.one(self.base)
        elif isinstance(v, MatrixForm):
            out = MatrixForm.identity(self.base, v.rows)
        else:
            raise _err("cannot raise this value to a power")
        for _ in range(n):
            out = _times(out, v)
        return out

    def _call(self, node: Call):
        fn = node.fn
        args = [self.eval(a) for a in node.args]
        if fn == "line":
            w = _as_scalar_form(self.base, args, node, 1)
            return Connection.line(w)
        if fn == "flat":
            _arity(node, 1)
            n = _rank(_as_int(args[0], "flat()"), "flat rank")
            return Connection.flat(self.base, n)
        if fn == "apply":
            _arity(node, 2)
            g, c = args
            if not isinstance(g, GaugeTransform) or not isinstance(c, Connection):
                raise _err("apply(g, c) needs a gauge and a connection")
            return gauge_apply(g, c)
        if fn == "dsum":
            _arity(node, 2)
            if all(isinstance(a, Connection) for a in args):
                _rank(args[0].rank + args[1].rank, "dsum rank")
                return direct_sum(*args)
            if all(isinstance(a, GaugeTransform) for a in args):
                _rank(args[0].size + args[1].size, "dsum size")
                return args[0].direct_sum(args[1])
            raise _err("dsum needs two connections or two gauges")
        if fn == "tensor":
            _arity(node, 2)
            if not all(isinstance(a, Connection) for a in args):
                raise _err("tensor needs two connections")
            _rank(args[0].rank * args[1].rank, "tensor rank")
            return tensor(*args)
        if fn == "grassmann":
            _arity(node, 1)
            if not isinstance(args[0], Idempotent):
                raise _err("grassmann needs an idempotent")
            return grassmann_sum(args[0])
        if fn == "fourier":
            if not args:
                raise _err("fourier needs at least one winding number")
            _rank(len(args), "fourier size")
            ks = tuple(_as_int(a, "fourier()") for a in args)
            if self.base.torus_dim == 0:
                raise _err("fourier needs a torus factor in the base")
            return GaugeTransform.fourier(self.base, ks)
        if fn == "unipotent":
            _arity(node, 2)
            n = _rank(_as_int(args[0], "unipotent()"), "unipotent size")
            if n < 2:
                raise _err("unipotent needs size at least 2")
            f = _promote(args[1], self.base, 1)
            if not isinstance(f, ChartFunction):
                raise _err("unipotent(n, f) needs a function entry")
            M = MatrixForm.from_function_matrix(self.base, n, n,
                                                {(0, n - 1): f})
            return GaugeTransform.unipotent(self.base, M)
        if fn == "shear":
            _arity(node, 1)
            f = _promote(args[0], self.base, 1)
            if not isinstance(f, ChartFunction):
                raise _err("shear(f) needs a function")
            P = MatrixForm.from_function_matrix(
                self.base, 2, 2,
                {(0, 0): ChartFunction.one(self.base), (0, 1): f})
            return Idempotent(self.base, 2, P)
        if fn == "diagproj":
            if len(args) < 1:
                raise _err("diagproj(n, i...) needs a size")
            n = _rank(_as_int(args[0], "diagproj()"), "diagproj size")
            picks = [_as_int(a, "diagproj()") for a in args[1:]]
            ent = {}
            for i in picks:
                if not 1 <= i <= n:
                    raise _err(f"diagproj index {i} out of range")
                ent[(i - 1, i - 1)] = ChartFunction.one(self.base)
            P = MatrixForm.from_function_matrix(self.base, n, n, ent)
            return Idempotent(self.base, n, P)
        if fn == "fexp":
            _arity(node, 2)
            j = _as_int(args[0], "fexp()")
            k = _as_int(args[1], "fexp()")
            if not 1 <= j <= self.base.torus_dim:
                raise _err(f"fexp angle th{j} exceeds the torus dimension")
            ks = [0] * self.base.torus_dim
            ks[j - 1] = k
            return ChartFunction.fourier(self.base, tuple(ks))
        if fn == "d":
            w = _as_scalar_form(self.base, args, node, None)
            return w.d()
        raise _err(f"unknown builtin {fn!r}")


def _arity(node: Call, n: int):
    if len(node.args) != n:
        raise _err(f"{node.fn} takes {n} argument{'s' if n != 1 else ''}, "
                   f"got {len(node.args)}")


def _as_int(v, what: str) -> int:
    if isinstance(v, TauScalar) and v.is_integer():
        return v.as_integer()
    raise _err(f"{what} needs an integer")


def _as_scalar_form(base: BaseSpace, args, node: Call,
                    degree: int | None) -> MatrixForm:
    _arity(node, 1)
    w = _promote(args[0], base, 2)
    if not isinstance(w, MatrixForm) or w.rows != 1 or w.cols != 1:
        raise _err(f"{node.fn} needs a scalar form")
    if degree is not None and w and w.degrees() != {degree}:
        raise _err(f"{node.fn} needs a homogeneous form of degree {degree}")
    return w


def evaluate_defs(scenario: Scenario) -> Evaluator:
    """Evaluate every definition in order, returning the environment."""
    ev = Evaluator(scenario.base)
    expected = {"form": MatrixForm, "fn": ChartFunction,
                "conn": Connection, "gauge": GaugeTransform,
                "idem": Idempotent}
    widen = {"form": 2, "fn": 1}
    for (kind, name, expr), at in zip(scenario.defs, scenario.def_at):
        with located(at):
            v = ev.eval(expr)
            if kind in widen:
                v = _promote(v, scenario.base, widen[kind])
            if not isinstance(v, expected[kind]):
                raise _err(f"definition {name!r} declared as {kind!r} but "
                           f"the expression is a {type(v).__name__}")
        ev.env[name] = v
    return ev


# ---------------------------------------------------------------------
# canonical rendering of computed values (reports only, not re-parsed)


def render_gauss(c: GaussRational) -> str:
    re_, im = c.re, c.im
    if im == 0:
        return str(re_)
    if re_ == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    ims = "i" if abs(im) == 1 else f"{abs(im)}*i"
    return f"{re_} {'+' if im > 0 else '-'} {ims}"


def _tau_term(c: GaussRational, e: int) -> str:
    cs = render_gauss(c)
    if e == 0:
        return cs
    body = "τ" if abs(e) == 1 else f"τ^{abs(e)}"
    if e > 0:
        if cs == "1":
            return body
        if cs == "-1":
            return f"-{body}"
        if any(op in cs for op in "+-/ "):
            cs = f"({cs})"
        return f"{cs}*{body}"
    if any(op in cs for op in "+-/ ") and cs != "-1":
        cs = f"({cs})"
    return f"{cs}/{body}"


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out


def render_tau_scalar(ts: TauScalar) -> str:
    items = sorted(ts.terms.items(), key=lambda kv: -kv[0])
    return _join_terms([_tau_term(c, e) for e, c in items])


def render_function(f: ChartFunction) -> str:
    base = f.base
    terms = []
    for (alpha, k) in sorted(f.terms):
        coeff = f.terms[(alpha, k)]
        factors = []
        for i, p in enumerate(alpha):
            if p == 1:
                factors.append(f"x{i + 1}")
            elif p > 1:
                factors.append(f"x{i + 1}^{p}")
        if any(k):
            phase = []
            for j, kj in enumerate(k):
                if kj == 0:
                    continue
                mag = "" if abs(kj) == 1 else str(abs(kj))
                phase.append(("-" if kj < 0 else ("+" if phase else ""))
                             + f"{mag}th{j + 1}")
            factors.append(f"ex({''.join(phase)})")
        cs = render_tau_scalar(coeff)
        if not factors:
            terms.append(cs)
            continue
        body = "*".join(factors)
        if cs == "1":
            terms.append(body)
        elif cs == "-1":
            terms.append(f"-{body}")
        else:
            if any(op in cs for op in "+-/* "):
                cs = f"({cs})"
            terms.append(f"{cs}*{body}")
    return _join_terms(terms)


def _mono_str(base: BaseSpace, mono: tuple[int, ...]) -> str:
    names = []
    for idx in mono:
        if idx < base.chart_dim:
            names.append(f"dx{idx + 1}")
        else:
            names.append(f"dth{idx - base.chart_dim + 1}")
    return "^".join(names)


def render_form(w: MatrixForm) -> str:
    if not w:
        return "0"
    base = w.base
    terms = []
    for (r, c, mono) in sorted(w.entries, key=lambda key: (key[2], key[0], key[1])):
        f = w.entries[(r, c, mono)]
        fs = render_function(f)
        pos = "" if w.rows == w.cols == 1 else f"[{r + 1},{c + 1}] "
        if not mono:
            terms.append(pos + fs)
            continue
        ms = _mono_str(base, mono)
        if fs == "1":
            terms.append(pos + ms)
        elif fs == "-1":
            terms.append(f"-{pos}{ms}")
        else:
            if any(op in fs for op in "+-/* "):
                fs = f"({fs})"
            terms.append(f"{pos}{fs} {ms}")
    return _join_terms(terms)
