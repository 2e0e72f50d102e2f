"""Parser and printer for the element-expression language and the
extension spec documents: the single human/machine boundary.

Expression grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ['^' ['-'] INT]
    atom   := NUMBER | IDENT | '(' expr ')'

with the tokens NUMBER and IDENT of the table _LEXICON below; an INT is a
NUMBER with an integral value.

An expression is evaluated in one ring: the field for chi, xi and q
values, the base R for y+-, h and sigma images, and A on the command line.
Numbers, q and zeta are lifted into that ring as scalar multiples of 1.

Spec documents are line-oriented UTF-8 with nested named blocks and
"key: value" entries; '#' starts a comment. Unknown keys are rejected.
The full grammar ships in docs/spec-format.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .ambicore import AmbiElement, AmbiskewAlgebra
from .basehopf import (
    BaseAlgebra,
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    invert_element,
)
from .errors import AbhkError, NotInvertibleError
from .hopfstruct import ExtensionData, GeneralPresentation
from .scalar import CyclotomicField, Field, RationalField, RationalFunctionField, Scalar
from .uqsl2 import UqSl2Base


# Largest |exponent| accepted after '^', and the largest product of the
# |exponents| along a chain of nested powers such as ((q+1)^16)^16. Every
# corpus and test exponent is a single digit; the bound keeps a hostile power
# like (q+1)^3000 or ((q+1)^256)^256 from running for seconds.
MAX_EXPONENT = 256

# Deepest nesting of parentheses accepted. Parsing recurses four frames per
# level, and _chain_exponent, _eval and _format_node one or two per level of
# the tree, so 300 levels overran Python's default recursion limit of 1000.
# The corpus nests at most three deep.
MAX_NESTING = 64

# Largest cyclotomic order accepted by make_field. Phi_N comes from exact
# integer division, and the fold table of Q(zeta_N) holds
# max(N, 2 phi(N) - 1) rows of phi(N) ints: in process, `check usl2.abhk`
# takes at most about 0.23 s for every N up to 512 (worst at the primes
# near 512, where phi(N) is largest; Python 3.11 on 2 vCPU), and
# 0.19-0.25 s at N = 660, 720 or 840.
MAX_CYCLOTOMIC_ORDER = 512


class ParseError(AbhkError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column


class SpecError(AbhkError):
    """Schema violation in a spec document, with a path-addressed message."""


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}


Node = Num | Name | Pow | Neg | Mul | Sum


def _chain_exponent(node: Node) -> int:
    """The largest product of |exponent| along a chain of nested powers in
    ``node``: the power that evaluating it raises its deepest base to."""
    if isinstance(node, Pow):
        return abs(node.exponent) * _chain_exponent(node.base)
    if isinstance(node, Neg):
        return _chain_exponent(node.operand)
    if isinstance(node, Mul):
        return max(map(_chain_exponent, node.factors))
    if isinstance(node, Sum):
        return max(_chain_exponent(term) for _, term in node.terms)
    return 1


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP END
    text: str
    line: int
    column: int


# The lexical grammar: one alternative per token kind, tried in order at each
# position. Letters and digits are ASCII; a character no token starts with,
# whitespace aside, is refused.
_LEXICON = re.compile(r"""
    (?P<SPACE>\s+)
  | (?P<NUMBER>[0-9]+(/(?P<den>[0-9]+))?)
  | (?P<IDENT>X[+-]|[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[-+*^()])
""", re.VERBOSE)


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        match = _LEXICON.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind, text = match.lastgroup, match.group()
        pos = match.end()
        if kind == "SPACE":
            line += text.count("\n")
            col = len(text) - text.rfind("\n") if "\n" in text else col + len(text)
            continue
        if match["den"] and int(match["den"]) == 0:
            raise ParseError("zero denominator in literal", line, col)
        tokens.append(_Token(kind, text, line, col))
        col += len(text)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.take()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'}",
                             tok.line, tok.column)

    def parse_expr(self) -> Node:
        terms = [(1, self.parse_term())]
        while self.peek().kind == "OP" and self.peek().text in "+-":
            sign = 1 if self.take().text == "+" else -1
            terms.append((sign, self.parse_term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_term(self) -> Node:
        factors = [self.parse_factor()]
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.take()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    def parse_factor(self) -> Node:
        negate = False
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.take()
            negate = True
        node = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.take()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok.kind != "NUMBER" or (value := Fraction(tok.text)).denominator != 1:
                raise ParseError("exponent must be an integer", tok.line, tok.column)
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent {tok.text} exceeds the limit {MAX_EXPONENT}",
                                 tok.line, tok.column)
            node = Pow(node, sign * int(value))
            chained = _chain_exponent(node)
            if chained > MAX_EXPONENT:
                raise ParseError(f"nested exponents multiply to {chained}, which exceeds "
                                 f"the limit {MAX_EXPONENT}", tok.line, tok.column)
        return Neg(node) if negate else node

    def parse_atom(self) -> Node:
        tok = self.take()
        if tok.kind == "NUMBER":
            return Num(Fraction(tok.text))
        if tok.kind == "IDENT":
            return Name(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a value, found {tok.text or 'end of input'}",
                         tok.line, tok.column)


def parse_expr(src: str) -> Node:
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# AST printing (round-trips through parse_expr)


def format_ast(node: Node) -> str:
    return _format_node(node, parent="expr")


def _format_node(node: Node, parent: str) -> str:
    if isinstance(node, Num):
        text = str(node.value) if node.value.denominator != 1 else str(node.value.numerator)
        if "/" in text and parent == "pow":
            return f"({text})"
        return text
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Sum):
        signed_terms = []
        for sign, term in node.terms:
            while isinstance(term, Neg):
                sign, term = -sign, term.operand
            signed_terms.append((sign, _format_node(term, "sum")))
        text = _join_terms(signed_terms)
        return f"({text})" if parent in ("mul", "pow", "neg", "sum") else text
    if isinstance(node, Mul):
        text = "*".join(_format_node(f, "mul") for f in node.factors)
        return f"({text})" if parent in ("pow", "mul", "neg") else text
    if isinstance(node, Neg):
        body = _format_node(node.operand, "neg")
        text = f"-{body}"
        return f"({text})" if parent in ("mul", "pow", "sum", "neg") else text
    if isinstance(node, Pow):
        base = _format_node(node.base, "pow")
        text = f"{base}^{node.exponent}"
        return f"({text})" if parent == "pow" else text
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation


class EvalContext:
    """Resolves identifiers against a scalar field, an optional base
    family, and optionally the ambiskew variables X+ and X-. Values live
    in one ring, A if present, else R, else the field: ``lift`` carries
    numbers, q and zeta into it, and each operator is the ring's own."""

    def __init__(self, field: Field, base: BaseAlgebra | None = None,
                 algebra: AmbiskewAlgebra | None = None):
        self.field = field
        self.base = base
        self.algebra = algebra

    def lift(self, c: Scalar):
        """The scalar c as an element of the context's ring."""
        if self.algebra is not None:
            return self.algebra.one().scale(c)
        if self.base is not None:
            return self.base.from_scalar(c)
        return c

    def lookup(self, ident: str, power: int = 1):
        if ident == "q" and isinstance(self.field, RationalFunctionField):
            return self.lift(self.field.q(power))
        if ident == "zeta" and isinstance(self.field, CyclotomicField):
            return self.lift(self.field.zeta(power))
        if ident in ("X+", "X-"):
            if self.algebra is None:
                raise ParseError(f"{ident} is not available in a base-only expression")
            if power < 0:
                raise NotInvertibleError(f"{ident} is not invertible")
            return self.algebra.xplus(power) if ident == "X+" else self.algebra.xminus(power)
        if self.base is not None and ident in self.base.generators:
            elem = self.base.generator(ident, power)
            return self.algebra.embed(elem) if self.algebra is not None else elem
        raise ParseError(f"unknown generator {ident!r}")


def _eval(node: Node, ctx: EvalContext):
    """The value of ``node`` in the context's ring. ``Mul`` and ``Pow`` are
    the only steps that multiply."""
    if isinstance(node, Num):
        return ctx.lift(ctx.field.from_fraction(node.value))
    if isinstance(node, Name):
        return ctx.lookup(node.ident)
    if isinstance(node, Neg):
        return -_eval(node.operand, ctx)
    if isinstance(node, Pow):
        if isinstance(node.base, Name):
            return ctx.lookup(node.base.ident, node.exponent)
        value = _eval(node.base, ctx)
        if node.exponent < 0:
            return _invert_value(value) ** -node.exponent
        return value**node.exponent
    if isinstance(node, Mul):
        acc = _eval(node.factors[0], ctx)
        for factor in node.factors[1:]:
            acc = acc * _eval(factor, ctx)
        return acc
    if isinstance(node, Sum):
        acc = None
        for sign, term in node.terms:
            value = _eval(term, ctx)
            if sign < 0:
                value = -value
            acc = value if acc is None else acc + value
        return acc
    raise TypeError(f"not an AST node: {node!r}")


def _invert_value(value):
    if value.is_zero():
        raise NotInvertibleError("inverse of zero")
    if isinstance(value, Scalar):
        return value.inverse()
    if isinstance(value, BaseElement):
        return invert_element(value)
    if not value.is_base():
        raise NotInvertibleError("element with X factors is not invertible")
    return value.algebra.embed(invert_element(value.base_part()))


def eval_expr(node: Node, ctx: EvalContext) -> AmbiElement:
    """Evaluate to a normal-formed element of the extension."""
    if ctx.algebra is None:
        raise ValueError("eval_expr needs an ambiskew algebra in context")
    return _eval(node, ctx)


def eval_base_expr(node: Node, field: Field, base: BaseAlgebra) -> BaseElement:
    """Evaluate to an element of the base family (X+- not in scope)."""
    return _eval(node, EvalContext(field, base))


def eval_scalar_expr(node: Node, field: Field) -> Scalar:
    return _eval(node, EvalContext(field))


# ---------------------------------------------------------------------------
# canonical printing of scalars and elements


def _poly_text(coeffs, symbol: str) -> tuple[str, bool]:
    """Ascending-power rendering of a Fraction/int polynomial; the flag
    says whether the result is a multi-term sum."""
    signed_terms = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _fraction_text(mag)
        else:
            sym = symbol if i == 1 else f"{symbol}^{i}"
            body = sym if mag == 1 else f"{_fraction_text(mag)}*{sym}"
        signed_terms.append((1 if c > 0 else -1, body))
    return _join_terms(signed_terms), len(signed_terms) > 1


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def format_scalar(x: Scalar) -> tuple[str, bool]:
    """(text, atomic): atomic means usable as a factor without parens."""
    kind = x.field.kind
    if kind == "rational":
        return _fraction_text(x.data), True
    if kind == "cyclotomic":
        text, multi = _poly_text(x.field.coefficients(x.data), "zeta")
        return text, not multi
    num, den = x.field.quotient(x.data)
    if den == (1,):
        text, multi = _poly_text(num, "q")
        return text, not multi
    if len(den) == 1:
        # constant denominator: fold it into fractional coefficients
        text, multi = _poly_text([Fraction(c, den[0]) for c in num], "q")
        return text, not multi
    num_text, num_multi = _poly_text(num, "q")
    if num_multi:
        num_text = f"({num_text})"
    if len([c for c in den if c]) == 1 and den[-1] == 1:
        power = f"q^-{len(den) - 1}"
        if num_text == "1":
            return power, True
        if num_text == "-1":
            return f"-{power}", False
        return f"{num_text}*{power}", False
    den_text, _ = _poly_text(den, "q")
    return f"{num_text}*({den_text})^-1", False


def format_scalar_factor(x: Scalar) -> str:
    """The scalar as a standalone factor, parenthesized when needed."""
    text, atomic = format_scalar(x)
    return text if atomic else f"({text})"


def _term_text(coeff: Scalar, factors: list[tuple[str, int]]) -> tuple[int, str]:
    """(sign, body) for one monomial term."""
    sign = 1
    field = coeff.field
    if coeff == field.from_int(-1) and factors:
        sign, coeff = -1, field.one()
    else:
        text, _ = format_scalar(coeff)
        if text.startswith("-"):
            negated = -coeff
            # only strip the sign when the negation prints without one
            neg_text, _ = format_scalar(negated)
            if not neg_text.startswith("-"):
                sign, coeff = -1, negated
    parts = []
    if not coeff.is_one() or not factors:
        parts.append(format_scalar_factor(coeff))
    for name, exp in factors:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return sign, "*".join(parts)


def _join_terms(signed_terms: list[tuple[int, str]], max_terms: int | None = None) -> str:
    """Signed terms as ``-a + b - c``, the one sign convention; none is ``0``.
    With ``max_terms``, the first terms and a count of the rest."""
    if not signed_terms:
        return "0"
    out = []
    for i, (sign, body) in enumerate(signed_terms[:max_terms]):
        if i == 0:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append((" + " if sign > 0 else " - ") + body)
    if max_terms is not None and len(signed_terms) > max_terms:
        out.append(f" + ... ({len(signed_terms) - max_terms} more terms)")
    return "".join(out)


def _leg_term(base: BaseAlgebra, leg, c: Scalar) -> tuple[int, str]:
    """(sign, body) for the term c * mono X+^m X-^n of the leg (mono, m, n)."""
    mono, m, n = leg
    coeff, factors = base.display_term(mono, c)
    factors = list(factors)
    if m:
        factors.append(("X+", m))
    if n:
        factors.append(("X-", n))
    return _term_text(coeff, factors)


def format_base_element(elem: BaseElement, max_terms: int | None = None) -> str:
    base = elem.algebra
    return _join_terms([_leg_term(base, (mono, 0, 0), c) for mono, c in elem.terms()],
                       max_terms)


def format_element(elem, max_terms: int | None = None) -> str:
    """Canonical text of a base or extension element: base monomials by
    graded-lex, then X+ power, then X- power. With ``max_terms``, only the
    first terms are printed, followed by a count of the rest."""
    if isinstance(elem, BaseElement):
        return format_base_element(elem, max_terms)
    base = elem.algebra.base
    return _join_terms([_leg_term(base, leg, c) for leg, c in elem.terms()], max_terms)


def format_tensor(tensor, max_terms: int | None = None) -> str:
    """Legs joined by (x), each leg printed as a one-term element carrying
    the coefficient on the first leg. A ``BaseTensor`` of R (x) R prints
    its monomials as the legs (mono, 0, 0) of A, as ``delta_leg`` embeds
    them. With ``max_terms``, only the first terms are printed, followed
    by a count of the rest."""
    if isinstance(tensor, BaseTensor):
        base, coeffs = tensor.algebra, {
            tuple((mono, 0, 0) for mono in key): c for key, c in tensor.coeffs.items()}
    else:
        base, coeffs = tensor.algebra.base, tensor.coeffs
    field = base.field
    one = field.one()
    keys = sorted(coeffs, key=lambda k: tuple(
        (base.monomial_sort_key(mono), m, n) for (mono, m, n) in k))
    parts = []
    for key in keys[:max_terms]:
        c = Scalar(field, coeffs[key])
        parts.append(" (x) ".join(
            _join_terms([_leg_term(base, leg, c if idx == 0 else one)])
            for idx, leg in enumerate(key)))
    if len(keys) > len(parts):
        parts.append(f"... ({len(keys) - len(parts)} more terms)")
    return "  +  ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# spec documents


@dataclass
class SpecBlock:
    name: str
    entries: dict = dataclass_field(default_factory=dict)   # key -> str value
    blocks: dict = dataclass_field(default_factory=dict)    # name -> SpecBlock


@dataclass
class SpecDocument:
    field_kind: str
    field_order: int | None
    base_family: str
    base_params: dict
    extension: SpecBlock
    options: dict
    expect: SpecBlock | None


def _parse_blocks(src: str) -> SpecBlock:
    root = SpecBlock("document")
    stack = [root]
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ParseError("unmatched closing brace", lineno)
            stack.pop()
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if not name.isidentifier() and name not in ("general_form",):
                raise ParseError(f"bad block name {name!r}", lineno)
            block = SpecBlock(name)
            parent = stack[-1]
            if name in parent.blocks:
                raise ParseError(f"duplicate block {name!r}", lineno)
            parent.blocks[name] = block
            stack.append(block)
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', found {line!r}", lineno)
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        parent = stack[-1]
        if key in parent.entries:
            raise ParseError(f"duplicate key {key!r} in {parent.name}", lineno)
        parent.entries[key] = value
    if len(stack) != 1:
        raise ParseError(f"unclosed block {stack[-1].name!r}")
    return root


_FIELD_KINDS = {"rational", "cyclotomic", "rational-function"}

# base.family -> (the keys that family takes besides "family", its class);
# the class is called as cls(field, **params) with the resolved keys
_FAMILIES = {
    "polynomial": ((), PolynomialBase),
    "laurent": ((), LaurentBase),
    "group": (("rank", "torsion"), GroupBase),
    "uqsl2": (("q",), UqSl2Base),
}

# sorted, so a missing key is named in alphabetical order
_GENERAL_FORM_KEYS = ("h", "l_minus", "l_plus", "r_minus", "r_plus", "xi")

_EXPECT_KEYS = ("check", "witness", "classification", "gk_dim", "gl_dim", "pi", "note")


def _check_block(block: SpecBlock, path: str, required=(), optional=(),
                 required_blocks=(), optional_blocks=()) -> None:
    """Refuse the first schema violation of one block, in this order: any
    sub-block where none is allowed, a missing key, a missing block (each
    in the order given), an unknown key, an unknown block (each the first
    in sorted order), a block nested in a sub-block. Messages name the
    block by its path. A sub-block's keys are free: none is checked."""
    blocks = (*required_blocks, *optional_blocks)
    if block.blocks and not blocks:
        raise SpecError(f"{path}: nested blocks not allowed")
    for key in required:
        if key not in block.entries:
            raise SpecError(f"{path}.{key} required")
    for name in required_blocks:
        if name not in block.blocks:
            raise SpecError(f"{path}.{name} block required")
    extras = set(block.entries).difference(required, optional)
    if extras:
        raise SpecError(f"{path}: unknown key {min(extras)!r}")
    extras = set(block.blocks).difference(blocks)
    if extras:
        raise SpecError(f"{path}: unknown block {min(extras)!r}")
    for name, sub in block.blocks.items():
        if sub.blocks:
            raise SpecError(f"{path}.{name}: nested blocks not allowed")


def parse_spec(src: str) -> SpecDocument:
    """Parse and schema-check a spec document (strict keys)."""
    root = _parse_blocks(src)
    for name in root.entries:
        raise SpecError(f"document: unexpected top-level key {name!r}")
    unknown = set(root.blocks) - {"field", "base", "extension", "options", "expect"}
    if unknown:
        raise SpecError(f"document: unknown block {sorted(unknown)[0]!r}")
    for required in ("field", "base", "extension"):
        if required not in root.blocks:
            raise SpecError(f"document: block {required!r} required")

    # an unknown kind or family is refused before the keys it would not take
    fblock = root.blocks["field"]
    kind = fblock.entries.get("kind")
    _check_block(fblock, "field", ("kind",),
                 ("order",) if kind in _FIELD_KINDS else fblock.entries)
    if kind not in _FIELD_KINDS:
        raise SpecError(f"field.kind: unknown value {kind!r}")
    order = None
    if kind == "cyclotomic":
        if "order" not in fblock.entries:
            raise SpecError("field.order required for cyclotomic fields")
        order = _int_value("field.order", fblock.entries["order"], 1)
    elif "order" in fblock.entries:
        raise SpecError("field.order only applies to cyclotomic fields")

    bblock = root.blocks["base"]
    family = bblock.entries.get("family")
    _check_block(bblock, "base", ("family",),
                 _FAMILIES[family][0] if family in _FAMILIES else bblock.entries)
    if family not in _FAMILIES:
        raise SpecError(f"base.family: unknown value {family!r}")
    params: dict = {}
    if family == "group":
        params["rank"] = _int_value("base.rank", bblock.entries.get("rank", "0"), 0)
        torsion = bblock.entries.get("torsion", "").strip()
        params["torsion"] = tuple(
            _int_value("base.torsion", part, 1)
            for part in torsion.split(",") if part.strip()
        )
    if family == "uqsl2":
        if "q" not in bblock.entries:
            raise SpecError("base.q required for the uqsl2 family")
        params["q"] = bblock.entries["q"]

    ext = root.blocks["extension"]
    if "general_form" in ext.blocks:
        if set(ext.entries) or set(ext.blocks) - {"general_form"}:
            raise SpecError("extension: hat-form keys not allowed with general_form")
        _check_block(ext.blocks["general_form"], "extension.general_form",
                     _GENERAL_FORM_KEYS, (), ("sigma", "sigma_inverse"))
    else:
        _check_block(ext, "extension", ("y_plus", "y_minus", "h"), (), ("chi",))

    options: dict = {}
    if "options" in root.blocks:
        oblock = root.blocks["options"]
        extras = set(oblock.entries) - {"nmax"}
        if extras or oblock.blocks:
            raise SpecError("options: only 'nmax' is supported")
        if "nmax" in oblock.entries:
            options["nmax"] = _int_value("options.nmax", oblock.entries["nmax"], 1)

    expect = root.blocks.get("expect")
    if expect is not None:
        _check_block(expect, "expect", (), _EXPECT_KEYS, (), ("identities", "corad"))
        _check_expect_values(expect)

    return SpecDocument(kind, order, family, params, ext, options, expect)


def _check_expect_values(expect: SpecBlock) -> None:
    """Refuse an ``expect`` value the corpus runner cannot compare with."""
    entries = expect.entries
    if entries.get("check", "pass") not in ("pass", "fail"):
        raise SpecError(f"expect.check: unknown value {entries['check']!r}")
    for key in ("gk_dim", "gl_dim"):
        if key in entries:
            _int_value(f"expect.{key}", entries[key], 0)
    pi = entries.get("pi", "none")
    if pi not in ("none", "unsupported"):
        try:
            _int_value("expect.pi", pi, 1)
        except SpecError:
            raise SpecError(f"expect.pi: expected none, unsupported or an integer >= 1, "
                            f"found {pi!r}") from None
    if "corad" in expect.blocks:
        for expr, degree in expect.blocks["corad"].entries.items():
            _int_value(f"expect.corad[{expr}]", degree, 0)


def _int_value(path: str, text: str, least: int) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise SpecError(f"{path}: expected an integer, found {text!r}")
    if value < least:
        raise SpecError(f"{path}: expected an integer >= {least}, found {text!r}")
    return value


@dataclass
class ResolvedSpec:
    field: Field
    base: BaseAlgebra
    data: ExtensionData | None
    general: GeneralPresentation | None
    options: dict
    expect: SpecBlock | None


def make_field(kind: str, order: int | None = None) -> Field:
    if order is not None and kind in ("rational", "rational-function"):
        raise SpecError("field.order only applies to cyclotomic fields")
    if kind == "rational":
        return RationalField()
    if kind == "cyclotomic":
        if order is None:
            raise SpecError("cyclotomic field needs an order")
        if order > MAX_CYCLOTOMIC_ORDER:
            raise SpecError(f"cyclotomic order {order} exceeds the limit {MAX_CYCLOTOMIC_ORDER}")
        return CyclotomicField(order)
    if kind == "rational-function":
        return RationalFunctionField()
    raise SpecError(f"unknown field kind {kind!r}")


def resolve_spec(doc: SpecDocument, field_override: Field | None = None) -> ResolvedSpec:
    """Instantiate the field, base family, and extension data of a parsed
    document; all scalar literals and generator names are resolved here."""
    field = field_override or make_field(doc.field_kind, doc.field_order)

    def scalar(text: str) -> Scalar:
        return eval_scalar_expr(parse_expr(text), field)

    def element(text: str) -> BaseElement:
        return eval_base_expr(parse_expr(text), field, base)

    params = dict(doc.base_params)
    if doc.base_family == "uqsl2":
        params["q"] = scalar(params["q"])
    base = _FAMILIES[doc.base_family][1](field, **params)

    ext = doc.extension
    if "general_form" in ext.blocks:
        gf = ext.blocks["general_form"]
        sigma = BaseAutomorphism(base, *(
            {name: element(text) for name, text in gf.blocks[key].entries.items()}
            for key in ("sigma", "sigma_inverse")))
        xi = scalar(gf.entries["xi"])
        algebra = AmbiskewAlgebra(base, sigma, element(gf.entries["h"]), xi)
        general = GeneralPresentation(algebra, *(
            element(gf.entries[key]) for key in ("l_plus", "l_minus", "r_plus", "r_minus")))
        return ResolvedSpec(field, base, None, general, doc.options, doc.expect)

    chi = Character(base, {name: scalar(text) for name, text in ext.blocks["chi"].entries.items()})
    data = ExtensionData(base, chi, *(
        element(ext.entries[key]) for key in ("y_plus", "y_minus", "h")))
    return ResolvedSpec(field, base, data, None, doc.options, doc.expect)
