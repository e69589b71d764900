"""Attribute universes and the dependency formula language.

An atom ``{a,c} |p {b}`` says: given the values of the attributes ``a, c``,
the value of ``b`` can be determined after buying extra attributes worth at
most ``p``.  Formulas are boolean combinations of atoms; only negation and
implication are primitive, the other connectives desugar at construction
time, so two formulas compare equal exactly when their primitive trees do.

Budgets are exact rationals (`fractions.Fraction`).  The semantics compares
sums of weights against thresholds, and float drift would flip decisions,
so decimal input like ``4.5`` is converted exactly to ``9/2``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .errors import BudgetFDError


class FormulaError(BudgetFDError, ValueError):
    """Malformed formula text or an ill-typed formula operation."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownAttributeError(FormulaError):
    def __init__(self, name: str, pos: int | None = None):
        where = f" (at position {pos})" if pos is not None else ""
        super().__init__(f"unknown attribute {name!r}{where}")
        self.name = name


class Universe:
    """An ordered, duplicate-free list of attribute names.

    Attribute sets are bitsets over a universe, so the universe must be
    declared up front (file header or CLI flag) for sets to have a
    canonical form.
    """

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError(f"duplicate attribute names in {self.names!r}")
        self._hash = hash(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Universe) and self.names == other.names)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Universe({', '.join(self.names)})"

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(name) from None

    def set_of(self, names: Iterable[str] = ()) -> AttrSet:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return AttrSet(self, mask)

    def empty(self) -> AttrSet:
        return AttrSet(self, 0)

    def full(self) -> AttrSet:
        return AttrSet(self, (1 << len(self.names)) - 1)


class AttrSet:
    """A set of attributes, stored as a bitmask over its universe."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask < 0 or mask >> len(universe):
            raise ValueError(f"mask {mask:#x} out of range for {universe!r}")
        self.universe = universe
        self.mask = mask

    def _check(self, other: AttrSet) -> None:
        if self.universe is not other.universe and self.universe != other.universe:
            raise FormulaError("attribute sets belong to different universes")

    def __or__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.mask | other.mask)

    def __and__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: AttrSet) -> AttrSet:
        self._check(other)
        return AttrSet(self.universe, self.mask & ~other.mask)

    def __le__(self, other: AttrSet) -> bool:
        """Subset test."""
        self._check(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: AttrSet) -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def complement(self) -> AttrSet:
        return AttrSet(self.universe, self.universe.full().mask & ~self.mask)

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.universe.index(name) & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            out.append((m & -m).bit_length() - 1)
            m &= m - 1
        return tuple(out)

    def __iter__(self) -> Iterator[str]:
        names = self.universe.names
        return (names[i] for i in self.indices())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttrSet)
            and self.mask == other.mask
            and (self.universe is other.universe or self.universe == other.universe)
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(self) + "}"

    def __repr__(self) -> str:
        return f"AttrSet({self})"


def parse_budget(text: str) -> Fraction:
    """Parse ``3``, ``4.5`` or ``9/2`` into an exact non-negative rational."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormulaError(f"bad budget literal {text!r}: {exc}") from None
    if value < 0:
        raise FormulaError(f"negative budget {text!r}")
    return value


def format_budget(value: Fraction) -> str:
    return str(Fraction(value))


class Formula:
    """Base class of formula AST nodes (Atom, Not, Implies)."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    lhs: AttrSet
    rhs: AttrSet
    budget: Fraction

    def __post_init__(self):
        universe = self.lhs.universe
        if universe is not self.rhs.universe and universe != self.rhs.universe:
            raise FormulaError("atom sides belong to different universes")
        if not isinstance(self.budget, Fraction):
            object.__setattr__(self, "budget", Fraction(self.budget))
        if self.budget.numerator < 0:
            raise FormulaError(f"negative budget {self.budget}")

    def __hash__(self) -> int:
        budget = self.budget
        return hash((self.lhs.mask, self.rhs.mask, budget.numerator, budget.denominator))

    @property
    def universe(self) -> Universe:
        return self.lhs.universe

    def sort_key(self):
        return (self.lhs.indices(), self.rhs.indices(), self.budget)

    def __str__(self) -> str:
        return f"{self.lhs} |{format_budget(self.budget)} {self.rhs}"

    __repr__ = __str__


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


def conj(first: Formula, *rest: Formula) -> Formula:
    """a & b desugars to !(a => !b)."""
    out = first
    for f in rest:
        out = Not(Implies(out, Not(f)))
    return out


def disj(first: Formula, *rest: Formula) -> Formula:
    """a | b desugars to !a => b."""
    out = first
    for f in rest:
        out = Implies(Not(out), f)
    return out


def iff(left: Formula, right: Formula) -> Formula:
    return conj(Implies(left, right), Implies(right, left))


def atoms(f: Formula) -> list[Atom]:
    """Distinct atoms of ``f`` in a deterministic (lhs, rhs, budget) order."""
    seen: dict[Atom, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            seen.setdefault(node)
        elif isinstance(node, Not):
            walk(node.inner)
        elif isinstance(node, Implies):
            walk(node.left)
            walk(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")

    walk(f)
    return sorted(seen, key=Atom.sort_key)


def rank(f: Formula) -> Fraction:
    """Largest budget occurring in ``f`` (drives cost-truncation safety)."""
    if isinstance(f, Atom):
        return f.budget
    if isinstance(f, Not):
        return rank(f.inner)
    if isinstance(f, Implies):
        return max(rank(f.left), rank(f.right))
    raise TypeError(f"not a formula node: {f!r}")


Assignment = Mapping[Atom, bool]


def evaluate(f: Formula, assignment: Assignment) -> bool:
    """Classical truth-table evaluation under a per-atom assignment."""
    if isinstance(f, Atom):
        try:
            return assignment[f]
        except KeyError:
            raise FormulaError(f"assignment is missing atom {f}") from None
    if isinstance(f, Not):
        return not evaluate(f.inner, assignment)
    if isinstance(f, Implies):
        return (not evaluate(f.left, assignment)) or evaluate(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")


class CompiledFormula:
    """A formula compiled once into a flat node list over the indices of its
    atoms, and its one three-valued evaluator.

    ``atoms`` is ``atoms(f)``; atom ``i`` is bit ``i`` of an assignment's
    masks.  ``nodes`` lists ``(bit, negated, a, b)`` with every child before
    its parent and the root last.  An atom node has its atom's ``bit`` and
    index ``a``; an implication has ``bit`` 0 and its operands' node indices
    ``a`` and ``b``.  Negations fold into the node they negate, which says
    so in ``negated``.
    """

    __slots__ = ("atoms", "nodes")

    def __init__(self, f: Formula):
        self.atoms = atoms(f)
        index = {atom: i for i, atom in enumerate(self.atoms)}
        nodes: list[tuple[int, bool, int, int]] = []

        def emit(node: Formula, negated: bool) -> int:
            while isinstance(node, Not):
                node, negated = node.inner, not negated
            if isinstance(node, Atom):
                i = index[node]
                nodes.append((1 << i, negated, i, 0))
            else:
                left = emit(node.left, False)
                nodes.append((0, negated, left, emit(node.right, False)))
            return len(nodes) - 1

        emit(f, False)
        self.nodes = tuple(nodes)

    def value(self, true: int = 0, false: int = 0,
              ask: Callable[[Atom], bool] | None = None) -> bool | None:
        """Short-circuit Kleene evaluation: atom ``i`` is true when bit ``i``
        of ``true`` is set, false when that of ``false`` is, and otherwise
        ``ask(atom)`` when ``ask`` is given, unknown when it is not.  A bool
        comes back only when every completion of what is known evaluates to
        it; otherwise None.

        The walk is ``evaluate``'s: an implication's right side is reached
        only when its left side is not false.  So with ``ask`` and no masks
        the atoms asked are exactly those ``evaluate`` reads, in its order;
        each answer is kept in the masks, so none is asked twice.
        """
        nodes = self.nodes
        atom_list = self.atoms

        def walk(k: int) -> bool | None:
            nonlocal true, false
            bit, negated, a, b = nodes[k]
            if bit:
                if true & bit:
                    value = True
                elif false & bit:
                    value = False
                elif ask is None:
                    return None
                elif ask(atom_list[a]):
                    true |= bit
                    value = True
                else:
                    false |= bit
                    value = False
            else:
                left = walk(a)
                if left is False:
                    value = True
                else:
                    right = walk(b)
                    if right is True:
                        value = True
                    elif left and right is False:
                        value = False
                    else:
                        return None
            return value is not negated

        return walk(len(nodes) - 1)


def to_text(f: Formula) -> str:
    """Render a formula so that ``parse_formula(to_text(f)) == f``."""
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, Not):
        inner = to_text(f.inner)
        if isinstance(f.inner, Implies):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(f, Implies):
        left = to_text(f.left)
        if isinstance(f.left, Implies):
            left = f"({left})"
        return f"{left} => {to_text(f.right)}"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Parsing.
#
# formula := imp ; imp := or ("=>" imp)? ; or := and ("|" and)* ;
# and := lit ("&" lit)* ; lit := "!" lit | "(" formula ")" | atom ;
# atom := set "|" number set ; set := "{" (ident ("," ident)*)? "}" .
#
# The atom separator is "|<number>" with no space before the number, which
# is what disambiguates it from the boolean "|".

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")
_IDENT_CONT = _IDENT_START | _DIGITS | set(".:-")
_NUMBER_CHARS = _DIGITS | set("./")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "{},()!&":
            out.append(_Token(ch, ch, i))
            i += 1
        elif ch == "=":
            if text.startswith("=>", i):
                out.append(_Token("=>", "=>", i))
                i += 2
            else:
                raise FormulaSyntaxError("expected '=>'", i)
        elif ch == "|":
            j = i + 1
            if j < n and text[j] in _DIGITS:
                k = j
                while k < n and text[k] in _NUMBER_CHARS:
                    k += 1
                try:
                    budget = parse_budget(text[j:k])
                except FormulaError as exc:
                    raise FormulaSyntaxError(str(exc), i) from None
                out.append(_Token("budget", budget, i))
                i = k
            else:
                out.append(_Token("or", "|", i))
                i += 1
        elif ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", None, n))
    return out


class _Parser:
    def __init__(self, text: str, universe: Universe):
        self.tokens = _tokenize(text)
        self.universe = universe
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        self.i += 1
        return tok

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "=>":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek().kind == "or":
            self.take()
            out = disj(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.literal()
        while self.peek().kind == "&":
            self.take()
            out = conj(out, self.literal())
        return out

    def literal(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.take()
            return Not(self.literal())
        if tok.kind == "(":
            self.take()
            inner = self.formula()
            self.take(")")
            return inner
        if tok.kind == "{":
            return self.atom()
        raise FormulaSyntaxError(f"unexpected {tok.kind!r}", tok.pos)

    def atom(self) -> Atom:
        lhs = self.attr_set()
        tok = self.peek()
        if tok.kind == "or":
            raise FormulaSyntaxError(
                "missing budget: atoms are written 'SET |<number> SET'", tok.pos
            )
        budget = self.take("budget").value
        rhs = self.attr_set()
        return Atom(lhs, rhs, budget)

    def attr_set(self) -> AttrSet:
        self.take("{")
        names: list[str] = []
        if self.peek().kind == "ident":
            names.append(self.take().value)
            while self.peek().kind == ",":
                self.take()
                names.append(self.take("ident").value)
        self.take("}")
        mask = 0
        for name in names:
            if name not in self.universe:
                raise UnknownAttributeError(name)
            mask |= 1 << self.universe.index(name)
        return AttrSet(self.universe, mask)


def _parse_with(rule, text: str, universe: Universe):
    parser = _Parser(text, universe)
    out = rule(parser)
    parser.take("end")
    return out


def parse_formula(text: str, universe: Universe) -> Formula:
    return _parse_with(_Parser.formula, text, universe)


# The shape premise files are written in, ``SET |<int>[/<int>] SET`` with
# ASCII names and blanks, matched whole.  Any other text, and any match
# naming an unknown attribute or dividing by zero, goes to the grammar
# parser, which alone reports errors.
_NAME = r"[A-Za-z_][A-Za-z0-9_.:-]*"
_SET = rf"[ \t]*\{{[ \t]*({_NAME}(?:[ \t]*,[ \t]*{_NAME})*)?[ \t]*\}}[ \t]*"
_PLAIN_ATOM = re.compile(rf"{_SET}\|([0-9]+)(?:/([0-9]+))?{_SET}")


def _plain_mask(names: str | None, index: dict[str, int]) -> int | None:
    """The mask of comma-separated ``names``; None if one is unknown."""
    mask = 0
    for name in names.split(",") if names else ():
        i = index.get(name.strip())
        if i is None:
            return None
        mask |= 1 << i
    return mask


def parse_atom(text: str, universe: Universe) -> Atom:
    match = _PLAIN_ATOM.fullmatch(text)
    if match is not None:
        lhs, num, den, rhs = match.groups()
        lhs_mask = _plain_mask(lhs, universe._index)
        rhs_mask = _plain_mask(rhs, universe._index)
        den = 1 if den is None else int(den)
        if lhs_mask is not None and rhs_mask is not None and den:
            return Atom(AttrSet(universe, lhs_mask), AttrSet(universe, rhs_mask),
                        Fraction(int(num), den))
    return _parse_with(_Parser.atom, text, universe)


def parse_attr_set(text: str, universe: Universe) -> AttrSet:
    return _parse_with(_Parser.attr_set, text, universe)
