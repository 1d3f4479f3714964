"""An Alchemy-style text syntax for MLN programs and evidence databases.

The syntax mirrors the fragment of Alchemy's input language used by the
paper's Figure 1:

Program files (``.mln``)::

    // predicate declarations: closed-world (evidence-only) predicates are
    // marked with a leading '*'
    *wrote(author, paper)
    *refers(paper, paper)
    cat(paper, category)

    // weighted rules: a leading number is the weight; a trailing '.' marks
    // a hard rule (infinite weight)
    5   cat(p, c1), cat(p, c2) => c1 = c2
    1   wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
    2   cat(p1, c), refers(p1, p2) => cat(p2, c)
    paper(p, u) => EXIST x wrote(x, p).
    -1  cat(p, "Networking")

Evidence files (``.db``)::

    wrote(Joe, P1)
    refers(P1, P3)
    !cat(P3, "AI")

Conventions follow Alchemy: tokens starting with an upper-case letter, a
digit or a quote are constants, everything else is a variable.  ``,`` and
``^`` denote conjunction, ``v`` denotes disjunction, ``!`` negation, ``=>``
implication, ``EXIST x`` existential quantification and ``=`` / ``!=``
(in)equality between terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.logic.clauses import HARD_WEIGHT
from repro.logic.formulas import (
    Conjunction,
    Disjunction,
    Equality,
    Exists,
    Formula,
    Implication,
    Negation,
    PredicateFormula,
)
from repro.logic.predicates import Predicate
from repro.logic.terms import Term, Variable, term_from_token


class MLNSyntaxError(ValueError):
    """Raised when a program or evidence file cannot be parsed.

    ``line_number`` and ``column`` (both 1-based) locate the offending
    ``token`` in the input when they are known; the message reads
    ``line N: <what is wrong> (column C)``.
    """

    def __init__(
        self,
        message: str,
        line_number: Optional[int] = None,
        column: Optional[int] = None,
        token: Optional[str] = None,
    ) -> None:
        prefix = f"line {line_number}: " if line_number is not None else ""
        suffix = f" (column {column})" if column is not None else ""
        super().__init__(prefix + message + suffix)
        self.line_number = line_number
        self.column = column
        self.token = token


@dataclass
class ParsedRule:
    """A rule as read from the program text, before clausal conversion."""

    formula: Formula
    weight: float
    name: Optional[str] = None
    source_line: Optional[int] = None

    @property
    def is_hard(self) -> bool:
        return self.weight == HARD_WEIGHT


@dataclass
class ParsedEvidence:
    """A single evidence atom with its truth value."""

    predicate_name: str
    arguments: Tuple[str, ...]
    truth: bool = True


@dataclass
class ParsedProgram:
    """The result of parsing a program file."""

    predicates: List[Predicate] = field(default_factory=list)
    rules: List[ParsedRule] = field(default_factory=list)


_TOKEN_PATTERN = re.compile(
    r"""
    \s*(
        =>            |   # implication
        !=            |   # inequality
        [(),=!.^]     |   # punctuation
        "[^"]*"       |   # double-quoted constant
        '[^']*'       |   # single-quoted constant
        [-+]?\d+\.\d+ |   # float
        [-+]?\d+      |   # integer
        [A-Za-z_][A-Za-z0-9_\-]*   # identifier
    )
    """,
    re.VERBOSE,
)


def _tokenize(
    text: str, line_number: Optional[int] = None, column: int = 1
) -> Tuple[List[str], List[int]]:
    """The tokens of ``text`` and their columns (``text`` starts at ``column``)."""
    tokens: List[str] = []
    columns: List[int] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            if text[position:].strip() == "":
                break
            raise MLNSyntaxError(
                f"unexpected character {text[position]!r} in {text.strip()!r}",
                line_number,
                column + position,
                text[position],
            )
        tokens.append(match.group(1))
        columns.append(column + match.start(1))
        position = match.end()
    return tokens, columns


class _TokenStream:
    """A tiny cursor over a token list with peek/expect helpers."""

    def __init__(
        self,
        tokens: Sequence[str],
        line_number: Optional[int] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> None:
        self._tokens = list(tokens)
        self._columns = list(columns) if columns is not None else None
        self._position = 0
        self._line_number = line_number

    def peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise MLNSyntaxError("unexpected end of rule", self._line_number)
        self._position += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token != expected:
            raise self.error(f"expected {expected!r} but found {token!r}")
        return token

    def exhausted(self) -> bool:
        return self._position >= len(self._tokens)

    def error(self, message: str, located: bool = True) -> MLNSyntaxError:
        """An error located at the token consumed last (if any and ``located``)."""
        index = self._position - 1
        if not located or index < 0 or self._columns is None:
            return MLNSyntaxError(message, self._line_number)
        return MLNSyntaxError(
            message, self._line_number, self._columns[index], self._tokens[index]
        )


class MLNParser:
    """Parser for MLN program and evidence files.

    The parser needs to know predicate declarations before it can parse rule
    bodies (to check arities and infer argument types), so declarations must
    precede the rules that use them — which is also Alchemy's requirement.
    """

    def __init__(self) -> None:
        self._predicates: Dict[str, Predicate] = {}

    # ------------------------------------------------------------------
    # Program files
    # ------------------------------------------------------------------

    def parse_program(self, text: str) -> ParsedProgram:
        """Parse a full program (declarations + rules) from text."""
        program = ParsedProgram()
        rule_counter = 0
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            if self._looks_like_declaration(line):
                predicate = self._parse_declaration(line, line_number)
                self._predicates[predicate.name] = predicate
                program.predicates.append(predicate)
                continue
            rule_counter += 1
            rule = self._parse_rule(
                line,
                line_number,
                default_name=f"R{rule_counter}",
                column=_column_of(raw_line, line),
            )
            program.rules.append(rule)
        return program

    def parse_rule_text(self, text: str, weight: Optional[float] = None) -> ParsedRule:
        """Parse a single rule body (used by tests and programmatic callers).

        When ``weight`` is given it overrides (or supplies) the rule weight,
        so the text does not need a leading weight or a trailing period.
        """
        line = _strip_comment(text).strip()
        rule = self._parse_rule(
            line, None, default_name=None, allow_missing_weight=weight is not None
        )
        if weight is not None:
            rule.weight = weight
        return rule

    def _looks_like_declaration(self, line: str) -> bool:
        candidate = line.lstrip("*").strip()
        if not candidate or candidate.endswith("."):
            return False
        match = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)", candidate)
        if match is None:
            return False
        name = match.group(1)
        arguments = _split_arguments(match.group(2))
        # A declaration's arguments are bare lower-case type names; anything
        # with quotes, capitals or digits is a ground atom (a rule), and a
        # re-mention of a known predicate is a rule as well.
        if name in self._predicates:
            return False
        return all(re.fullmatch(r"[a-z_][A-Za-z0-9_]*", argument) for argument in arguments)

    def _parse_declaration(self, line: str, line_number: int) -> Predicate:
        closed_world = line.startswith("*")
        body = line.lstrip("*").strip()
        match = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)", body)
        if match is None:
            raise MLNSyntaxError(f"malformed predicate declaration {line!r}", line_number)
        name = match.group(1)
        arg_types = _split_arguments(match.group(2))
        if any(not argument for argument in arg_types):
            raise MLNSyntaxError(f"empty argument type in declaration {line!r}", line_number)
        return Predicate(name, arg_types, closed_world)

    def _parse_rule(
        self,
        line: str,
        line_number: Optional[int],
        default_name: Optional[str],
        allow_missing_weight: bool = False,
        column: int = 1,
    ) -> ParsedRule:
        weight, body, is_hard = _split_weight(line, line_number)
        tokens, columns = _tokenize(body, line_number, column + line.find(body))
        stream = _TokenStream(tokens, line_number, columns)
        formula = self._parse_implication(stream)
        if not stream.exhausted():
            raise MLNSyntaxError(
                f"trailing tokens after rule: {tokens[stream._position:]}",
                line_number,
                columns[stream._position],
                tokens[stream._position],
            )
        final_weight = HARD_WEIGHT if is_hard else weight
        if final_weight is None:
            if not allow_missing_weight:
                raise MLNSyntaxError(
                    "rule must either start with a weight or end with '.'", line_number
                )
            final_weight = 0.0
        return ParsedRule(formula, final_weight, default_name, line_number)

    # Grammar: implication := disjunction ('=>' disjunction)?
    def _parse_implication(self, stream: _TokenStream) -> Formula:
        left = self._parse_disjunction(stream)
        if stream.peek() == "=>":
            stream.next()
            right = self._parse_disjunction(stream)
            return Implication(left, right)
        return left

    # disjunction := conjunction ('v' conjunction)*
    def _parse_disjunction(self, stream: _TokenStream) -> Formula:
        operands = [self._parse_conjunction(stream)]
        while stream.peek() == "v":
            stream.next()
            operands.append(self._parse_conjunction(stream))
        if len(operands) == 1:
            return operands[0]
        return Disjunction(tuple(operands))

    # conjunction := unary ((',' | '^') unary)*
    def _parse_conjunction(self, stream: _TokenStream) -> Formula:
        operands = [self._parse_unary(stream)]
        while stream.peek() in (",", "^"):
            stream.next()
            operands.append(self._parse_unary(stream))
        if len(operands) == 1:
            return operands[0]
        return Conjunction(tuple(operands))

    def _parse_unary(self, stream: _TokenStream) -> Formula:
        token = stream.peek()
        if token is None:
            raise stream.error("unexpected end of rule", located=False)
        if token == "!":
            stream.next()
            return Negation(self._parse_unary(stream))
        if token == "(":
            stream.next()
            inner = self._parse_implication(stream)
            stream.expect(")")
            return inner
        if token.upper() == "EXIST":
            stream.next()
            variable_token = stream.next()
            variable = term_from_token(variable_token)
            if not isinstance(variable, Variable):
                raise stream.error(
                    f"existential quantifier expects a variable, got {variable_token!r}"
                )
            body = self._parse_unary(stream)
            return Exists(variable, body)
        return self._parse_atom_or_equality(stream)

    def _parse_atom_or_equality(self, stream: _TokenStream) -> Formula:
        first = stream.next()
        if stream.peek() == "(" and first in self._predicates:
            return self._parse_atom(first, stream)
        if stream.peek() == "(" and first not in self._predicates:
            raise stream.error(f"unknown predicate {first!r}")
        operator = stream.peek()
        if operator in ("=", "!="):
            stream.next()
            second = stream.next()
            left = term_from_token(first)
            right = term_from_token(second)
            equality = Equality(left, right)
            return equality if operator == "=" else Negation(equality)
        raise stream.error(f"expected an atom or an equality, found {first!r}")

    def _parse_atom(self, predicate_name: str, stream: _TokenStream) -> PredicateFormula:
        predicate = self._predicates[predicate_name]
        stream.expect("(")
        arguments: List[Term] = []
        while True:
            token = stream.next()
            arguments.append(term_from_token(token))
            separator = stream.next()
            if separator == ")":
                break
            if separator != ",":
                raise stream.error(
                    f"expected ',' or ')' in arguments of {predicate_name}, found {separator!r}"
                )
        if len(arguments) != predicate.arity:
            raise stream.error(
                f"predicate {predicate_name} expects {predicate.arity} arguments, "
                f"got {len(arguments)}"
            )
        return PredicateFormula(predicate, tuple(arguments))

    # ------------------------------------------------------------------
    # Evidence files
    # ------------------------------------------------------------------

    def parse_evidence(self, text: str) -> List[ParsedEvidence]:
        """Parse an evidence database (one ground atom per line).

        Atoms of declared predicates are checked against their arity;
        undeclared predicates are accepted as written.
        """
        return [
            ParsedEvidence(name, arguments, truth)
            for name, arguments, truth in self.evidence_rows(text, declared_only=False)
        ]

    def evidence_rows(
        self, text: str, declared_only: bool = True
    ) -> Iterator[Tuple[str, Tuple[str, ...], bool]]:
        """``(predicate name, arguments, truth)`` per evidence line, in order.

        The streaming form of :meth:`parse_evidence`: no object per fact
        beyond the argument tuple.  With ``declared_only`` an atom of an
        undeclared predicate is an error.  Every error is an
        :class:`MLNSyntaxError` locating the offending token.
        """
        predicates = self._predicates
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            match = _EVIDENCE_ATOM.fullmatch(line)
            if match is None:
                raise MLNSyntaxError(
                    f"malformed evidence atom {line!r}",
                    line_number,
                    _column_of(raw_line, line),
                    line,
                )
            negated, name, body = match.groups()
            arguments = _split_arguments(body, unquote=True)
            predicate = predicates.get(name)
            if predicate is None:
                if declared_only:
                    raise MLNSyntaxError(
                        f"unknown predicate {name!r}",
                        line_number,
                        _column_of(raw_line, line) + match.start(2),
                        name,
                    )
            elif len(arguments) != predicate.arity:
                atom = line[match.start(2) :]
                raise MLNSyntaxError(
                    f"evidence atom {atom!r} has {len(arguments)} arguments, "
                    f"predicate {name} expects {predicate.arity}",
                    line_number,
                    _column_of(raw_line, line) + match.start(2),
                    atom,
                )
            yield name, arguments, not negated


#: One evidence argument: a quoted constant or one character that is not a
#: quote, then anything but a parenthesis or comma.  A quote inside a word
#: (``O'Brien``) is part of the word.
_EVIDENCE_ARGUMENT = r"""\s*(?:(?:"[^"]*"|'[^']*'|[^()"',\s])[^(),]*)?"""

#: One evidence line (comments stripped, whitespace trimmed): an optional
#: ``!``, the predicate name and the argument text, in which parentheses
#: may appear only inside quotes.
_EVIDENCE_ATOM = re.compile(
    rf"""(!?)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(({_EVIDENCE_ARGUMENT}(?:,{_EVIDENCE_ARGUMENT})*)\)"""
)


def _column_of(raw_line: str, line: str) -> int:
    """1-based column where the stripped ``line`` starts in ``raw_line``."""
    return raw_line.find(line) + 1


def _opens_quote(text: str, index: int) -> bool:
    """Whether the quote at ``text[index]`` starts a quoted constant.

    Only a quote at the start of an argument does: at the start of ``text``
    or after ``(``, ``,`` or ``=``, blanks skipped.  An apostrophe inside a
    word (``O'Brien``) is part of the word.
    """
    before = text[:index].rstrip()
    return not before or before[-1] in "(,="


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``//`` or ``#`` outside quotes."""
    if "#" not in line and "//" not in line:
        return line
    quote = None
    for index, char in enumerate(line):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'" and _opens_quote(line, index):
            quote = char
        elif char == "#" or line.startswith("//", index):
            return line[:index]
    return line


def _split_arguments(text: str, unquote: bool = False) -> Tuple[str, ...]:
    """Comma-separated arguments, stripped; commas inside quotes do not split.

    With ``unquote`` a quoted argument loses its quotes.
    """
    if '"' not in text and "'" not in text:
        return tuple(map(str.strip, text.split(",")))
    arguments: List[str] = []
    start = 0
    quote = None
    for index, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'" and _opens_quote(text, index):
            quote = char
        elif char == ",":
            arguments.append(text[start:index].strip())
            start = index + 1
    arguments.append(text[start:].strip())
    if unquote:
        return tuple(map(_unquote, arguments))
    return tuple(arguments)


def _unquote(token: str) -> str:
    if len(token) >= 2 and token[0] in "\"'" and token[-1] == token[0]:
        return token[1:-1]
    return token


def _split_weight(
    line: str, line_number: Optional[int]
) -> Tuple[Optional[float], str, bool]:
    """Split a rule line into (weight, body, is_hard)."""
    is_hard = False
    stripped = line.strip()
    if stripped.endswith("."):
        is_hard = True
        stripped = stripped[:-1].strip()
    match = re.match(r"^([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)\s+(.*)$", stripped)
    weight: Optional[float] = None
    body = stripped
    if match is not None and not is_hard:
        weight = float(match.group(1))
        body = match.group(2)
    elif match is not None and is_hard:
        # A hard rule may still carry a redundant leading weight; ignore it.
        body = match.group(2)
    if not body:
        raise MLNSyntaxError("rule has no body", line_number)
    return weight, body, is_hard


def parse_program(text: str) -> ParsedProgram:
    """Module-level convenience wrapper around :class:`MLNParser`."""
    return MLNParser().parse_program(text)


def parse_evidence(text: str, program: Optional[ParsedProgram] = None) -> List[ParsedEvidence]:
    """Parse evidence text, optionally validating arities against a program."""
    parser = MLNParser()
    if program is not None:
        for predicate in program.predicates:
            parser._predicates[predicate.name] = predicate
    return parser.parse_evidence(text)
