"""Recursive-descent parser for the analyzed language.

Surface syntax (C-like, semicolon-terminated):

    fn foo(a, b) {
        ptr = malloc();
        *ptr = a;
        if (a != 0) { bar(ptr); } else { qux(ptr); }
        f = *ptr;
        while (b < 10) { b = b + 1; }
        return f;
    }

Notes:

- ``*p = e;`` and ``**p = e;`` are stores of dereference depth 1 and 2,
  realizing the paper's ``*(v1, k) <- v2`` statement.
- ``null`` is the constant 0 used as the null pointer.
- Comments start with ``//`` or ``#`` and run to end of line.
- There are no declarations; variables are introduced by assignment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.lang import ast
from repro.robust.faults import fault_point


class ParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
        # Name of the function being parsed when the error occurred,
        # filled in by tolerant parsing for diagnostic attribution.
        self.unit = ""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*/%<>!=;,(){}&])
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"fn", "if", "else", "while", "return", "true", "false", "null"})


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Token({self.kind!r}, {self.text!r}, line={self.line})"


def _tokenize(
    source: str, errors: Optional[List[ParseError]] = None, line: int = 1
) -> List[_Token]:
    """Tokenize, numbering the source's first line ``line``; with an
    ``errors`` list, bad characters are recorded and skipped instead of
    raising (tolerant mode)."""
    tokens: List[_Token] = []
    pos = 0
    length = len(source)
    while pos < length:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            error = ParseError(f"unexpected character {source[pos]!r}", line)
            if errors is None:
                raise error
            errors.append(error)
            pos += 1
            continue
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            line += match.group(0).count("\n")
            continue
        kind = match.lastgroup or "op"
        text = match.group(0)
        if kind == "name" and text in _KEYWORDS:
            kind = "kw"
        tokens.append(_Token(kind, text, line))
    tokens.append(_Token("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._advance()
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.line)
        return token

    def _expect_name(self) -> _Token:
        token = self._advance()
        if token.kind != "name":
            raise ParseError(f"expected identifier, found {token.text!r}", token.line)
        return token

    def _at(self, text: str) -> bool:
        return self._peek().text == text

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        functions: List[ast.FuncDef] = []
        while self._peek().kind != "eof":
            functions.append(self._fndef())
        return ast.Program(functions)

    def parse_program_tolerant(self, errors: List[ParseError]) -> ast.Program:
        """Parse with recovery at function granularity: a malformed
        function is recorded as an error and skipped, parsing resyncs at
        the next top-level ``fn``, and every well-formed function is
        kept.  ``fn`` is a keyword with no nested use in the grammar, so
        any ``fn`` token is a reliable top-level resynchronisation
        point."""
        functions: List[ast.FuncDef] = []
        while self._peek().kind != "eof":
            start_pos = self._pos
            # Best-effort name of the function about to be parsed, for
            # error attribution and targeted fault injection.
            unit = self._peek(1).text if self._peek().text == "fn" else ""
            try:
                fault_point("parse", unit)
                functions.append(self._fndef())
            except ParseError as error:
                error.unit = unit
                errors.append(error)
                self._resync(start_pos)
            except RecursionError:
                error = ParseError(
                    f"function {unit or '<anonymous>'!s} nests too deeply",
                    self._peek().line,
                )
                error.unit = unit
                errors.append(error)
                self._resync(start_pos)
            except Exception as cause:  # injected faults, internal bugs
                error = ParseError(
                    f"internal parser failure in "
                    f"{unit or '<anonymous>'}: {type(cause).__name__}: {cause}",
                    self._peek().line,
                )
                error.unit = unit
                errors.append(error)
                self._resync(start_pos)
        return ast.Program(functions)

    def _resync(self, start_pos: int) -> None:
        """Skip to the next top-level ``fn`` strictly after the point
        where the failed parse attempt started."""
        self._pos = max(self._pos, start_pos + 1)
        while self._peek().kind != "eof" and self._peek().text != "fn":
            self._advance()

    def _fndef(self) -> ast.FuncDef:
        start = self._expect("fn")
        name = self._expect_name().text
        self._expect("(")
        params: List[str] = []
        if not self._at(")"):
            params.append(self._expect_name().text)
            while self._at(","):
                self._advance()
                params.append(self._expect_name().text)
        self._expect(")")
        body = self._block()
        return ast.FuncDef(name, params, body, line=start.line)

    def _block(self) -> ast.Block:
        self._expect("{")
        stmts: List[ast.Stmt] = []
        while not self._at("}"):
            stmts.append(self._stmt())
        self._expect("}")
        return ast.Block(stmts)

    def _stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.text == "if":
            return self._if_stmt()
        if token.text == "while":
            return self._while_stmt()
        if token.text == "return":
            self._advance()
            value: Optional[ast.Expr] = None
            if not self._at(";"):
                value = self._expr()
            self._expect(";")
            return ast.ReturnStmt(value, line=token.line)
        if token.text == "*":
            return self._store_stmt()
        if token.kind == "name":
            if self._peek(1).text == "=":
                name = self._advance().text
                self._advance()  # '='
                value = self._expr()
                self._expect(";")
                return ast.AssignStmt(name, value, line=token.line)
            if self._peek(1).text == "(":
                expr = self._expr()
                self._expect(";")
                return ast.ExprStmt(expr, line=token.line)
        raise ParseError(f"unexpected token {token.text!r}", token.line)

    def _if_stmt(self) -> ast.IfStmt:
        token = self._expect("if")
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        then_block = self._block()
        else_block: Optional[ast.Block] = None
        if self._at("else"):
            self._advance()
            if self._at("if"):
                nested = self._if_stmt()
                else_block = ast.Block([nested])
            else:
                else_block = self._block()
        return ast.IfStmt(cond, then_block, else_block, line=token.line)

    def _while_stmt(self) -> ast.WhileStmt:
        token = self._expect("while")
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        body = self._block()
        return ast.WhileStmt(cond, body, line=token.line)

    def _store_stmt(self) -> ast.StoreStmt:
        token = self._peek()
        depth = 0
        while self._at("*"):
            self._advance()
            depth += 1
        pointer = self._primary()
        self._expect("=")
        value = self._expr()
        self._expect(";")
        return ast.StoreStmt(pointer, depth, value, line=token.line)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        lhs = self._and_expr()
        while self._at("||"):
            token = self._advance()
            rhs = self._and_expr()
            lhs = ast.Binary("||", lhs, rhs, line=token.line)
        return lhs

    def _and_expr(self) -> ast.Expr:
        lhs = self._cmp_expr()
        while self._at("&&"):
            token = self._advance()
            rhs = self._cmp_expr()
            lhs = ast.Binary("&&", lhs, rhs, line=token.line)
        return lhs

    _CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

    def _cmp_expr(self) -> ast.Expr:
        lhs = self._add_expr()
        while self._peek().text in self._CMP_OPS:
            token = self._advance()
            rhs = self._add_expr()
            lhs = ast.Binary(token.text, lhs, rhs, line=token.line)
        return lhs

    def _add_expr(self) -> ast.Expr:
        lhs = self._mul_expr()
        while self._peek().text in ("+", "-"):
            token = self._advance()
            rhs = self._mul_expr()
            lhs = ast.Binary(token.text, lhs, rhs, line=token.line)
        return lhs

    def _mul_expr(self) -> ast.Expr:
        lhs = self._unary_expr()
        while self._peek().text in ("*", "/", "%"):
            token = self._advance()
            rhs = self._unary_expr()
            lhs = ast.Binary(token.text, lhs, rhs, line=token.line)
        return lhs

    def _unary_expr(self) -> ast.Expr:
        token = self._peek()
        if token.text in ("-", "!", "*"):
            self._advance()
            operand = self._unary_expr()
            return ast.Unary(token.text, operand, line=token.line)
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._advance()
        if token.kind == "num":
            return ast.Num(int(token.text), line=token.line)
        if token.text == "true":
            return ast.Num(1, line=token.line)
        if token.text == "false":
            return ast.Num(0, line=token.line)
        if token.text == "null":
            return ast.Num(0, line=token.line)
        if token.kind == "name":
            if self._at("("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._at(")"):
                    args.append(self._expr())
                    while self._at(","):
                        self._advance()
                        args.append(self._expr())
                self._expect(")")
                return ast.Call(token.text, args, line=token.line)
            return ast.Name(token.text, line=token.line)
        if token.text == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        raise ParseError(f"unexpected token {token.text!r} in expression", token.line)


def parse_program(source: str, first_line: int = 1) -> ast.Program:
    """Parse a whole program (one or more ``fn`` definitions) whose
    first line is numbered ``first_line``."""
    return _Parser(_tokenize(source, line=first_line)).parse_program()


def parse_program_tolerant(
    source: str,
) -> Tuple[ast.Program, List[ParseError]]:
    """Parse with per-function error recovery.

    Returns the program built from every well-formed function plus the
    list of errors for the malformed ones.  If *nothing* parses and
    errors were found, the first error is raised — wholly-garbage input
    still fails loudly."""
    errors: List[ParseError] = []
    tokens = _tokenize(source, errors=errors)
    program = _Parser(tokens).parse_program_tolerant(errors)
    if not program.functions and errors:
        raise errors[0]
    return program, errors


def parse_function(source: str, first_line: int = 1) -> ast.FuncDef:
    """Parse exactly one function definition whose first line is
    numbered ``first_line``."""
    functions = parse_program(source, first_line).functions
    if len(functions) != 1:
        raise ParseError(
            f"expected exactly one function, got {len(functions)}", first_line
        )
    return functions[0]
