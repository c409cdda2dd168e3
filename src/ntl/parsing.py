"""Parser and printer for the group/action text format.

Grammar (whitespace-insensitive, "#" starts a line comment):

    file    := (group | action)+
    group   := "group" NAME "{" "gens:" IDENT+ ";" ["rels:" word ("," word)* ";"] "}"
    action  := "action" NAME "{" "from:" NAME ";" "to:" NAME ";"
               (IDENT "=>" "(" IDENT "->" word ("," IDENT "->" word)* ")" ";")+ "}"
    word    := factor+
    factor  := (IDENT | "(" word ")") ["^" SIGNED_INT]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import IncompleteMap, PresentationSyntaxError, UnknownGenerator
from .words import Presentation, Word

# One alternative per token kind, a "#" comment being space.  "=>" and "->"
# come before "-", and "2a" is the integer 2, then the identifier a.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+|\#[^\n]*)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>=>|->|[{}();,^:-])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sym" | "eof"
    value: str
    line: int
    column: int


@dataclass(frozen=True)
class ActionSpec:
    """Generator-level action data: actor generator -> target generator -> word
    over the target's generators."""

    name: str
    actor: str
    target: str
    generator_map: dict[str, dict[str, Word]]


def tokenize(text: str) -> list[Token]:
    """The tokens of `text` with their lines and columns, then "eof"."""
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while m := _TOKEN.match(text, pos):
        if m.lastgroup == "newline":
            line, line_start = line + 1, m.end()
        elif m.lastgroup != "space":
            tokens.append(Token(m.lastgroup, m.group(), line,
                                pos - line_start + 1))
        pos = m.end()
    if pos < len(text):
        raise PresentationSyntaxError(
            f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: Token | None = None):
        t = tok or self.peek()
        raise PresentationSyntaxError(message, t.line, t.column)

    def expect_sym(self, value: str) -> Token:
        t = self.next()
        if t.kind != "sym" or t.value != value:
            self.fail(f"expected {value!r}, found {t.value!r}", t)
        return t

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected {what}, found {t.value!r}", t)
        return t

    def expect_keyword(self, word: str):
        t = self.expect_ident(f"keyword {word!r}")
        if t.value != word:
            self.fail(f"expected keyword {word!r}, found {t.value!r}", t)
        self.expect_sym(":")

    # -- words ----------------------------------------------------------------

    def parse_word(self, gen_index: dict[str, int], owner: str) -> Word:
        w = self._parse_factor(gen_index, owner)
        while self.peek().kind == "ident" or (
                self.peek().kind == "sym" and self.peek().value == "("):
            w = w * self._parse_factor(gen_index, owner)
        return w

    def _parse_factor(self, gen_index: dict[str, int], owner: str) -> Word:
        t = self.next()
        if t.kind == "ident":
            if t.value not in gen_index:
                raise UnknownGenerator(
                    f"unknown generator {t.value!r} in {owner} "
                    f"(line {t.line}, column {t.column})")
            base = Word.gen(gen_index[t.value])
        elif t.kind == "sym" and t.value == "(":
            base = self.parse_word(gen_index, owner)
            self.expect_sym(")")
        else:
            self.fail("expected a generator or '('", t)
        if self.peek().kind == "sym" and self.peek().value == "^":
            self.next()
            sign = 1
            if self.peek().kind == "sym" and self.peek().value == "-":
                self.next()
                sign = -1
            t = self.next()
            if t.kind != "int":
                self.fail("expected an integer exponent", t)
            base = base ** (sign * int(t.value))
        return base

    # -- blocks ----------------------------------------------------------------

    def parse_group_block(self) -> Presentation:
        name = self.expect_ident("group name").value
        self.expect_sym("{")
        self.expect_keyword("gens")
        gen_index: dict[str, int] = {}
        while self.peek().kind == "ident":
            t = self.next()
            if t.value in gen_index:
                self.fail(f"duplicate generator in group {name!r}", t)
            gen_index[t.value] = len(gen_index)
        if not gen_index:
            self.fail("a group needs at least one generator")
        self.expect_sym(";")
        relators: list[Word] = []
        if self.peek().kind == "ident" and self.peek().value == "rels":
            self.expect_keyword("rels")
            relators.append(self.parse_word(gen_index, f"group {name!r}"))
            while self.peek().kind == "sym" and self.peek().value == ",":
                self.next()
                relators.append(self.parse_word(gen_index, f"group {name!r}"))
            self.expect_sym(";")
        self.expect_sym("}")
        return Presentation(name, tuple(gen_index), tuple(relators))

    def parse_action_block(
            self, lookup: Callable[[str, Token], Presentation]) -> ActionSpec:
        """Parse an action block after its keyword, resolving the names
        after `from:` and `to:` through `lookup` as they are read."""
        name = self.expect_ident("action name").value
        self.expect_sym("{")
        self.expect_keyword("from")
        t = self.expect_ident("group name")
        source = lookup(t.value, t)
        self.expect_sym(";")
        self.expect_keyword("to")
        t = self.expect_ident("group name")
        target = lookup(t.value, t)
        self.expect_sym(";")
        tgt_index = {g: i for i, g in enumerate(target.generators)}
        gmap: dict[str, dict[str, Word]] = {}
        while self.peek().kind == "ident":
            t = self.next()
            actor_gen = t.value
            if actor_gen not in source.generators:
                raise UnknownGenerator(
                    f"unknown acting generator {actor_gen!r} in action "
                    f"{name!r} (line {t.line}, column {t.column})")
            if actor_gen in gmap:
                self.fail(f"duplicate block for generator {actor_gen!r}", t)
            self.expect_sym("=>")
            self.expect_sym("(")
            images: dict[str, Word] = {}
            while True:
                t = self.next()
                if t.kind != "ident":
                    self.fail("expected a target generator", t)
                tgen = t.value
                if tgen not in tgt_index:
                    raise UnknownGenerator(
                        f"unknown target generator {tgen!r} in action "
                        f"{name!r} (line {t.line}, column {t.column})")
                if tgen in images:
                    self.fail(f"duplicate image for generator {tgen!r}", t)
                self.expect_sym("->")
                images[tgen] = self.parse_word(
                    tgt_index, f"action {name!r}")
                if self.peek().kind == "sym" and self.peek().value == ",":
                    self.next()
                    continue
                break
            self.expect_sym(")")
            self.expect_sym(";")
            gmap[actor_gen] = images
        self.expect_sym("}")
        spec = ActionSpec(name, source.name, target.name, gmap)
        _check_complete(spec, source, target)
        return spec


def _check_complete(spec: ActionSpec, source: Presentation,
                    target: Presentation):
    missing = [g for g in source.generators if g not in spec.generator_map]
    if missing:
        raise IncompleteMap(
            f"action {spec.name!r} gives no images for acting "
            f"generator(s) {', '.join(missing)}")
    for agen, images in spec.generator_map.items():
        lost = [g for g in target.generators if g not in images]
        if lost:
            raise IncompleteMap(
                f"action {spec.name!r}, generator {agen!r}: missing "
                f"image(s) for {', '.join(lost)}")


def parse_words_text(text: str, p: Presentation) -> list[Word]:
    """Parse a comma-separated list of words over a presentation's
    generators (the CLI's subgroup-word syntax)."""
    parser = _Parser(tokenize(text))
    gen_index = {g: i for i, g in enumerate(p.generators)}
    words = [parser.parse_word(gen_index, f"group {p.name!r}")]
    while parser.peek().kind == "sym" and parser.peek().value == ",":
        parser.next()
        words.append(parser.parse_word(gen_index, f"group {p.name!r}"))
    if parser.peek().kind != "eof":
        parser.fail("trailing input after the word list")
    return words


def parse_file(text: str,
               resolver: Callable[[str], Presentation] | None = None,
               ) -> tuple[dict[str, Presentation], list[ActionSpec]]:
    """Parse a mixed file of group and action blocks.

    Actions may reference groups defined in the same file; `resolver` is
    consulted for any other name (typically the catalog).
    """
    tokens = tokenize(text)
    p = _Parser(tokens)
    groups: dict[str, Presentation] = {}
    action_spans: list[int] = []
    while p.peek().kind != "eof":
        t = p.expect_ident("'group' or 'action'")
        if t.value == "group":
            g = p.parse_group_block()
            if g.name in groups:
                p.fail(f"group {g.name!r} defined twice", t)
            groups[g.name] = g
        elif t.value == "action":
            action_spans.append(p.pos)
            _skip_block(p)
        else:
            p.fail("expected 'group' or 'action'", t)

    def lookup(name: str, tok: Token) -> Presentation:
        if name in groups:
            return groups[name]
        if resolver is not None:
            return resolver(name)
        raise PresentationSyntaxError(f"unknown group {name!r}",
                                      tok.line, tok.column)

    actions: list[ActionSpec] = []
    for start in action_spans:
        q = _Parser(tokens)
        q.pos = start
        actions.append(q.parse_action_block(lookup))
    return groups, actions


def _skip_block(p: _Parser):
    p.expect_ident("action name")
    p.expect_sym("{")
    depth = 1
    while depth:
        t = p.next()
        if t.kind == "eof":
            p.fail("unterminated block", t)
        if t.kind == "sym" and t.value == "{":
            depth += 1
        elif t.kind == "sym" and t.value == "}":
            depth -= 1


def print_presentation(p: Presentation) -> str:
    lines = [f"group {p.name} {{", f"  gens: {' '.join(p.generators)};"]
    if p.relators:
        rels = ", ".join(p.word_str(w) for w in p.relators)
        lines.append(f"  rels: {rels};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_action(spec: ActionSpec, source: Presentation,
                 target: Presentation) -> str:
    lines = [f"action {spec.name} {{",
             f"  from: {spec.actor};",
             f"  to: {spec.target};"]
    for agen in source.generators:
        images = spec.generator_map[agen]
        inner = ", ".join(
            f"{tgen} -> {target.word_str(images[tgen])}"
            for tgen in target.generators)
        lines.append(f"  {agen} => ({inner});")
    lines.append("}")
    return "\n".join(lines) + "\n"
