import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntl.catalog import (CATALOG_CORPUS, catalog_lookup, finite_corpus,
                         realize_entry)
from ntl.errors import (IncompleteMap, PresentationSyntaxError,
                        UnknownCatalogName, UnknownGenerator)
from ntl.parsing import (parse_file, parse_words_text, print_action,
                         print_presentation, tokenize)
from ntl.words import Presentation, Word, commutator, conjugate


def read_group(text):
    """The one group block of `text`, read by `parse_file`."""
    groups, actions = parse_file(text)
    assert len(groups) == 1 and not actions
    return next(iter(groups.values()))


def read_action(text):
    """The one action block of `text`, read by `parse_file` with its
    groups looked up in the catalog."""
    groups, actions = parse_file(
        text, resolver=lambda n: catalog_lookup(n).presentation)
    assert not groups and len(actions) == 1
    return actions[0]


class TestWords:
    def test_merge_and_drop(self):
        w = Word.of([(0, 1), (0, 2), (1, 0), (0, -3), (1, 1)])
        assert w.letters == ((1, 1),)

    def test_inverse(self):
        w = Word.of([(0, 2), (1, -1)])
        assert (~w).letters == ((1, 1), (0, -2))

    def test_power(self):
        a = Word.gen(0)
        assert (a ** 4).letters == ((0, 4),)
        assert (a ** 0).letters == ()
        assert ((a * Word.gen(1)) ** -1).letters == ((1, -1), (0, -1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.sampled_from([-3, -2, -1, 1, 2, 3])),
                    max_size=6),
           st.integers(-9, 9))
    def test_power_is_the_repeated_product(self, pairs, k):
        w = Word.of(pairs)
        step = w if k >= 0 else ~w
        want = Word()
        for _ in range(abs(k)):
            want = want * step
        assert w ** k == want

    def test_power_of_a_huge_exponent_is_one_letter(self):
        # squaring: a^(10^12) is a few dozen products, not 10^12
        assert (Word.gen(0) ** 10 ** 12).letters == ((0, 10 ** 12),)
        assert (Word.gen(0, -2) ** -(10 ** 12)).letters == \
            ((0, 2 * 10 ** 12),)

    def test_commutator_shape(self):
        a, b = Word.gen(0), Word.gen(1)
        assert commutator(a, b).letters == ((0, -1), (1, -1), (0, 1), (1, 1))
        assert conjugate(a, b).letters == ((1, -1), (0, 1), (1, 1))

    def test_exponent_row(self):
        w = Word.of([(0, 2), (1, -1), (0, 3)])
        assert w.exponent_row(3) == [5, -1, 0]

    def test_presentation_validation(self):
        with pytest.raises(UnknownGenerator):
            Presentation("X", ("a", "a"), ())
        with pytest.raises(UnknownGenerator):
            Presentation("X", ("a",), (Word.gen(1),))

    def test_unknown_generator_names_the_first_offending_relator(self):
        with pytest.raises(UnknownGenerator, match=(
                "^relator references generator index 4 but 'X' has only 2 "
                "generators$")):
            Presentation("X", ("a", "b"), (
                Word.gen(1), Word.of([(4, 2), (0, 1)]), Word.gen(9)))
        # A negative index would read as the last generator.
        a, last = Word.gen(0), Word.gen(-1)
        with pytest.raises(UnknownGenerator, match=(
                "^relator references generator index -1 but 'X' has only 2 "
                "generators$")):
            Presentation("X", ("a", "b"), (a ** 2, last ** 3, a * last))


class TestParseGroup:
    def test_c4(self):
        p = read_group("group C4 { gens: a; rels: a^4; }")
        assert p.name == "C4"
        assert p.generators == ("a",)
        assert len(p.relators) == 1
        assert p.relators[0].letters == ((0, 4),)

    def test_s3_shape(self):
        p = read_group("group S3 { gens: a b; rels: a^3, b^2, (a b)^2; }")
        assert p.generators == ("a", "b")
        assert len(p.relators) == 3
        assert p.relators[2].letters == ((0, 1), (1, 1), (0, 1), (1, 1))

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            read_group("group X { gens: a; rels: b^2; }")

    def test_negative_exponent(self):
        p = read_group("group X { gens: a b; rels: a b^-1; }")
        assert p.relators[0].letters == ((0, 1), (1, -1))

    def test_comments_and_whitespace(self):
        text = """
        # leading comment
        group   T {
          gens: a ;   # generators
          rels: a ^ 2 ;
        }
        """
        p = read_group(text)
        assert p.name == "T"
        assert p.relators[0].letters == ((0, 2),)

    def test_error_position(self):
        with pytest.raises(PresentationSyntaxError) as err:
            read_group("group X {\n gens: a;\n rels a^2; }")
        assert err.value.line == 3

    def test_no_relators(self):
        p = read_group("group F { gens: a b; }")
        assert p.relators == ()

    def test_trailing_garbage(self):
        with pytest.raises(PresentationSyntaxError):
            read_group("group X { gens: a; } extra")


class TestTokenize:
    def test_fixed_sample(self):
        text = ("group\tG {\r\n# a comment line\r\n gens: a;\n"
                " rels: (a)^-2, 2a; } => -> # trailing")
        assert [(t.kind, t.value, t.line, t.column)
                for t in tokenize(text)] == [
            ("ident", "group", 1, 1), ("ident", "G", 1, 7),
            ("sym", "{", 1, 9),
            ("ident", "gens", 3, 2), ("sym", ":", 3, 6),
            ("ident", "a", 3, 8), ("sym", ";", 3, 9),
            ("ident", "rels", 4, 2), ("sym", ":", 4, 6),
            ("sym", "(", 4, 8), ("ident", "a", 4, 9), ("sym", ")", 4, 10),
            ("sym", "^", 4, 11), ("sym", "-", 4, 12), ("int", "2", 4, 13),
            ("sym", ",", 4, 14), ("int", "2", 4, 16), ("ident", "a", 4, 17),
            ("sym", ";", 4, 18), ("sym", "}", 4, 20), ("sym", "=>", 4, 22),
            ("sym", "->", 4, 25), ("eof", "", 4, 38)]

    def test_unexpected_character(self):
        with pytest.raises(PresentationSyntaxError) as err:
            tokenize("group G {\n  gens: a!;")
        assert (err.value.line, err.value.column) == (2, 10)
        assert str(err.value) == ("unexpected character '!' "
                                  "(line 2, column 10)")


class TestParseAction:
    def test_inversion(self):
        spec = read_action(
            "action inv { from: C2; to: C4; a => (a -> a^-1); }")
        assert spec.name == "inv"
        assert spec.generator_map["a"]["a"].letters == ((0, -1),)

    def test_squaring_is_syntax_only(self):
        spec = read_action(
            "action sq { from: C5; to: C5; a => (a -> a^2); }")
        assert spec.generator_map["a"]["a"].letters == ((0, 2),)

    def test_incomplete_actor(self):
        with pytest.raises(IncompleteMap):
            read_action("action x { from: S3; to: C2; a => (a -> a); }")

    def test_incomplete_target(self):
        with pytest.raises(IncompleteMap):
            read_action("action x { from: C2; to: S3; a => (a -> a); }")


class TestRoundTrip:
    @pytest.mark.parametrize("name", CATALOG_CORPUS)
    def test_catalog_fixed_point(self, name):
        p = catalog_lookup(name).presentation
        text = print_presentation(p)
        again = read_group(text)
        assert again.generators == p.generators
        assert again.relators == p.relators
        assert print_presentation(again) == text

    @given(st.lists(st.lists(st.tuples(st.integers(0, 2),
                                       st.integers(-4, 4)),
                             min_size=1, max_size=5),
                    min_size=0, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_generated_fixed_point(self, raw):
        rels = tuple(Word.of(letters) for letters in raw)
        rels = tuple(w for w in rels if w.letters)
        p = Presentation("G", ("a", "b", "c"), rels)
        text = print_presentation(p)
        again = read_group(text)
        assert again.relators == p.relators
        assert print_presentation(again) == text

    def test_action_fixed_point(self):
        c2 = catalog_lookup("C2").presentation
        c4 = catalog_lookup("C4").presentation
        spec = read_action(
            "action inv { from: C2; to: C4; a => (a -> a^-1); }")
        text = print_action(spec, c2, c4)
        again = read_action(text)
        assert again.generator_map == spec.generator_map
        assert print_action(again, c2, c4) == text


class TestParseFile:
    def test_groups_and_action(self):
        text = """
        group G { gens: a; rels: a^2; }
        group H { gens: b; rels: b^4; }
        action act { from: G; to: H; a => (b -> b^-1); }
        """
        groups, actions = parse_file(text)
        assert set(groups) == {"G", "H"}
        assert len(actions) == 1
        assert actions[0].actor == "G"
        assert actions[0].target == "H"

    def test_action_before_its_groups(self):
        text = """
        action act { from: G; to: H; a => (b -> b^-1); }
        group G { gens: a; rels: a^2; }
        group H { gens: b; rels: b^4; }
        """
        groups, (spec,) = parse_file(text)
        assert set(groups) == {"G", "H"}
        assert (spec.actor, spec.target) == ("G", "H")
        assert spec.generator_map["a"]["b"].letters == ((0, -1),)

    def test_resolver_for_catalog_names(self):
        text = "action act { from: C2; to: C6; a => (a -> a^-1); }"
        groups, actions = parse_file(
            text, resolver=lambda n: catalog_lookup(n).presentation)
        assert not groups
        assert actions[0].target == "C6"

    def test_unknown_group_without_resolver(self):
        with pytest.raises(PresentationSyntaxError):
            parse_file("action a { from: G; to: H; a => (b -> b); }")

    def test_duplicate_group(self):
        with pytest.raises(PresentationSyntaxError):
            parse_file("group G { gens: a; } group G { gens: b; }")


# One malformed input per message of the parser, with the line and column
# each message gives: (input, error class, message, line, column).
MALFORMED = {
    "name": ("group { gens: a; }", PresentationSyntaxError,
             "expected group name, found '{'", 1, 7),
    "keyword": ("group G { gen: a; }", PresentationSyntaxError,
                "expected keyword 'gens', found 'gen'", 1, 11),
    "factor": ("group G { gens: a; rels: ^2; }", PresentationSyntaxError,
               "expected a generator or '('", 1, 26),
    "exponent": ("group G { gens: a; rels: a^b; }", PresentationSyntaxError,
                 "expected an integer exponent", 1, 28),
    "no-generator": ("group G { gens: ; }", PresentationSyntaxError,
                     "a group needs at least one generator", 1, 17),
    "duplicate-generator": ("group G { gens: a b a; }",
                            PresentationSyntaxError,
                            "duplicate generator in group 'G'", 1, 21),
    "acting-generator": ("action x { from: C2; to: C4; z => (a -> a); }",
                         UnknownGenerator,
                         "unknown acting generator 'z' in action 'x'", 1, 30),
    "duplicate-block": ("action x { from: C2; to: C4; a => (a -> a); "
                        "a => (a -> a); }", PresentationSyntaxError,
                        "duplicate block for generator 'a'", 1, 45),
    "target-token": ("action x { from: C2; to: C4; a => (2 -> a); }",
                     PresentationSyntaxError,
                     "expected a target generator", 1, 36),
    "target-generator": ("action x { from: C2; to: C4; a => (b -> a); }",
                         UnknownGenerator,
                         "unknown target generator 'b' in action 'x'", 1, 36),
    "duplicate-image": ("action x { from: C2; to: C4; "
                        "a => (a -> a, a -> a^-1); }",
                        PresentationSyntaxError,
                        "duplicate image for generator 'a'", 1, 44),
    "unterminated": ("action x {\n  from: C2; to: C4;\n  a => (a -> a);\n",
                     PresentationSyntaxError, "unterminated block", 4, 1),
    # The skip over an action block steps over the nested braces; the
    # block's own parse then meets them.
    "nested-braces": ("action x { from: C2; to: C4; { } }",
                      PresentationSyntaxError, "expected '}', found '{'",
                      1, 30),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_each_parse_error_says_what_and_where(case):
    text, error, message, line, column = MALFORMED[case]
    with pytest.raises(error) as err:
        parse_file(text, resolver=lambda n: catalog_lookup(n).presentation)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {line}, column {column})"
    if error is PresentationSyntaxError:
        assert (err.value.line, err.value.column) == (line, column)


class TestWordsText:
    def test_words_list(self):
        p = catalog_lookup("S3").presentation
        words = parse_words_text("a^2, a b", p)
        assert len(words) == 2
        assert words[1].letters == ((0, 1), (1, 1))

    def test_unknown(self):
        p = catalog_lookup("C2").presentation
        with pytest.raises(UnknownGenerator):
            parse_words_text("z", p)

    def test_trailing_input(self):
        p = catalog_lookup("S3").presentation
        with pytest.raises(PresentationSyntaxError) as err:
            parse_words_text("a b )", p)
        assert str(err.value) == ("trailing input after the word list "
                                  "(line 1, column 5)")
        assert (err.value.line, err.value.column) == (1, 5)


class TestCatalog:
    def test_c6(self):
        e = catalog_lookup("C6")
        assert e.presentation.relators[0].letters == ((0, 6),)
        assert e.known_facts["order"] == 6

    def test_q8_presentation(self):
        e = catalog_lookup("Q8")
        a, b = Word.gen(0), Word.gen(1)
        assert e.presentation.relators == (
            a ** 4, a ** 2 * b ** -2, ~b * a * b * a)
        g = realize_entry(e)
        assert g.order == 8
        assert g.exponent() == 4
        from ntl.groups import derived_subgroup
        assert derived_subgroup(g).order == 2

    def test_z_is_infinite(self):
        e = catalog_lookup("Z")
        assert e.infinite
        assert e.presentation.relators == ()
        assert e.abelian
        assert catalog_lookup("F1") == catalog_lookup("F01") == e

    def test_unknown_names(self):
        for name, text in [
                ("S6", "symmetric groups are cataloged only up to S5"),
                ("X3", "no catalog entry named 'X3'"),
                ("C0", "bad factor order in 'C0'"),
                ("D0", "bad dihedral index in 'D0'"),
                ("S0", "bad symmetric degree in 'S0'"),
                ("F0", "bad free rank in 'F0'"),
                ("Q16", "no catalog entry named 'Q16'")]:
            with pytest.raises(UnknownCatalogName, match=text):
                catalog_lookup(name)

    def test_product_spellings(self):
        # Every spelling gets the group's one name, on the entry and on
        # its presentation alike.
        for spelling, name, order in [
                ("C2xC4", "C2xC4", 8), ("C2x4", "C2xC4", 8),
                ("C02xC4", "C2xC4", 8), ("C06", "C6", 6), ("D03", "D3", 6),
                ("S03", "S3", 6), ("F02", "F2", None)]:
            entry = catalog_lookup(spelling)
            assert entry.name == entry.presentation.name == name, spelling
            assert entry.known_facts.get("order") == order, spelling

    def test_cyclic_groups_are_one_factor_products(self):
        a = Word.gen(0)
        for name, order in [("C1", 1), ("C6", 6), ("S1", 1), ("S2", 2)]:
            p = catalog_lookup(name).presentation
            assert (p.name, p.generators, p.relators) == \
                (name, ("a",), (a ** order,))

    def test_any_number_of_factors(self):
        # up to ten factors are a..j; more are a0, a1, ..., as for F<r>
        ten = catalog_lookup("x".join(["C2"] * 10))
        assert ten.presentation.generators == tuple("abcdefghij")
        eleven = catalog_lookup("x".join(["C2"] * 11))
        assert eleven.name == "x".join(["C2"] * 11)
        assert eleven.presentation.generators == tuple(
            f"a{i}" for i in range(11))
        assert eleven.known_facts == {"order": 2048, "abelian": True}
        assert len(eleven.presentation.relators) == 11 + 55
        assert catalog_lookup("F11").presentation.generators == \
            eleven.presentation.generators

    def test_spellings_share_one_cached_realization(self, monkeypatch):
        from ntl import catalog
        monkeypatch.setattr(catalog, "_REALIZED", {})
        groups = [realize_entry(catalog_lookup(n))
                  for n in ("C6", "C06", "C2xC2", "C2x2", "D03")]
        assert sorted(catalog._REALIZED) == ["C2xC2", "C6", "D3"]
        assert groups[0] is groups[1] and groups[2] is groups[3]
        assert [g.name for g in groups] == ["C6", "C6", "C2xC2", "C2xC2",
                                            "D3"]

    @pytest.mark.parametrize("entry", finite_corpus(),
                             ids=lambda e: e.name)
    def test_corpus_realizes_to_known_facts(self, entry):
        g = realize_entry(entry)
        assert g.order == entry.known_facts["order"]
        assert g.is_abelian() == entry.known_facts["abelian"]

    def test_cached_entry_honours_the_budget(self, monkeypatch):
        from ntl import catalog
        from ntl.coset import EnumerationBudget, budget_scope
        from ntl.errors import BudgetExceeded
        monkeypatch.setattr(catalog, "_REALIZED", {})
        d6 = catalog_lookup("D6")
        tight = EnumerationBudget(max_cosets=11)
        with pytest.raises(BudgetExceeded, match="coset budget 11"), \
                budget_scope(tight):
            realize_entry(d6)
        assert realize_entry(d6).order == 12
        with pytest.raises(BudgetExceeded, match="coset budget 11"), \
                budget_scope(tight):
            realize_entry(d6)
        with budget_scope(EnumerationBudget(max_cosets=12)):
            assert realize_entry(d6).order == 12

    def test_infinite_entry_rejected_early(self):
        from ntl.errors import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            realize_entry(catalog_lookup("Z"))
        with pytest.raises(BudgetExceeded):
            realize_entry(catalog_lookup("F2"))
