import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntl.catalog import (CATALOG_CORPUS, catalog_lookup, finite_corpus,
                         realize_entry)
from ntl.errors import (IncompleteMap, PresentationSyntaxError,
                        UnknownCatalogName, UnknownGenerator)
from ntl.parsing import (parse_action, parse_file, parse_group,
                         parse_words_text, print_action, print_presentation)
from ntl.words import Presentation, Word, commutator, conjugate


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


class TestParseGroup:
    def test_c4(self):
        p = parse_group("group C4 { gens: a; rels: a^4; }")
        assert p.name == "C4"
        assert p.generators == ("a",)
        assert len(p.relators) == 1
        assert p.relators[0].letters == ((0, 4),)

    def test_s3_shape(self):
        p = parse_group("group S3 { gens: a b; rels: a^3, b^2, (a b)^2; }")
        assert p.generators == ("a", "b")
        assert len(p.relators) == 3
        assert p.relators[2].letters == ((0, 1), (1, 1), (0, 1), (1, 1))

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_group("group X { gens: a; rels: b^2; }")

    def test_negative_exponent(self):
        p = parse_group("group X { gens: a b; rels: a b^-1; }")
        assert p.relators[0].letters == ((0, 1), (1, -1))

    def test_comments_and_whitespace(self):
        text = """
        # leading comment
        group   T {
          gens: a ;   # generators
          rels: a ^ 2 ;
        }
        """
        p = parse_group(text)
        assert p.name == "T"
        assert p.relators[0].letters == ((0, 2),)

    def test_error_position(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse_group("group X {\n gens: a;\n rels a^2; }")
        assert err.value.line == 3

    def test_no_relators(self):
        p = parse_group("group F { gens: a b; }")
        assert p.relators == ()

    def test_trailing_garbage(self):
        with pytest.raises(PresentationSyntaxError):
            parse_group("group X { gens: a; } extra")


class TestParseAction:
    def test_inversion(self):
        c2 = catalog_lookup("C2").presentation
        c4 = catalog_lookup("C4").presentation
        spec = parse_action(
            "action inv { from: C2; to: C4; a => (a -> a^-1); }", c2, c4)
        assert spec.name == "inv"
        assert spec.generator_map["a"]["a"].letters == ((0, -1),)

    def test_squaring_is_syntax_only(self):
        c5 = catalog_lookup("C5").presentation
        spec = parse_action(
            "action sq { from: C5; to: C5; a => (a -> a^2); }", c5, c5)
        assert spec.generator_map["a"]["a"].letters == ((0, 2),)

    def test_incomplete_actor(self):
        s3 = catalog_lookup("S3").presentation
        c2 = catalog_lookup("C2").presentation
        with pytest.raises(IncompleteMap):
            parse_action(
                "action x { from: S3; to: C2; a => (a -> a); }", s3, c2)

    def test_incomplete_target(self):
        c2 = catalog_lookup("C2").presentation
        s3 = catalog_lookup("S3").presentation
        with pytest.raises(IncompleteMap):
            parse_action(
                "action x { from: C2; to: S3; a => (a -> a); }", c2, s3)

    def test_group_mismatch(self):
        c2 = catalog_lookup("C2").presentation
        c4 = catalog_lookup("C4").presentation
        with pytest.raises(PresentationSyntaxError):
            parse_action(
                "action x { from: C3; to: C4; a => (a -> a); }", c2, c4)


class TestRoundTrip:
    @pytest.mark.parametrize("name", CATALOG_CORPUS)
    def test_catalog_fixed_point(self, name):
        p = catalog_lookup(name).presentation
        text = print_presentation(p)
        again = parse_group(text)
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
        rels = tuple(w for w in rels if not w.is_identity())
        p = Presentation("G", ("a", "b", "c"), rels)
        text = print_presentation(p)
        again = parse_group(text)
        assert again.relators == p.relators
        assert print_presentation(again) == text

    def test_action_fixed_point(self):
        c2 = catalog_lookup("C2").presentation
        c4 = catalog_lookup("C4").presentation
        spec = parse_action(
            "action inv { from: C2; to: C4; a => (a -> a^-1); }", c2, c4)
        text = print_action(spec, c2, c4)
        again = parse_action(text, c2, c4)
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

    def test_unknown_names(self):
        for name in ("S6", "X3", "C0", "D0", "F0", "Q16"):
            with pytest.raises(UnknownCatalogName):
                catalog_lookup(name)

    def test_product_spellings(self):
        assert catalog_lookup("C2xC4").known_facts["order"] == 8
        assert catalog_lookup("C2x4").known_facts["order"] == 8

    @pytest.mark.parametrize("entry", finite_corpus(),
                             ids=lambda e: e.name)
    def test_corpus_realizes_to_known_facts(self, entry):
        g = realize_entry(entry)
        assert g.order == entry.known_facts["order"]
        assert g.is_abelian() == entry.known_facts["abelian"]

    def test_cached_entry_honours_the_budget(self, monkeypatch):
        from ntl import catalog
        from ntl.coset import EnumerationBudget
        from ntl.errors import BudgetExceeded
        monkeypatch.setattr(catalog, "_REALIZED", {})
        d6 = catalog_lookup("D6")
        tight = EnumerationBudget(max_cosets=11)
        with pytest.raises(BudgetExceeded, match="coset budget 11"):
            realize_entry(d6, tight)
        assert realize_entry(d6).order == 12
        with pytest.raises(BudgetExceeded, match="coset budget 11"):
            realize_entry(d6, tight)
        assert realize_entry(d6, EnumerationBudget(max_cosets=12)).order == 12

    def test_infinite_entry_rejected_early(self):
        from ntl.errors import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            realize_entry(catalog_lookup("Z"))
        with pytest.raises(BudgetExceeded):
            realize_entry(catalog_lookup("F2"))
