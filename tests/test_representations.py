"""Exact matrix/permutation/sign oracles and their compatibility with the relations."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgroots import representations
from mcgroots.presentation import relation_catalog
from mcgroots.representations import (
    CrosscapPermutation,
    IntMatrix,
    derive_generator_matrices,
    homology_of,
    perm_of,
    sign_of,
)
from mcgroots.roots import _gathered_root, construct_braid_root
from mcgroots.words import (
    MAX_GENUS,
    GeneratorLetter,
    SurfaceModel,
    Word,
    WordError,
    parse_word,
)

from conftest import letters_for, model_word_pairs, standard_models, words_for


def _w(text, model):
    return parse_word(text, model)


def _dense_homology(word):
    """Reference oracle: the dense product of generator-matrix powers in word order.

    A negative exponent powers the letter's derived inverse, which
    ``test_derived_inverses`` checks against a plain-Python product.
    """
    model = word.model
    table = derive_generator_matrices(model.genus)
    acc = IntMatrix.identity(model.genus - 1)
    for letter, exp in word.syllables:
        base = table[letter] if exp > 0 else homology_of(Word(model, ((letter, -1),)))
        acc = acc * base ** abs(exp)
    return acc


# The 2x2 blocks of u, t, y and of their inverses on the columns of mu_i,
# mu_{i+1}, as rows, written out independently of the module's tables.
_DENSE_BLOCKS = {
    "u": (((0, 1), (1, 0)), ((0, 1), (1, 0))),
    "t": (((2, -1), (1, 0)), ((0, 1), (-1, 2))),
    "y": (((-1, 2), (0, 1)), ((-1, 2), (0, 1))),
}


def _dense_columns_reference(word):
    """Reference oracle: g dense columns, one block per letter occurrence, then projected."""
    g = word.model.genus
    cols = [[int(r == c) for r in range(g)] for c in range(g)]
    for letter, exp in word.syllables:
        (a, b), (c, d) = _DENSE_BLOCKS[letter.kind][exp < 0]
        i = letter.index
        for _ in range(abs(exp)):
            left, right = cols[i - 1], cols[i]
            cols[i - 1] = [a * x + c * z for x, z in zip(left, right)]
            cols[i] = [b * x + d * z for x, z in zip(left, right)]
    # [mu_g] = -([mu_1] + ... + [mu_{g-1}])
    return tuple(tuple(cols[c][r] - cols[c][g - 1] for c in range(g - 1)) for r in range(g - 1))


def _dense_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n))


def _dense_power(rows, e):
    """``rows ** e`` by ``e`` dense products of Python ints."""
    n = len(rows)
    acc = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for _ in range(e):
        acc = _dense_product(acc, rows)
    return acc


def u_words(model):
    """Words of ``u``-letters only, even exponents included."""
    syllable = st.tuples(
        st.sampled_from([letter for letter in model.letters() if letter.kind == "u"]),
        st.integers(-4, 4).filter(bool),
    )
    return st.lists(syllable, max_size=12).map(lambda items: Word(model, tuple(items)))


def _square_matrices(n):
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@st.composite
def words_with_a_huge_syllable(draw):
    model = draw(standard_models(3, 12))
    word = draw(words_for(model))
    letter = draw(letters_for(model))
    exp = draw(st.sampled_from((10**9, -(10**9 + 1))))
    pos = draw(st.integers(0, len(word.syllables)))
    return Word(model, word.syllables[:pos] + ((letter, exp),) + word.syllables[pos:])


class TestIntMatrix:
    def test_identity_and_mul(self):
        a = IntMatrix(((1, 2), (3, 4)))
        i2 = IntMatrix.identity(2)
        assert a * i2 == a and i2 * a == a
        b = IntMatrix(((0, 1), (1, 0)))
        assert a * b == IntMatrix(((2, 1), (4, 3)))

    def test_pow(self):
        a = IntMatrix(((1, 1), (0, 1)))
        assert a**5 == IntMatrix(((1, 5), (0, 1)))
        assert a**0 == IntMatrix.identity(2)
        with pytest.raises(ValueError, match="inverse word"):
            a**-3

    def test_pow_starts_from_the_first_factor(self):
        a = IntMatrix(((2, 1), (1, 1)))
        assert a**1 is a
        acc = IntMatrix.identity(2)
        for e in range(1, 12):
            acc = acc * a
            assert a**e == acc

    def test_det_examples(self):
        assert IntMatrix(((2, 1), (1, 1))).det() == 1
        assert IntMatrix(((0, 1), (1, 0))).det() == -1
        assert IntMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10))).det() == -3
        assert IntMatrix(((1, 2), (2, 4))).det() == 0

    def test_det_pivoting(self):
        # leading zero forces a row swap inside the elimination
        assert IntMatrix(((0, 1, 2), (1, 0, 3), (2, 1, 0))).det() == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError):
            IntMatrix(((1.5,),))

    @settings(max_examples=60)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(_square_matrices(n), _square_matrices(n))))
    def test_rows_round_trip_and_dense_product(self, pair):
        a, b = pair
        assert IntMatrix(a).rows == a
        product = _dense_product(a, b)
        assert (IntMatrix(a) * IntMatrix(b)).rows == product
        assert IntMatrix(product) == IntMatrix(a) * IntMatrix(b)

    def test_identity_from_rows_is_the_canonical_identity(self):
        for n in range(6):
            m = IntMatrix(tuple(tuple(int(r == c) for c in range(n)) for r in range(n)))
            assert m == IntMatrix.identity(n) and hash(m) == hash(IntMatrix.identity(n))
            assert m.cols == {}

    @settings(max_examples=40)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_det_is_multiplicative(self, rows):
        a = IntMatrix(tuple(map(tuple, rows)))
        b = IntMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 1)))
        assert (a * b).det() == a.det() * b.det()


def _swap(g, i):
    """The swap of crosscaps i and i+1 (1-based) among g."""
    images = list(range(g))
    images[i - 1], images[i] = images[i], images[i - 1]
    return CrosscapPermutation(tuple(images))


class TestCrosscapPermutation:
    def test_composition_applies_right_factor_first(self):
        t1, t2 = _swap(3, 1), _swap(3, 2)
        assert (t1 * t2).images == (1, 2, 0)
        assert (t2 * t1).images == (2, 0, 1)

    def test_inverse_and_order(self):
        cycle, one = _swap(3, 1) * _swap(3, 2), CrosscapPermutation.identity(3)
        assert cycle != one and cycle**2 != one and cycle**3 == one
        assert cycle * cycle**2 == one == cycle**2 * cycle
        assert CrosscapPermutation.identity(5) == CrosscapPermutation((0, 1, 2, 3, 4))

    def test_pow_matches_repeated_products(self):
        t1, t3 = _swap(4, 1), _swap(4, 3)
        cycle = t1 * _swap(4, 2) * t3
        for base in (t1, cycle, t1 * t3):
            acc = CrosscapPermutation.identity(4)
            for n in range(9):
                assert base**n == acc
                acc = acc * base
        assert cycle**1 is cycle
        assert cycle ** (4 * 10**12 + 1) == cycle

    def test_negative_power_is_refused(self):
        # as for IntMatrix: a negative power of a word powers its inverse's image
        with pytest.raises(ValueError):
            _swap(4, 1) ** -1

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            CrosscapPermutation((0, 0, 1))


class TestSign:
    def test_examples(self, std5):
        assert sign_of(_w("u1", std5)) == -1
        assert sign_of(_w("y3", std5)) == -1
        assert sign_of(_w("t2^9", std5)) == 1
        assert sign_of(_w("y3^2", std5)) == 1
        assert sign_of(_w("u1^-1 y2 t1", std5)) == 1
        assert sign_of(_w("", std5)) == 1

    def test_hybrid_chain_letters_are_even(self, hyb6):
        assert sign_of(_w("c1 c4^3", hyb6)) == 1
        assert sign_of(_w("u1 c2", hyb6)) == -1

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_multiplicative(self, data):
        _, a, b = data
        assert sign_of(a * b) == sign_of(a) * sign_of(b)
        assert sign_of(a.inverse()) == sign_of(a)


class TestPermutationOracle:
    def test_transpositions_and_even_exponents(self, std5):
        assert perm_of(_w("u2", std5)).images == (0, 2, 1, 3, 4)
        assert perm_of(_w("u2^2", std5)) == CrosscapPermutation.identity(5)
        assert perm_of(_w("t2", std5)) == perm_of(_w("u2", std5))
        assert perm_of(_w("t1^7", std5)).images == (1, 0, 2, 3, 4)
        assert perm_of(_w("y2^3", std5)) == CrosscapPermutation.identity(5)

    def test_is_the_homology_blocks_mod_2(self):
        # each letter's block reduces mod 2 to its action on H1(N_g; Z/2):
        # the swap for t and u, the identity for y
        swapping = set()
        for g in range(2, 9):
            model = SurfaceModel(g)
            for letter in model.letters():
                block = [[v % 2 for v in row] for row in _DENSE_BLOCKS[letter.kind][0]]
                swaps = block == [[0, 1], [1, 0]]
                expected = _swap(g, letter.index) if swaps else CrosscapPermutation.identity(g)
                assert perm_of(Word(model, ((letter, 1),))) == expected, letter
                if swaps:
                    swapping.add(letter.kind)
        assert swapping == {"t", "u"}

    def test_rotation_has_full_order(self):
        for g in range(3, 9):
            m = SurfaceModel(g)
            delta = _w(" ".join(f"u{i}" for i in range(1, g)), m)
            one = CrosscapPermutation.identity(g)
            powers = [perm_of(delta) ** k for k in range(1, g + 1)]
            assert powers[-1] == one and one not in powers[:-1]
            assert perm_of(delta**g) == one

    def test_stabilized_rotation_has_order_genus_minus_one(self):
        for g in range(3, 9):
            m = SurfaceModel(g)
            w = _w("u1^2 " + " ".join(f"u{i}" for i in range(2, g)), m)
            one = CrosscapPermutation.identity(g)
            powers = [perm_of(w) ** k for k in range(1, g)]
            assert powers[-1] == one and one not in powers[:-1]

    def test_rejects_hybrid(self, hyb6):
        with pytest.raises(WordError):
            perm_of(_w("u1", hyb6))

    @settings(max_examples=60)
    @given(standard_models(2, 13).flatmap(words_for))
    def test_matches_product_of_transpositions(self, w):
        g = w.model.genus
        acc = CrosscapPermutation.identity(g)
        for letter, exp in w.syllables:
            if letter.kind in ("t", "u") and exp % 2:
                acc = acc * _swap(g, letter.index)
        assert perm_of(w) == acc

    @settings(max_examples=60)
    @given(model_word_pairs())
    def test_antihomomorphism_free(self, data):
        # letters act left to right, so images compose contravariantly
        _, a, b = data
        assert perm_of(a * b) == perm_of(a) * perm_of(b)
        assert perm_of(a.inverse()) * perm_of(a) == CrosscapPermutation.identity(a.model.genus)


class TestHomologyMatrices:
    def test_genus3_table(self, std3):
        table = derive_generator_matrices(3)
        expect = {
            "t1": ((2, -1), (1, 0)),
            "t2": ((1, -1), (0, 1)),
            "u1": ((0, 1), (1, 0)),
            "u2": ((1, -1), (0, -1)),
            "y1": ((-1, 2), (0, 1)),
        }
        for name, rows in expect.items():
            letter = GeneratorLetter(name[0], int(name[1]))
            assert table[letter] == IntMatrix(rows)

    def test_genus2_table(self):
        table = derive_generator_matrices(2)
        assert table[GeneratorLetter("t", 1)] == IntMatrix(((1,),))
        assert table[GeneratorLetter("u", 1)] == IntMatrix(((-1,),))
        assert table[GeneratorLetter("y", 1)] == IntMatrix(((-1,),))

    def test_slide_is_twist_times_transposition(self):
        for g in range(2, 9):
            table = derive_generator_matrices(g)
            for i in range(1, g):
                y = table[GeneratorLetter("y", i)]
                t = table[GeneratorLetter("t", i)]
                u = table[GeneratorLetter("u", i)]
                assert y == t * u

    def test_determinants_match_sign_character(self):
        for g in range(2, 9):
            table = derive_generator_matrices(g)
            for letter, m in table.items():
                assert m.det() == (1 if letter.kind == "t" else -1)

    def test_matrices_are_unimodular(self):
        for g in range(2, 7):
            for letter, m in derive_generator_matrices(g).items():
                assert m.det() in (1, -1)

    def test_cached_and_read_only(self):
        table = derive_generator_matrices(4)
        assert derive_generator_matrices(4) is table
        with pytest.raises(TypeError):
            table[GeneratorLetter("t", 1)] = IntMatrix.identity(3)

    def test_genus_validation(self):
        with pytest.raises(WordError):
            derive_generator_matrices(1)


class TestHomologyOracle:
    def test_word_image(self, std3):
        assert homology_of(_w("t1 t2", std3)) == IntMatrix(((2, -3), (1, -1)))
        assert homology_of(_w("", std3)) == IntMatrix.identity(2)

    def test_inverse_letters(self, std3):
        w = _w("t1^-1", std3)
        assert homology_of(w) == IntMatrix(((0, 1), (-1, 2)))
        assert homology_of(w) * homology_of(w.inverse()) == IntMatrix.identity(2)

    def test_rejects_hybrid(self, hyb6):
        with pytest.raises(WordError):
            homology_of(_w("u1", hyb6))

    @settings(max_examples=50)
    @given(model_word_pairs(max_genus=6))
    def test_homomorphism(self, data):
        model, a, b = data
        assert homology_of(a * b) == homology_of(a) * homology_of(b)
        assert homology_of(a.inverse()) * homology_of(a) == IntMatrix.identity(model.genus - 1)

    @settings(max_examples=50)
    @given(model_word_pairs(max_genus=6))
    def test_det_equals_sign(self, data):
        _, a, _ = data
        assert homology_of(a).det() == sign_of(a)

    def test_slide_normalization_invariance(self):
        # with the homomorphism laws above, writing y_i out as t_i u_i
        # leaves every oracle's image of any word unchanged
        for genus in range(2, 13):
            model = SurfaceModel(genus)
            for i in range(1, genus):
                y, tu = parse_word(f"y{i}", model), parse_word(f"t{i} u{i}", model)
                for oracle in (homology_of, perm_of, sign_of):
                    assert oracle(y) == oracle(tu)


class TestSparseHomology:
    """The 2x2-block ``homology_of`` against the dense reference product."""

    @settings(max_examples=60)
    @given(standard_models(3, 12).flatmap(words_for))
    def test_matches_dense_product(self, w):
        assert homology_of(w) == _dense_homology(w)

    @settings(max_examples=80)
    @given(standard_models(3, 13).flatmap(words_for), st.integers(0, 12))
    def test_image_and_powers_match_dense_columns(self, w, e):
        rows = _dense_columns_reference(w)
        image = homology_of(w)
        assert image.rows == rows
        assert image == IntMatrix(rows) and hash(image) == hash(IntMatrix(rows))
        assert (image**e).rows == _dense_power(rows, e)

    @settings(max_examples=80)
    @given(standard_models(3, 13).flatmap(u_words), st.integers(0, 12))
    def test_swaps_and_their_powers_match_dense_columns(self, w, e):
        # u-letters exchange two columns (odd exponent) or leave them alone
        # (even exponent), and products of such images take unit columns as they are
        rows = _dense_columns_reference(w)
        image = homology_of(w)
        assert image == IntMatrix(rows) and image.rows == rows
        assert image**e == IntMatrix(_dense_power(rows, e))

    def test_built_roots_and_their_powers_match_dense_columns(self):
        cases = []
        for genus in range(5, 26):
            model = SurfaceModel(genus)
            for target in ("u", "y"):
                root, _, degree, _, _ = _gathered_root(model, target)
                cases.append((root, degree))
        for punctures in range(5, 12):
            for index in range(1, punctures):
                result = construct_braid_root(punctures, index)
                cases.append((result.root, result.degree))
        assert len(cases) == 42 + 49
        for root, degree in cases:
            rows = _dense_columns_reference(root)
            image = homology_of(root)
            assert image == IntMatrix(rows), str(root)
            assert image**degree == IntMatrix(_dense_power(rows, degree)), str(root)

    @settings(max_examples=30)
    @given(words_with_a_huge_syllable())
    def test_matches_dense_product_with_a_huge_exponent(self, w):
        assert homology_of(w) == _dense_homology(w)

    def test_exponents_around_the_powering_switch(self):
        # at genus 50 only the first letters and those of index g-1, whose
        # projected column is dense: the dense reference is slow there
        for genus in (5, MAX_GENUS):
            model = SurfaceModel(genus)
            for letter in model.letters():
                if genus > 5 and letter.index not in (1, genus - 1):
                    continue
                for exp in (-10, -9, -8, 8, 9, 10):
                    w = Word(model, ((letter, exp),))
                    assert homology_of(w) == _dense_homology(w), (genus, letter, exp)

    def test_builds_no_per_genus_table(self):
        # every memo cache of the module, derive_generator_matrices among them
        caches = [f for f in vars(representations).values() if hasattr(f, "cache_info")]
        assert derive_generator_matrices in caches
        for cache in caches:
            cache.cache_clear()
        g = MAX_GENUS
        model = SurfaceModel(g)
        for text in (f"u{g - 1}", f"t1^1000000001 y{g - 2}^-3 u{g - 1} t{g - 1}^-2", "u1"):
            homology_of(_w(text, model))
        assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)

    def test_huge_power_of_a_letter(self, std5):
        u1 = GeneratorLetter("u", 1)
        table = derive_generator_matrices(5)
        assert homology_of(_w("u1^1000000000", std5)) == IntMatrix.identity(4)
        assert homology_of(_w("u1", std5) ** 1_000_000_001) == table[u1]
        # t = I + N with N^2 = 0, so t^-e = I - e N
        e = 1_000_000_000
        t1 = table[GeneratorLetter("t", 1)]
        expected = IntMatrix(
            tuple(
                tuple(int(r == c) - e * (v - int(r == c)) for c, v in enumerate(row))
                for r, row in enumerate(t1.rows)
            )
        )
        assert homology_of(_w(f"t1^-{e}", std5)) == expected

    def test_derived_inverses(self):
        # homology_of(x^-1) is the integer-derived inverse; checked against
        # a dense product of Python ints written out here
        for g in range(2, 31):
            model = SurfaceModel(g)
            identity = [[int(r == c) for c in range(g - 1)] for r in range(g - 1)]
            for letter, m in derive_generator_matrices(g).items():
                inverse = homology_of(Word(model, ((letter, -1),)))
                columns = list(zip(*inverse.rows))
                product = [[sum(map(operator.mul, row, col)) for col in columns] for row in m.rows]
                assert product == identity, (g, letter)


class TestGl2Image:
    def test_frozen_order_six_element(self, std3):
        m = homology_of(_w("t1 t2", std3))
        assert m == IntMatrix(((2, -3), (1, -1)))
        assert m**6 == IntMatrix.identity(2)
        assert all(m**k != IntMatrix.identity(2) for k in range(1, 6))


class TestRelationCompatibility:
    @pytest.mark.parametrize("genus", range(2, 9))
    def test_standard_catalog(self, genus):
        model = SurfaceModel(genus)
        for inst in relation_catalog(model):
            assert sign_of(inst.lhs) == sign_of(inst.rhs), inst.schema
            assert perm_of(inst.lhs) == perm_of(inst.rhs), inst.schema
            assert homology_of(inst.lhs) == homology_of(inst.rhs), inst.schema

    @pytest.mark.parametrize("genus", (4, 6, 8))
    def test_hybrid_catalog_sign(self, genus):
        for inst in relation_catalog(SurfaceModel(genus, "hybrid")):
            assert sign_of(inst.lhs) == sign_of(inst.rhs), inst.schema
