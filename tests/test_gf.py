"""Field construction and arithmetic, checked against brute-force oracles."""

import itertools
import random
import sys
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import gf
from field_helpers import (FieldElement, digits, enumerate_field, field_exp, from_digits,
                           is_in_subfield, poly_mulmod, table_builds)


PRIMES = [p for p in range(2, gf.FIELD_CAP + 1) if gf.factorize(p) == {p: 1}]
#: every extension field under the cap, (p, k) with k >= 2: 44 of them
EXTENSION_FIELDS = [(p, k) for p in PRIMES for k in range(2, gf.FIELD_CAP.bit_length())
                    if p ** k <= gf.FIELD_CAP]


def has_monic_factor(f, p):
    """Trial division: does some monic polynomial of degree 1..k/2 divide
    the monic f (coefficients low first) over F_p?"""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for lowa in itertools.product(range(p), repeat=d):
            a = list(lowa) + [1]
            rem = list(f)
            for i in range(k, d - 1, -1):
                c = rem[i] % p
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] -= c * a[j]
            if not any(r % p for r in rem[:d]):
                return True
    return False


def brute_nth_roots(F, a, n):
    """Oracle: every code x, in increasing order, whose log satisfies
    n log x = log a (mod p^k - 1); 0 is the only root of 0."""
    if a == 0:
        return [0]
    N = F.order - 1
    return [x for x in range(1, F.order) if (n * F.log(x) - F.log(a)) % N == 0]


@pytest.fixture(scope="module")
def f25():
    return gf.make_field(5, 2)


@pytest.fixture(scope="module")
def f49():
    return gf.make_field(7, 2)


@pytest.fixture(scope="module")
def f729():
    return gf.make_field(3, 6)


class TestMakeField:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            gf.make_field(6, 2)

    def test_rejects_oversized_field(self):
        with pytest.raises(ValueError):
            gf.make_field(2, 14)

    @pytest.mark.parametrize("p,k", [
        (0, 1), (1, 1), (4, 1), (6, 2), (9, 1),  # p not prime
        (7, 0), (7, -1),                         # degree not positive
        (2, 13), (5503, 1),                      # p^k above FIELD_CAP
    ])
    def test_rejects_bad_input(self, p, k):
        with pytest.raises(ValueError):
            gf.make_field(p, k)

    def test_cap_is_checked_before_factoring(self, monkeypatch):
        # trial division of this prime takes sqrt(p) steps, seconds
        calls = []
        monkeypatch.setattr(gf, "factorize", lambda n: calls.append(n) or {n: 1})
        with pytest.raises(ValueError, match=r"^field size 100000000000031\^1 "
                                             r"exceeds cap 5500$"):
            gf.make_field(100000000000031, 1)
        assert calls == []

    def test_cap_admits_4096(self):
        assert gf.FIELD_CAP >= 4096

    def test_cyclic_group_order_f49(self, f49):
        els = enumerate_field(f49)
        assert len(els) == 49
        nonzero = [e for e in els if not e.is_zero()]
        assert len(nonzero) == 48
        g = FieldElement(f49, f49.generator)
        assert {g ** i for i in range(48)} == set(nonzero)

    def test_f729_exists(self, f729):
        assert f729.order == 729
        assert len(enumerate_field(f729)) == 729

    def test_three_has_square_root_in_f25(self, f25):
        roots = gf.nth_roots(f25, 3, 2)
        assert roots == brute_nth_roots(f25, 3, 2)
        assert len(roots) == 2
        assert all(FieldElement(f25, w) ** 2 == 3 for w in roots)

    def test_reproducible(self):
        a = gf.make_field(7, 2)
        b = gf.make_field(7, 2)
        assert a.to_fragment() == b.to_fragment()
        assert list(map(a.code, range(48))) == list(map(b.code, range(48)))
        assert list(map(a.log, range(49))) == list(map(b.log, range(49)))

    @pytest.mark.parametrize("p,k", EXTENSION_FIELDS)
    def test_modulus_irreducible_brute(self, p, k):
        # oracle: the modulus has no monic factor by trial division, and
        # every monic candidate lex-smaller (constant term first) has one
        mod = gf.make_field(p, k).modulus
        assert not has_monic_factor(mod, p)
        for low in itertools.product(range(p), repeat=k):
            if low == mod[:k]:
                break
            assert has_monic_factor(low + (1,), p), f"{low} is irreducible"

    def test_log_exp_bijection(self, f49):
        for i in range(48):
            assert f49.log(field_exp(f49, i).code) == i
        for a in enumerate_field(f49):
            if not a.is_zero():
                assert field_exp(f49, f49.log(a.code)) == a


class TestArithmetic:
    def test_additive_inverse(self, f49):
        for a in enumerate_field(f49):
            assert (a + (-a)).is_zero()

    def test_negation_in_characteristic_two(self):
        F = gf.make_field(2, 6)
        assert all(-a == a for a in enumerate_field(F))

    def test_lagrange(self, f49):
        for a in enumerate_field(f49):
            if not a.is_zero():
                assert a ** 48 == 1

    def test_sixteenth_power_exponent(self, f49):
        # the 16th-power subgroup in F_49* has index 16
        a = FieldElement(f49, f49.generator)
        assert a ** (48 // 16 * 16) == (a ** 3) ** 16

    def test_field_axioms_exhaustive_f25(self, f25):
        els = enumerate_field(f25)
        for a in els:
            for b in els:
                assert (a + b) == (b + a)
                assert (a * b) == (b * a)
                if not b.is_zero():
                    assert (a / b) * b == a
        # distributivity spot check on a grid
        for a in els[::5]:
            for b in els[::3]:
                for c in els[::4]:
                    assert a * (b + c) == a * b + a * c

    def test_negative_powers(self, f49):
        a = field_exp(f49, 7)
        for k in (1, 3, 48, 100):
            assert a ** -k * a ** k == 1
        with pytest.raises(ZeroDivisionError):
            FieldElement(f49, 0) ** -1

    def test_int_coercion(self, f49):
        three = FieldElement(f49, 3)
        assert three + 4 == FieldElement(f49, 0)
        assert three + 4 == 7  # 7 = 0 in F_7
        assert 2 * three == 6

    @pytest.mark.parametrize("p,k", [(2, 6), (3, 6), (5, 2), (7, 2)])
    def test_frobenius_is_homomorphism(self, p, k):
        F = gf.make_field(p, k)
        els = enumerate_field(F)
        step = max(1, len(els) // 40)
        sample = els[::step]
        for a in sample:
            for b in sample:
                assert (a + b) ** p == a ** p + b ** p
                assert (a * b) ** p == (a ** p) * (b ** p)


class TestNthRoots:
    """nth_roots on codes, against the brute oracle on codes."""

    def test_sixteen_roots_of_unity_f49(self, f49):
        roots = gf.nth_roots(f49, 1, 16)
        assert len(roots) == 16 == gcd(16, 48)
        assert roots == brute_nth_roots(f49, 1, 16)

    def test_zero(self, f49):
        for n in (1, 3, 48):
            assert gf.nth_roots(f49, 0, n) == [0]

    def test_noncube_in_f25(self, f25):
        # the generator has log 1, not divisible by 3
        assert gf.nth_roots(f25, f25.generator, 3) == []
        assert brute_nth_roots(f25, f25.generator, 3) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 48])
    def test_against_brute_oracle_f49(self, f49, n):
        for a in range(f49.order):
            roots = gf.nth_roots(f49, a, n)
            assert roots == sorted(roots)
            assert roots == brute_nth_roots(f49, a, n)

    @pytest.mark.parametrize("p,k,n", [(5, 2, 3), (7, 2, 16), (2, 6, 3), (3, 6, 4)])
    def test_cardinality_law(self, p, k, n):
        F = gf.make_field(p, k)
        g = gcd(n, F.order - 1)
        total = 0
        for a in range(F.order):
            s = gf.nth_roots(F, a, n)
            total += len(s)
            if a:
                assert len(s) in (0, g)
        assert total == F.order  # the power map is a function

    def test_rejects_nonpositive_n(self, f49):
        for a, n in itertools.product((0, 1), (0, -1)):
            with pytest.raises(ValueError):
                gf.nth_roots(f49, a, n)


class TestLogTables:
    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (7, 2), (2, 6), (3, 6)])
    def test_one_plus_against_add_codes(self, p, k):
        F = gf.make_field(p, k)
        N = F.order - 1
        one_plus = F.one_plus_every(1)
        assert len(one_plus) == N
        for i, s in enumerate(one_plus):
            assert s == F.log((FieldElement(F, F.code(i)) + 1).code)
        # -1 is g^(N/2) for odd p and 1 = g^0 for p = 2
        assert F.log(p - 1) == (N // 2 if p > 2 else 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 48, 50])
    def test_root_logs_against_brute_oracle_f49(self, f49, n):
        N = f49.order - 1
        for la in range(N):
            logs = gf.root_logs(la, n, N)
            assert list(logs) == sorted(logs)
            assert (sorted(map(f49.code, logs))
                    == brute_nth_roots(f49, f49.code(la), n))


def fields_of_degree(k):
    return [(p, k) for p in PRIMES if p ** k <= gf.FIELD_CAP]


class TestLazyTables:
    """A field sets code, log and one_plus_every when it is built: on
    F_{p^2} they answer through P^1(F_p) with no table of p^2 entries, on
    other fields they read the tables of ``gf._tables``.  Either way they
    agree with those tables."""

    @pytest.mark.parametrize("k", range(1, gf.FIELD_CAP.bit_length()))
    def test_code_and_log_without_tables(self, monkeypatch, k):
        # every field with p^k <= FIELD_CAP builds its tables iff k != 2;
        # at 1, -1, g and g^(N-1), and seeded random elements, code and log
        # are inverse, and on F_{p^2} they match the tables
        rng = random.Random(k)
        built = table_builds(monkeypatch)
        for p, k in fields_of_degree(k):
            F = gf.make_field(p, k)
            assert built == ([F.order] if k != 2 else []), (p, k)
            N = F.order - 1
            logs = [0, N // 2, 1 % N, N - 1] + [rng.randrange(N) for _ in range(4)]
            codes = [1, p - 1, F.generator] + [rng.randrange(1, F.order)
                                               for _ in range(4)]
            got = [F.code(j) for j in logs], [F.log(c) for c in codes]
            assert ([F.log(c) for c in got[0]], [F.code(j) for j in got[1]]) == (
                logs, codes), (p, k)
            assert F.log(0) == -1
            if k == 2:
                exp, log, _ = gf._tables(F)
                assert got == ([exp[j] for j in logs], [log[c] for c in codes]), p
            built.clear()

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (11, 2), (71, 2), (73, 2),
                                     (7, 1), (2, 6), (3, 3), (5, 4)])
    def test_one_plus_every_is_a_slice_of_the_table(self, monkeypatch, p, k):
        built = table_builds(monkeypatch)
        F = gf.make_field(p, k)
        assert built == ([F.order] if k != 2 else [])
        N = F.order - 1
        steps = sorted({s for s in (1, 2, 3, 5, (p + 1) // 3, p - 1, p, p + 1, N - 1, N)
                        if s > 0})
        one_plus = gf._tables(F)[2]
        assert [F.one_plus_every(s) for s in steps] == [one_plus[::s] for s in steps]


def reference_tables(F):
    """Oracle: the log/exp/one-plus tables by one coefficient-list
    product per element, with F's modulus and generator."""
    p, k, N = F.p, F.k, F.order - 1
    mod, g = list(F.modulus), digits(F.generator, p, k)
    exp, log = [], [-1] * F.order
    x = digits(1, p, k)
    for i in range(N):
        code = from_digits(x, p)
        exp.append(code)
        log[code] = i
        x = poly_mulmod(x, g, mod, p)
    assert x == digits(1, p, k)
    one_plus = []
    for code in exp:
        v = digits(code, p, k)
        v[0] += 1
        one_plus.append(log[from_digits(v, p)])
    return exp, log, one_plus


def table_bytes(tables):
    return sum(sys.getsizeof(t) + sum(sys.getsizeof(v) for v in t) for t in tables)


class TestTableBuild:
    @pytest.mark.parametrize("p,k", [
        (7, 2), (2, 6), (3, 6), (2, 12), (11, 2), (71, 2),  # catalog fields
        (7, 1), (5479, 1),                                  # prime fields
        (2, 5), (3, 5), (2, 11), (17, 3),                   # odd degrees
    ])
    def test_tables_match_per_element_products(self, p, k):
        F = gf.make_field(p, k)
        assert gf._tables(F) == reference_tables(F)

    @pytest.mark.parametrize("p,k", [(5479, 1), (17, 3)])
    def test_build_memory_is_bounded_by_its_tables(self, p, k):
        # a sum table on pairs of half-codes, p^(k+1) entries (p^2 for
        # k = 1), would break this bound
        tracemalloc.start()
        try:
            F = gf.make_field(p, k)  # builds the tables
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table_bytes(gf._tables(F))

    @pytest.mark.parametrize("p,k,code", [(2, 12, 2), (7, 2, 1)])
    def test_non_primitive_generator_is_rejected(self, p, k, code):
        F = gf.make_field(p, k)
        assert F.generator != code
        with pytest.raises(ValueError, match="not a primitive element"):
            gf.FieldSpec(p, k, F.modulus, code)

    @pytest.mark.parametrize("p,k,ell", [
        (11, 2, 3),   # 3 | M = 12 only: c^(M/3) lies in F_11
        (11, 2, 5),   # 5 | p - 1 only: the norm c^12 is a fifth power
        (11, 2, 2),   # 2 | p - 1 and M: the norm decides
        (7, 2, 3),    # M = 8 is a power of 2 | p - 1: the norm decides alone
        (7, 1, 3),    # k = 1: the norm is c itself
        (2, 12, 7),   # p = 2: no norm, every prime | M
    ])
    def test_each_prime_rejects_its_power_of_g(self, p, k, ell):
        # g^ell has order N/ell: the test at ell is the only one it fails
        F = gf.make_field(p, k)
        assert (F.order - 1) % ell == 0
        with pytest.raises(ValueError, match="not a primitive element"):
            gf.FieldSpec(p, k, F.modulus, F.code(ell))

    def test_prime_field_generator_is_the_least_primitive_root(self):
        for p in PRIMES:
            primes = gf.factorize(p - 1)
            root = next(c for c in range(1, p)
                        if all(pow(c, (p - 1) // ell, p) != 1 for ell in primes))
            assert gf.make_field(p, 1).generator == root, p

    @pytest.mark.parametrize("p,k,code", [(2, 12, 2), (7, 2, 1), (7, 2, 0), (7, 2, 49)])
    def test_rejected_generator_builds_no_table(self, monkeypatch, p, k, code):
        F = gf.make_field(p, k)
        built = []
        monkeypatch.setattr(gf, "_tables", lambda F: built.append(F.order))
        with pytest.raises(ValueError, match="not a primitive element"):
            gf.FieldSpec(p, k, F.modulus, code)
        assert built == []

    @pytest.mark.parametrize("p,k", [(7, 1), (5479, 1)] + EXTENSION_FIELDS)
    def test_generator_is_the_smallest_primitive_code(self, p, k):
        # c is primitive iff its log is prime to N
        F = gf.make_field(p, k)
        N = F.order - 1
        assert F.log(F.generator) == 1
        assert all(gcd(F.log(c), N) > 1 for c in range(1, F.generator))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_product_against_coefficient_lists(self, data):
        # any monic f, reducible ones too: the modulus search multiplies
        # modulo its candidates
        p, k = data.draw(st.one_of(st.sampled_from(EXTENSION_FIELDS),
                                   st.sampled_from([(p, 1) for p in PRIMES])))
        digit = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        vector = st.lists(digit, min_size=k, max_size=k)
        f, a, b = data.draw(vector) + [1], data.draw(vector), data.draw(vector)
        pack, code, mul = gf._ring(p, tuple(f))
        got = code(mul(pack(from_digits(a, p)), pack(from_digits(b, p))), p)
        assert got == from_digits(poly_mulmod(a, b, f, p), p)

    @pytest.mark.parametrize("p,k", [(2, 12), (3, 7), (5, 5), (7, 4), (17, 3), (73, 2), (5479, 1)])
    def test_packed_product_at_the_largest_digits(self, p, k):
        # every coefficient p - 1: the largest digit sums the ring packs
        top = [p - 1] * k
        pack, code, mul = gf._ring(p, tuple(top + [1]))
        x = pack(from_digits(top, p))
        assert code(mul(x, x), p) == from_digits(poly_mulmod(top, top, top + [1], p), p)


class TestSubfield:
    def test_zero_always_in_subfield(self, f49):
        assert is_in_subfield(FieldElement(f49, 0), 1)

    def test_generator_not_in_prime_field(self, f25):
        assert not is_in_subfield(FieldElement(f25, f25.generator), 1)

    def test_prime_field_elements(self, f49):
        for n in range(7):
            assert is_in_subfield(FieldElement(f49, n), 1)

    def test_oracle_f729(self, f729):
        # F_27 inside F_729: exactly 27 fixed points of x -> x^27
        fixed = [a for a in enumerate_field(f729) if is_in_subfield(a, 3)]
        assert len(fixed) == 27
        assert all(a ** 27 == a for a in fixed)

    def test_rejects_non_divisor(self, f729):
        with pytest.raises(ValueError):
            is_in_subfield(FieldElement(f729, 1), 4)


def test_enumerate_no_duplicates(f729):
    els = enumerate_field(f729)
    assert len({e.code for e in els}) == 729
    assert els[0].is_zero()
    assert els[1] == 1  # exp(0)


def test_field_fragment_roundtrip(f49):
    frag = f49.to_fragment()
    assert frag == {"p": 7, "k": 2, "order": 49,
                    "modulus": list(f49.modulus), "generator": f49.generator}
