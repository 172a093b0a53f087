import itertools
from pathlib import Path

import pytest

from hornenum import encoder
from hornenum.encoder import emit_dimacs, encode, predicate_id, vector_of
from hornenum.errors import ResourceLimitError
from hornenum.families import BitVector, Variant

GOLDEN_DIR = Path(__file__).parent / "golden"


def incomparable_pairs(n):
    """Unordered pairs of width-n vectors with neither a subset of the
    other, counted on the subset order directly (no meets involved, so
    this stays independent of how the encoder skips pairs)."""
    count = 0
    for r, s in itertools.combinations(range(1 << n), 2):
        r_below_s = (r | s) == s
        s_below_r = (r | s) == r
        if not r_below_s and not s_below_r:
            count += 1
    return count


class TestEncode:
    def test_n2_single_ternary_clause(self):
        instance = encode(2, Variant.H01)
        assert instance.unit_clauses == ()
        assert instance.ternary_clauses == ((-2, -3, 1),)

    def test_n3_nine_ternary_clauses(self):
        assert len(encode(3, Variant.H01).ternary_clauses) == 9

    def test_variant_units(self):
        assert encode(2, Variant.H1).unit_clauses == ((4,),)
        assert encode(2, Variant.H0).unit_clauses == ((1,),)
        assert encode(2, Variant.H).unit_clauses == ((4,), (1,))
        assert encode(2, Variant.H01).unit_clauses == ()

    def test_n0_single_predicate(self):
        instance = encode(0, Variant.H01)
        assert instance.predicate_count == 1
        assert instance.clause_count == 0

    def test_n0_endpoint_units_coincide(self):
        # all-ones and all-zeros are the same vector at width 0
        assert encode(0, Variant.H).unit_clauses == ((1,),)

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            encode(7, Variant.H)
        # the cap is a module constant, read on each call
        monkeypatch.setattr(encoder, "ENCODE_CAP", 7)
        encode(7, Variant.H01)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            encode(-1, Variant.H)

    def test_variant_by_name(self):
        assert encode(3, "h") == encode(3, Variant.H)
        with pytest.raises(ValueError):
            encode(3, "hx")

    @pytest.mark.parametrize("n", range(5))
    def test_ternary_count_matches_pair_enumeration(self, n):
        for variant in Variant:
            assert len(encode(n, variant).ternary_clauses) == incomparable_pairs(n)

    @pytest.mark.parametrize("n", range(7))
    def test_ternary_count_below_4_to_n(self, n):
        assert len(encode(n, Variant.H01).ternary_clauses) < 4 ** n

    @pytest.mark.parametrize("n", range(5))
    def test_clauses_are_horn(self, n):
        for clause in encode(n, Variant.H).ternary_clauses:
            assert len(clause) == 3
            assert sum(1 for lit in clause if lit < 0) == 2
            assert sum(1 for lit in clause if lit > 0) == 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_all_ones_predicate_absent_without_endpoint_units(self, n):
        instance = encode(n, Variant.H01)
        ones_id = 1 << n
        assert all(ones_id not in (abs(lit) for lit in clause)
                   for clause in instance.clauses)

    @pytest.mark.parametrize("n", range(5))
    def test_no_duplicate_or_tautological_clauses(self, n):
        clauses = encode(n, Variant.H).clauses
        assert len(set(clauses)) == len(clauses)
        for clause in clauses:
            lits = set(clause)
            assert len(lits) == len(clause)
            assert not any(-lit in lits for lit in lits)

    def test_ternary_order_follows_pairs(self):
        ternary = encode(3, Variant.H01).ternary_clauses
        pair_order = [(-clause[0] - 1, -clause[1] - 1) for clause in ternary]
        assert pair_order == sorted(pair_order)


class TestPredicateIds:
    def test_n2_id_map(self):
        values = ["00", "01", "10", "11"]
        for expected, text in enumerate(values, start=1):
            assert predicate_id(BitVector.from_string(text)) == expected

    def test_round_trip(self):
        for n in range(5):
            for value in range(1 << n):
                mu = BitVector(n, value)
                assert vector_of(predicate_id(mu), n) == mu

    def test_empty_vector(self):
        assert predicate_id(BitVector(0, 0)) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vector_of(0, 2)
        with pytest.raises(ValueError):
            vector_of(5, 2)

    def test_pid_must_be_an_int(self):
        # True compares equal to 1, and 1.0 lies in [1, 2]; neither is an id
        for pid in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="out of range"):
                vector_of(pid, 1)


class TestDimacs:
    def test_n2_h01_text(self):
        assert emit_dimacs(encode(2, Variant.H01)) == (
            "c variant=h01 n=2\np cnf 4 1\n-2 -3 1 0\n")

    def test_n2_h1_text(self):
        assert emit_dimacs(encode(2, Variant.H1)) == (
            "c variant=h1 n=2\np cnf 4 2\n4 0\n-2 -3 1 0\n")

    def test_n0_h01_text(self):
        assert emit_dimacs(encode(0, Variant.H01)) == (
            "c variant=h01 n=0\np cnf 1 0\n")

    @pytest.mark.parametrize("name,n,variant", [
        ("n0_h01.cnf", 0, Variant.H01),
        ("n2_h01.cnf", 2, Variant.H01),
        ("n2_h1.cnf", 2, Variant.H1),
        ("n3_h.cnf", 3, Variant.H),
    ])
    def test_golden_files(self, name, n, variant):
        golden = (GOLDEN_DIR / name).read_bytes()
        assert emit_dimacs(encode(n, variant)).encode() == golden

    def test_deterministic(self):
        assert emit_dimacs(encode(3, Variant.H)) == emit_dimacs(encode(3, Variant.H))


def eval_instance(instance, member_word):
    """Truth of the instance under 'predicate i+1 <-> bit i of member_word',
    evaluated directly from the clause tuples."""
    return all(any((lit > 0) == bool((member_word >> (abs(lit) - 1)) & 1)
                   for lit in clause)
               for clause in instance.clauses)


@pytest.mark.parametrize("n", range(4))
def test_models_are_exactly_variant_families(n):
    """Assignment <-> family bijection: a predicate assignment satisfies
    the instance iff the chosen vector set is meet-closed with the
    variant's endpoints.  Checked by brute force on both sides."""
    from hornenum.families import VectorFamily, variant_member
    for variant in Variant:
        instance = encode(n, variant)
        for word in range(1 << instance.predicate_count):
            fam = VectorFamily(n, [v for v in range(1 << n) if (word >> v) & 1])
            assert eval_instance(instance, word) == variant_member(fam, variant)
