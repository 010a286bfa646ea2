"""Circuit algebra: primitives, combinators, evaluation, equivalence."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError
from random import Random

import pytest

from helpers import bv, random_circuit
from pathcirc import (
    BitVector,
    BudgetError,
    Circuit,
    CircuitBuilder,
    ValidationError,
    WidthError,
    and_gate,
    bus_copy,
    circuits,
    constant,
    evaluate_batch,
    ext_equal,
    identity,
    nary_and,
    nary_or,
    not_gate,
    or_gate,
    primitive,
    seq,
    symmetry,
    tensor,
    to_bristol,
    truth_columns,
    xor_gate,
)
from pathcirc.circuits import CODE, COPY, FALSE, NAND, TRUE, nand_depth


class TestBitVector:
    def test_round_trips(self):
        assert str(bv("0101")) == "0101"
        assert bv("0101").value == 5
        assert BitVector.from_int(5, 4) == bv("0101")
        assert BitVector.zeros(3).is_zero()
        assert not bv("010").is_zero()

    def test_value_of_a_wide_vector(self):
        v = Random(3).getrandbits(4000)
        assert BitVector.from_int(v, 4000).value == v
        assert BitVector.zeros(0).value == 0

    def test_concat(self):
        assert bv("01") + bv("10") == bv("0110")

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            BitVector.from_string("01x")
        with pytest.raises(ValueError):
            BitVector((0, 2))
        with pytest.raises(ValueError):
            BitVector.from_int(4, 2)

    @pytest.mark.parametrize("bits", [(1.0, 0), ("1",), (2,), (-1,)])
    def test_rejects_anything_but_0_and_1(self, bits):
        with pytest.raises(ValueError, match=r"bits must be 0 or 1: \("):
            BitVector(bits)

    def test_bools_read_as_bits(self):
        v = BitVector((True, False))
        assert (str(v), v.value) == ("10", 2)


class TestPrimitives:
    def test_true(self):
        assert primitive(TRUE).evaluate(BitVector(())) == bv("1")

    def test_nand_rows(self):
        g = primitive(NAND)
        assert g.evaluate(bv("11")) == bv("0")
        for s in ("00", "01", "10"):
            assert g.evaluate(bv(s)) == bv("1")

    def test_copy_fans_out(self):
        assert primitive(COPY).evaluate(bv("1")) == bv("11")
        assert primitive(COPY).evaluate(bv("0")) == bv("00")

    def test_false(self):
        assert primitive(FALSE).evaluate(BitVector(())) == bv("0")


class TestIdentityAndSymmetry:
    def test_identity_zero_width(self):
        assert identity(0).evaluate(BitVector(())) == BitVector(())

    def test_identity_passthrough(self):
        assert identity(3).evaluate(bv("101")) == bv("101")
        assert identity(3).gate_count == 0

    def test_left_unit(self):
        c = xor_gate()
        assert ext_equal(seq(identity(2), c), c)
        assert ext_equal(seq(c, identity(1)), c)

    def test_symmetry_swaps_blocks(self):
        assert symmetry(1, 1).evaluate(bv("10")) == bv("01")
        assert symmetry(2, 3).evaluate(bv("10111")) == bv("11110")
        assert symmetry(1, 1).gate_count == 0

    def test_symmetry_degenerate(self):
        assert ext_equal(symmetry(2, 0), identity(2))

    def test_symmetry_self_inverse(self):
        for w1, w2 in [(1, 1), (2, 1), (2, 3)]:
            assert ext_equal(seq(symmetry(w1, w2), symmetry(w2, w1)), identity(w1 + w2))


class TestSeqAndTensor:
    def test_copy_of_constant(self):
        c = seq(tensor(primitive(TRUE), identity(0)), primitive(COPY))
        assert c.evaluate(BitVector(())) == bv("11")

    def test_double_negation(self):
        c = seq(not_gate(), not_gate())
        assert c.evaluate(bv("0")) == bv("0")
        assert c.evaluate(bv("1")) == bv("1")

    def test_seq_width_mismatch(self):
        with pytest.raises(WidthError):
            seq(and_gate(), and_gate())

    def test_seq_gate_count_adds(self):
        assert seq(not_gate(), not_gate()).gate_count == 2 * not_gate().gate_count

    def test_tensor_concatenates(self):
        c = tensor(primitive(TRUE), primitive(FALSE))
        assert c.evaluate(BitVector(())) == bv("10")

    def test_tensor_of_identities(self):
        assert ext_equal(tensor(identity(1), identity(1)), identity(2))

    def test_tensor_unit(self):
        c = xor_gate()
        assert ext_equal(tensor(c, identity(0)), c)
        assert ext_equal(tensor(identity(0), c), c)


class TestDerivedGates:
    @pytest.mark.parametrize("circuit,fn", [
        (not_gate(), lambda a: 1 - a),
    ])
    def test_unary_tables(self, circuit, fn):
        for a in (0, 1):
            assert circuit.evaluate(BitVector((a,))).bits[0] == fn(a)

    @pytest.mark.parametrize("circuit,fn", [
        (and_gate(), lambda a, b: a & b),
        (or_gate(), lambda a, b: a | b),
        (xor_gate(), lambda a, b: a ^ b),
    ])
    def test_binary_tables(self, circuit, fn):
        for a, b in itertools.product((0, 1), repeat=2):
            assert circuit.evaluate(BitVector((a, b))).bits[0] == fn(a, b)

    def test_or_zero_unit(self):
        assert or_gate().evaluate(bv("00")) == bv("0")

    def test_not_is_copy_then_nand(self):
        assert ext_equal(not_gate(), seq(primitive(COPY), primitive(NAND)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nary_gates(self, n):
        for x in range(1 << n):
            inp = BitVector.from_int(x, n)
            assert nary_and(n).evaluate(inp).bits[0] == int(all(inp.bits))
            assert nary_or(n).evaluate(inp).bits[0] == int(any(inp.bits))

    @pytest.mark.parametrize("width,copies", [(1, 2), (1, 3), (2, 2), (3, 4)])
    def test_bus_copy_duplicates_whole_bus(self, width, copies):
        c = bus_copy(width, copies)
        for x in range(1 << width):
            inp = BitVector.from_int(x, width)
            assert c.evaluate(inp) == BitVector(inp.bits * copies)

    def test_constant_emits_bits(self):
        assert constant(bv("0110")).evaluate(BitVector(())) == bv("0110")


class TestEvaluate:
    def test_width_check(self):
        with pytest.raises(WidthError):
            and_gate().evaluate(bv("1"))

    def test_identity_eval(self):
        for x in range(8):
            inp = BitVector.from_int(x, 3)
            assert identity(3).evaluate(inp) == inp


class TestExtEqual:
    def test_involution(self):
        assert ext_equal(seq(not_gate(), not_gate()), identity(1))

    def test_and_associativity(self):
        left = seq(tensor(and_gate(), identity(1)), and_gate())
        right = seq(tensor(identity(1), and_gate()), and_gate())
        assert ext_equal(left, right)

    def test_constants_differ(self):
        assert not ext_equal(primitive(TRUE), primitive(FALSE))

    def test_width_mismatch(self):
        with pytest.raises(WidthError):
            ext_equal(and_gate(), not_gate())

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=5")
        with pytest.raises(BudgetError):
            ext_equal(identity(6), identity(6))
        assert ext_equal(identity(5), identity(5))

    def test_budget_error_names_its_key(self, monkeypatch):
        monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=5")
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=eval-width=N"):
            ext_equal(identity(6), identity(6))


class TestBalancedTrees:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_depth_is_logarithmic(self, n):
        bound = 2 * math.ceil(math.log2(n))
        assert nand_depth(nary_and(n)) <= bound
        assert nand_depth(nary_or(n)) <= bound

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
    def test_function_and_size(self, n):
        full = (1 << (1 << n)) - 1
        assert truth_columns(nary_and(n)) == [1 << full.bit_length() - 1]
        assert truth_columns(nary_or(n)) == [full - 1]
        # n - 1 binary ANDs of 3 gates, ORs of 5
        assert nary_and(n).gate_count == 3 * (n - 1)
        assert nary_or(n).gate_count == 5 * (n - 1)


class TestColumns:
    def test_columns_agree_with_evaluate(self):
        rng = Random(7)
        for _ in range(40):
            c = random_circuit(rng, rng.randrange(5), rng.randrange(1, 4))
            cols = truth_columns(c)
            for x in range(1 << c.n_inputs):
                out = c.evaluate(BitVector.from_int(x, c.n_inputs))
                assert out.bits == tuple((col >> x) & 1 for col in cols)

    def test_fixed_inputs_restrict(self):
        c = and_gate()
        assert truth_columns(c, fixed={0: 1}) == [0b10]
        assert truth_columns(c, fixed={0: 0}) == [0b00]
        assert truth_columns(c, fixed={0: 1, 1: 1}) == [0b1]

    def test_free_inputs_are_bounded_by_the_eval_width_budget(self, monkeypatch):
        with pytest.raises(BudgetError, match="eval-width budget 20"):
            truth_columns(identity(21))
        monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=4")
        with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=eval-width=N"):
            truth_columns(identity(5))
        assert truth_columns(identity(5), {0: 1}) == [0xFFFF, *truth_columns(identity(4))]

    @pytest.mark.parametrize("fixed", [{0: 2, 1: "x"}, {0: 0.5}, {1: -1}, {0: None}])
    def test_pinned_values_must_be_bits(self, fixed):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            truth_columns(and_gate(), fixed)


class TestAlgebraicLaws:
    """Interchange, functoriality and monoidality on sampled circuits."""

    def test_eval_functorial_over_seq(self):
        rng = Random(11)
        for _ in range(30):
            mid = rng.randrange(1, 4)
            c1 = random_circuit(rng, rng.randrange(4), mid)
            c2 = random_circuit(rng, mid, rng.randrange(1, 4))
            comp = seq(c1, c2)
            for x in range(1 << c1.n_inputs):
                inp = BitVector.from_int(x, c1.n_inputs)
                assert comp.evaluate(inp) == c2.evaluate(c1.evaluate(inp))

    def test_eval_monoidal_over_tensor(self):
        rng = Random(13)
        for _ in range(30):
            c1 = random_circuit(rng, rng.randrange(3), rng.randrange(1, 3))
            c2 = random_circuit(rng, rng.randrange(3), rng.randrange(1, 3))
            both = tensor(c1, c2)
            for x in range(1 << c1.n_inputs):
                for y in range(1 << c2.n_inputs):
                    xi = BitVector.from_int(x, c1.n_inputs)
                    yi = BitVector.from_int(y, c2.n_inputs)
                    assert both.evaluate(xi + yi) == c1.evaluate(xi) + c2.evaluate(yi)

    def test_interchange(self):
        rng = Random(17)
        for _ in range(25):
            w1, w2 = rng.randrange(1, 3), rng.randrange(1, 3)
            a = random_circuit(rng, rng.randrange(3), w1)
            b = random_circuit(rng, rng.randrange(3), w2)
            c = random_circuit(rng, w1, rng.randrange(1, 3))
            d = random_circuit(rng, w2, rng.randrange(1, 3))
            assert ext_equal(seq(tensor(a, b), tensor(c, d)),
                             tensor(seq(a, c), seq(b, d)))


class TestStructuralValidity:
    def test_reading_undefined_wire(self):
        with pytest.raises(ValidationError):
            Circuit(1, (1,), bytes([CODE[NAND]]), (0, 5))

    def test_dangling_output_map(self):
        with pytest.raises(ValidationError):
            Circuit(1, (3,))

    @pytest.mark.parametrize("args, message", [
        ((-1, ()), "n_inputs must be non-negative"),
        ((1, (), bytes([9])), "unknown gate kind code 9"),
        ((2, (2,), bytes([CODE[NAND]]), (0,)),
         "the gates read 2 wires, but 1 input wires are given"),
        ((1, (0.0,)), "output_map holds a wire id that is not an integer: 0.0"),
        ((2, (2,), bytes([CODE[NAND]]), (0.0, 1)),
         "ins holds a wire id that is not an integer: 0.0"),
        ((1, (1 << 70, 0.0)), f"output_map references undefined wire {1 << 70}"),
        ((2, (2,), bytes([CODE[NAND]]), (1 << 70, 1)), f"NAND gate reads undefined wire {1 << 70}"),
    ])
    def test_refusals_name_what_is_wrong(self, args, message):
        with pytest.raises(ValidationError) as refused:
            Circuit(*args)
        assert str(refused.value) == message

    def test_bool_wire_ids_are_the_ints_0_and_1(self):
        c = Circuit(2, (True,), bytes([CODE[NAND]]), (False, True))
        assert c == Circuit(2, (1,), bytes([CODE[NAND]]), (0, 1))
        assert c.evaluate(bv("11")).bits == (1,)

    def test_immutable(self):
        c = and_gate()
        with pytest.raises(AttributeError):
            c.n_inputs = 5


class TestValueSemantics:
    """A circuit is a value: equal arrays make equal, hashable circuits,
    and it survives pickling and copying unchanged. The program cached
    by its first evaluation changes none of that."""

    CIRCUITS = [identity(0), symmetry(2, 3), constant(bv("10")), nary_and(5),
                random_circuit(Random(5), 4, 3, 40)]

    @staticmethod
    def evaluated(c: Circuit) -> Circuit:
        """A fresh twin of `c`, evaluated on every input vector."""
        twin = Circuit(c.n_inputs, c.output_map, c.kinds, c.ins)
        for x in range(1 << c.n_inputs):
            twin.evaluate(BitVector.from_int(x, c.n_inputs))
        return twin

    @staticmethod
    def outputs(c: Circuit) -> list[BitVector]:
        return [c.evaluate(BitVector.from_int(x, c.n_inputs)) for x in range(1 << c.n_inputs)]

    @pytest.mark.parametrize("c", CIRCUITS, ids=repr)
    def test_pickle_and_deepcopy_round_trip(self, c):
        for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert twin == c and hash(twin) == hash(c)

    @pytest.mark.parametrize("c", CIRCUITS, ids=repr)
    def test_equality_hash_and_repr_ignore_the_cache(self, c):
        fresh = Circuit(c.n_inputs, c.output_map, c.kinds, c.ins)
        done = self.evaluated(c)
        assert "_program" not in vars(fresh) and "_program" in vars(done)
        assert done == fresh and hash(done) == hash(fresh) and repr(done) == repr(fresh)

    @pytest.mark.parametrize("c", CIRCUITS, ids=repr)
    def test_evaluated_circuits_round_trip(self, c):
        done = self.evaluated(c)
        for twin in (pickle.loads(pickle.dumps(done)), copy.deepcopy(done)):
            assert twin == done and hash(twin) == hash(done)
            assert self.outputs(twin) == self.outputs(done)

    @pytest.mark.parametrize("c", CIRCUITS, ids=repr)
    def test_the_cache_holds_only_tuples_and_ints(self, c):
        def plain(x):
            return type(x) is int or type(x) is tuple and all(map(plain, x))
        assert plain(self.evaluated(c)._program)

    @pytest.mark.parametrize("c", CIRCUITS, ids=repr)
    def test_pickling_leaves_the_cache_out(self, c):
        fresh = Circuit(c.n_inputs, c.output_map, c.kinds, c.ins)
        done = self.evaluated(c)
        assert pickle.dumps(done) == pickle.dumps(fresh)
        twin = pickle.loads(pickle.dumps(done))
        assert "_program" not in vars(twin) and self.outputs(twin) == self.outputs(done)

    def test_a_circuit_is_lowered_once(self, monkeypatch):
        lowered = []
        lower = circuits._lower
        monkeypatch.setattr(circuits, "_lower", lambda c: lowered.append(c) or lower(c))
        c = self.evaluated(random_circuit(Random(5), 4, 3, 40))
        truth_columns(c)
        truth_columns(c, {1: 1})
        evaluate_batch(c, [BitVector.zeros(4)] * 3)
        assert ext_equal(c, c)
        nand_depth(c)
        to_bristol(c)
        assert lowered == [c]

    def test_equal_circuits_hash_equal(self):
        c = nary_and(5)
        twin = Circuit(c.n_inputs, list(c.output_map), bytearray(c.kinds), list(c.ins))
        assert twin == c and hash(twin) == hash(c)
        assert len({c, twin, nary_and(5)}) == 1
        assert c != nary_or(5) and c != identity(5)

    # "extra" is no field: a new attribute is refused the same way
    @pytest.mark.parametrize("name", ["n_inputs", "output_map", "kinds", "ins", "extra"])
    def test_every_assignment_is_refused(self, name):
        c = and_gate()
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(c, name)
        assert c == and_gate()


@pytest.mark.parametrize("call, error, message", [
    (lambda: CircuitBuilder(1).fanout(0, 0), ValueError, "fanout needs n >= 1"),
    (lambda: CircuitBuilder(1).and_chain([]), ValueError, "and_chain needs at least one wire"),
    (lambda: CircuitBuilder(1).or_chain([]), ValueError, "or_chain needs at least one wire"),
    (lambda: CircuitBuilder(1).splice(and_gate(), [0]), WidthError,
     "splice expects 2 wires, got 1"),
    (lambda: nary_and(0), ValueError, "nary_and needs n >= 1"),
    (lambda: nary_or(0), ValueError, "nary_or needs n >= 1"),
    (lambda: bus_copy(2, 0), ValueError, "bus_copy needs copies >= 1"),
    (lambda: truth_columns(and_gate(), {2: 1}), WidthError, "fixed wire 2 is not a circuit input"),
], ids=["fanout", "and_chain", "or_chain", "splice", "nary_and", "nary_or", "bus_copy",
        "truth_columns"])
def test_refusals(call, error, message):
    """Each argument check refuses with its own type and message."""
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
