"""Boolean circuits over the fixed NAND/COPY/TRUE/FALSE basis.

A circuit is an immutable DAG. Wires ``0..n_inputs-1`` are the circuit
inputs; every gate appends its output wires in declaration order, so
wire ids are dense and the gates are topologically sorted by
construction.

A circuit is stored flat, as AIG packages store theirs: ``kinds`` holds
one kind code per gate (an index into :data:`KINDS`), and ``ins`` the
input wires of every gate, gate after gate. Output wires are not
stored: by the dense-wire invariant, a gate's outputs are the next
free wires. :attr:`Circuit.gates` is a derived view of
:class:`GateInstance` records, built on demand for callers that want
one object per gate; the builder, the serialisers and the interpreter
all work on the arrays.

Every circuit is made by a :class:`CircuitBuilder`, which appends
gates to those arrays, and the only other source of circuits is the
document reader. :meth:`CircuitBuilder.splice` is the one place that
renumbers wires: sequential composition (:func:`seq`) and
juxtaposition (:func:`tensor`) are splices into a fresh builder.
Identities and symmetries (:func:`symmetry`) emit no gates at all --
they are pure rewiring through ``output_map``.

There is one interpreter, :func:`_run`. The first time a circuit is
evaluated, measured by :func:`nand_depth` or written as Bristol Fashion,
it is lowered, once, to a NAND-only program that is cached on it
(:attr:`Circuit._program`): a COPY aliases its input's value and so does
no work, TRUE and FALSE are two fixed values, and each NAND is a pair
of operand value ids. :func:`_run` is a bit-sliced loop over those
pairs, so one pass evaluates as many input vectors as a column has
bit positions. :func:`truth_columns` runs it on every assignment of
the free inputs, :meth:`Circuit.evaluate` on one vector, and
:func:`evaluate_batch` on a list of vectors, one bit position each.

All values here are immutable and every operation is pure, so circuits
and bit vectors can be shared freely between threads. The cached
program holds only tuples and ints; two threads that lower the same
circuit at once store equal programs, and either one may stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import lt
from typing import Iterator, Sequence

from . import budget
from .errors import ValidationError, WidthError

NAND = "NAND"
COPY = "COPY"
TRUE = "TRUE"
FALSE = "FALSE"

#: (input arity, output arity) of each primitive gate kind.
GATE_ARITY = {NAND: (2, 1), COPY: (1, 2), TRUE: (0, 1), FALSE: (0, 1)}

#: The gate kinds in code order: a circuit stores a gate of kind
#: ``KINDS[i]`` as the byte ``i``.
KINDS = (NAND, COPY, TRUE, FALSE)
CODE = {kind: i for i, kind in enumerate(KINDS)}
_NAND, _COPY, _TRUE, _FALSE = range(len(KINDS))
_CODES = bytes(range(len(KINDS)))
#: ``bytes.translate`` tables from a kind code to its input / output arity.
_N_IN = bytes(GATE_ARITY[KINDS[i]][0] if i < len(KINDS) else 0 for i in range(256))
_N_OUT = bytes(GATE_ARITY[KINDS[i]][1] if i < len(KINDS) else 0 for i in range(256))

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class BitVector:
    """Fixed-width bit string, most significant bit first.

    The all-zero vector of a given width doubles as the reserved
    "undefined" code when bit vectors are read as enumerations.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        object.__setattr__(self, "bits", bits)
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError(f"bits must be 0 or 1: {bits!r}")

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        if any(ch not in "01" for ch in text):
            raise ValueError(f"expected a string of 0s and 1s, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def from_int(cls, value: int, width: int) -> BitVector:
        if not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        # the binary digits of value with a 1 above the top bit, less "0b1"
        return cls(tuple(bin(value | 1 << width)[3:].encode().translate(_BITS)))

    @classmethod
    def zeros(cls, width: int) -> BitVector:
        return cls((0,) * width)

    @property
    def width(self) -> int:
        return len(self.bits)

    @cached_property
    def value(self) -> int:
        """Integer value, MSB first; linear in the width, once."""
        return int(bytes(self.bits).translate(_DIGITS), 2) if self.bits else 0

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    def concat(self, other: BitVector) -> BitVector:
        return BitVector(self.bits + other.bits)

    __add__ = concat

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class GateInstance:
    """One primitive gate occurrence, wired by integer wire ids: the
    record :attr:`Circuit.gates` returns."""

    kind: str
    in_wires: tuple[int, ...]
    out_wires: tuple[int, ...]


@dataclass(frozen=True, repr=False)
class Circuit:
    """Immutable circuit with dense, topologically ordered wires.

    The fields are the flat arrays: ``kinds`` and ``ins`` as in the
    module docstring, and ``output_map``, the wire of each output.
    Circuits are made by :class:`CircuitBuilder` (or read from a
    document by :func:`~pathcirc.formats.document_from_json`); either
    way :meth:`__post_init__` stores the arrays immutably and validates
    them. :attr:`_program` caches the NAND program once it is lowered;
    equality, hashing, ``repr`` and pickling ignore it.
    """

    n_inputs: int
    output_map: tuple[int, ...]
    kinds: bytes = b""
    ins: tuple[int, ...] = ()

    def __post_init__(self):
        for name, kind in (("output_map", tuple), ("kinds", bytes), ("ins", tuple)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        kinds, ins = self.kinds, self.ins
        if self.n_inputs < 0:
            raise ValidationError("n_inputs must be non-negative")
        unknown = kinds.translate(None, _CODES)
        if unknown:
            raise ValidationError(f"unknown gate kind code {unknown[0]}")
        arities = kinds.translate(_N_IN)
        if len(ins) != sum(arities):
            raise ValidationError(f"the gates read {sum(arities)} wires, "
                                  f"but {len(ins)} input wires are given")
        # a gate may read any wire below its own first output
        firsts = accumulate(kinds.translate(_N_OUT), initial=self.n_inputs)
        if ins and (min(ins) < 0 or not all(map(lt, ins, chain.from_iterable(
                map(repeat, firsts, arities))))):
            self._raise_undefined_read()
        wires = self.wire_count
        if self.output_map and not (0 <= min(self.output_map) and max(self.output_map) < wires):
            bad = next(w for w in self.output_map if not 0 <= w < wires)
            raise ValidationError(f"output_map references undefined wire {bad}")

    def __getstate__(self):
        return {name: getattr(self, name) for name in ("n_inputs", "output_map", "kinds", "ins")}

    @cached_property
    def _program(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The NAND program, as :func:`_lower` gives it: lowered on the
        first read and cached on the circuit."""
        return _lower(self)

    def _raise_undefined_read(self):
        read = iter(self.ins)
        next_wire = self.n_inputs
        for code in self.kinds:
            for w in islice(read, _N_IN[code]):
                if not 0 <= w < next_wire:
                    raise ValidationError(f"{KINDS[code]} gate reads undefined wire {w}")
            next_wire += _N_OUT[code]

    def __repr__(self):
        return (f"Circuit(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
                f"gates={self.gate_count}, output_map={self.output_map!r})")

    @property
    def gates(self) -> tuple[GateInstance, ...]:
        """The gates as :class:`GateInstance` objects, built on each access."""
        out = []
        read = iter(self.ins)
        next_wire = self.n_inputs
        for code in self.kinds:
            n_out = _N_OUT[code]
            out.append(GateInstance(KINDS[code], tuple(islice(read, _N_IN[code])),
                                    tuple(range(next_wire, next_wire + n_out))))
            next_wire += n_out
        return tuple(out)

    @property
    def n_outputs(self) -> int:
        return len(self.output_map)

    @property
    def wire_count(self) -> int:
        return self.n_inputs + sum(self.kinds.translate(_N_OUT))

    @property
    def gate_count(self) -> int:
        return len(self.kinds)

    def evaluate(self, inputs: BitVector) -> BitVector:
        """Run the circuit on one input vector: the interpreter with
        one-bit columns."""
        _check_width(self, inputs)
        return BitVector(tuple(_run(self, inputs.bits, 1)))


def _check_width(c: Circuit, inputs: BitVector) -> None:
    if inputs.width != c.n_inputs:
        raise WidthError(f"circuit expects {c.n_inputs} input bits, got {inputs.width}")


def primitive(kind: str) -> Circuit:
    """Single-gate circuit for one of the four primitive kinds."""
    n_in, n_out = GATE_ARITY[kind]
    b = CircuitBuilder(n_in)
    w = b._emit(CODE[kind], b.inputs())
    return b.finish(range(w, w + n_out))


def identity(width: int) -> Circuit:
    """Identity on `width` wires; zero gates."""
    return CircuitBuilder(width).finish(range(width))


def symmetry(w1: int, w2: int) -> Circuit:
    """Swap a `w1`-wire block past a `w2`-wire block; zero gates."""
    b = CircuitBuilder(w1 + w2)
    wires = b.inputs()
    return b.finish(wires[w1:] + wires[:w1])


def seq(c1: Circuit, c2: Circuit) -> Circuit:
    """Sequential composition: feed every output of c1 into c2."""
    if c1.n_outputs != c2.n_inputs:
        raise WidthError(
            f"cannot compose: {c1.n_outputs} outputs vs {c2.n_inputs} inputs"
        )
    b = CircuitBuilder(c1.n_inputs)
    return b.finish(b.splice(c2, b.splice(c1, b.inputs())))


def tensor(c1: Circuit, c2: Circuit) -> Circuit:
    """Parallel juxtaposition: c1 on the first wires, c2 on the rest."""
    b = CircuitBuilder(c1.n_inputs + c2.n_inputs)
    wires = b.inputs()
    return b.finish(b.splice(c1, wires[:c1.n_inputs]) + b.splice(c2, wires[c1.n_inputs:]))


class CircuitBuilder:
    """Mutable helper for wiring circuits gate by gate.

    Methods return the fresh output wire ids. Beyond the four
    primitives it offers the usual derived connectives, left-leaning
    fan-out chains, balanced AND / OR trees, and `splice`, which
    inlines a finished circuit onto existing wires. Gates go straight
    into the flat arrays a :class:`Circuit` keeps.

    The builder is the one place that enforces the gate budget on the
    circuits it emits: it reads the limit once, refuses the gate that
    would exceed it, and refuses a spliced circuit that would take it
    over the limit before copying any of its gates.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.kinds = bytearray()
        self.ins: list[int] = []
        self._next = n_inputs
        self._limit = budget.limit("gates")

    @property
    def gate_count(self) -> int:
        return len(self.kinds)

    def inputs(self) -> list[int]:
        return list(range(self.n_inputs))

    def _emit(self, code: int, in_wires: Sequence[int]) -> int:
        """Append one gate; return its first output wire."""
        if len(self.kinds) >= self._limit:
            budget.check("gates", len(self.kinds) + 1, "the circuit being built", "gates")
        self.kinds.append(code)
        self.ins.extend(in_wires)
        w = self._next
        self._next = w + _N_OUT[code]
        return w

    def nand(self, a: int, b: int) -> int:
        return self._emit(_NAND, (a, b))

    def copy(self, a: int) -> tuple[int, int]:
        w = self._emit(_COPY, (a,))
        return w, w + 1

    def true(self) -> int:
        return self._emit(_TRUE, ())

    def false(self) -> int:
        return self._emit(_FALSE, ())

    def not_(self, a: int) -> int:
        a1, a2 = self.copy(a)
        return self.nand(a1, a2)

    def and_(self, a: int, b: int) -> int:
        return self.not_(self.nand(a, b))

    def or_(self, a: int, b: int) -> int:
        return self.nand(self.not_(a), self.not_(b))

    def xor(self, a: int, b: int) -> int:
        a1, a2 = self.copy(a)
        b1, b2 = self.copy(b)
        t1, t2 = self.copy(self.nand(a1, b1))
        return self.nand(self.nand(a2, t1), self.nand(t2, b2))

    def xnor(self, a: int, b: int) -> int:
        return self.not_(self.xor(a, b))

    def fanout(self, a: int, n: int) -> list[int]:
        """n copies of one wire via a left-leaning COPY chain."""
        if n < 1:
            raise ValueError("fanout needs n >= 1")
        outs = []
        cur = a
        for _ in range(n - 1):
            o, cur = self.copy(cur)
            outs.append(o)
        outs.append(cur)
        return outs

    def fanout_bus(self, bus: Sequence[int], n: int) -> list[list[int]]:
        """n copies of a whole bus, each copy keeping the bus order."""
        per_wire = [self.fanout(w, n) for w in bus]
        return [[per_wire[j][i] for j in range(len(bus))] for i in range(n)]

    def _tree(self, op, wires: Sequence[int], name: str) -> int:
        """Join the wires with a binary `op`, pairing them up level by
        level: n - 1 operations, ceil(log2 n) levels deep."""
        if not wires:
            raise ValueError(f"{name} needs at least one wire")
        level = list(wires)
        while len(level) > 1:
            odd = level[-1:] if len(level) % 2 else []
            level = [op(a, b) for a, b in zip(level[::2], level[1::2])] + odd
        return level[0]

    def and_chain(self, wires: Sequence[int]) -> int:
        """AND of the wires, as a balanced tree."""
        return self._tree(self.and_, wires, "and_chain")

    def or_chain(self, wires: Sequence[int]) -> int:
        """OR of the wires, as a balanced tree."""
        return self._tree(self.or_, wires, "or_chain")

    def splice(self, sub: Circuit, in_wires: Sequence[int]) -> list[int]:
        """Inline `sub` with its inputs bound to `in_wires`; return its outputs."""
        if len(in_wires) != sub.n_inputs:
            raise WidthError(
                f"splice expects {sub.n_inputs} wires, got {len(in_wires)}"
            )
        if len(self.kinds) + len(sub.kinds) > self._limit:
            budget.check("gates", len(self.kinds) + len(sub.kinds), "the circuit being built",
                         "gates")
        # wire[w] is the wire here of sub's wire w
        wire = list(in_wires)
        wire.extend(range(self._next, self._next + sub.wire_count - sub.n_inputs))
        self.kinds += sub.kinds
        self.ins += map(wire.__getitem__, sub.ins)
        self._next += len(wire) - sub.n_inputs
        return [wire[w] for w in sub.output_map]

    def finish(self, output_map: Sequence[int]) -> Circuit:
        return Circuit(self.n_inputs, output_map, self.kinds, self.ins)


def constant(bits: BitVector) -> Circuit:
    """Zero-input circuit emitting a fixed bit vector (TRUE/FALSE gates)."""
    b = CircuitBuilder(0)
    return b.finish([b.true() if bit else b.false() for bit in bits])


def not_gate() -> Circuit:
    b = CircuitBuilder(1)
    return b.finish([b.not_(0)])


def and_gate() -> Circuit:
    b = CircuitBuilder(2)
    return b.finish([b.and_(0, 1)])


def or_gate() -> Circuit:
    b = CircuitBuilder(2)
    return b.finish([b.or_(0, 1)])


def xor_gate() -> Circuit:
    b = CircuitBuilder(2)
    return b.finish([b.xor(0, 1)])


def nary_and(n: int) -> Circuit:
    """n-ary AND as a balanced tree of binary ANDs."""
    if n < 1:
        raise ValueError("nary_and needs n >= 1")
    b = CircuitBuilder(n)
    return b.finish([b.and_chain(b.inputs())])


def nary_or(n: int) -> Circuit:
    """n-ary OR as a balanced tree of binary ORs."""
    if n < 1:
        raise ValueError("nary_or needs n >= 1")
    b = CircuitBuilder(n)
    return b.finish([b.or_chain(b.inputs())])


def bus_copy(width: int, copies: int = 2) -> Circuit:
    """Duplicate a whole `width`-wire bus `copies` times, bus-major order."""
    if copies < 1:
        raise ValueError("bus_copy needs copies >= 1")
    b = CircuitBuilder(width)
    buses = b.fanout_bus(b.inputs(), copies)
    return b.finish([w for bus in buses for w in bus])


def _lower(c: Circuit) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The NAND program of `c`: the operand value ids of every NAND, in
    gate order, as a left and a right tuple, and the value id of every
    output.

    Value ids ``0..n_inputs-1`` are the inputs, ``n_inputs`` is FALSE,
    ``n_inputs + 1`` is TRUE, and the NANDs number on from there. A
    COPY gate's outputs alias its input's value.
    """
    false = c.n_inputs
    value = list(range(false))  # value[w]: the value id of wire w
    append = value.append
    left: list[int] = []
    right: list[int] = []
    read = iter(c.ins).__next__
    nxt = false + 2
    for code in c.kinds:
        if code == _NAND:
            left.append(value[read()])
            right.append(value[read()])
            append(nxt)
            nxt += 1
        elif code == _COPY:
            v = value[read()]
            append(v)
            append(v)
        else:
            append(false + (code == _TRUE))
    return tuple(left), tuple(right), tuple(value[w] for w in c.output_map)


def _run(c: Circuit, input_columns: Sequence[int], full: int) -> list[int]:
    """The one interpreter: the output columns of `c` on the given input
    columns, each `full`'s bit width wide."""
    left, right, outputs = c._program
    v = [*input_columns, 0, full]
    append = v.append
    for a, b in zip(left, right):
        append(full ^ (v[a] & v[b]))
    return [v[w] for w in outputs]


def truth_columns(c: Circuit, fixed: dict[int, int] | None = None) -> list[int]:
    """Truth-table columns of every output over all free-input assignments.

    Inputs listed in `fixed` are pinned to the given bit, 0 or 1; the
    remaining inputs are exhausted in wire order, the lowest-numbered
    free input being the most significant position of the assignment
    index. Bit ``i`` of a returned column is the output value on the
    assignment whose (MSB-first) integer value is ``i``. Every column
    is returned as a single arbitrary-precision integer, so one run of
    the interpreter makes an exhaustive equivalence check. The
    ``eval-width`` budget bounds the free inputs, as the columns are
    2^n bits wide.
    """
    fixed = fixed or {}
    free = [w for w in range(c.n_inputs) if w not in fixed]
    n = len(free)
    budget.check("eval-width", n, "truth_columns", "free inputs")
    size = 1 << n
    full = (1 << size) - 1
    cols = [0] * c.n_inputs
    for w, bit in fixed.items():
        if not 0 <= w < c.n_inputs:
            raise WidthError(f"fixed wire {w} is not a circuit input")
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1: {fixed!r}")
        cols[w] = full if bit else 0
    for j, w in enumerate(free):
        # ones in the upper half of each 2*half-bit period, doubled out to `size` bits
        half = 1 << (n - 1 - j)
        col, width = ((1 << half) - 1) << half, half << 1
        while width < size:
            col, width = col | col << width, width << 1
        cols[w] = col
    return _run(c, cols, full)


def evaluate_batch(c: Circuit, vectors: Sequence[BitVector]) -> list[BitVector]:
    """:meth:`Circuit.evaluate` on every vector, in one run of the
    interpreter: vector ``j`` is bit position ``j`` of every column."""
    for inputs in vectors:
        _check_width(c, inputs)
    n = len(vectors)
    if not n:
        return []
    # MSB first, so the last vector is the top bit of each column
    cols = [int(bytes(bits).translate(_DIGITS), 2)
            for bits in zip(*(v.bits for v in reversed(vectors)))]
    outs = [format(col, f"0{n}b").encode().translate(_BITS)[::-1]
            for col in _run(c, cols, (1 << n) - 1)]
    return [BitVector(tuple(out[j] for out in outs)) for j in range(n)]


def nand_depth(c: Circuit) -> int:
    """Longest input-to-output path, counted in NAND gates: one depth
    per value of the NAND program, the inputs and constants at 0."""
    left, right, outputs = c._program
    depth = [0] * (c.n_inputs + 2)
    append = depth.append
    for a, b in zip(left, right):
        append(1 + max(depth[a], depth[b]))
    return max(map(depth.__getitem__, outputs), default=0)


def ext_equal(c1: Circuit, c2: Circuit) -> bool:
    """Extensional equality: same boolean function on all inputs.

    Purely exhaustive, over :func:`truth_columns` and so under its
    ``eval-width`` budget.
    """
    if c1.n_inputs != c2.n_inputs or c1.n_outputs != c2.n_outputs:
        raise WidthError(
            f"cannot compare {c1.n_inputs}->{c1.n_outputs} "
            f"with {c2.n_inputs}->{c2.n_outputs}"
        )
    return truth_columns(c1) == truth_columns(c2)
