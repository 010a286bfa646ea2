"""Gate-list boolean circuits over the fixed NAND/COPY/TRUE/FALSE basis.

A circuit is an immutable DAG. Wires ``0..n_inputs-1`` are the circuit
inputs; every gate appends its output wires in declaration order, so
wire ids are dense and the gate list is topologically sorted by
construction. :meth:`CircuitBuilder.splice` is the one place that
renumbers wires: sequential composition (:func:`seq`) and juxtaposition
(:func:`tensor`) are splices into a fresh builder. Identities and
symmetries (:func:`symmetry`) emit no gates at all -- they are pure
rewiring through ``output_map``.

There is one interpreter, the bit-sliced engine behind
:func:`truth_columns`; :meth:`Circuit.evaluate` is that engine with
every input pinned.

All values here are immutable and every operation is pure, so circuits
and bit vectors can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import budget
from .errors import BudgetError, ValidationError, WidthError

NAND = "NAND"
COPY = "COPY"
TRUE = "TRUE"
FALSE = "FALSE"

#: (input arity, output arity) of each primitive gate kind.
GATE_ARITY = {NAND: (2, 1), COPY: (1, 2), TRUE: (0, 1), FALSE: (0, 1)}

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BitVector:
    """Fixed-width bit string, most significant bit first.

    The all-zero vector of a given width doubles as the reserved
    "undefined" code when bit vectors are read as enumerations.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1: {self.bits!r}")

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        if any(ch not in "01" for ch in text):
            raise ValueError(f"expected a string of 0s and 1s, got {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def from_int(cls, value: int, width: int) -> BitVector:
        if not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(tuple((value >> (width - 1 - i)) & 1 for i in range(width)))

    @classmethod
    def zeros(cls, width: int) -> BitVector:
        return cls((0,) * width)

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        """Integer value, MSB first; linear in the width."""
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
    """One primitive gate occurrence, wired by integer wire ids."""

    kind: str
    in_wires: tuple[int, ...]
    out_wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_wires", tuple(self.in_wires))
        object.__setattr__(self, "out_wires", tuple(self.out_wires))
        if self.kind not in GATE_ARITY:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        n_in, n_out = GATE_ARITY[self.kind]
        if len(self.in_wires) != n_in or len(self.out_wires) != n_out:
            raise ValidationError(
                f"{self.kind} gate must have {n_in} inputs / {n_out} outputs, "
                f"got {len(self.in_wires)}/{len(self.out_wires)}"
            )


@dataclass(frozen=True)
class Circuit:
    """Immutable gate-list circuit with dense, topologically ordered wires."""

    n_inputs: int
    n_outputs: int
    gates: tuple[GateInstance, ...]
    output_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "output_map", tuple(self.output_map))
        if self.n_inputs < 0:
            raise ValidationError("n_inputs must be non-negative")
        if self.n_outputs != len(self.output_map):
            raise ValidationError("n_outputs does not match output_map length")
        next_wire = self.n_inputs
        for g in self.gates:
            for w in g.in_wires:
                if not 0 <= w < next_wire:
                    raise ValidationError(
                        f"{g.kind} gate reads undefined wire {w}"
                    )
            for w in g.out_wires:
                if w != next_wire:
                    raise ValidationError(
                        f"{g.kind} gate writes wire {w}, expected {next_wire}"
                    )
                next_wire += 1
        for w in self.output_map:
            if not 0 <= w < next_wire:
                raise ValidationError(f"output_map references undefined wire {w}")

    @property
    def wire_count(self) -> int:
        return self.n_inputs + sum(len(g.out_wires) for g in self.gates)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def evaluate(self, inputs: BitVector) -> BitVector:
        """Run the circuit on one input vector: :func:`truth_columns`
        with every input pinned."""
        if inputs.width != self.n_inputs:
            raise WidthError(
                f"circuit expects {self.n_inputs} input bits, got {inputs.width}"
            )
        return BitVector(tuple(truth_columns(self, dict(enumerate(inputs.bits)))))


def _mk(n_inputs: int, gates: Iterable[GateInstance], output_map: Iterable[int]) -> Circuit:
    out = tuple(output_map)
    return Circuit(n_inputs, len(out), tuple(gates), out)


def primitive(kind: str) -> Circuit:
    """Single-gate circuit for one of the four primitive kinds."""
    n_in, n_out = GATE_ARITY[kind]
    gate = GateInstance(kind, tuple(range(n_in)), tuple(range(n_in, n_in + n_out)))
    return _mk(n_in, (gate,), range(n_in, n_in + n_out))


def identity(width: int) -> Circuit:
    """Identity on `width` wires; zero gates."""
    return _mk(width, (), range(width))


def symmetry(w1: int, w2: int) -> Circuit:
    """Swap a `w1`-wire block past a `w2`-wire block; zero gates."""
    return _mk(w1 + w2, (), list(range(w1, w1 + w2)) + list(range(w1)))


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
    fan-out / AND / OR chains, and `splice`, which inlines a finished
    circuit onto existing wires.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.gates: list[GateInstance] = []
        self._next = n_inputs

    def inputs(self) -> list[int]:
        return list(range(self.n_inputs))

    def _emit(self, kind: str, in_wires: Sequence[int]) -> list[int]:
        n_out = GATE_ARITY[kind][1]
        outs = list(range(self._next, self._next + n_out))
        self.gates.append(GateInstance(kind, tuple(in_wires), tuple(outs)))
        self._next += n_out
        return outs

    def nand(self, a: int, b: int) -> int:
        return self._emit(NAND, (a, b))[0]

    def copy(self, a: int) -> tuple[int, int]:
        o1, o2 = self._emit(COPY, (a,))
        return o1, o2

    def true(self) -> int:
        return self._emit(TRUE, ())[0]

    def false(self) -> int:
        return self._emit(FALSE, ())[0]

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

    def and_chain(self, wires: Sequence[int]) -> int:
        if not wires:
            raise ValueError("and_chain needs at least one wire")
        acc = wires[0]
        for w in wires[1:]:
            acc = self.and_(acc, w)
        return acc

    def or_chain(self, wires: Sequence[int]) -> int:
        if not wires:
            raise ValueError("or_chain needs at least one wire")
        acc = wires[0]
        for w in wires[1:]:
            acc = self.or_(acc, w)
        return acc

    def splice(self, sub: Circuit, in_wires: Sequence[int]) -> list[int]:
        """Inline `sub` with its inputs bound to `in_wires`; return its outputs."""
        if len(in_wires) != sub.n_inputs:
            raise WidthError(
                f"splice expects {sub.n_inputs} wires, got {len(in_wires)}"
            )
        offset = self._next - sub.n_inputs

        def remap(w: int) -> int:
            return in_wires[w] if w < sub.n_inputs else w + offset

        for g in sub.gates:
            self._emit(g.kind, tuple(remap(w) for w in g.in_wires))
        return [remap(w) for w in sub.output_map]

    def finish(self, output_map: Sequence[int]) -> Circuit:
        return _mk(self.n_inputs, self.gates, output_map)


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
    """n-ary AND as a left-leaning chain of binary ANDs."""
    if n < 1:
        raise ValueError("nary_and needs n >= 1")
    b = CircuitBuilder(n)
    return b.finish([b.and_chain(b.inputs())])


def nary_or(n: int) -> Circuit:
    """n-ary OR as a left-leaning chain of binary ORs."""
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


def truth_columns(c: Circuit, fixed: dict[int, int] | None = None) -> list[int]:
    """Truth-table columns of every output over all free-input assignments.

    Inputs listed in `fixed` are pinned to the given bit; the remaining
    inputs are exhausted in wire order, the lowest-numbered free input
    being the most significant position of the assignment index. Bit
    ``i`` of a returned column is the output value on the assignment
    whose (MSB-first) integer value is ``i``. Every column is returned
    as a single arbitrary-precision integer, which makes exhaustive
    equivalence checks a single pass over the gate list.
    """
    fixed = fixed or {}
    free = [w for w in range(c.n_inputs) if w not in fixed]
    n = len(free)
    size = 1 << n
    full = (1 << size) - 1
    cols = [0] * c.wire_count
    for w, bit in fixed.items():
        if not 0 <= w < c.n_inputs:
            raise WidthError(f"fixed wire {w} is not a circuit input")
        cols[w] = full if bit else 0
    for j, w in enumerate(free):
        half = 1 << (n - 1 - j)
        period = half << 1
        unit = ((1 << half) - 1) << half
        cols[w] = unit * (full // ((1 << period) - 1))
    for g in c.gates:
        if g.kind == NAND:
            a, b = g.in_wires
            cols[g.out_wires[0]] = full ^ (cols[a] & cols[b])
        elif g.kind == COPY:
            v = cols[g.in_wires[0]]
            cols[g.out_wires[0]] = v
            cols[g.out_wires[1]] = v
        elif g.kind == TRUE:
            cols[g.out_wires[0]] = full
        else:
            cols[g.out_wires[0]] = 0
    return [cols[w] for w in c.output_map]


def ext_equal(c1: Circuit, c2: Circuit, max_width: int | None = None) -> bool:
    """Extensional equality: same boolean function on all inputs.

    Purely exhaustive; guarded by a width budget because the check is
    2^n in the input width.
    """
    if c1.n_inputs != c2.n_inputs or c1.n_outputs != c2.n_outputs:
        raise WidthError(
            f"cannot compare {c1.n_inputs}->{c1.n_outputs} "
            f"with {c2.n_inputs}->{c2.n_outputs}"
        )
    if max_width is None:
        max_width = budget.current().eval_width
    if c1.n_inputs > max_width:
        raise BudgetError(
            f"ext_equal over {c1.n_inputs} inputs exceeds width budget {max_width}"
        )
    return truth_columns(c1) == truth_columns(c2)
