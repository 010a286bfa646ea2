"""Reference interpreter for the circuit engine.

The per-kind loop: every gate, in order, appends the truth-table
columns of its output wires by kind, so COPY, TRUE and FALSE are run as
gates instead of being lowered away. The tests compare the package's
interpreter with it; it shares no code with the interpreter under test.
"""

from __future__ import annotations

from pathcirc.circuits import CODE, COPY, NAND, TRUE


def reference_columns(c, fixed: dict[int, int] | None = None) -> list[int]:
    """The columns :func:`pathcirc.truth_columns` returns, with the same
    assignment order: pinned inputs fixed, the free ones exhausted with
    the lowest-numbered free input as the most significant position."""
    fixed = fixed or {}
    free = [w for w in range(c.n_inputs) if w not in fixed]
    n = len(free)
    full = (1 << (1 << n)) - 1
    cols = [0] * c.n_inputs
    for w, bit in fixed.items():
        cols[w] = full if bit else 0
    for j, w in enumerate(free):
        half = 1 << (n - 1 - j)
        unit = ((1 << half) - 1) << half
        cols[w] = unit * (full // ((1 << (half << 1)) - 1))
    read = iter(c.ins)
    for code in c.kinds:
        if code == CODE[NAND]:
            cols.append(full ^ (cols[next(read)] & cols[next(read)]))
        elif code == CODE[COPY]:
            v = cols[next(read)]
            cols += [v, v]
        else:
            cols.append(full if code == CODE[TRUE] else 0)
    return [cols[w] for w in c.output_map]


def reference_evaluate(c, bits) -> tuple[int, ...]:
    """The output bits on one input vector: every input pinned."""
    return tuple(reference_columns(c, dict(enumerate(bits))))
