"""Reference ROBDD: proves circuits equal past ``ext_equal``'s reach.

A node is an int: 0 and 1 are the terminals, and every other node n is
``nodes[n] = (level, hi, lo)``, made once through the unique table, so
two functions are equal iff their nodes are the same int (Bryant 1986).
AND and NOT are memoised. :func:`outputs` runs a circuit's NAND program
(``c._program``) over them; it shares no code with the package's
interpreter.

As a script, it proves two circuit documents equal, output by output
(the package must be importable, e.g. with ``PYTHONPATH=src``)::

    python tests/bdd_ref.py A.json B.json [--spec-last]

The inputs are levels in wire order; ``--spec-last`` moves the spec bus
that A's metadata declares (``in_width``, ``spec_width``) below all
others, the order in which universal verifiers stay small. Exit status
0: equal; 1: unequal, or of different widths.
"""

from __future__ import annotations

import argparse
import sys


class BDD:
    def __init__(self):
        self.nodes = [(-1, 0, 0), (-1, 1, 1)]  # the terminals' entries are never read
        self.unique: dict[tuple[int, int, int], int] = {}
        self.and_memo: dict[tuple[int, int], int] = {}
        self.not_memo = {0: 1, 1: 0}

    def node(self, level: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        n = self.unique.get((level, hi, lo))
        if n is None:
            n = self.unique[level, hi, lo] = len(self.nodes)
            self.nodes.append((level, hi, lo))
        return n

    def not_(self, f: int) -> int:
        r = self.not_memo.get(f)
        if r is None:
            level, hi, lo = self.nodes[f]
            r = self.not_memo[f] = self.node(level, self.not_(hi), self.not_(lo))
            self.not_memo[r] = f
        return r

    def and_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f < 2 or f == g:
            return g if f == 1 else f
        r = self.and_memo.get((f, g))
        if r is None:
            (lf, f1, f0), (lg, g1, g0) = self.nodes[f], self.nodes[g]
            top = min(lf, lg)
            if lf > top:
                f1 = f0 = f
            if lg > top:
                g1 = g0 = g
            r = self.and_memo[f, g] = self.node(top, self.and_(f1, g1), self.and_(f0, g0))
        return r


def outputs(bdd: BDD, c, order=None) -> list[int]:
    """The node of each output of circuit `c`, with input wire
    ``order[i]`` at level i (wire order by default)."""
    left, right, outs = c._program
    level = {w: i for i, w in enumerate(range(c.n_inputs) if order is None else order)}
    v = [bdd.node(level[w], 1, 0) for w in range(c.n_inputs)] + [0, 1]
    for a, b in zip(left, right):
        v.append(bdd.not_(bdd.and_(v[a], v[b])))
    return [v[o] for o in outs]


def equal(c1, c2, order=None) -> bool:
    """Whether two circuits of the same widths compute the same function."""
    bdd = BDD()
    return outputs(bdd, c1, order) == outputs(bdd, c2, order)


def main(argv=None) -> int:
    from pathcirc.formats import document_from_json

    p = argparse.ArgumentParser(description="prove two circuit documents equal")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--spec-last", action="store_true")
    args = p.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as f:
            docs.append(document_from_json(f.read()))
    (c1, c2), meta = [d.circuit for d in docs], docs[0].metadata or {}
    order = list(range(c1.n_inputs))
    if args.spec_last:
        n, s = meta["in_width"], meta.get("spec_width", 0)
        order = order[:n] + order[n + s:] + order[n:n + s]
    if (c1.n_inputs, c1.n_outputs) != (c2.n_inputs, c2.n_outputs):
        print(f"widths differ: {c1.n_inputs}->{c1.n_outputs} vs {c2.n_inputs}->{c2.n_outputs}")
        return 1
    bdd = BDD()
    same = outputs(bdd, c1, order) == outputs(bdd, c2, order)
    print(f"{'equal' if same else 'unequal'} ({len(bdd.nodes)} nodes)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
