"""Resource limits for exhaustive and generative operations.

Several constructions in this package are exponential by design
(exhaustive equivalence checks, truth-table lowering, graph-family
enumeration). Budgets put a hard ceiling on each of them so a typo in a
capacity does not hang the process. Each limit has one name, its
``PATHCIRC_BUDGET`` key: ``gates`` (gates of an emitted circuit, and
the inputs of a circuit document, the spec wires of a universal
circuit or the vertices and edges named by a universal graph family),
``eval-width`` (free inputs of an exhaustive evaluation),
``synth-width`` (inputs of a lowered truth table) and ``graphs``
(members of an enumerated graph family).

:func:`limit` reads one limit and :func:`check` refuses an amount over
it, in the one message form, which names the key that raises the limit. The gate limit is enforced where gates are
emitted: every :class:`~pathcirc.circuits.CircuitBuilder` reads it once
and refuses the gate, or the spliced circuit, that would take it over.

``PATHCIRC_BUDGET`` overrides the defaults: either a single integer
(the gate limit) or comma-separated ``key=value`` pairs. The whole
variable is parsed on every read, so a malformed or negative value is
refused by whichever limit is read.
"""

from __future__ import annotations

import os

from .errors import BudgetError

_DEFAULTS = {
    "gates": 1 << 20,
    "eval-width": 20,
    "synth-width": 16,
    "graphs": 1 << 16,
}


def limit(key: str) -> int:
    """The active limit under `key`, honouring PATHCIRC_BUDGET if set."""
    raw = os.environ.get("PATHCIRC_BUDGET", "")
    limits = dict(_DEFAULTS)
    if raw.strip():
        for item in raw.split(",") if "=" in raw else [f"gates={raw}"]:
            name, _, value = (part.strip() for part in item.partition("="))
            if name not in limits:
                raise BudgetError(f"malformed PATHCIRC_BUDGET {raw!r}: unknown key {name!r} "
                                  f"(the keys are {', '.join(_DEFAULTS)})")
            try:
                limits[name] = int(value)
            except ValueError:
                raise BudgetError(f"malformed PATHCIRC_BUDGET {raw!r}: {name} needs an "
                                  f"integer, got {value!r}") from None
            if limits[name] < 0:
                raise BudgetError(f"malformed PATHCIRC_BUDGET {raw!r}: {name} must be "
                                  f"non-negative, got {limits[name]}")
    return limits[key]


def check(key: str, amount: int | None, what: str, unit: str) -> None:
    """Refuse `what`, which has `amount` `unit`, if that is over the `key`
    limit. An `amount` of None is a count that was stopped as soon as it
    passed the limit, and is reported as "more than" the limit."""
    cap = limit(key)
    if amount is None or amount > cap:
        has = f"more than {cap}" if amount is None else amount
        raise BudgetError(f"{what} has {has} {unit}, over the {key} budget {cap} "
                          f"(raise it with PATHCIRC_BUDGET={key}=N)")
