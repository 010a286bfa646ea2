"""Resource limits for exhaustive and generative operations.

Several constructions in this package are exponential by design
(exhaustive equivalence checks, truth-table lowering, graph-family
enumeration). Budgets put a hard ceiling on each of them so a typo in a
capacity does not hang the process. The gate budget is enforced where
gates are emitted: every :class:`~pathcirc.circuits.CircuitBuilder`
reads it once and refuses the gate, or the spliced circuit, that would
take it over. Only a few previews (the k-fold size, the width of a
universal spec bus, the declared size of a circuit document) check it
before building. The ``PATHCIRC_BUDGET`` environment
variable overrides the defaults: either a single integer (the gate
budget) or comma-separated ``key=value`` pairs with keys ``gates``,
``eval-width``, ``synth-width`` and ``graphs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import BudgetError


@dataclass(frozen=True)
class Budget:
    eval_width: int = 20        # max input width for exhaustive evaluation
    synth_width: int = 16       # max input width for truth-table lowering
    graph_count: int = 1 << 16  # max size of an enumerated graph family
    gate_count: int = 1 << 20   # max gate count for an emitted circuit

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise BudgetError(f"budget {name} must be non-negative, got {value}")


_DEFAULT = Budget()

_ENV_KEYS = {
    "gates": "gate_count",
    "eval-width": "eval_width",
    "synth-width": "synth_width",
    "graphs": "graph_count",
}


def current() -> Budget:
    """Return the active budget, honouring PATHCIRC_BUDGET if set."""
    raw = os.environ.get("PATHCIRC_BUDGET")
    if raw is None or not raw.strip():
        return _DEFAULT
    budget = _DEFAULT
    try:
        if "=" not in raw:
            return replace(budget, gate_count=int(raw))
        for item in raw.split(","):
            key, _, value = item.partition("=")
            field = _ENV_KEYS[key.strip()]
            budget = replace(budget, **{field: int(value)})
    except (KeyError, ValueError) as exc:
        raise BudgetError(f"malformed PATHCIRC_BUDGET {raw!r}: {exc}") from exc
    return budget


def check_gates(count: int, what: str, unit: str = "gates") -> None:
    """Refuse `what`, a circuit of `count` gates (or inputs, or other
    `unit`s bounded by the gate budget), if it exceeds the gate budget."""
    limit = current().gate_count
    if count > limit:
        raise BudgetError(f"{what} has {count} {unit}, over the gate budget {limit} "
                          f"(raise it with PATHCIRC_BUDGET=gates=N)")


def check_width(width: int, what: str, key: str) -> None:
    """Refuse `what`, an exhaustive operation over `width` inputs, if it
    exceeds the width budget under `key` (``eval-width`` or
    ``synth-width``)."""
    limit = getattr(current(), _ENV_KEYS[key])
    if width > limit:
        raise BudgetError(f"{what} over {width} inputs exceeds the {key} budget {limit} "
                          f"(raise it with PATHCIRC_BUDGET={key}=N)")
