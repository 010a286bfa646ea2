"""The budget table: one limit per ``PATHCIRC_BUDGET`` key, and one
refusal that names the key raising it."""

from __future__ import annotations

import time

import pytest

from pathcirc import (BudgetError, all_graphs, and_gate, truth_columns, universal_verifier,
                      valid_graphs)
from pathcirc.budget import check, limit
from pathcirc.graphs import family_size

DEFAULTS = {"gates": 1 << 20, "eval-width": 20, "synth-width": 16, "graphs": 1 << 16}


def test_defaults():
    assert {key: limit(key) for key in DEFAULTS} == DEFAULTS


def test_a_bare_integer_is_the_gate_limit(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", " 5000 ")
    assert {key: limit(key) for key in DEFAULTS} == {**DEFAULTS, "gates": 5000}


def test_pairs_set_only_their_keys(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=4, graphs = 9")
    assert {key: limit(key) for key in DEFAULTS} == {**DEFAULTS, "eval-width": 4, "graphs": 9}


@pytest.mark.parametrize("raw, key", [("eval-width=-1", "eval-width"), ("-3", "gates"),
                                      ("gates=1,synth-width=-2", "synth-width")])
def test_a_negative_limit_is_refused_by_its_key(raw, key, monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", raw)
    for read in DEFAULTS:
        with pytest.raises(BudgetError, match=f": {key} must be non-negative"):
            limit(read)


def test_a_negative_eval_width_names_eval_width(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", "eval-width=-1")
    with pytest.raises(BudgetError, match="eval-width must be non-negative, got -1"):
        truth_columns(and_gate())


@pytest.mark.parametrize("raw", ["gate=5", "eval-width=x", "=5", "gates=1,,", "gates=", "5,6"])
def test_a_malformed_value_is_refused(raw, monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", raw)
    with pytest.raises(BudgetError, match="^malformed PATHCIRC_BUDGET "):
        limit("graphs")


def test_check_is_the_one_message(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", "synth-width=3")
    check("synth-width", 3, "the table", "inputs")
    with pytest.raises(BudgetError) as exc:
        check("synth-width", 4, "the table", "inputs")
    assert str(exc.value) == ("the table has 4 inputs, over the synth-width budget 3 "
                              "(raise it with PATHCIRC_BUDGET=synth-width=N)")
    with pytest.raises(BudgetError) as exc:
        check("synth-width", None, "the table", "inputs")
    assert str(exc.value).startswith("the table has more than 3 inputs, over")


@pytest.mark.parametrize("cap", [0, 1, 5, 16, 256, 1 << 16])
def test_family_size_is_exact_up_to_the_limit(cap, monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", f"graphs={cap}")
    for v in range(6):
        for e in range(12):
            size = v ** (2 * e)
            assert family_size([(v, e)]) == (size if size <= cap else None), (v, e)
    assert family_size([(2, 1), (1, 5), (0, 0)]) == (6 if cap >= 6 else None)


@pytest.mark.parametrize("n, m", [(2, 7200), (3, 10**8)])
def test_a_huge_family_is_refused_at_once(n, m):
    with pytest.raises(BudgetError) as exc:
        all_graphs(n, m)
    assert (f"the family of graphs with {n} vertices and {m} edges has more than 65536 "
            f"members, over the graphs budget 65536 (raise it with PATHCIRC_BUDGET=graphs=N)"
            == str(exc.value))


def test_valid_graphs_count_every_shape(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=24")
    assert len(valid_graphs(2, 2)) == 24
    monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=23")
    with pytest.raises(BudgetError, match=r"^capacity \(2, 2\) has more than 23 graphs"):
        valid_graphs(2, 2)


@pytest.mark.parametrize("k", [0, 2])
def test_the_universal_verifier_reads_no_graphs_budget(k, monkeypatch):
    """The spec check builds its one edgeless graph itself: the graphs
    budget bounds only the enumerated families."""
    verifier = universal_verifier(1, 2, k)
    monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=0")
    assert universal_verifier(1, 2, k) == verifier
    with pytest.raises(BudgetError, match=r"^capacity \(1, 2\) has more than 0 graphs"):
        valid_graphs(1, 2)


def test_a_huge_capacity_is_refused_within_the_limit():
    with pytest.raises(BudgetError, match="PATHCIRC_BUDGET=graphs=N"):
        valid_graphs(10**9, 10**9)


def test_family_size_adds_the_graphs_counted_in_closed_form(monkeypatch):
    monkeypatch.setenv("PATHCIRC_BUDGET", "graphs=7")
    assert family_size([(2, 1)], 3) == 7
    assert family_size([(2, 1)], 4) is None
    # over the limit before the first shape, which is never read
    assert family_size((pytest.fail("a shape was read") for _ in [0]), 8) is None


@pytest.mark.parametrize("m, n", [(10**6, 10**6), (0, 10**6), (10**6, 1)])
def test_a_huge_capacity_is_refused_at_once(m, n):
    # the shapes with one vertex or no edges are counted in closed form
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=rf"^capacity \({m}, {n}\) has more than 65536 graphs"):
            valid_graphs(m, n)
        fastest = min(fastest, time.perf_counter() - start)
    assert fastest < 0.01


@pytest.mark.parametrize("m, n", [(0, 65536), (60000, 1)])
def test_a_capacity_naming_too_many_vertices_is_refused_at_once(m, n):
    # every graph is in the graphs budget, but they name about n^2 / 2 vertices
    # (or m^2 / 2 edges) in all
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=rf"^capacity \({m}, {n}\) has \d+ vertices and "
                                              r"edges in its graphs, over the gates budget 1048576 "
                                              r"\(raise it with PATHCIRC_BUDGET=gates=N\)$"):
            valid_graphs(m, n)
        fastest = min(fastest, time.perf_counter() - start)
    assert fastest < 0.01


def test_the_vertices_and_edges_of_a_family_are_counted_exactly(monkeypatch):
    names = sum(g.n_vertices + g.n_edges for g in valid_graphs(2, 2))
    monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={names}")
    assert len(valid_graphs(2, 2)) == 24
    monkeypatch.setenv("PATHCIRC_BUDGET", f"gates={names - 1}")
    with pytest.raises(BudgetError, match=rf"^capacity \(2, 2\) has {names} vertices and edges"):
        valid_graphs(2, 2)
