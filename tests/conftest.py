"""Shared fixtures: the group zoo and their character tables.

Tables are built once per session; everything downstream treats them as
immutable.
"""

from __future__ import annotations

import pytest

from groupchar import chartable
from groupchar import (character_table, cyclic, direct_product,
                       elementary_abelian, gn, heisenberg, named)

import old_split


def _build_zoo():
    return {
        "trivial": cyclic(1),
        "c2": cyclic(2),
        "c3": cyclic(3),
        "c4": cyclic(4),
        "c5": cyclic(5),
        "c6": cyclic(6),
        "ea9": elementary_abelian(3, 2),
        "s3": named("s3"),
        "d4": named("d4"),
        "q8": named("q8"),
        "d5": named("d5"),
        "heis3": heisenberg(3),
        "heis5": heisenberg(5),
        "gn32": gn(3, 2),
        "heis3xc3": direct_product(heisenberg(3), cyclic(3)),
        "c3wrc3": named("c3wrc3"),
    }


@pytest.fixture(scope="session")
def zoo():
    return _build_zoo()


@pytest.fixture(scope="session")
def tables(zoo):
    return {name: character_table(g) for name, g in zoo.items()}


@pytest.fixture
def class_matrix_split(monkeypatch):
    """Call with ``order``, a function of the class count k giving class
    indices, to make every later split run on the class matrices M_i in
    that order instead of its default sequence."""
    def use(order):
        def matrices(g, classes, inverse_class, q):
            return old_split.class_matrices(g, classes, q, order(len(classes)))

        monkeypatch.setattr(chartable, "_split_matrices", matrices)
    return use
