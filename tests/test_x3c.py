import random

import pytest

from holant3.errors import NotThreeRegular
from holant3.grid import holant
from holant3.signatures import SymSig, EQ3
from holant3.x3c import brute_force_exact_covers, count_exact_covers, rx3c_to_grid
from conftest import brute_exact_covers, rand_3reg_system


def test_worked_instances():
    assert count_exact_covers([[1, 2, 3]] * 3) == 3
    assert count_exact_covers([[1, 2, 3], [4, 5, 6]] * 3) == 9


def test_not_three_regular_rejected():
    with pytest.raises(NotThreeRegular):
        count_exact_covers([[1, 2, 3]])
    with pytest.raises(NotThreeRegular):
        count_exact_covers([[1, 1, 2], [1, 2, 3], [1, 2, 3]])


def test_orientation_witness():
    """Instance whose exact-cover count differs from its dual's: the
    incidence orientation (elements carry exact-one, sets carry
    equality) is pinned by this value."""
    sets = [[3, 2, 0], [1, 5, 4], [2, 3, 1], [5, 0, 4], [2, 1, 0], [4, 3, 5]]
    assert brute_exact_covers(sets) == 3
    assert count_exact_covers(sets) == 3
    # swapped orientation counts the dual problem instead and yields 2 here
    g = rx3c_to_grid(sets)
    swapped = type(g)()
    for vid, v in g.vertices.items():
        if vid[0] == "elt":
            swapped.add_vertex(vid, EQ3, "R")
        else:
            swapped.add_vertex(vid, SymSig([0, 1, 0, 0]), "L")
    for (a, b) in g.edges:
        swapped.add_edge(b, a)
    swapped.validate()
    assert holant(swapped) == 2


def test_random_systems_match_brute_force():
    rng = random.Random(40)
    for _ in range(15):
        sets = rand_3reg_system(rng, rng.choice([3, 4, 5, 6]))
        assert count_exact_covers(sets) == brute_exact_covers(sets)


def test_package_brute_force_agrees():
    rng = random.Random(41)
    for _ in range(5):
        sets = rand_3reg_system(rng, 4)
        assert brute_force_exact_covers(sets) == brute_exact_covers(sets)


def test_grid_shape():
    g = rx3c_to_grid([[1, 2, 3]] * 3)
    sides = [v.polarities for v in g.vertices.values()]
    assert sides.count(("L",) * 3) == 3 and sides.count(("R",) * 3) == 3  # elements, sets
    assert len(g.edges) == 9
