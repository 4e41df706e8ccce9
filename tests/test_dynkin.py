import pytest

from flagample import dynkin
from flagample.dynkin import (
    DynkinType,
    cartan_matrix,
    diagram_automorphisms,
    parse_type,
    root_count,
    symmetrizer,
    weyl_order,
)
from flagample.errors import InternalInconsistencyError, InvalidTypeError
from flagample.rootsystem import build_root_system
from reference import all_types_up_to_rank


def test_parse():
    assert parse_type("A2") == DynkinType("A", 2)
    assert parse_type("f4") == DynkinType("F", 4)
    assert parse_type(" G2 ") == DynkinType("G", 2)


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F5", "G3", "H3", "A", "2", ""])
def test_invalid_types(bad):
    with pytest.raises(InvalidTypeError):
        parse_type(bad)


@pytest.mark.parametrize("label", ["A1", "A3", "B2", "B4", "C3", "D4", "E6", "E7", "E8", "F4", "G2"])
def test_symmetrizer_symmetrizes(label):
    dt = parse_type(label)
    a = cartan_matrix(dt)
    d = symmetrizer(a)
    n = dt.rank
    assert all(x > 0 for x in d)
    for i in range(n):
        for j in range(n):
            assert d[i] * a[i][j] == d[j] * a[j][i]
    # minimality: no common divisor
    import math

    assert math.gcd(*d) == 1


def test_cartan_diagonal_and_signs():
    for dt in all_types_up_to_rank(4):
        a = cartan_matrix(dt)
        for i in range(dt.rank):
            assert a[i][i] == 2
            for j in range(dt.rank):
                if i != j:
                    assert a[i][j] <= 0


def test_root_counts():
    assert root_count(parse_type("A3")) == 12
    assert root_count(parse_type("B4")) == 32
    assert root_count(parse_type("C3")) == 18
    assert root_count(parse_type("D4")) == 24
    assert root_count(parse_type("G2")) == 12
    assert root_count(parse_type("F4")) == 48
    assert root_count(parse_type("E6")) == 72


def test_weyl_orders():
    assert weyl_order("A", 2) == 6
    assert weyl_order("B", 2) == 8
    assert weyl_order("D", 4) == 192
    assert weyl_order("F", 4) == 1152
    assert weyl_order("E", 6) == 51840


def test_diagram_automorphisms():
    assert len(diagram_automorphisms(parse_type("A1"))) == 1
    assert len(diagram_automorphisms(parse_type("A3"))) == 2
    assert len(diagram_automorphisms(parse_type("B3"))) == 1
    assert len(diagram_automorphisms(parse_type("D4"))) == 6  # triality
    assert len(diagram_automorphisms(parse_type("E6"))) == 2
    # the A3 flip reverses the chain
    autos = diagram_automorphisms(parse_type("A3"))
    assert (2, 1, 0) in autos


def test_disconnected_diagram_is_refused(monkeypatch):
    """A Cartan matrix of A1 x A1 given for A2: the symmetrizer spreads
    along the bonds from node 1, never reaches node 2, and the build
    stops."""
    monkeypatch.setattr(dynkin, "cartan_matrix", lambda dt: ((2, 0), (0, 2)))
    with pytest.raises(InternalInconsistencyError, match="^disconnected diagram$"):
        build_root_system(parse_type("A2"))
