from itertools import product

import pytest

import mvmt.algebra
from mvmt import (
    ChainError,
    ElementRangeError,
    InvalidSizeError,
    InvalidTableError,
    chain_from_dict,
    chain_kind,
    chain_to_dict,
    coatom,
    make_custom,
    make_godel,
    make_lukasiewicz,
    residuum,
    tnorm,
)
from mvmt.harness import enumerate_tnorm_tables


def brute_residuum(chain, x, y):
    return max(z for z in range(chain.size) if chain.tnorm[x][z] <= y)


def test_lukasiewicz_two_is_boolean():
    c = make_lukasiewicz(2)
    assert c.tnorm == ((0, 0), (0, 1))
    assert c.top == 1 and c.bottom == 0


def test_lukasiewicz_three_nilpotent():
    c = make_lukasiewicz(3)
    assert c.tnorm[1][1] == 0
    assert [c.label(k) for k in range(3)] == ["0/2", "1/2", "2/2"]


def test_labels_follow_the_size():
    assert make_custom(1, [[0]]).label(0) == "0/0"
    assert [make_godel(2).label(k) for k in range(2)] == ["0/1", "1/1"]
    with pytest.raises(ElementRangeError):
        make_lukasiewicz(3).label(3)


@pytest.mark.parametrize("factory", [make_lukasiewicz, make_godel])
def test_size_one_rejected(factory):
    with pytest.raises(InvalidSizeError):
        factory(1)
    with pytest.raises(InvalidSizeError):
        factory(0)
    with pytest.raises(InvalidSizeError, match=r"^chain size must be a positive integer, got 0$"):
        make_custom(0, ())


def test_godel_examples():
    c = make_godel(3)
    assert c.tnorm[1][2] == 1
    assert residuum(c, 1, 2) == 2
    assert residuum(c, 2, 1) == brute_residuum(c, 2, 1) == 1


def test_residuum_identities():
    for c in (make_lukasiewicz(4), make_godel(5)):
        for x in range(c.size):
            assert residuum(c, x, x) == c.top
            assert residuum(c, c.top, x) == x


def test_lukasiewicz_residuum_frozen_case():
    c = make_lukasiewicz(3)
    assert brute_residuum(c, 1, 0) == 1
    assert residuum(c, 1, 0) == 1


def test_residuum_range_check():
    c = make_lukasiewicz(3)
    with pytest.raises(ElementRangeError):
        residuum(c, 5, 0)
    with pytest.raises(ElementRangeError):
        tnorm(c, 0, -1)


@pytest.mark.parametrize("n", range(2, 6))
def test_custom_reproduces_stock_chains(n):
    assert make_custom(n, make_lukasiewicz(n).tnorm) == make_lukasiewicz(n)
    assert make_custom(n, make_godel(n).tnorm) == make_godel(n)


def test_unit_law_error_with_witness():
    table = [list(row) for row in make_lukasiewicz(3).tnorm]
    table[2][1] = 0
    table[1][2] = 0
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, table)
    assert err.value.law == "unit"
    assert err.value.witness == (2, 1)


def test_associativity_error_found_by_search():
    # Brute-force a 3x3 commutative monotone table that fails associativity,
    # then check the constructor rejects it with a real witnessing triple.
    found = None
    for cells in product(range(3), repeat=6):
        t = [[0] * 3 for _ in range(3)]
        t[0][0], t[0][1], t[0][2] = cells[0], cells[1], cells[2]
        t[1][1], t[1][2], t[2][2] = cells[3], cells[4], cells[5]
        t[1][0], t[2][0], t[2][1] = t[0][1], t[0][2], t[1][2]
        monotone = all(
            t[x][y] <= t[x][y + 1] and t[y][x] <= t[y + 1][x]
            for x in range(3)
            for y in range(2)
        )
        if not monotone:
            continue
        if any(
            t[t[x][y]][z] != t[x][t[y][z]]
            for x in range(3)
            for y in range(3)
            for z in range(3)
        ):
            found = t
            break
    assert found is not None
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, found)
    assert err.value.law == "associativity"
    x, y, z = err.value.witness
    assert found[found[x][y]][z] != found[x][found[y][z]]


def test_monotonicity_error_with_witness():
    # Commutative, associative, unit holds, but row 0 dips after rising.
    table = [[0, 1, 0], [1, 1, 1], [0, 1, 2]]
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, table)
    assert err.value.law == "monotonicity"
    assert err.value.witness == (0, 1, 2)


def test_commutativity_and_range_and_shape_errors():
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, [[0, 0, 0], [1, 0, 1], [0, 1, 2]])
    assert err.value.law == "commutativity"
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, [[0, 0, 0], [0, 0, 5], [0, 1, 2]])
    assert err.value.law == "range"
    with pytest.raises(InvalidTableError) as err:
        make_custom(3, [[0, 0], [0, 1]])
    assert err.value.law == "shape"


@pytest.mark.parametrize("make", [make_lukasiewicz, make_godel])
@pytest.mark.parametrize("n", range(2, 9))
def test_adjunction_exhaustive(make, n):
    c = make(n)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert (c.tnorm[x][z] <= y) == (z <= c.residuum[x][y])


@pytest.mark.parametrize("make", [make_lukasiewicz, make_godel])
def test_prelinearity_exhaustive(make):
    for n in range(2, 7):
        c = make(n)
        for x in range(n):
            for y in range(n):
                assert max(c.residuum[x][y], c.residuum[y][x]) == c.top


def test_bottom_absorbs():
    for c in (make_lukasiewicz(5), make_godel(4)):
        assert all(c.tnorm[0][x] == 0 for x in range(c.size))


def test_coatom():
    assert coatom(make_lukasiewicz(3)) == 1
    assert coatom(make_lukasiewicz(2)) == 0
    with pytest.raises(InvalidSizeError):
        coatom(make_custom(1, [[0]]))


def test_kind_detection_and_dict_round_trip():
    for c in (make_lukasiewicz(4), make_godel(4)):
        assert chain_from_dict(chain_to_dict(c)) == c
    assert chain_kind(make_lukasiewicz(4)) == "lukasiewicz"
    assert chain_kind(make_godel(4)) == "godel"
    # a chain that is neither stock family
    godel4 = [list(row) for row in make_godel(4).tnorm]
    godel4[1][1] = 0
    godel4[1][2] = 0
    godel4[2][1] = 0
    custom = make_custom(4, godel4)
    assert chain_kind(custom) == "custom"
    assert chain_from_dict(chain_to_dict(custom)) == custom
    # n = 2 is both families; detection must still round-trip
    assert chain_from_dict(chain_to_dict(make_godel(2))) == make_godel(2)
    for kind in ("mystery", ["godel"], {"godel": 1}, None):
        with pytest.raises(ChainError, match="unknown algebra kind"):
            chain_from_dict({"kind": kind, "size": 3})
    with pytest.raises(ChainError, match=r"^algebra fragment must carry 'kind' and 'size'$"):
        chain_from_dict({"size": 3})
    with pytest.raises(ChainError, match=r"^custom algebra fragment must carry its 'tnorm' table$"):
        chain_from_dict({"kind": "custom", "size": 2})


def test_kind_detection_builds_no_residuum(monkeypatch):
    # Stock chains of sizes 2-6 and 256, every custom table on 3 and 4
    # elements, and the one-element chain, all built before the patch.
    stock = [(make_lukasiewicz(n), "lukasiewicz") for n in (2, 3, 4, 5, 6, 256)]
    stock += [(make_godel(n), "lukasiewicz" if n == 2 else "godel") for n in (2, 3, 4, 5, 6, 256)]
    custom = [
        make_custom(n, table)
        for n in (3, 4)
        for table in enumerate_tnorm_tables(n)
        if table not in (make_lukasiewicz(n).tnorm, make_godel(n).tnorm)
    ]
    expected = stock + [(c, "custom") for c in custom] + [(make_custom(1, [[0]]), "custom")]
    assert len(custom) > 2

    def refuse(n, table):
        raise AssertionError("residuum derived while classifying a chain")

    monkeypatch.setattr(mvmt.algebra, "_derive_residuum", refuse)
    for chain, kind in expected:
        assert chain_to_dict(chain)["kind"] == kind


def test_residuum_closed_forms_on_large_chains():
    n = 300
    top = n - 1
    godel, lukasiewicz = make_godel(n), make_lukasiewicz(n)
    for x in range(n):
        assert godel.residuum[x] == tuple(top if x <= y else y for y in range(n))
        assert lukasiewicz.residuum[x] == tuple(min(top, top - x + y) for y in range(n))


def test_custom_residuum_is_the_greatest_solution():
    for n in range(1, 7):
        for table in enumerate_tnorm_tables(n):
            c = make_custom(n, table)
            assert c.residuum == tuple(
                tuple(brute_residuum(c, x, y) for y in range(n)) for x in range(n)
            )
