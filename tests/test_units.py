"""Scalar units read off each representation, against the hand-built
realizations of the paper: the paravector bases and sign-table rows that
the library builds from the derived units must equal these references."""

import pytest

from hyperclifford.algebra import (
    REP_NAMES,
    Signature,
    TableRow,
    _catalog,
    get_rep,
    involution_table,
    ring_unit_multivectors,
)
from hyperclifford.matrices import HMatrix
from hyperclifford.paravectors import SPACE_NAMES, ParavectorSpace, get_space
from hyperclifford.scalars import HScalar

I, J = HScalar.unit("i"), HScalar.unit("j")


def ring_units_reference(rep):
    """The adjoined unit as a coefficient; the other unit from the
    pseudoscalar: ij = e1 e2 e3 in the 2x2 algebra, -i = e1..e5 in the
    4x4 one."""
    if rep.adjoined == "i":
        i_mv, j_mv = rep.scalar(I), rep.generator(1)
    elif rep.signature == Signature(3, 0):
        i_mv, j_mv = rep.blade((1, 2, 3), J), rep.scalar(J)
    else:
        i_mv, j_mv = -rep.blade((1, 2, 3, 4, 5)), rep.scalar(J)
    return {"1": rep.scalar(1), "i": i_mv, "j": j_mv, "ij": i_mv.gp_blades(j_mv)}


def space_basis_reference(name):
    """The representation and hand-built basis of each paravector space."""
    if name in ("m4", "hm4"):
        rep = get_rep("c30bar")
        basis = [rep.scalar(1)] + [rep.blade((k,)) for k in (1, 2, 3)]
        if name == "hm4":
            units = ring_units_reference(rep)
            basis = [units[u].gp_blades(b) for u in ("1", "i", "j", "ij") for b in basis]
        return rep, basis
    if name == "h1":
        rep = get_rep("c10bar")
        return rep, [rep.scalar(1), rep.scalar(I), rep.generator(1), rep.blade((1,), I)]
    rep = get_rep("h05bar")
    basis = [rep.scalar(1)] + [rep.generator(k) for k in range(1, 6)]
    if name == "r66":
        minus_i = rep.blade((1, 2, 3, 4, 5))
        basis.append(minus_i.scale(-J))  # ij
        # -j*sigma_0k with sigma_0k = -i*e_k
        basis += [minus_i.gp_blades(rep.generator(k)).scale(-J) for k in range(1, 6)]
    return rep, basis


def catalog_reference(rep_name):
    """The displayed units of each sign table, as hand-built blade
    realizations."""
    rep = get_rep(rep_name)
    if rep_name == "r01":
        return [("i", rep.generator(1), False)]
    if rep_name == "r10":
        return [("j", rep.generator(1), False)]
    if rep_name == "c10bar":
        return [("i", rep.scalar(I), False), ("j", rep.generator(1), False),
                ("ij", rep.blade((1,), I), True)]
    if rep_name == "c30bar":
        rows = [(f"e{k}", rep.generator(k), False) for k in (1, 2, 3)]
        rows += [(f"sigma{k}", rep.blade((k,), J), False) for k in (1, 2, 3)]
        return rows + [("i", rep.blade((1, 2, 3), J), False), ("j", rep.scalar(J), False),
                       ("ij", rep.blade((1, 2, 3)), True)]
    minus_i = rep.blade((1, 2, 3, 4, 5))  # i = -e1e2e3e4e5
    rows = [(f"e{k}", rep.generator(k), False) for k in range(1, 6)]
    rows += [(f"sigma0{k}", minus_i.gp_blades(rep.generator(k)), False) for k in range(1, 6)]
    rows += [(f"sigma{k}{l}", (-minus_i).gp_blades(rep.blade((k, l))), False)
             for k in range(1, 6) for l in range(k + 1, 6)]
    return rows + [("i", -minus_i, False), ("j", rep.scalar(J), False),
                   ("ij", minus_i.scale(-J), True)]


def typed(mv):
    """Coordinates with their types, so that 1 and Fraction(1) differ."""
    return [(type(c), c) for c in mv.coords]


def single_slot(mv):
    (k, c), = [(k, c) for k, c in enumerate(mv.coords) if c]
    return k, int(c)


def signs(mv):
    return tuple(1 if mv.involution(kind) == mv else -1 for kind in ("bar", "dagger", "hat"))


HELD = {"r01": "1 i", "r10": "1 j", "c10bar": "1 i j ij", "r30": "1 ij",
        "c30bar": "1 i j ij", "r05": "1 i", "h05bar": "1 i j ij"}


@pytest.mark.parametrize("name", REP_NAMES)
def test_derived_units_are_signed_identities(name):
    rep = get_rep(name)
    assert " ".join(rep._ring_units) == HELD[name]
    for u, mv in rep._ring_units.items():
        k, sign = single_slot(mv)
        unit_matrix = HMatrix.identity(rep.n).scale(HScalar.unit(u))
        assert rep._basis_mat[rep.basis[k]] == (unit_matrix if sign > 0 else -unit_matrix)
        assert mv.to_matrix() == unit_matrix
    if rep.adjoined:
        units = ring_unit_multivectors(rep)
        reference = ring_units_reference(rep)
        assert [typed(units[u]) for u in units] == [typed(reference[u]) for u in reference]
    else:
        with pytest.raises(ValueError, match="scalar units"):
            ring_unit_multivectors(rep)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_spaces_match_hand_built_references(name):
    space = get_space(name)
    rep, basis = space_basis_reference(name)
    assert space.rep is rep
    assert [typed(b) for b in space.basis] == [typed(b) for b in basis]
    reference = ParavectorSpace(name, rep, basis)
    assert space.metric == reference.metric
    assert space._slots == reference._slots == tuple(map(single_slot, basis))
    units = ring_units_reference(rep)
    assert space._unit_slots == tuple(single_slot(units[u]) for u in ("1", "i", "j", "ij"))


@pytest.mark.parametrize("name", REP_NAMES)
def test_sign_tables_match_hand_built_catalog(name):
    table_rep = {"r30": "c30bar", "r05": "h05bar"}.get(name, name)
    reference = catalog_reference(table_rep)
    rows = _catalog(table_rep)
    assert [(u, typed(mv), d) for u, mv, d in rows] == [(u, typed(mv), d) for u, mv, d in reference]
    assert involution_table(name) == [TableRow(u, *signs(mv), d) for u, mv, d in reference]
