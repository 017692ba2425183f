"""The sorted-adjacent scan of `separating_opens` against the all-pairs scan.

`separating_opens` compares only neighbours in the sorted order of the
value tuples.  Each test here requires the same atoms, and the same
returned tuple, as the all-pairs scan in `oracles`, on every kind of
representation the builders make and on drawn value tuples.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import atom_open, separating_atoms_by_all_pairs
from semitop.core import InverseStructure, inverse_structure
from semitop.embed import (
    adjoin_embed,
    bundled_group_fixtures,
    cayley_right_regular,
    clifford_product_embed,
    embcl_rep,
    group_restriction,
    product_embed,
    separating_opens,
    verify_embedding,
    wagner_preston,
)
from semitop.errors import KindError
from semitop.semigroups import (
    cyclic_group,
    embedding_catalog,
    full_transformation_monoid,
    symmetric_inverse_monoid,
)
from semitop.transforms import IN, NN, W_DOM

CATALOG = dict(embedding_catalog())
CATALOG["I4"] = symmetric_inverse_monoid(4)[0]
INVERSE = {name: inv for name, s in CATALOG.items()
           if isinstance(inv := inverse_structure(s), InverseStructure)}


def opens_from_atoms(space, atoms):
    """The basic opens of the atoms, in the order `separating_opens` returns."""
    opens = (atom_open(space, x, v) for x, v in atoms)
    return tuple(sorted(opens, key=lambda b: (len(b.atoms), str(b.atoms))))


def atoms_of(opens):
    return {(a[1], None) if a[0] == W_DOM else a[-2:] for (a,) in (b.atoms for b in opens)}


def assert_matches_all_pairs(rep):
    got = separating_opens(rep)
    want = separating_atoms_by_all_pairs(rep.values)
    assert atoms_of(got) == want
    assert got == opens_from_atoms(rep.space, want)


def _reps():
    yield from ((f"cayley_{name}", cayley_right_regular(s)) for name, s in CATALOG.items())
    yield from ((f"wp_{name}", wagner_preston(inv)) for name, inv in INVERSE.items())
    for name in ("Z2", "R2", "L2", "chain3"):
        with_one, with_zero = adjoin_embed(cayley_right_regular(CATALOG[name]))
        yield f"adjoin1_{name}", with_one
        yield f"adjoin0_{name}", with_zero
    yield from ((f"embcl_I{n}", embcl_rep(n)) for n in range(1, 5))
    yield "product_Z2xchain2", product_embed(
        [cayley_right_regular(CATALOG["Z2"]), cayley_right_regular(CATALOG["chain2"])])
    yield "product_S3xI2xchain3", product_embed(
        [cayley_right_regular(CATALOG[name]) for name in ("S3", "I2", "chain3")])
    yield "product_wp_I2xchain2", product_embed(
        [wagner_preston(INVERSE["I2"]), wagner_preston(INVERSE["chain2"])])
    yield from ((f"restrict_{name}", group_restriction(maps, name=name).rep)
                for name, maps in bundled_group_fixtures())


REPS = list(_reps())


@pytest.mark.parametrize("name,rep", REPS, ids=[name for name, _ in REPS])
def test_sorted_neighbours_give_the_all_pairs_opens(name, rep):
    assert_matches_all_pairs(rep)


@pytest.mark.parametrize("name", ["Z2", "S3", "chain3", "signed_antichain5"])
def test_clifford_product_components_give_the_all_pairs_atoms(name):
    # a finite target has no basic opens, but its component tuples are
    # value tuples all the same: the scan reads them through a plain view
    rep = clifford_product_embed(INVERSE[name])
    with pytest.raises(KindError):
        separating_opens(rep)
    assert_matches_all_pairs(SimpleNamespace(space=NN, values=rep.values))


def test_product_opens_match_the_all_pairs_scan():
    t2 = cayley_right_regular(full_transformation_monoid(2)[0])
    rep = product_embed([t2] * 3 + [cayley_right_regular(cyclic_group(2))])
    assert (rep.source.n, rep.window) == (128, 57)
    assert_matches_all_pairs(rep)
    assert verify_embedding(rep).ok


@st.composite
def value_tuples(draw):
    """Distinct value tuples on a small window: holes, values inside the
    window and values past it, as lazy NN maps give."""
    window = draw(st.integers(1, 4))
    value = st.none() | st.integers(0, window + 3)
    rows = draw(st.lists(st.tuples(*[value] * window), min_size=2, max_size=12,
                         unique=True))
    return draw(st.sampled_from((NN, IN))), tuple(rows)


def test_sorted_neighbours_give_the_all_pairs_opens_on_drawn_tuples():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value_tuples())
    def check(case):
        space, values = case
        assert_matches_all_pairs(SimpleNamespace(space=space, values=values))
        for x, v in separating_atoms_by_all_pairs(values):
            seen.add("hole" if v is None else "past" if v >= len(values[0]) else "inside")

    check()
    assert seen == {"hole", "past", "inside"}
