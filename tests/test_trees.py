"""Path trees: conversions, folds, and the Q1 document query."""

import pytest

from deltic.calculus import denote, typecheck
from deltic.core import apply_change, values_equal
from deltic.domains import trees
from deltic.incr import incrementalize
from deltic.oracle import stable_rng

from helpers import Rose, complete_rose, step_through


@pytest.fixture(scope="module")
def bundle():
    b = trees.register_trees()
    b.validate(samples=25)
    return b


def test_tree_to_map_and_back_round_trip():
    doc = {
        "title": "x",
        "year": 1999,
        "authors": [{"first": "A", "last": "B"}, {"first": "C", "last": "D"}],
    }
    m = trees.tree_to_map(doc)
    assert m[("title",)] == "x"
    assert m[("authors", 1, "first")] == "C"
    assert trees.map_to_tree(m) == doc


def test_map_round_trip_on_path_maps():
    m = {("a",): 1, ("b", 0): "x", ("b", 1): "y"}
    assert trees.tree_to_map(trees.map_to_tree(m)) == m


def test_map_to_tree_structural_errors():
    with pytest.raises(trees.TreeStructureError):
        trees.map_to_tree({("a", 0): 1, ("a", 2): 2})  # ordinal gap
    with pytest.raises(trees.TreeStructureError):
        trees.map_to_tree({("a",): 1, ("a", "b"): 2})  # leaf and ancestor
    with pytest.raises(trees.TreeStructureError):
        trees.map_to_tree({("a", 0): 1, ("a", "k"): 2})  # mixed steps
    with pytest.raises(trees.TreeStructureError):
        trees.map_to_tree({(): 1, ("a",): 2})  # scalar root plus children


def test_fold_sum_example(bundle):
    tt = typecheck(trees.tree_sum_term(), trees.INT_TREE, bundle.registry)
    v = {("a",): 1, ("b",): 2, ("b", 0): 3}
    assert denote(tt, v) == 6


def test_fold_matches_recursive_oracle(bundle):
    rng = stable_rng(61, "rose")
    tt = typecheck(trees.tree_sum_term(), trees.INT_TREE, bundle.registry)
    for _ in range(20):
        rose = complete_rose(rng.randint(0, 5), rng.randint(1, 3), rng)
        assert denote(tt, rose.to_map()) == rose.fold_sum()


def test_fold_merge_unit_law(bundle):
    # z must be the unit of the merge function
    op = bundle.registry.ops["tree_sum"]
    assert op.fn({}) == 0
    op = bundle.registry.ops["tree_size"]
    assert op.fn({}) == 0
    op = bundle.registry.ops["tree_max"]
    assert op.fn({}) is None


def test_size_and_max_folds(bundle):
    from deltic.calculus import OpCall
    reg = bundle.registry
    doc = trees.tree_to_map({"a": 1, "b": {"c": "x", "d": 2.5}})
    assert denote(typecheck(OpCall("tree_size"), trees.DOC_TREE, reg), doc) == 3
    assert denote(typecheck(OpCall("tree_max"), trees.DOC_TREE, reg), doc) == 2.5


def test_incremental_fold_tracks_batch(bundle):
    tt = typecheck(trees.tree_sum_term(), trees.INT_TREE, bundle.registry)
    m = incrementalize(tt)
    rng = stable_rng(62, "tree-incr")
    rose = complete_rose(4, 2, rng)
    v = rose.to_map()
    paths = list(v)
    ds = [{rng.choice(paths): rng.randint(-3, 3) or 1} for _ in range(5)]
    got, _, v2 = step_through(m, v, ds)
    assert got == denote(tt, v2)


def test_q1_golden_batch(bundle):
    bib = trees.load_bibliography()
    tt = typecheck(trees.q1_term(), trees.BIB_TY, bundle.registry)
    out = denote(tt, bib)
    assert sorted(out) == [0, 1]
    assert out[0] == {("title",): "TCP/IP Illustrated", ("year",): 1994}
    assert out[1] == {("title",): "Advanced Programming in the Unix environment",
                      ("year",): 1992}


def test_q1_streaming_insert_and_delete(bundle):
    bib = trees.load_bibliography()
    tt = typecheck(trees.q1_term(), trees.BIB_TY, bundle.registry)
    m = incrementalize(tt)
    y, c = m.init(bib)

    new_book = trees.tree_to_map({
        "year": 2001, "title": "New Addison Tales",
        "publisher": "Addison-Wesley", "price": 10.0})
    d1 = {7: trees.insert_tree_change(new_book)}
    dy, c = m.step(d1, c)
    y = apply_change(trees.BIB_TY, y, dy)
    assert y[7] == {("title",): "New Addison Tales", ("year",): 2001}

    d2 = {0: trees.delete_tree_change(bib[0])}
    dy, c = m.step(d2, c)
    y = apply_change(trees.BIB_TY, y, dy)
    assert sorted(y) == [1, 7]
    want = denote(tt, apply_change(trees.BIB_TY, apply_change(trees.BIB_TY, bib, d1), d2))
    assert values_equal(trees.BIB_TY, y, want)


def test_checkpath_empties_non_matching(bundle):
    reg = bundle.registry
    from deltic.calculus import OpCall
    tt = typecheck(OpCall("pub_addison_wesley"), trees.DOC_TREE, reg)
    doc = trees.tree_to_map({"publisher": "Elsewhere", "title": "t"})
    assert denote(tt, doc) == {}
    doc2 = trees.tree_to_map({"publisher": "Addison-Wesley", "title": "t"})
    assert denote(tt, doc2) == doc2
