"""GCounter CRDT: semilattice laws and delta-state behavior."""

import pytest

from deltic.calculus import TermTypeError, denote, typecheck
from deltic.core import TProd
from deltic.domains import gcounter
from deltic.incr import incrementalize
from deltic.oracle import stable_rng

from helpers import step_through

IDS = ("r1", "r2", "r3")


@pytest.fixture(scope="module")
def bundle():
    b = gcounter.register_gcounter(IDS)
    b.validate(samples=30)
    return b


@pytest.fixture(scope="module")
def cty():
    return gcounter.counter_ty(IDS)


def _rand_state(rng):
    return {i: rng.randint(1, 9) for i in IDS if rng.random() < 0.7}


def test_merge_example(bundle, cty):
    tt = typecheck(gcounter.merge_term(), TProd(cty, cty), bundle.registry)
    got = denote(tt, ({"r1": 2, "r3": 1}, {"r1": 1, "r2": 3}))
    assert got == {"r1": 2, "r2": 3, "r3": 1}


def test_value_example(bundle, cty):
    tt = typecheck(gcounter.value_term(), cty, bundle.registry)
    assert denote(tt, {"r1": 2, "r2": 3, "r3": 1}) == 6


def test_inc_outside_participants_is_type_error(bundle, cty):
    with pytest.raises(TermTypeError):
        typecheck(gcounter.inc_term("nope"), cty, bundle.registry)


def test_merge_semilattice_laws(bundle, cty):
    tt = typecheck(gcounter.merge_term(), TProd(cty, cty), bundle.registry)
    merge = lambda a, b: denote(tt, (a, b))
    rng = stable_rng(71, "semilattice")
    for _ in range(300):
        a, b, c = _rand_state(rng), _rand_state(rng), _rand_state(rng)
        assert merge(a, a) == a
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_incremental_merge_value_inc_equal_batch(bundle, cty):
    reg = bundle.registry
    rng = stable_rng(72, "gcounter-incr")
    merge_tt = typecheck(gcounter.merge_term(), TProd(cty, cty), reg)
    value_tt = typecheck(gcounter.value_term(), cty, reg)
    inc_tts = {i: typecheck(gcounter.inc_term(i), cty, reg) for i in IDS}
    for _ in range(50):
        # merge and value under random additive update sequences
        a, b = _rand_state(rng), _rand_state(rng)
        ds = []
        for _ in range(rng.randint(0, 5)):
            da = {i: rng.randint(1, 3) for i in IDS if rng.random() < 0.4}
            db = {i: rng.randint(1, 3) for i in IDS if rng.random() < 0.4}
            ds.append((da, db))
        m = incrementalize(merge_tt)
        got, _, x2 = step_through(m, (a, b), ds)
        assert got == denote(merge_tt, x2)

        vm = incrementalize(value_tt)
        vds = [d[0] for d in ds]
        got, _, a2 = step_through(vm, a, vds)
        assert got == denote(value_tt, a2)

        node = rng.choice(IDS)
        im = incrementalize(inc_tts[node])
        got, _, a2 = step_through(im, a, vds)
        assert got == denote(inc_tts[node], a2)


def test_incremental_merge_is_delta_state(bundle, cty):
    # feeding only the sparse delta updates the running sum without a rescan
    from deltic.calculus import Seq
    reg = bundle.registry
    merge_then_value = typecheck(
        Seq(gcounter.merge_term(), gcounter.value_term()), TProd(cty, cty), reg)
    m = incrementalize(merge_then_value)
    a, b = {"r1": 2}, {"r2": 1}
    y, c = m.init((a, b))
    assert y == 3
    dy, c = m.step(({}, {"r2": 3}), c)
    assert dy == 3  # max(0+..., 1+3) grew by exactly the delta
    assert denote(merge_then_value, ({"r1": 2}, {"r2": 4})) == y + dy


def test_inc_program_semantics(bundle, cty):
    tt = typecheck(gcounter.inc_term("r2"), cty, bundle.registry)
    assert denote(tt, {"r1": 2}) == {"r1": 2, "r2": 1}
    assert denote(tt, {"r2": 5}) == {"r2": 6}
