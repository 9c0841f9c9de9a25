"""Round trips for the textual value/change/type/term formats."""

import pytest

from deltic.calculus import term_from_text, term_to_text
from deltic.core import ConformanceError
from deltic.oracle import (
    GenConfig, gen_change, gen_term, gen_type, gen_value, oracle_registry,
    stable_rng,
)
from deltic.serialize import (
    change_from_text, change_to_text, type_from_text, type_to_text,
    value_from_text, value_to_text,
)


def test_value_round_trip_randomized():
    cfg = GenConfig()
    rng = stable_rng(11, "value-rt")
    for _ in range(120):
        ty = gen_type(cfg, rng, depth=3,
                      containers=("arr", "rel", "dict", "tree"),
                      bases=("real", "int", "nat", "scalar"))
        v = gen_value(rng, ty)
        assert value_from_text(ty, value_to_text(ty, v)) == v


def test_change_round_trip_randomized():
    cfg = GenConfig()
    rng = stable_rng(12, "change-rt")
    for _ in range(120):
        ty = gen_type(cfg, rng, depth=3,
                      containers=("arr", "rel", "dict", "tree"),
                      bases=("real", "int", "nat", "scalar"))
        d = gen_change(rng, ty)
        back = change_from_text(ty, change_to_text(ty, d))
        assert back == d


def test_mapping_entries_are_sorted():
    from deltic.core import REAL, TBase
    from deltic.domains.containers import arr
    ty = arr(4, TBase(REAL))
    assert value_to_text(ty, {3: 1.0, 0: 2.0}) == "[[0,2.0],[3,1.0]]"


def test_type_round_trip():
    reg = oracle_registry()
    cfg = GenConfig()
    rng = stable_rng(13, "type-rt")
    for _ in range(60):
        ty = gen_type(cfg, rng, depth=3, containers=("arr",),
                      bases=("real", "int", "nat"))
        assert type_from_text(type_to_text(ty), reg) == ty


def test_type_text_examples():
    from deltic.domains import relalg
    bundle = relalg.register_relalg()
    ty = type_from_text("rel[int*str] int * (int + int)", bundle.registry)
    assert type_to_text(ty) == "rel[int*str] int * (int + int)"


def test_term_round_trip_randomized():
    cfg = GenConfig()
    rng = stable_rng(14, "term-rt")
    reg = oracle_registry()
    for _ in range(60):
        in_ty = gen_type(cfg, rng, depth=2)
        tt = gen_term(cfg, rng, reg, in_ty)
        text = term_to_text(tt.term)
        assert term_from_text(text, reg) == tt.term


def test_bad_value_text():
    from deltic.core import REAL, TBase
    from deltic.domains.containers import arr
    with pytest.raises(ConformanceError):
        value_from_text(arr(2, TBase(REAL)), "{\"nope\": 1}")


def test_term_text_negative_cases():
    reg = oracle_registry()
    for bad in ("bogus(id)", "seq(id)", "map(id, id)", "noargs",
                "cst(real)", "get(not json)", "cst(real, [1)",
                "replicate(arr[2)", "inl(real *)"):
        with pytest.raises(ConformanceError):
            term_from_text(bad, reg)


@pytest.mark.parametrize("text, msg", [
    ("int)", "type syntax error at 3: trailing input in 'int)'"),
    ("rel[int", "type syntax error at 7: unterminated '[' in 'rel[int'"),
])
def test_type_text_error_messages(text, msg):
    from deltic.domains import relalg
    with pytest.raises(ConformanceError) as e:
        type_from_text(text, relalg.register_relalg().registry)
    assert str(e.value) == msg


def test_schema_text_round_trip_and_rejects():
    from deltic.domains.containers import schema_from_text, schema_to_text
    for s in ("int", "str", ("int", "str"), (("int", "str"), "int"),
              ("int", ("str", ("int", "int"))), ((("str", "int"), "str"), ("int", "str"))):
        assert schema_from_text(schema_to_text(s)) == s
    assert schema_from_text(" ( int * str ) * int ") == (("int", "str"), "int")
    for bad in ("intx", "int*", "(int", "", "int str", "real"):
        with pytest.raises(ConformanceError):
            schema_from_text(bad)


def test_term_text_examples():
    reg = oracle_registry()
    t = term_from_text("seq(dup, par(fst, snd))", reg)
    assert term_to_text(t) == "seq(dup, par(fst, snd))"
    t = term_from_text('cst(real * int, [1.5, 2])', reg)
    assert t.value == (1.5, 2)
    t = term_from_text('set([3, "k"])', reg)
    assert t.index == (3, "k")
