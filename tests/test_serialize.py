"""Round trips for the textual value/change/type/term formats."""

import pytest

from deltic.calculus import term_from_text, term_to_text
from deltic.core import (
    INT, KEEP, REAL, SCALAR, SUM_NULL, Cl, ConformanceError, Cr, Left, Right, Sl, Sr,
    TBase, TCont, TProd, TSum,
)
from deltic.domains.containers import arr, dict_shape, rel_shape, tree_shape
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
    with pytest.raises(ConformanceError):
        value_from_text(arr(2, TBase(REAL)), "{\"nope\": 1}")


R, S = TBase(REAL), TBase(SCALAR)
SUM_RR = TSum(R, R)

# (type, value or change, is a change, exact text): the two formats agree
# except at replacement scalars and sums.
EXACT_TEXTS = [
    (R, 1.5, False, "1.5"),
    (R, 1.5, True, "1.5"),
    (S, "a", False, '"a"'),
    (S, None, False, "null"),
    (S, KEEP, True, '"keep"'),
    (S, None, True, '{"set":null}'),
    (S, "a", True, '{"set":"a"}'),
    (TProd(R, S), (1.0, 2), False, "[1.0,2]"),
    (TProd(R, S), (1.0, 2), True, '[1.0,{"set":2}]'),
    (arr(3, S), {2: None, 0: "x"}, True, '[[0,{"set":"x"}],[2,{"set":null}]]'),
    (TCont(rel_shape(("int", "str")), R), {(1, "b"): 2.0, (1, "a"): 3.0}, False,
     '[[[1,"a"],3.0],[[1,"b"],2.0]]'),
    (SUM_RR, Left(1.0), False, '{"inl":1.0}'),
    (SUM_RR, Right(2.0), False, '{"inr":2.0}'),
    (SUM_RR, Cl(1.0), True, '{"cl":1.0}'),
    (SUM_RR, Cr(2.0), True, '{"cr":2.0}'),
    (SUM_RR, Sl(3.0), True, '{"sl":3.0}'),
    (SUM_RR, Sr(4.0), True, '{"sr":4.0}'),
    (SUM_RR, SUM_NULL, True, '"null"'),
    (TSum(S, S), Cl(KEEP), True, '{"cl":"keep"}'),
    (TSum(S, S), Cr("b"), True, '{"cr":{"set":"b"}}'),
    (TSum(S, S), Sl("a"), True, '{"sl":"a"}'),
    (TSum(S, arr(2, S)), Sr({1: None}), True, '{"sr":[[1,null]]}'),
    (TSum(R, SUM_RR), Right(Left(1.0)), False, '{"inr":{"inl":1.0}}'),
    (TSum(R, SUM_RR), Cr(Sl(1.0)), True, '{"cr":{"sl":1.0}}'),
]


@pytest.mark.parametrize("ty, x, change, text", EXACT_TEXTS)
def test_exact_texts(ty, x, change, text):
    to_text, from_text = ((change_to_text, change_from_text) if change
                          else (value_to_text, value_from_text))
    assert to_text(ty, x) == text
    assert from_text(ty, text) == x


# One type with every former: products; sums of replacement scalars and of
# nested arrays; containers indexed by strings (dict), tuples (rel) and
# mixed paths (tree).  The change holds keep and {"set": s}, and all five
# sum-change forms.
EVERY = TProd(TCont(dict_shape("str"), TSum(S, arr(2, arr(2, R)))),
              TProd(TCont(rel_shape(("int", "str")), TBase(INT)),
                    TCont(tree_shape(), TProd(S, SUM_RR))))
EVERY_VALUE = (
    {"b": Right({1: {0: 1.5}}), "a": Left("x")},
    ({(3, "q"): -1, (1, "p"): 2},
     {("r", 1): (None, Right(4.0)), ("r", 0): ("s", Left(2.5))}))
EVERY_CHANGE = (
    {"a": Cl("y"), "b": Cr({1: {1: 0.5}}), "c": Sl(None), "d": Sr({0: {0: 2.0}})},
    ({(1, "p"): 3},
     {("r", 2): ("u", Cl(1.0)), ("r", 0): (KEEP, SUM_NULL), (0, "s"): (None, Sr(5.0))}))


@pytest.mark.parametrize("x, change, text", [
    (EVERY_VALUE, False,
     '[[["a",{"inl":"x"}],["b",{"inr":[[1,[[0,1.5]]]]}]],'
     '[[[[1,"p"],2],[[3,"q"],-1]],[[["r",0],["s",{"inl":2.5}]],[["r",1],[null,{"inr":4.0}]]]]]'),
    (EVERY_CHANGE, True,
     '[[["a",{"cl":{"set":"y"}}],["b",{"cr":[[1,[[1,0.5]]]]}],["c",{"sl":null}],'
     '["d",{"sr":[[0,[[0,2.0]]]]}]],[[[[1,"p"],3]],[[[0,"s"],[{"set":null},{"sr":5.0}]],'
     '[["r",0],["keep","null"]],[["r",2],[{"set":"u"},{"cl":1.0}]]]]]'),
])
def test_every_type_former_round_trips_through_its_text(x, change, text):
    # the writer and reader built for each (type, value or change) pair
    # print the committed text, key order included, and read it back
    to_text, from_text = ((change_to_text, change_from_text) if change
                          else (value_to_text, value_from_text))
    assert to_text(EVERY, x) == text
    assert from_text(EVERY, text) == x
    assert from_text(EVERY, to_text(EVERY, x)) == x


def test_real_reads_an_integer_as_a_float():
    for from_text in (value_from_text, change_from_text):
        x = from_text(TProd(R, arr(2, R)), "[1,[[0,2]]]")
        assert x == (1.0, {0: 2.0})
        assert type(x[0]) is float and type(x[1][0]) is float


# (type, text, is a change, exact message)
MALFORMED = [
    (arr(2, R), '{"nope": 1}', False, "expected mapping entries, got {'nope': 1}"),
    (arr(2, R), '{"nope": 1}', True, "expected change entries, got {'nope': 1}"),
    (arr(2, R), "[[0]]", False, "bad mapping entry: [0]"),
    (arr(2, R), "[[0,1,2]]", True, "bad change entry: [0, 1, 2]"),
    (arr(2, R), "[[true,1.0]]", False, "bad index literal: True"),
    (TProd(R, R), "[1]", False, "expected a pair, got [1]"),
    (TProd(R, R), "[1]", True, "expected a pair change, got [1]"),
    (SUM_RR, '{"cl":1}', False, "expected an injection, got {'cl': 1}"),
    (SUM_RR, '"null"', False, "expected an injection, got 'null'"),
    (SUM_RR, '{"inl":1,"inr":2}', False, "expected an injection, got {'inl': 1, 'inr': 2}"),
    (SUM_RR, '{"inl":1}', True, "bad sum change: {'inl': 1}"),
    (SUM_RR, '{"cl":1,"cr":2}', True, "bad sum change: {'cl': 1, 'cr': 2}"),
    (SUM_RR, "null", True, "bad sum change: None"),
    (S, '"x"', True, "bad scalar change: 'x'"),
    (S, '{"set":1,"x":2}', True, "bad scalar change: {'set': 1, 'x': 2}"),
    (TSum(S, R), '{"cl":"x"}', True, "bad scalar change: 'x'"),
]


@pytest.mark.parametrize("ty, text, change, msg", MALFORMED)
def test_malformed_json_messages(ty, text, change, msg):
    from_text = change_from_text if change else value_from_text
    with pytest.raises(ConformanceError) as e:
        from_text(ty, text)
    assert str(e.value) == msg


def test_term_text_negative_cases():
    reg = oracle_registry()
    for bad in ("bogus(id)", "seq(id)", "map(id, id)", "noargs",
                "cst(real)", "get(not json)", "cst(real, [1)",
                "replicate(arr[2)", "inl(real *)"):
        with pytest.raises(ConformanceError):
            term_from_text(bad, reg)


@pytest.mark.parametrize("text, msg", [
    ("int)", "type syntax error at 3: trailing input in 'int)'"),
    ("rel[int", "type syntax error at 3: unterminated '[' in 'rel[int'"),
])
def test_type_text_error_messages(text, msg):
    from deltic.domains import relalg
    with pytest.raises(ConformanceError) as e:
        type_from_text(text, relalg.register_relalg().registry)
    assert str(e.value) == msg


@pytest.mark.parametrize("text, msg", [
    ("arr[1.5] real", "bad array length: '1.5'"),
    ("arr[ two ] real", "bad array length: 'two'"),
    ("arr[] real", "bad array length: ''"),
    # a base name is never a container: its `[` is left unread
    ("real[2] real", "type syntax error at 4: trailing input in 'real[2] real'"),
])
def test_array_type_text_error_messages(text, msg):
    from deltic.domains import linalg
    with pytest.raises(ConformanceError) as e:
        type_from_text(text, linalg.register_linalg().registry)
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


def test_a_stream_written_with_a_type_built_apart_shares_the_program_codec():
    # perfbench's let chain writes its change lines with its own
    # TProd(vec, vec) and reads them through the compiled program's in_ty:
    # both are one interned object, so one codec entry serves every line
    from deltic.frontend import compile_program, parse_program_file
    from deltic.serialize import _codec
    vec = arr(1000, TBase(REAL))
    ty = TProd(vec, vec)
    line = change_to_text(ty, ({0: 0.5, 7: -1.0}, {}))
    lets = "".join(f"let h{i} = map relu # map2 add # ({f'h{i - 1}' if i > 1 else 'x'}, b);\n"
                   for i in range(1, 4))
    bundle, prog = parse_program_file("bundle linalg\nparam x : arr[1000] real\n"
                                      f"param b : arr[1000] real\n\n{lets}h3\n")
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    assert tt.in_ty is ty
    misses = _codec.cache_info().misses
    for read_ty in (tt.in_ty, ty):
        assert change_from_text(read_ty, line) == ({0: 0.5, 7: -1.0}, {})
    assert _codec.cache_info().misses == misses
