"""Linear algebra catalog vs textbook oracles."""

from array import array

import pytest

from deltic.calculus import TermTypeError, Zip, compiled, denote, typecheck
from deltic.core import REAL, TBase, TProd, apply_change, values_equal
from deltic.domains import linalg
from deltic.domains.containers import arr
from deltic.frontend import compile_program, parse_program_file
from deltic.incr import cache_entry_count, incrementalize
from deltic.oracle import stable_rng

from helpers import (
    builtin_calls, call_codes, lists_to_mat, list_to_vec, mat_to_lists, oracle_dense, oracle_dot,
    oracle_mmmul, oracle_mvmul, vec_to_list,
)

R = TBase(REAL)


@pytest.fixture(scope="module")
def bundle():
    b = linalg.register_linalg()
    b.validate(samples=30)
    return b


def _rand_list(rng, n):
    return [round(rng.uniform(-4, 4), 3) for _ in range(n)]


def test_dot_example(bundle):
    tt = typecheck(linalg.dot_term(), TProd(arr(3, R), arr(3, R)), bundle.registry)
    got = denote(tt, ({0: 1.0, 1: 2.0, 2: 3.0}, {0: 4.0, 1: 5.0, 2: 6.0}))
    assert got == 32.0


def test_mvmul_example(bundle):
    in_ty = TProd(arr(2, arr(2, R)), arr(2, R))
    tt = typecheck(linalg.mvmul_term(2, 2), in_ty, bundle.registry)
    got = denote(tt, ({0: {0: 1.0, 1: 2.0}, 1: {0: 3.0, 1: 4.0}}, {0: 5.0, 1: 6.0}))
    assert got == {0: 17.0, 1: 39.0}


def test_dense_example(bundle):
    M = {0: {0: 1.0}, 1: {1: 1.0}}
    b = {0: -10.0}
    tt = typecheck(linalg.dense_term(2, 2, M, b), arr(2, R), bundle.registry)
    got = denote(tt, {0: 3.0, 1: 4.0})
    assert values_equal(arr(2, R), got, {1: 4.0}, 1e-12)  # relu(I·x+b) = [0, 4]


def test_catalog_matches_oracles_randomized(bundle):
    rng = stable_rng(41, "linalg-oracles")
    reg = bundle.registry
    for trial in range(30):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        k = rng.randint(1, 8)
        xs, ys = _rand_list(rng, n), _rand_list(rng, n)
        mat = [_rand_list(rng, m) for _ in range(n)]
        mat2 = [_rand_list(rng, k) for _ in range(m)]
        vec = _rand_list(rng, m)
        c = round(rng.uniform(-3, 3), 3)

        vady = typecheck(linalg.vadd_term(), TProd(arr(n, R), arr(n, R)), reg)
        got = denote(vady, (list_to_vec(xs), list_to_vec(ys)))
        assert values_equal(arr(n, R), got,
                            list_to_vec([a + b for a, b in zip(xs, ys)]), 1e-9)

        hod = typecheck(linalg.hadamard_term(), TProd(arr(n, R), arr(n, R)), reg)
        got = denote(hod, (list_to_vec(xs), list_to_vec(ys)))
        assert values_equal(arr(n, R), got,
                            list_to_vec([a * b for a, b in zip(xs, ys)]), 1e-9)

        dot = typecheck(linalg.dot_term(), TProd(arr(n, R), arr(n, R)), reg)
        assert abs(denote(dot, (list_to_vec(xs), list_to_vec(ys)))
                   - oracle_dot(xs, ys)) <= 1e-9 * max(1, abs(oracle_dot(xs, ys)))

        sv = typecheck(linalg.svmul_term(m), TProd(R, arr(m, R)), reg)
        got = denote(sv, (c, list_to_vec(vec)))
        assert values_equal(arr(m, R), got, list_to_vec([c * x for x in vec]), 1e-9)

        mv = typecheck(linalg.mvmul_term(n, m),
                       TProd(arr(n, arr(m, R)), arr(m, R)), reg)
        got = denote(mv, (lists_to_mat(mat), list_to_vec(vec)))
        assert values_equal(arr(n, R), got, list_to_vec(oracle_mvmul(mat, vec)), 1e-9)

        mm = typecheck(linalg.mmmul_term(n, m, k),
                       TProd(arr(n, arr(m, R)), arr(m, arr(k, R))), reg)
        got = denote(mm, (lists_to_mat(mat), lists_to_mat(mat2)))
        want = lists_to_mat(oracle_mmmul(mat, mat2))
        assert values_equal(arr(n, arr(k, R)), got, want, 1e-9)

        bias = _rand_list(rng, n)
        dtt = typecheck(linalg.dense_term(n, m, lists_to_mat(mat), list_to_vec(bias)),
                        arr(m, R), reg)
        got = denote(dtt, list_to_vec(vec))
        assert values_equal(arr(n, R), got,
                            list_to_vec(oracle_dense(mat, bias, vec)), 1e-9)

        madd = typecheck(linalg.madd_term(),
                         TProd(arr(n, arr(m, R)), arr(n, arr(m, R))), reg)
        mat3 = [_rand_list(rng, m) for _ in range(n)]
        got = denote(madd, (lists_to_mat(mat), lists_to_mat(mat3)))
        want = lists_to_mat([[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(mat, mat3)])
        assert values_equal(arr(n, arr(m, R)), got, want, 1e-9)


def test_program_builders_resolve_by_type(bundle):
    in_ty = TProd(arr(3, arr(2, R)), arr(2, R))
    term = bundle.registry.program("mvmul").build(in_ty)
    assert term is not None
    assert bundle.registry.program("mvmul").build(TProd(R, R)) is None


@pytest.mark.parametrize("name, right", [
    ("vadd", "arr[4] real"), ("hadamard", "arr[4] real"), ("dot", "arr[4] real"),
    ("madd", "arr[3] real"),
])
def test_pair_programs_reject_other_inputs(bundle, name, right):
    # vadd, hadamard and dot need two vectors of one length, madd two matrices
    text = f"bundle linalg\nparam a : arr[3] real\nparam b : {right}\n\n{name} # (a, b)\n"
    _, prog = parse_program_file(text, lambda _n: bundle)
    with pytest.raises(TermTypeError, match=f"program '{name}' does not accept input"):
        compile_program(prog, bundle.registry, bundle.literal_base)


def test_dense_cache_holds_2nm_plus_n(bundle):
    # the incrementalized dense layer caches exactly 2nm + n scalars
    rng = stable_rng(42, "cache-count")
    n, m = 5, 7
    M = lists_to_mat([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(n)])
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    tt = typecheck(linalg.dense_term(n, m, M, b), arr(m, R), bundle.registry)
    machine = incrementalize(tt)
    x = {i: rng.uniform(-1, 1) for i in range(m)}
    _, cache = machine.init(x)
    assert cache_entry_count(machine.cache, cache) == 2 * n * m + n
    # and after 20 steps, with relu's input cached in a packed array
    for _ in range(20):
        _, cache = machine.step({rng.randrange(m): rng.uniform(-1, 1)}, cache)
    assert cache_entry_count(machine.cache, cache) == 2 * n * m + n
    assert any(type(c) is array for c in cache)


def test_dense_setup_checks_and_zips_rows_in_bulk(bundle):
    # Python calls, not time: typecheck of the n×n weight literal checks each
    # row in C-level passes (about 3·n² calls when it went entry by entry;
    # 345 at n = 60), and init zips each row with x in zip's one-key-set
    # pass, never in its key-union comprehension, which reads every key
    # with dict.get
    n = 60
    rng = stable_rng(44, "dense-setup-calls")
    M = {i: {j: rng.uniform(-1, 1) for j in range(n)} for i in range(n)}
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    x = {i: rng.uniform(-1, 1) for i in range(n)}
    term = linalg.dense_term(n, n, M, b)
    tt, codes = call_codes(typecheck, term, arr(n, R), bundle.registry)
    assert len(codes) <= 10 * n
    run_zip = compiled(typecheck(Zip(), TProd(arr(n, R), arr(n, R)), bundle.registry))
    _, called = builtin_calls(run_zip, ({0: 1.0}, {1: 2.0}))
    assert called.count("dict.get") == 4
    _, called = builtin_calls(incrementalize(tt).init, x)
    assert "dict.get" not in called


def test_init_zips_in_denotes_key_order(bundle):
    # rows and x inserted in descending key order: the fused map2 init
    # pairs them in the order denote's zip does, so the row sums match
    # denote bit for bit
    n = 50
    rng = stable_rng(45, "mvmul-key-order")
    M = {i: {j: rng.uniform(-1, 1) for j in reversed(range(n))} for i in reversed(range(n))}
    x = {j: rng.uniform(-1, 1) for j in reversed(range(n))}
    tt = typecheck(linalg.mvmul_term(n, n), TProd(arr(n, arr(n, R)), arr(n, R)),
                   bundle.registry)
    y, _ = incrementalize(tt).init((M, x))
    assert y == denote(tt, (M, x))


def test_dense_float_drift_stays_bounded(bundle):
    # relu(Mx+b) at n = 40, stepped through 2,000 changes that each rewrite
    # one entry of x: every 100 steps the maintained output is within 2e-13
    # of batch.  The measured worst drift is 1.4e-14 (outputs up to 7.2).
    n = 40
    rng = stable_rng(43, "dense-drift")
    M = {i: {j: rng.uniform(-1, 1) for j in range(n)} for i in range(n)}
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    x = {i: rng.uniform(-1, 1) for i in range(n)}
    ty = arr(n, R)
    tt = typecheck(linalg.dense_term(n, n, M, b), ty, bundle.registry)
    machine = incrementalize(tt)
    y, cache = machine.init(x)
    for k in range(1, 2001):
        i = rng.randrange(n)
        d = {i: rng.uniform(-1, 1) - x[i]}
        dy, cache = machine.step(d, cache)
        x = apply_change(ty, x, d)
        y = apply_change(ty, y, dy)
        if k % 100 == 0:
            want = denote(tt, x)
            assert max(abs(y.get(j, 0.0) - want.get(j, 0.0)) for j in range(n)) <= 2e-13
