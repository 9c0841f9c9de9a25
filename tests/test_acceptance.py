"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances: exact over int/nat values, 1e-9 relative for single-step law
checks over reals, 1e-6 for iterated change chains.
"""

import time
from contextlib import contextmanager

import pytest

from deltic import calculus as ca
from deltic import incr
from deltic.bench import BenchSpec, run_bench
from deltic.cli import main
from deltic.core import (
    REAL, TBase, TProd, apply_change, diff_values, values_equal,
)
from deltic.domains import gcounter, linalg, relalg, trees
from deltic.domains.containers import arr
from deltic.incr import CUnit, cache_to_json, incrementalize
from deltic.oracle import (
    COMBINATORS, FAULTS, GenConfig, TERM_CONSTRUCTS, _TermGen,
    check_construct_laws, check_finite_support, check_frontend_lowering,
    check_value_preservation_suite, gen_change, gen_term, gen_type, gen_value,
    oracle_registry, reachable_pair, stable_rng,
)

from helpers import (
    Rose, complete_rose, oracle_join, oracle_proj, rand_relation, step_through,
)

R = TBase(REAL)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:>2} [{desc}]: FAIL")
        raise
    else:
        print(f"\ncriterion {num:>2} [{desc}]: PASS")


def test_criterion_1_law_suite_per_construct():
    with criterion(1, "Laws 1-3 per constructor and combinator, 1000 samples"):
        t0 = time.time()
        cfg = GenConfig()
        for name in TERM_CONSTRUCTS + COMBINATORS:
            rep = check_construct_laws(name, cfg, samples=1000, instances=20)
            assert rep.passed, (name, rep.failures)
            assert rep.samples >= 1000
        elapsed = time.time() - t0
        assert elapsed <= 120.0, f"law suite took {elapsed:.1f}s"


def test_criterion_2_value_preservation():
    with criterion(2, "iter == batch on 500 random terms x change lists"):
        t0 = time.time()
        cfg = GenConfig(max_term_size=12, max_shape=4, max_changes=5)
        rep = check_value_preservation_suite(cfg, terms=500, per_term=2)
        assert rep.passed, rep.failures
        assert rep.samples == 500
        elapsed = time.time() - t0
        assert elapsed <= 180.0, f"value preservation took {elapsed:.1f}s"


def test_criterion_3_completeness_10000():
    with criterion(3, "x ⊕ (y ⊖ x) = y, 10000 samples, all structures"):
        cfg = GenConfig()
        rng = stable_rng(cfg.seed, "acceptance-completeness")
        containers = ("arr", "rel", "dict", "tree")
        checked = 0
        # unconstrained pairs over group-like and replacement bases
        while checked < 8000:
            ty = gen_type(cfg, rng, depth=3, containers=containers,
                          bases=("real", "int", "scalar"))
            for _ in range(20):
                x, y = gen_value(rng, ty), gen_value(rng, ty)
                got = apply_change(ty, x, diff_values(ty, y, x))
                assert values_equal(ty, got, y, 1e-9), (ty, x, y)
                checked += 1
        # nat-containing structures on reachable (monotone) pairs
        while checked < 10000:
            ty = gen_type(cfg, rng, depth=3, containers=containers,
                          bases=("nat", "int"))
            for _ in range(20):
                x, y = reachable_pair(rng, ty)
                got = apply_change(ty, x, diff_values(ty, y, x))
                assert values_equal(ty, got, y), (ty, x, y)
                checked += 1
        assert checked >= 10000


def test_criterion_4_self_maintainability():
    with criterion(4, "Self-set terms carry zero non-unit cache payload"):
        cfg = GenConfig(max_term_size=10)
        rng = stable_rng(cfg.seed, "acceptance-selfmaint")
        reg = oracle_registry()
        for k in range(200):
            in_ty = gen_type(cfg, rng, depth=2)
            tt = gen_term(cfg, rng, reg, in_ty, self_only=True)
            machine = incrementalize(tt)
            assert machine.cache == CUnit() and machine.deriv is not None, \
                ca.term_to_text(tt.term)
            x = gen_value(rng, in_ty)
            _, cache = machine.init(x)
            assert cache_to_json(machine.cache, cache) == "unit"


def test_criterion_5_dense_benchmark():
    with criterion(5, "dense: ratio decreasing, <=0.2 at n=800; crossover band"):
        t0 = time.time()
        rows, _ = run_bench(BenchSpec("dense", sizes=(100, 200, 400, 800),
                                      fraction=0.01, reps=5))
        ratios = [r.ratio for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] <= 0.2, ratios
        # the cache is exactly the 2nm + n scalars the construction predicts
        for r in rows:
            assert r.cache_entries == 2 * r.size * r.size + r.size
        elapsed = time.time() - t0
        assert elapsed <= 120.0, f"dense sweep took {elapsed:.1f}s"
        _, extra = run_bench(BenchSpec("mvmul-sparsity", sizes=(500,), reps=3))
        assert extra["crossover"] is not None, "incremental never lost: no crossover"
        assert 0.3 <= extra["crossover"] <= 1.0, extra


def test_criterion_6_relational_benchmarks():
    with criterion(6, "proj/join at 1e4 tuples: >=5x; exact vs oracles at 20"):
        rows, _ = run_bench(BenchSpec("rel-proj", sizes=(10000,), reps=3))
        assert rows[0].ratio <= 0.2, rows[0]
        rows, _ = run_bench(BenchSpec("rel-join", sizes=(10000,), reps=3))
        assert rows[0].ratio <= 0.2, rows[0]

        bundle = relalg.register_relalg()
        bundle.registry.register_index_pred(
            "acc_eqkey", lambda ij: ij[0][0] == ij[1][0])
        reg = bundle.registry
        pair_rel = relalg.rel(("int", "int"))
        rng = stable_rng(77, "acceptance-rel")
        for _ in range(25):
            r = rand_relation(rng, 20)
            s = rand_relation(rng, 20)
            jt = ca.typecheck(relalg.join_term("acc_eqkey"),
                              TProd(pair_rel, pair_rel), reg)
            assert ca.denote(jt, (r, s)) == oracle_join(
                r, s, lambda ij: ij[0][0] == ij[1][0])
            pt = ca.typecheck(relalg.proj_term("fst"), pair_rel, reg)
            assert ca.denote(pt, r) == oracle_proj(r, lambda t: t[0])
            # and incrementally, over a short change stream
            m = incrementalize(jt)
            ds = [({(rng.randrange(6), rng.randrange(40)): 1}, {})
                  for _ in range(3)]
            got, _, x2 = step_through(m, (r, s), ds)
            assert got == ca.denote(jt, x2)


def test_criterion_7_tree_benchmark():
    with criterion(7, "rose-tree sum d=14 b=2: >=10x; fold exact vs recursion"):
        rows, _ = run_bench(BenchSpec("tree-sum", sizes=(14,), fraction=0.01,
                                      reps=3))
        assert rows[0].ratio <= 0.1, rows[0]

        bundle = trees.register_trees()
        tt = ca.typecheck(trees.tree_sum_term(), trees.INT_TREE, bundle.registry)
        rng = stable_rng(78, "acceptance-tree")
        rose = complete_rose(14, 2, rng)
        v = rose.to_map()
        assert len(v) == 2 ** 15 - 1
        assert ca.denote(tt, v) == rose.fold_sum()
        # incremental fold stays exact across a sparse change stream
        m = incrementalize(tt)
        paths = list(v)
        ds = [{p: rng.randint(-4, 4) or 2 for p in rng.sample(paths, 50)}
              for _ in range(3)]
        got, _, v2 = step_through(m, v, ds)
        assert got == ca.denote(tt, v2)


def test_criterion_8_q1_golden():
    with criterion(8, "Q1 golden output plus streamed insert and delete"):
        bundle = trees.register_trees()
        bib = trees.load_bibliography()
        tt = ca.typecheck(trees.q1_term(), trees.BIB_TY, bundle.registry)
        out = ca.denote(tt, bib)
        assert sorted(out) == [0, 1]
        assert out[0] == {("title",): "TCP/IP Illustrated", ("year",): 1994}
        assert out[1] == {("title",): "Advanced Programming in the Unix environment",
                          ("year",): 1992}

        machine = incrementalize(tt)
        y, c = machine.init(bib)
        new_book = trees.tree_to_map({
            "year": 2005, "title": "Later Addison Volume",
            "publisher": "Addison-Wesley", "price": 42.0})
        insert = {9: trees.insert_tree_change(new_book)}
        dy, c = machine.step(insert, c)
        y = apply_change(trees.BIB_TY, y, dy)
        assert y[9] == {("title",): "Later Addison Volume", ("year",): 2005}
        delete = {0: trees.delete_tree_change(bib[0])}
        dy, c = machine.step(delete, c)
        y = apply_change(trees.BIB_TY, y, dy)
        assert sorted(y) == [1, 9]
        batch = ca.denote(tt, apply_change(
            trees.BIB_TY, apply_change(trees.BIB_TY, bib, insert), delete))
        assert values_equal(trees.BIB_TY, y, batch)


def test_criterion_9_gcounter():
    with criterion(9, "GCounter semilattice laws and incremental == batch"):
        ids = ("r1", "r2", "r3")
        bundle = gcounter.register_gcounter(ids)
        cty = gcounter.counter_ty(ids)
        reg = bundle.registry
        merge_tt = ca.typecheck(gcounter.merge_term(), TProd(cty, cty), reg)
        merge = lambda a, b: ca.denote(merge_tt, (a, b))
        rng = stable_rng(79, "acceptance-gcounter")

        def rand_state():
            return {i: rng.randint(1, 9) for i in ids if rng.random() < 0.7}

        for _ in range(1000):
            a, b, c = rand_state(), rand_state(), rand_state()
            assert merge(a, a) == a
            assert merge(a, b) == merge(b, a)
            assert merge(merge(a, b), c) == merge(a, merge(b, c))

        value_tt = ca.typecheck(gcounter.value_term(), cty, reg)
        inc_tt = ca.typecheck(gcounter.inc_term("r2"), cty, reg)
        for _ in range(100):
            a, b = rand_state(), rand_state()
            ds = [({i: rng.randint(1, 3) for i in ids if rng.random() < 0.4},
                   {i: rng.randint(1, 3) for i in ids if rng.random() < 0.4})
                  for _ in range(rng.randint(0, 5))]
            got, _, x2 = step_through(incrementalize(merge_tt), (a, b), ds)
            assert got == ca.denote(merge_tt, x2)
            vds = [d[0] for d in ds]
            for tt in (value_tt, inc_tt):
                got, _, a2 = step_through(incrementalize(tt), a, vds)
                assert got == ca.denote(tt, a2)


def test_criterion_10_finite_support():
    with criterion(10, "finite-support bounds + detectable violations"):
        reports = check_finite_support(samples=60)
        names = {r.name for r in reports}
        for op in ("set", "replicate", "map", "reshape", "filter", "zip", "tp"):
            assert f"finite-support:{op}" in names
        assert "finite-support:violations-detected" in names
        for r in reports:
            assert r.passed, (r.name, r.failures)


def test_criterion_11_frontend_lowering():
    with criterion(11, "surface mvmul/dense texts == catalog; let identity"):
        rep = check_frontend_lowering(samples=100)
        assert rep.passed, rep.failures


@pytest.mark.parametrize("fault", FAULTS)
def test_criterion_12_mutation_sensitivity(fault, capsys):
    with criterion(12, f"cmd_laws catches fault {fault}"):
        rc = main(["laws", "--samples", "25", "--inject-fault", fault])
        captured = capsys.readouterr()
        assert rc == 3, f"{fault}: expected exit 3, got {rc}"
        assert '"passed": false' in captured.out
        # a witness is printed with the failing record
        assert "failures" in captured.out
        rc = main(["laws", "--samples", "10"])
        capsys.readouterr()
        assert rc == 0, "suite must be healthy without the fault"
