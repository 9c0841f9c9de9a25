"""Randomized law checking: the executable stand-in for mechanized proofs.

Everything here is reproducible from (seed, check name): generators draw from
a Random seeded by a stable digest, and reports carry no non-deterministic
content.  Failures are reported, never raised.  Every check that steps a
machine runs one change stream (_run_stream): Law-1 at init, a nil step that
must give a nil change, then Laws 2 and 3 after every drawn change.  Its
witness is (x, ds) with the input type, all as text, which a replay steps
again: x, then every change stepped after the nil step, the failing one last.

The nine documented fault injections (for mutation-sensitivity testing):

  triv-stale-cache       Triv step returns the old cache         -> Law-3
  swap-fst-snd           fst's derivative projects the other leg -> Law-2
  seq-drop-propagation   seq stages after the first step on nil  -> Law-2
  bilin-missing-term     BiLin drops the f(x ⊕ dx, dy) term      -> Law-2
  debruijn-off-by-one    variable lowering shifts every index    -> lowering
  bilin-aliased-cache    BiLin caches the caller's inputs, not   -> Law-2
                         copies, so its in-place ⊕ writes into them
  join-stale-matches     a left step of the keyed fused join     -> Law-3
                         leaves a new left tuple out of its
                         key's group
  case-aliased-output    case's init caches the very output it   -> Law-2
                         returns, so its in-place ⊕ writes into it
                         (Law-3 when that output is the input)
  join-batch-drops-pair  the fused batch kernel of the join      -> fused-batch
                         drops one pair from a non-empty output
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from . import calculus as ca
from . import frontend as fe
from . import incr
from .core import (
    DelticError, INT, KEEP, NAT, REAL, SCALAR, Cl, Cr, Left, Right, Sl, Sr,
    SUM_NULL, SupportError, TBase, TCont, TProd, TSum, apply_change,
    default_value, diff_values, is_nil, nil_change, plus_capable, values_equal,
)
from .domains import relalg
from .domains.containers import (
    ARRAY, RELATION, TREE, arr, arr_shape, dict_shape, rel_shape, tree_shape,
)
from .serialize import change_to_text, type_to_text, value_to_text

R = TBase(REAL)
Z = TBase(INT)
N = TBase(NAT)
S = TBase(SCALAR)


class GenerationFailure(DelticError):
    """No artifact satisfying the request could be generated."""


@dataclass
class GenConfig:
    """Knobs for reproducible generation.

    Random terms draw base types from `bases`; nat stays out of the default
    because branch-switch changes (sl/sr) force ⊖ on cached values, and the
    truncated natural difference is only complete on monotone pairs.  nat
    constructs are exercised by dedicated samplers over sum-free types.
    """

    seed: int = 20240901
    max_term_size: int = 12
    max_shape: int = 4
    max_changes: int = 5
    bases: tuple = ("real", "int")
    tol_real: float = 1e-9
    tol_iter: float = 1e-6


def stable_rng(seed, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class CheckReport:
    name: str
    seed: int
    samples: int
    passed: bool
    failures: list = field(default_factory=list)

    def to_json(self):
        return {
            "check": self.name,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "failures": self.failures[:3],
        }


def _show(to_text, ty, x):
    """x as to_text writes it, or its repr when x is malformed."""
    try:
        return to_text(ty, x)
    except Exception:
        return repr(x)


# ---------------------------------------------------------------------------
# Value / change / type generators
# ---------------------------------------------------------------------------

_WORDS = ("a", "b", "c", "x", "y", "tok", "key", "addison")
_STEPS = ("title", "year", "n", "k")


def gen_index(rng: random.Random, shape):
    cid = shape.container.id
    p = shape.payload
    if cid == "arr":
        if p <= 0:
            raise GenerationFailure("no indices in an empty array")
        return rng.randrange(p)
    if cid == "rel":
        def tup(s):
            if s == "int":
                return rng.randint(-5, 5)
            if s == "str":
                return rng.choice(_WORDS)
            return (tup(s[0]), tup(s[1]))
        return tup(p)
    if cid == "dict":
        if p == "str":
            return rng.choice(_WORDS)
        if p == "nat":
            return rng.randint(0, 6)
        if p == "int":
            return rng.randint(-6, 6)
        return rng.choice([rng.randint(0, 6), rng.choice(_WORDS)])
    if cid == "tree":
        depth = rng.randint(1, 3)
        return tuple(
            rng.choice(_STEPS) if rng.random() < 0.7 else rng.randint(0, 2)
            for _ in range(depth))
    if cid == "nodes":
        return rng.choice(p)
    raise GenerationFailure(f"no index generator for container {cid!r}")


def gen_scalar(rng, base):
    if base.kind == "real":
        return round(rng.uniform(-8.0, 8.0), 3)
    if base.kind == "int":
        return rng.randint(-8, 8)
    if base.kind == "nat":
        return rng.randint(0, 8)
    return rng.choice([None, rng.choice(_WORDS), rng.randint(0, 2200),
                       round(rng.uniform(0, 200), 2)])


def gen_value(rng: random.Random, ty):
    match ty:
        case TBase(base):
            return gen_scalar(rng, base)
        case TCont(shape, elem):
            indices = shape.indices()
            out = {}
            if indices is not None:
                k = rng.randint(0, len(indices))
                chosen = rng.sample(indices, k)
            else:
                chosen = dict.fromkeys(gen_index(rng, shape) for _ in range(rng.randint(0, 4)))
            dft = default_value(elem)
            for i in chosen:
                for _ in range(5):
                    v = gen_value(rng, elem)
                    if v != dft:
                        out[i] = v
                        break
            return out
        case TProd(a, b):
            return (gen_value(rng, a), gen_value(rng, b))
        case TSum(a, b):
            if rng.random() < 0.5:
                return Left(gen_value(rng, a))
            return Right(gen_value(rng, b))
        case _:
            raise GenerationFailure(f"not a type: {ty!r}")


def gen_base_change(rng, base, nonnil=False):
    for _ in range(20):
        if base.kind == "real":
            d = round(rng.uniform(-4.0, 4.0), 3)
        elif base.kind == "int":
            d = rng.randint(-4, 4)
        elif base.kind == "nat":
            d = rng.randint(0, 4)
        else:
            d = KEEP if rng.random() < 0.3 else rng.choice(
                [None, rng.choice(_WORDS), rng.randint(0, 2200)])
        if not nonnil or not is_nil(TBase(base), d):
            return d
    raise GenerationFailure(f"could not draw a non-nil {base.tag} change")


def gen_change(rng: random.Random, ty, nonnil=False, monotone=False):
    """Random change; monotone=True keeps sum values on their side (no sl/sr),
    so applying it can never decrease a natural leaf that ⊖ later compares."""
    match ty:
        case TBase(base):
            return gen_base_change(rng, base, nonnil)
        case TCont(shape, elem):
            indices = shape.indices()
            if indices is not None:
                k = rng.randint(1 if nonnil and indices else 0, len(indices))
                chosen = rng.sample(indices, k) if indices else []
            else:
                lo = 1 if nonnil else 0
                chosen = dict.fromkeys(gen_index(rng, shape) for _ in range(rng.randint(lo, 3)))
            out = {}
            for i in chosen:
                di = gen_change(rng, elem, nonnil=True, monotone=monotone)
                if not is_nil(elem, di):
                    out[i] = di
            return out
        case TProd(a, b):
            return (gen_change(rng, a, nonnil, monotone),
                    gen_change(rng, b, False, monotone))
        case TSum(a, b):
            roll = rng.random()
            if monotone:
                if roll < 0.45:
                    return Cl(gen_change(rng, a, monotone=True))
                if roll < 0.9:
                    return Cr(gen_change(rng, b, monotone=True))
                return SUM_NULL
            if roll < 0.3:
                return Cl(gen_change(rng, a))
            if roll < 0.6:
                return Cr(gen_change(rng, b))
            if roll < 0.75:
                return Sl(gen_value(rng, a))
            if roll < 0.9:
                return Sr(gen_value(rng, b))
            return SUM_NULL
        case _:
            raise GenerationFailure(f"not a type: {ty!r}")


_BASE_BY_TAG = {"real": R, "int": Z, "nat": N, "scalar": S}


def gen_type(cfg: GenConfig, rng: random.Random, depth=3, containers=("arr",),
             bases=None):
    """Random object type over the four formers; arrays unless told otherwise."""
    bases = bases or cfg.bases
    choices = ["base"]
    if depth > 0:
        choices += ["cont", "prod", "sum"]
    kind = rng.choice(choices)
    if kind == "base":
        return _BASE_BY_TAG[rng.choice(bases)]
    if kind == "cont":
        cid = rng.choice(containers)
        elem = gen_type(cfg, rng, depth - 1, containers, bases)
        if cid == "arr":
            return TCont(arr_shape(rng.randint(0, cfg.max_shape)), elem)
        if cid == "rel":
            return TCont(rel_shape(rng.choice(["int", "str", ("int", "str")])), elem)
        if cid == "dict":
            return TCont(dict_shape(rng.choice(["int", "str", "nat"])), elem)
        if cid == "tree":
            return TCont(tree_shape(), elem)
        raise GenerationFailure(f"no generator for container {cid!r}")
    a = gen_type(cfg, rng, depth - 1, containers, bases)
    b = gen_type(cfg, rng, depth - 1, containers, bases)
    return TProd(a, b) if kind == "prod" else TSum(a, b)


def reachable_pair(rng, ty):
    """(x, y) with y above x along side-preserving changes; ⊖-safe on naturals."""
    x = gen_value(rng, ty)
    y = apply_change(ty, x, gen_change(rng, ty, monotone=True))
    if rng.random() < 0.3:
        y = apply_change(ty, y, gen_change(rng, ty, monotone=True))
    return x, y


def _contains_nat(ty):
    match ty:
        case TBase(base):
            return base.kind == "nat"
        case TCont(_, elem):
            return _contains_nat(elem)
        case TProd(a, b) | TSum(a, b):
            return _contains_nat(a) or _contains_nat(b)
    return False


# ---------------------------------------------------------------------------
# The oracle's own op registry (exercises every combinator inside terms)
# ---------------------------------------------------------------------------

def _shift5(x):
    return x + 5.0


def _scalar_mul(xy):
    return xy[0] * xy[1]


def _int_sub(xy):
    return xy[0] - xy[1]


def _int_neg(x):
    return -x


def _nat_dbl(x):
    return 2 * x


def _nat_max(xy):
    return xy[0] if xy[0] >= xy[1] else xy[1]


def _relu(x):
    return x if x > 0 else 0.0


def _fsum(v):
    return float(sum(v.values()))


def _isum(v):
    return sum(v.values())


def oracle_registry() -> ca.Registry:
    """Arrays over real/int/nat plus ops built with all six combinators."""
    reg = ca.Registry()
    for b in (REAL, INT, NAT):
        reg.register_base(b)
    reg.register_container(ARRAY)

    def vec_typer(base_ty):
        def typer(ty):
            if (isinstance(ty, TCont) and ty.shape.container is ARRAY
                    and ty.elem == base_ty):
                return base_ty
            return None
        return typer

    mk = reg.register_op
    mk(ca.OpDef("o_relu", ca.monomorphic(R, R), _relu, "triv2", (R,)))
    mk(ca.OpDef("o_shift5", ca.monomorphic(R, R), _shift5, lambda d: d, (R,)))
    mk(ca.OpDef("o_mul", ca.monomorphic(TProd(R, R), R), _scalar_mul, "triv", (TProd(R, R),),
                expr="x * y"))
    mk(ca.OpDef("o_bmul", ca.monomorphic(TProd(R, R), R), _scalar_mul, "bilin", (TProd(R, R),)))
    mk(ca.OpDef("o_sum", vec_typer(R), _fsum, "lin", (arr(3, R),)))
    mk(ca.OpDef("o_imul", ca.monomorphic(TProd(Z, Z), Z), _scalar_mul, "triv", (TProd(Z, Z),),
                expr="x * y"))
    mk(ca.OpDef("o_ibmul", ca.monomorphic(TProd(Z, Z), Z), _scalar_mul, "bilin", (TProd(Z, Z),)))
    mk(ca.OpDef("o_isub", ca.monomorphic(TProd(Z, Z), Z), _int_sub, "lin", (TProd(Z, Z),)))
    mk(ca.OpDef("o_ineg", ca.monomorphic(Z, Z), _int_neg, "lin", (Z,)))
    mk(ca.OpDef("o_isum", vec_typer(Z), _isum, "lin", (arr(3, Z),)))
    mk(ca.OpDef("o_nmax", ca.monomorphic(TProd(N, N), N), _nat_max, "triv", (TProd(N, N),),
                expr="x if x >= y else y"))
    mk(ca.OpDef("o_ndbl", ca.monomorphic(N, N), _nat_dbl, "lin", (N,)))
    mk(ca.OpDef("o_nsum", vec_typer(N), _isum, "lin", (arr(3, N),)))
    return reg


# ---------------------------------------------------------------------------
# Term generation (type-directed, forward from the input type)
# ---------------------------------------------------------------------------

def term_size(t: ca.Term) -> int:
    match t:
        case ca.Seq(stages):
            # one node per binary composition, as `seq(seq(a, b), c)` prints
            return len(stages) - 1 + sum(map(term_size, stages))
        case ca.Par(a, b) | ca.CasePar(a, b):
            return 1 + term_size(a) + term_size(b)
        case ca.Map(body):
            return 1 + term_size(body)
        case _:
            return 1


class _TermGen:
    """Forward, type-directed term generation.

    self_only restricts to the cache-free constructor set (the Self-built
    generics plus cst/plus/seq/par/map) for the self-maintainability suite.
    """

    def __init__(self, cfg, rng, reg, self_only=False):
        self.cfg = cfg
        self.rng = rng
        self.reg = reg
        self.self_only = self_only
        self.fresh = 0

    def _name(self, prefix):
        self.fresh += 1
        return f"{prefix}{self.fresh}_{self.rng.randrange(1 << 20)}"

    def small_type(self, depth=2):
        return gen_type(self.cfg, self.rng, depth, bases=("real", "int"))

    def link(self, ty, budget):
        """One constructor applicable at ty -> (term, out_ty, cost)."""
        rng = self.rng
        opts = []

        def add(w, f):
            opts.append((w, f))

        add(0.6, lambda: (ca.ID, ty, 1))
        add(1.5, lambda: (ca.Dup(), TProd(ty, ty), 1))
        if budget >= 1:
            def mk_repl():
                n = rng.randint(0, self.cfg.max_shape)
                return ca.Replicate(arr_shape(n)), TCont(arr_shape(n), ty), 1
            add(1.0, mk_repl)

            if not _contains_nat(ty):
                def mk_inl():
                    other = self.small_type(1)
                    return ca.Inl(other), TSum(ty, other), 1
                add(0.7, mk_inl)

                def mk_inr():
                    other = self.small_type(1)
                    return ca.Inr(other), TSum(other, ty), 1
                add(0.7, mk_inr)

            def mk_cst():
                out = self.small_type(1)
                return ca.Cst(out, gen_value(rng, out)), out, 1
            add(0.7, mk_cst)

            def mk_pair_repl():
                # ⟨id, replicate⟩ manufactures the (elem, container) input
                # that set/filter need
                n = rng.randint(0, self.cfg.max_shape)
                t = ca.seq(ca.Dup(), ca.Par(ca.ID, ca.Replicate(arr_shape(n))))
                return t, TProd(ty, TCont(arr_shape(n), ty)), 3
            add(0.8, mk_pair_repl)

        if not self.self_only:
            for opname, opdef in self.reg.ops.items():
                out = opdef.typer(ty)
                if out is not None:
                    add(2.0, lambda od=opdef, o=out: (ca.OpCall(od.name), o, 1))

        if isinstance(ty, TProd):
            a, b = ty.left, ty.right
            add(1.5, lambda: (ca.FST, a, 1))
            add(1.5, lambda: (ca.SND, b, 1))
            if budget >= 3:
                def mk_par():
                    sub = max(1, (budget - 1) // 2)
                    t1, o1 = self.chain(a, sub)
                    t2, o2 = self.chain(b, sub)
                    t = ca.Par(t1, t2)
                    return t, TProd(o1, o2), term_size(t)
                add(2.0, mk_par)
            if a == b and plus_capable(a):
                add(2.0, lambda: (ca.Plus(), a, 1))
            if (isinstance(a, TCont) and isinstance(b, TCont)
                    and a.shape == b.shape):
                add(2.0, lambda: (ca.Zip(), TCont(a.shape, TProd(a.elem, b.elem)), 1))
            if (isinstance(b, TCont) and b.elem == a
                    and b.shape.container is ARRAY):
                n = b.shape.payload
                if n > 0:
                    add(1.5, lambda: (ca.SetAt(rng.randrange(n)), b, 1))

                def mk_filter():
                    keep = {i for i in range(n) if rng.random() < 0.5}
                    name = self._name("gpred")
                    self.reg.register_index_pred(name, lambda i, _k=frozenset(keep): i in _k)
                    return ca.Filter(name), b, 1
                add(1.2, mk_filter)
            if isinstance(b, TSum) and not self.self_only:
                add(1.5, lambda: (ca.Distr(), TSum(TProd(a, b.left), TProd(a, b.right)), 1))

        if isinstance(ty, TCont) and ty.shape.container is ARRAY:
            n = ty.shape.payload
            elem = ty.elem
            if budget >= 2:
                def mk_map():
                    body, out = self.chain(elem, max(1, budget - 1))
                    t = ca.Map(body)
                    return t, TCont(ty.shape, out), term_size(t)
                add(2.5, mk_map)
            if n > 0:
                add(1.5, lambda: (ca.Get(rng.randrange(n)), elem, 1))

            def mk_reshape():
                k = rng.randint(0, self.cfg.max_shape)
                name = self._name("gfn")
                table = tuple(rng.randrange(n) for _ in range(k)) if n > 0 else ()
                if n == 0:
                    k = 0
                self.reg.register_index_fn(name, lambda j, _t=table: _t[j])
                return ca.Reshape(name, arr_shape(k)), TCont(arr_shape(k), elem), 1
            add(1.2, mk_reshape)
            if isinstance(elem, TCont) and elem.shape.container is ARRAY:
                add(1.8, lambda: (ca.Tp(), TCont(elem.shape, TCont(ty.shape, elem.elem)), 1))

        if isinstance(ty, TSum) and not self.self_only:
            a, b = ty.left, ty.right
            if budget >= 3 and not (_contains_nat(a) or _contains_nat(b)):
                def mk_case():
                    sub = max(1, (budget - 1) // 2)
                    t1, o1 = self.chain(a, sub)
                    t2, o2 = self.chain(b, sub)
                    t = ca.CasePar(t1, t2)
                    return t, TSum(o1, o2), term_size(t)
                add(2.5, mk_case)
            if a == b and not _contains_nat(a):
                add(2.0, lambda: (ca.Fuse(), a, 1))

        total = sum(w for w, _ in opts)
        roll = rng.uniform(0, total)
        acc = 0.0
        for w, f in opts:
            acc += w
            if roll <= acc:
                return f()
        return opts[-1][1]()

    def chain(self, ty, budget):
        links = []
        cur = ty
        spent = 0
        while spent < budget:
            if links and self.rng.random() < 0.3:
                break
            t, cur, cost = self.link(cur, budget - spent)
            links.append(t)
            spent += cost
        if not links:
            return ca.ID, ty
        return ca.seq(*links), cur


def gen_term(cfg: GenConfig, rng: random.Random, reg: ca.Registry,
             in_ty, out_ty=None, size=None, attempts=60, self_only=False):
    """Generate a typechecked term from in_ty; optionally hit out_ty exactly."""
    size = size or cfg.max_term_size
    gen = _TermGen(cfg, rng, reg, self_only=self_only)
    if out_ty is not None and in_ty == out_ty and size >= 1:
        if rng.random() < 0.2:
            return ca.typecheck(ca.ID, in_ty, reg)
    for _ in range(attempts):
        term, got = gen.chain(in_ty, size)
        if term_size(term) > size:
            continue
        if out_ty is not None and got != out_ty:
            continue
        return ca.typecheck(term, in_ty, reg)
    raise GenerationFailure(
        f"no term of size <= {size} from {in_ty!r}"
        + (f" to {out_ty!r}" if out_ty is not None else ""))


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------

class _LawBroken(Exception):
    """Raised by a reference fn to fail a law of its own (as fused-batch)."""

    def __init__(self, law):
        super().__init__(law)
        self.law = law


def _run_stream(machine: incr.IncrMachine, fn, x, n, draw, rel_tol=0.0, same=None):
    """Step machine from x over n changes, each drawn as draw(x_current).

    init(x) must give fn(x) (Law-1).  Then the nil change steps on the
    stream's own cache: it must give a nil change and a cache equal to
    init(x)'s (nil-change).  After each drawn change the accumulated output
    must equal fn of the input so far (Law-2), and the cache init's on it
    (Law-3).  Outputs compare by same, values_equal at rel_tol by default.

    Returns None or the first failure, {law, in_ty, x, ds} plus error for an
    exception.  x and every change are written as text before the machine
    sees them; ds holds the drawn changes stepped, the failing one last (the
    nil change appears only when it fails).
    """
    in_ty, out_ty = machine.in_ty, machine.out_ty
    same = same or (lambda a, b: values_equal(out_ty, a, b, rel_tol))
    xs = _show(value_to_text, in_ty, x)
    ds = []

    def witness(law):
        return dict(law=law, in_ty=type_to_text(in_ty), x=xs, ds=ds)

    try:
        y, c = machine.init(x)
        if not same(y, fn(x)):
            return witness("Law-1")
        nil = nil_change(in_ty)
        ds.append(_show(change_to_text, in_ty, nil))
        dy, c = machine.step(nil, c)
        if not (is_nil(out_ty, dy)
                and incr.cache_equal(machine.cache, c, machine.init(x)[1], rel_tol)):
            return witness("nil-change")
        ds.clear()
        for _ in range(n):
            dx = draw(x)
            ds.append(_show(change_to_text, in_ty, dx))
            dy, c = machine.step(dx, c)
            x = apply_change(in_ty, x, dx)
            y = apply_change(out_ty, y, dy)
            if not same(fn(x), y):
                return witness("Law-2")
            if not incr.cache_equal(machine.cache, c, machine.init(x)[1], rel_tol):
                return witness("Law-3")
    except _LawBroken as e:
        return witness(e.law)
    except Exception as e:  # a crashing machine is a failed law, with witness
        return dict(witness("exception"), error=repr(e))
    return None


def check_machine_laws(name, machine: incr.IncrMachine, fn, rng, samples=100,
                       rel_tol=0.0, seed=0, **record) -> CheckReport:
    """Laws 1-3 and the nil law on random samples, each stepped twice; a
    failure's witness also carries record's fields."""
    draw = lambda _x: gen_change(rng, machine.in_ty)
    for k in range(samples):
        x = gen_value(rng, machine.in_ty)
        failure = _run_stream(machine, fn, x, 2, draw, rel_tol)
        if failure:
            return CheckReport(name, seed, k + 1, False,
                               [dict(failure, sample=k, **record)])
    return CheckReport(name, seed, samples, True)


def check_op_laws(opdef: ca.OpDef, in_ty, samples=60, seed=11, name=None) -> CheckReport:
    out_ty = opdef.typer(in_ty)
    if out_ty is None:
        raise GenerationFailure(f"op {opdef.name!r} rejects {in_ty!r}")
    machine = incr.op_machine(opdef, in_ty, out_ty)
    rng = stable_rng(seed, f"op:{opdef.name}:{in_ty!r}")
    return check_machine_laws(name or f"op:{opdef.name}", machine, opdef.fn, rng,
                              samples=samples, rel_tol=1e-9, seed=seed)


def check_term_laws(tt: ca.TypedTerm, rng, samples=60, rel_tol=1e-9, name="term",
                    **record) -> CheckReport:
    machine = incr.incrementalize(tt)
    return check_machine_laws(name, machine, ca.compiled(tt), rng,
                              samples=samples, rel_tol=rel_tol, **record)


def check_completeness(ty, rng, samples=200, name="completeness", seed=0) -> CheckReport:
    """x ⊕ (y ⊖ x) == y; on nat-containing types y is sampled reachable."""
    monotone = _contains_nat(ty)
    failures = []
    for k in range(samples):
        if monotone:
            x, y = reachable_pair(rng, ty)
        else:
            x, y = gen_value(rng, ty), gen_value(rng, ty)
        got = apply_change(ty, x, diff_values(ty, y, x))
        if not values_equal(ty, got, y, 1e-9):
            failures.append(dict(
                sample=k, x=_show(value_to_text, ty, x), y=_show(value_to_text, ty, y)))
            break
    return CheckReport(name, seed, samples, not failures, failures)


# ---------------------------------------------------------------------------
# relalg's fused join
# ---------------------------------------------------------------------------

_JOIN_PREDS = (
    ("key-eq", lambda ij: ij[0][0] == ij[1][0]),
    ("non-key", lambda ij: (ij[0][1] + ij[1][1]) % 3 == 0),
)


def _join_tuple(rng):
    return (rng.randrange(4), rng.randrange(8))


def _join_side_change(rng, rel, gone):
    """A relation change: deletions (noted in gone), multiplicity edits that
    may turn negative, fresh tuples and re-inserts of deleted ones."""
    d = {}
    for t in rng.sample(sorted(rel), min(len(rel), rng.randint(0, 2))):
        d[t] = -rel[t] if rng.random() < 0.5 else rng.choice((-2, -1, 1))
    if gone and rng.random() < 0.5:
        d[gone.pop(rng.randrange(len(gone)))] = rng.choice((1, 2))
    for _ in range(rng.randint(0, 2)):
        t = _join_tuple(rng)
        if t not in rel:
            d[t] = rng.choice((-2, -1, 1, 2))
    d = {t: m for t, m in d.items() if m}
    gone += [t for t, m in d.items() if t in rel and rel[t] + m == 0]
    return d


def _join_draw(rng, k):
    """The draw of check_fused_join's sample k: left-only, right-only and
    two-sided changes in turn, from the (k % 3)th on."""
    gone, turns = ([], []), itertools.count(k)

    def draw(x):
        dx, dy = (_join_side_change(rng, v, g) for v, g in zip(x, gone))
        return [(dx, {}), ({}, dy), (dx, dy)][next(turns) % 3]
    return draw


def _fused_join(pred):
    """relalg's fused join `cross ; σ_p` for p the _JOIN_PREDS entry named
    pred, as (machine, reference).  The reference is the stages run one by
    one (calculus.unfused); it raises _LawBroken("fused-batch") where the
    fused batch (denote) differs from it."""
    bundle = relalg.register_relalg()
    bundle.registry.register_index_pred(pred, dict(_JOIN_PREDS)[pred])
    pair_rel = TCont(rel_shape(("int", "int")), Z)
    tt = ca.typecheck(relalg.join_term(pred), TProd(pair_rel, pair_rel),
                      bundle.registry)
    batch, ref = ca.compiled(tt), ca.unfused(tt)

    def reference(x):
        want = ref(x)
        if batch(x) != want:
            raise _LawBroken("fused-batch")
        return want
    return incr.incrementalize(tt), reference


def check_fused_join(seed=42, samples=60) -> CheckReport:
    """Laws 1-3 of relalg's fused join, for a key-equality and a non-key
    predicate, after every step of a change list that mixes left-only,
    right-only and two-sided changes.  Outputs compare by ==, and the fused
    batch must equal the reference too, at init and after every step."""
    rng = stable_rng(seed, "relalg:fused-join")
    per = samples // len(_JOIN_PREDS)
    for n_pred, (pred, _) in enumerate(_JOIN_PREDS):
        machine, reference = _fused_join(pred)
        for k in range(per):
            x = tuple({_join_tuple(rng): rng.choice((-1, 1, 2)) for _ in range(n)}
                      for n in (rng.randint(0, 12), rng.randint(0, 5)))
            failure = _run_stream(machine, reference, x, 6, _join_draw(rng, k),
                                  same=operator.eq)
            if failure:
                return CheckReport("relalg:fused-join", seed, n_pred * per + k + 1,
                                   False, [dict(failure, pred=pred, sample=k)])
    return CheckReport("relalg:fused-join", seed, samples, True)


# ---------------------------------------------------------------------------
# Finite-support suite
# ---------------------------------------------------------------------------

def _within(out, bound):
    """out's keys lie within bound; a dict bound also bounds each row's keys."""
    return set(out) <= set(bound) and (
        not isinstance(bound, dict) or all(set(row) <= bound[i] for i, row in out.items()))


def check_finite_support(seed=17, samples=40) -> list[CheckReport]:
    """Support bounds for the seven container ops, plus violation detection."""
    rng = stable_rng(seed, "finite-support")
    reg = ca.Registry()
    reg.register_base(INT)
    reg.register_container(RELATION)
    reg.register_container(ARRAY)
    reg.register_container(TREE)

    def dbl(x):
        return 2 * x
    reg.register_op(ca.OpDef("dbl", ca.monomorphic(Z, Z), dbl, "lin"))
    five = 5

    def plus5(x):
        return x + five
    reg.register_op(ca.OpDef("plus5", ca.monomorphic(Z, Z), plus5, lambda d: d))
    reg.register_index_fn("swap", lambda ij: (ij[1], ij[0]),
                          fibers=lambda ij: [(ij[1], ij[0])])
    reg.register_index_fn("const0", lambda ij: (0, 0))
    reg.register_index_pred("even_key", lambda t: t[0] % 2 == 0)

    rel_i, rel_ii = TCont(rel_shape("int"), Z), TCont(rel_shape(("int", "int")), Z)
    nested, tree_i = TCont(rel_shape("int"), rel_i), TCont(tree_shape(), Z)
    dbl_map = ca.Map(ca.OpCall("dbl"))

    def set_tree(r):
        path, a = gen_index(r, tree_shape()), gen_value(r, tree_i)
        return ca.SetAt(path), TProd(Z, tree_i), (gen_scalar(r, INT), a), set(a) | {path}

    # a row draws (term, input type, input, bound) from r, in that order; tp's
    # bound maps each allowed outer key to the keys its row may hold
    support = (
        ("set", lambda r: (ca.SetAt(i := r.randint(-3, 3)), TProd(Z, rel_i),
                           (gen_scalar(r, INT), a := gen_value(r, rel_i)), set(a) | {i})),
        ("replicate", lambda r: (ca.Replicate(rel_shape("int")), Z, 0, set())),
        ("map", lambda r: (dbl_map, rel_i, a := gen_value(r, rel_i), set(a))),
        ("reshape", lambda r: (ca.Reshape("swap", rel_shape(("int", "int"))), rel_ii,
                               a := gen_value(r, rel_ii), {(j, i) for i, j in a})),
        ("filter", lambda r: (ca.Filter("even_key"), TProd(Z, rel_ii),
                              (0, a := gen_value(r, rel_ii)), set(a))),
        ("zip", lambda r: (ca.Zip(), TProd(rel_i, rel_i),
                           (a := gen_value(r, rel_i), b := gen_value(r, rel_i)),
                           set(a) | set(b))),
        ("tp", lambda r: (ca.Tp(), nested, a := gen_value(r, nested),
                          {i: set(a) for row in a.values() for i in row})),
        ("map-tree", lambda r: (dbl_map, tree_i, a := gen_value(r, tree_i), set(a))),
        ("set-tree", set_tree),
    )
    reports = []
    for name, draw in support:
        failures = []
        for k in range(samples):
            term, in_ty, x, bound = draw(rng)
            out = ca.denote(ca.typecheck(term, in_ty, reg), x)
            if not _within(out, bound):
                failures.append(dict(sample=k, error=f"{name} support grew: {out!r} from {x!r}"))
                break
        reports.append(CheckReport(f"finite-support:{name}", seed, samples,
                                   not failures, failures))

    # precondition violations must be detected, not silently mis-evaluated
    violations = (
        ("map-non-default-preserving", ca.Map(ca.OpCall("plus5")), rel_i, {1: 2}),
        ("reshape-without-fibers", ca.Reshape("const0", rel_shape(("int", "int"))),
         rel_ii, {(1, 2): 1}),
        ("replicate-non-default", ca.Replicate(rel_shape("int")), Z, 7),
    )
    failures = []
    for case, term, in_ty, x in violations:
        try:
            ca.denote(ca.typecheck(term, in_ty, reg), x)
        except SupportError:
            continue
        failures.append(dict(case=case))
    reports.append(CheckReport("finite-support:violations-detected", seed, len(violations),
                               not failures, failures))
    return reports


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def _stale_triv(orig):
    def bad(*args, **kwargs):
        m = orig(*args, **kwargs)
        good_step = m.step
        m.step = lambda dx, c: (good_step(dx, c)[0], c)
        m.triv = None  # so map steps the sabotaged machine, not its kernel
        return m
    return bad


def _swap_fst_snd(orig):
    def bad(tt):
        if tt.term.path != (0,):
            return orig(tt)
        return incr.comb_self(ca.compiled(tt), lambda d: d[1], tt.in_ty, tt.out_ty)
    return bad


def _seq_drop_propagation(_orig):
    def deaf(m):
        # the stage steps on a nil change, whatever comes in
        ty, step, f = m.in_ty, m.step, m.deriv
        return replace(m, step=lambda _d, c: step(nil_change(ty), c),
                       deriv=None if f is None else lambda _d: f(nil_change(ty)))

    def bad(tt):
        first, *rest = [incr.incrementalize(c) for c in tt.children]
        return incr._seq_machine(tt, [first] + [deaf(m) for m in rest])
    return bad


def _bilin_missing_term(orig):
    def bad(fn, in_ty, out_ty, index=None):
        m = orig(fn, in_ty, out_ty, index)
        step = m.step
        nil_a, nil_b = nil_change(in_ty.left), nil_change(in_ty.right)

        def missing(d, c):
            # the machine's own step, one side at a time, so the index keeps
            # up; the second term, f(x ⊕ dx, dy), is forgotten
            dx, dy = d
            out, c = step((dx, nil_b), c)
            return out, step((nil_a, dy), c)[1]

        return replace(m, step=missing)
    return bad


def _off_by_one(orig):
    return lambda index, width: orig(min(index + 1, width - 1), width)


def _aliased_cache(orig):
    def bad(fn, in_ty, out_ty, index=None):
        m = orig(fn, in_ty, out_ty, index)
        init = m.init

        def aliased(xy):
            y, c = init(xy)
            return y, (*xy, c[2])  # the caller's relations, not copies

        m.init = aliased
        return m
    return bad


def _aliased_output(orig):
    def bad(tt):
        m = orig(tt)
        init = m.init

        def aliased(s):
            y, c = init(s)
            return y, type(c)((c.value[0], y.value))  # the output, not a copy

        return replace(m, init=aliased)
    return bad


def _stale_matches(orig):
    def bad(fn, in_ty, out_ty, index=None):
        if index is None:  # the unfused op: no index to sabotage
            return orig(fn, in_ty, out_ty, index)
        left, make = index.left, index.init

        def stale(dx, y, x2, ix):
            # the pairs of new left tuples are made, but pass by the upkeep
            new = {i: a for i, a in dx.items() if x2.get(i) == a}
            old = {i: a for i, a in dx.items() if i not in new}
            return {**left(old, y, x2, ix), **make((new, y))[0]}

        return orig(fn, in_ty, out_ty, replace(index, left=stale))
    return bad


def _batch_drops_pair(orig):
    def bad(*stages):
        run = orig(*stages)
        if run is None:
            return None

        def drop(xy):
            out = run(xy)
            if out:
                out.popitem()
            return out

        return drop
    return bad


# fault -> (namespace, key, sabotage): inject_fault swaps namespace[key] for
# sabotage(namespace[key]) while its block runs
_SABOTAGE = {
    "triv-stale-cache": (incr._COMBINATORS, "triv", _stale_triv),
    "swap-fst-snd": (incr._BUILDERS, ca.Proj, _swap_fst_snd),
    "seq-drop-propagation": (incr._BUILDERS, ca.Seq, _seq_drop_propagation),
    "bilin-missing-term": (incr._COMBINATORS, "bilin", _bilin_missing_term),
    "debruijn-off-by-one": (vars(fe), "_var_term", _off_by_one),
    "bilin-aliased-cache": (incr._COMBINATORS, "bilin", _aliased_cache),
    "join-stale-matches": (incr._COMBINATORS, "bilin", _stale_matches),
    "case-aliased-output": (incr._BUILDERS, ca.CasePar, _aliased_output),
    "join-batch-drops-pair": (ca._FUSED, "join", _batch_drops_pair),
}
FAULTS = tuple(_SABOTAGE)


@contextmanager
def inject_fault(name: str):
    """Temporarily sabotage one engine component (mutation testing)."""
    if name not in _SABOTAGE:
        raise DelticError(f"unknown fault {name!r}; have {FAULTS}")
    space, key, sabotage = _SABOTAGE[name]
    orig = space[key]
    space[key] = sabotage(orig)
    try:
        yield
    finally:
        space[key] = orig


# ---------------------------------------------------------------------------
# Per-construct law suites (one entry per term constructor and combinator)
# ---------------------------------------------------------------------------

TERM_CONSTRUCTS = (
    "id", "dup", "fst", "snd", "plus", "cst", "seq", "par", "map", "zip",
    "get", "set", "reshape", "replicate", "tp", "filter", "fuse", "distr",
    "inl", "inr", "case", "op",
)

COMBINATORS = ("triv", "triv2", "self", "lin", "bilin", "add")


def _plus_capable_pool(cfg, rng):
    pool = [R, Z, N, arr(rng.randint(1, cfg.max_shape), R),
            arr(rng.randint(1, cfg.max_shape), Z), TProd(R, Z),
            TCont(rel_shape("int"), Z)]
    return rng.choice(pool)


def _construct_term(name, cfg, rng, gen: "_TermGen"):
    """One randomized typed instance with `name` at the root."""
    reg = gen.reg
    small = gen.small_type

    def chain(ty, budget=3):
        return gen.chain(ty, budget)

    if name == "id":
        return ca.ID, small()
    if name == "dup":
        return ca.Dup(), small()
    if name == "fst":
        return ca.FST, TProd(small(), small())
    if name == "snd":
        return ca.SND, TProd(small(), small())
    if name == "plus":
        x = _plus_capable_pool(cfg, rng)
        return ca.Plus(), TProd(x, x)
    if name == "cst":
        out = small()
        return ca.Cst(out, gen_value(rng, out)), small()
    if name == "seq":
        a = small()
        t1, mid = chain(a)
        t2, _ = chain(mid)
        return ca.Seq(t1, t2), a
    if name == "par":
        a, b = small(), small()
        t1, _ = chain(a)
        t2, _ = chain(b)
        return ca.Par(t1, t2), TProd(a, b)
    if name == "map":
        elem = small(1)
        body, _ = chain(elem, 2)
        return ca.Map(body), TCont(arr_shape(rng.randint(0, cfg.max_shape)), elem)
    if name == "zip":
        k = rng.randint(0, cfg.max_shape)
        return ca.Zip(), TProd(arr(k, small(1)), arr(k, small(1)))
    if name == "get":
        k = rng.randint(1, cfg.max_shape)
        return ca.Get(rng.randrange(k)), arr(k, small(1))
    if name == "set":
        k = rng.randint(1, cfg.max_shape)
        e = small(1)
        return ca.SetAt(rng.randrange(k)), TProd(e, arr(k, e))
    if name == "reshape":
        n = rng.randint(1, cfg.max_shape)
        k = rng.randint(0, cfg.max_shape)
        fname = gen._name("cfn")
        table = tuple(rng.randrange(n) for _ in range(k))
        reg.register_index_fn(fname, lambda j, _t=table: _t[j])
        return ca.Reshape(fname, arr_shape(k)), arr(n, small(1))
    if name == "replicate":
        return ca.Replicate(arr_shape(rng.randint(0, cfg.max_shape))), small(1)
    if name == "tp":
        a, b = rng.randint(0, cfg.max_shape), rng.randint(0, cfg.max_shape)
        return ca.Tp(), arr(a, arr(b, small(1)))
    if name == "filter":
        k = rng.randint(0, cfg.max_shape)
        e = small(1)
        pname = gen._name("cpred")
        keep = frozenset(i for i in range(k) if rng.random() < 0.5)
        reg.register_index_pred(pname, lambda i, _k=keep: i in _k)
        return ca.Filter(pname), TProd(e, arr(k, e))
    if name == "fuse":
        x = gen_type(cfg, rng, 1, bases=("real", "int"))
        return ca.Fuse(), TSum(x, x)
    if name == "distr":
        return ca.Distr(), TProd(small(1), TSum(small(1), small(1)))
    if name == "inl":
        return ca.Inl(small(1)), gen_type(cfg, rng, 1, bases=("real", "int"))
    if name == "inr":
        return ca.Inr(small(1)), gen_type(cfg, rng, 1, bases=("real", "int"))
    if name == "case":
        a = gen_type(cfg, rng, 1, bases=("real", "int"))
        b = gen_type(cfg, rng, 1, bases=("real", "int"))
        t1, _ = chain(a)
        t2, _ = chain(b)
        return ca.CasePar(t1, t2), TSum(a, b)
    if name == "op":
        opdef = rng.choice(list(reg.ops.values()))
        in_ty = rng.choice(opdef.sample_in_tys)
        return ca.OpCall(opdef.name), in_ty
    raise GenerationFailure(f"unknown construct {name!r}")


def _combinator_instances(name, cfg, rng):
    """Fresh (machine, fn) pairs for one combinator; the four an op can name
    are built through incr's table, as an op's machine is."""
    if name == "self":
        picks = [(_shift5, lambda d: d, R, R),
                 (_int_neg, _int_neg, Z, Z),
                 (lambda v: {i: 2 * x for i, x in v.items()},
                  lambda d: {i: 2 * x for i, x in d.items()},
                  TCont(rel_shape("int"), Z), TCont(rel_shape("int"), Z))]
        f, d, i, o = rng.choice(picks)
        return incr.comb_self(f, d, i, o), f
    if name == "add":
        ty = _plus_capable_pool(cfg, rng)
        m = incr.comb_add(ty)
        return m, ca.compiled(ca.typecheck(ca.Plus(), TProd(ty, ty), oracle_registry()))
    if name == "triv":
        picks = [(_relu, R, R), (_scalar_mul, TProd(R, R), R),
                 (_nat_max, TProd(N, N), N), (_scalar_mul, TProd(Z, Z), Z)]
    elif name == "triv2":
        picks = [(_relu, R, R), (_scalar_mul, TProd(R, R), R),
                 (_scalar_mul, TProd(Z, Z), Z)]
    elif name == "lin":
        k = rng.randint(0, cfg.max_shape)
        picks = [(_fsum, arr(k, R), R), (_int_sub, TProd(Z, Z), Z),
                 (_isum, arr(k, Z), Z), (_isum, arr(k, N), N)]
    elif name == "bilin":
        picks = [(_scalar_mul, TProd(R, R), R), (_scalar_mul, TProd(Z, Z), Z),
                 (relalg._cross, TProd(TCont(rel_shape("int"), Z),
                                       TCont(rel_shape("str"), Z)),
                  TCont(rel_shape(("int", "str")), Z))]
    else:
        raise GenerationFailure(f"unknown combinator {name!r}")
    f, i, o = rng.choice(picks)
    return incr._COMBINATORS[name](f, i, o), f


# fuse, distr and case ⊕ changes into containers they own.  Their random
# instances seldom step a non-empty container (arr[0] is drawn often), so
# each is also checked on one fixed instance over arr[3] real, with id
# branches, which no other fault touches.  It runs only when the random
# instances pass, and its samples are counted only on a failure, so a passing
# record reads as it did without it.
_OWNED_SUM_TERMS = {
    "fuse": (ca.Fuse(), lambda a: TSum(a, a)),
    "distr": (ca.Distr(), lambda a: TProd(a, TSum(a, a))),
    "case": (ca.CasePar(ca.ID, ca.ID), lambda a: TSum(a, a)),
}


def check_construct_laws(name, cfg: GenConfig = None, samples=200,
                         instances=10) -> CheckReport:
    """Laws 1-3 for one construct across randomized instantiations."""
    cfg = cfg or GenConfig()
    seed = cfg.seed
    rng = stable_rng(seed, f"construct:{name}")
    per = max(1, samples // instances)
    check = f"laws:{name}"
    for k in range(instances):
        if name in COMBINATORS:
            machine, fn = _combinator_instances(name, cfg, rng)
            rep = check_machine_laws(check, machine, fn, rng, samples=per,
                                     rel_tol=cfg.tol_real)
        else:
            reg = oracle_registry()
            gen = _TermGen(cfg, rng, reg)
            term, in_ty = _construct_term(name, cfg, rng, gen)
            rep = check_term_laws(ca.typecheck(term, in_ty, reg), rng, samples=per,
                                  rel_tol=cfg.tol_real, name=check,
                                  term=ca.term_to_text(term))
        if not rep.passed:
            return CheckReport(check, seed, k * per + rep.samples, False, rep.failures)
    if name in _OWNED_SUM_TERMS:
        term, in_ty = _OWNED_SUM_TERMS[name]
        tt = ca.typecheck(term, in_ty(arr(3, R)), oracle_registry())
        rep = check_term_laws(tt, stable_rng(seed, f"owned:{name}"), samples=20,
                              rel_tol=cfg.tol_real, name=check,
                              term=ca.term_to_text(term))
        if not rep.passed:
            return CheckReport(check, seed, instances * per + rep.samples, False, rep.failures)
    return CheckReport(check, seed, instances * per, True)


def check_value_preservation_suite(cfg: GenConfig = None, terms=100,
                                   per_term=2) -> CheckReport:
    """Random typechecked terms, each stepped over per_term change lists of
    0 to max_changes changes: the iterated output equals the batch on the
    input so far, and the cache init's, after every step (at tol_iter)."""
    cfg = cfg or GenConfig()
    seed = cfg.seed
    rng = stable_rng(seed, "value-preservation")
    reg = oracle_registry()
    for k in range(terms):
        in_ty = gen_type(cfg, rng, depth=2)
        tt = gen_term(cfg, rng, reg, in_ty)
        machine, fn = incr.incrementalize(tt), ca.compiled(tt)
        draw = lambda _x: gen_change(rng, in_ty)
        for j in range(per_term):
            x = gen_value(rng, in_ty)
            failure = _run_stream(machine, fn, x, rng.randint(0, cfg.max_changes),
                                  draw, cfg.tol_iter)
            if failure:
                return CheckReport("value-preservation", seed, k + 1, False, [dict(
                    failure, sample=j, term=ca.term_to_text(tt.term))])
    return CheckReport("value-preservation", seed, terms, True)


# ---------------------------------------------------------------------------
# Frontend lowering soundness (also the de Bruijn mutation detector)
# ---------------------------------------------------------------------------

MVMUL_TEXT = """\
bundle linalg
param m : arr[{n}] arr[{m}] real
param v : arr[{m}] real

map sum # (map2 (map2 mul) # (replicate {n} # v, m))
"""

DENSE_TEXT = """\
bundle linalg
param m : arr[{n}] arr[{m}] real
param b : arr[{n}] real
param x : arr[{m}] real

map relu # map2 add # (mvmul # [m, x], b)
"""

LET_TEXT = """\
bundle linalg
param x : real
param y : real

let s = mul # (x, x);
let t = relu # s;
mul # (t, relu # y)
"""


def check_frontend_lowering(seed=23, samples=100) -> CheckReport:
    """Surface texts lower to terms denotationally equal to the catalog and
    to the environment-passing reference evaluator."""
    from .domains import linalg
    bundle = linalg.register_linalg()
    lookup = lambda _name: bundle
    rng = stable_rng(seed, "frontend")
    failures = []
    n, m = 3, 4
    try:
        _, mv_prog = fe.parse_program_file(MVMUL_TEXT.format(n=n, m=m), lookup)
        mv_tt = fe.compile_program(mv_prog, bundle.registry, bundle.literal_base)
        cat_tt = ca.typecheck(linalg.mvmul_term(n, m), mv_prog.in_ty, bundle.registry)
        _, de_prog = fe.parse_program_file(DENSE_TEXT.format(n=n, m=m), lookup)
        de_tt = fe.compile_program(de_prog, bundle.registry, bundle.literal_base)
        _, let_prog = fe.parse_program_file(LET_TEXT, lookup)
        let_tt = fe.compile_program(let_prog, bundle.registry, bundle.literal_base)
    except Exception as e:  # mis-lowered programs often fail to even typecheck
        return CheckReport("frontend-lowering", seed, 0, False,
                           [dict(case="compile", error=repr(e))])

    for k in range(samples):
        M = gen_value(rng, mv_prog.in_ty.left)
        v = gen_value(rng, mv_prog.in_ty.right)
        got = ca.denote(mv_tt, (M, v))
        want = ca.denote(cat_tt, (M, v))
        if not values_equal(mv_tt.out_ty, got, want, 1e-9):
            failures.append(dict(case="mvmul", sample=k))
            break
        b = gen_value(rng, arr(n, R))
        x = gen_value(rng, arr(m, R))
        got = ca.denote(de_tt, (M, (b, x)))
        cat_dense = ca.typecheck(linalg.dense_term(n, m, M, b), arr(m, R),
                                 bundle.registry)
        want = ca.denote(cat_dense, x)
        if not values_equal(de_tt.out_ty, got, want, 1e-9):
            failures.append(dict(case="dense", sample=k))
            break
        env = {"m": (mv_prog.in_ty.left, M), "v": (mv_prog.in_ty.right, v)}
        _, ref = fe.eval_named(mv_prog.body, env, bundle.registry, REAL)
        if not values_equal(mv_tt.out_ty, ca.denote(mv_tt, (M, v)), ref, 1e-9):
            failures.append(dict(case="mvmul-vs-reference", sample=k))
            break
        xs, ys = gen_scalar(rng, REAL), gen_scalar(rng, REAL)
        got = ca.denote(let_tt, (xs, ys))
        env = {"x": (R, xs), "y": (R, ys)}
        _, ref = fe.eval_named(let_prog.body, env, bundle.registry, REAL)
        if not values_equal(R, got, ref, 1e-9):
            failures.append(dict(case="let-translation", sample=k,
                                 x=xs, y=ys, got=got, ref=ref))
            break
    return CheckReport("frontend-lowering", seed, samples, not failures, failures)


# ---------------------------------------------------------------------------
# Whole suites (what `deltic laws` runs)
# ---------------------------------------------------------------------------

def _guarded(name, seed, thunk) -> CheckReport:
    """A check that crashes is a failed check with the error as witness."""
    try:
        return thunk()
    except Exception as e:
        return CheckReport(name, seed, 0, False, [dict(error=repr(e))])


def run_all_suites(bundle_names=("linalg", "relalg", "trees", "gcounter"),
                   seed=None, samples=60) -> list[CheckReport]:
    from .domains import get_bundle
    cfg = GenConfig(seed=seed if seed is not None else GenConfig.seed)
    reports = []
    for bname in bundle_names:
        bundle = get_bundle(bname)
        for opdef in bundle.registry.ops.values():
            for in_ty in opdef.sample_in_tys:
                name = f"{bname}:op:{opdef.name}"
                reports.append(_guarded(name, cfg.seed, lambda od=opdef, it=in_ty, n=name:
                                        check_op_laws(od, it, samples, cfg.seed, n)))
        if bname == "relalg":
            reports.append(_guarded("relalg:fused-join", cfg.seed,
                                    lambda: check_fused_join(cfg.seed, samples)))
    for cname in TERM_CONSTRUCTS + COMBINATORS:
        reports.append(_guarded(
            f"laws:{cname}", cfg.seed,
            lambda cn=cname: check_construct_laws(cn, cfg, samples=samples,
                                                  instances=5)))
    reports.append(_guarded(
        "value-preservation", cfg.seed,
        lambda: check_value_preservation_suite(cfg, terms=40)))
    rng = stable_rng(cfg.seed, "core-structures")
    for label, bases in (("sums", ("real", "int")), ("nat", ("nat",)),
                         ("scalar", ("scalar",))):
        for k in range(10):
            ty = gen_type(cfg, rng, containers=("arr", "rel", "dict", "tree"),
                          bases=bases)
            reports.append(check_completeness(
                ty, rng, samples=40, name=f"completeness:{label}#{k}", seed=cfg.seed))
    reports.extend(check_finite_support(seed=cfg.seed))
    reports.append(check_frontend_lowering(seed=cfg.seed, samples=max(20, samples)))
    return reports
