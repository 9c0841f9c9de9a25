"""Cached incrementalization: combinators and the term transformation.

An IncrMachine is the executable meaning of cached incrementalization: a
cache descriptor, an initializer x -> (f x, cache), and a step
(change, cache) -> (output change, cache) forming a Mealy-style transducer.
Machines are stateless (the cache is threaded by the caller), but step may
update cache dictionaries in place, so a cache must never be reused after
being passed to step.

One build shares what it has built.  As machines keep no state, equal
typed subterms can share one machine: incrementalize keeps a table for one
top-level call, keyed by TypedTerm identity (calculus.typecheck gives equal
subterms at equal input types one TypedTerm), so each distinct typed
subterm, and each fused run of seq stages (_once), is built once, and its
machine sits at every position that holds it.  init still runs per
position, so every position keeps its own cache.  A call made while a build
runs (a builder's, or a sabotaged builder's, for a subterm) joins that
build; the table is dropped when the outermost call returns, so the next
build, a fault injected in between included, starts afresh.  A probe that
wraps machines by term path wraps a shared machine once per path.

An op's machine is built here, and only here (op_machine): its OpDef names
a combinator ("triv", "triv2", "lin", "bilin"), which _COMBINATORS maps to
the comb_* function applied to the op's fn, or holds a Self op's derivative.
A bundle declares; it builds no machine.  The fused join takes the "bilin"
entry too, handing it the op's join_index, so a fault that swaps a table
entry reaches every machine built by that combinator (join-stale-matches
sabotages the index it is handed), as one that swaps a _BUILDERS entry
reaches every machine of that construct, and one that swaps an entry of
calculus._FUSED (join-batch-drops-pair) the batch of every run of its rule.

A machine with a unit cache is self-maintainable: its step is a pure function
of the change, kept as the machine's `deriv` (change -> change).  The builders
for seq, par and map compose their children's derivatives when the machine is
built, so a cache-free subterm steps as a single call instead of threading
(change, UNIT) pairs through every node; a cache-free composite has a CUnit
cache and takes its init from the compiled batch semantics.

dup, proj and the container ops (zip, get, set, tp, reshape, replicate,
filter) are linear, so each one's derivative is its batch kernel read at
nil: calculus.container_kernel with nil_change wherever the batch reads the
default ε.  dup and proj read neither, so each one's compiled batch closure
is its derivative.

A typed seq is n-ary (see calculus.typecheck).  Each maximal run of
cache-free stages steps as one derivative that calls the stage derivatives
in a flat loop.  A seq with a cached stage keeps a list with one slot per
stage (UNIT at the cache-free ones) that its step updates in place, so
neither init nor step recurses along a chain.  Seq and par pick their step
when built: a seq of one cache-free run then one cached stage steps with
no loop, and a fanout has one step per pair of sides, cached or not.

Runs of seq stages that are built as one stage are matched by
calculus.fusion, which denote shares, and built by _FUSED, by rule name.
The map2 rule, `zip ; map f`, is one fused stage whose
step walks the changed keys of (dx, dy) and steps f (or calls its
derivative) per key, with no zipped change in between.  The zip slot stays
UNIT and the map slot keeps its per-index cache, so the cache layout is that
of the unfused pair.  Its init zips with the compiled zip, as denote does
(two inputs that have one key set in one C-level pass).  A Triv body runs
as a pair kernel (below), whose init maps that zipped dict for its output
and then drops it.

The fanout rule, `dup ; par(f, g)`, is one stage, built by the par
builder, which hands the one input change to both sides; the dup slot stays
UNIT.  A seq drops id machines, and a fanout of the fst and snd machines is
the identity: both folds look at the built machines (their derivatives are
calculus.PROJ_FNS), so a sabotaged builder's machine is stepped, not folded.

On a container, ⊕ is pointwise ⊕ with nil as its unit, so `zip ; map f`
with f pointwise ⊕ (plus, or itself such an add, at any nesting) is ⊕ on
the container: fusion reads it as the add rule, which denote runs as
add_fn and _FUSED builds as comb_add at the container type, whose
derivative hands back one side's change unchanged when the other is nil.
The zip slot stays UNIT and the stage is cache-free, as before.

A map whose body is a Triv machine (comb_triv sets `triv` to its fn) runs fn
inline as a kernel: init's output is the map's batch, calculus.compiled,
and its cache keeps each input element as its entry's sub-cache; step
computes fn(x ⊕ dx) ⊖ fn(x) per changed key and stores x ⊕ dx, with no
per-entry machine call.  init picks the cache's layout from its input
(_keeper): over a finite array of reals whose support is at least n/8, one
array('d') of n slots, else a dict (one clone of the input when f(ε) = ε).
A step reads c[i], a missing key as ε, and writes c[i] in place, so it
serves both layouts.  The descriptor stays CIndexed, whose readers see a
packed cache as the dict of its non-zero slots (_entries).  The batch of
`map op` runs the op's OpDef.mapped batch, if any (calculus.map_kernel), and
an op's Triv body, which op_machine builds from the op's fn, then steps by
its mapped step.  The fused `zip ; map f` stage of a Triv f runs the pair
kernel (_pair_kernel), whose cache keeps the two components of each cached
pair apart, (cl, cr), each side kept by _keeper for its own element type
(packed over an array of reals) and owned, and read by _entries as the dict
of the pairs; its step reads cl[i] and cr[i], ⊕s only the changed side(s)
in place and calls fn twice per changed key, so one step serves every mix
of layouts.

The join rule, `op ; dup ; (cst ε × id) ; filter p` (a selection σ_p
after an op, where ε is the element default, so σ_p is linear), is built as
one stage when the op registers join_index: comb_bilin with the index
join_index(p), which for relalg's cross tests p on each pair before making
it.  The fused machine takes the op's slot and the three selection slots
stay UNIT; they were cache-free anyway.  Batch evaluation runs the same
stages as join_index(p).batch (calculus._FUSED), so the laws check both
against calculus.unfused, the stages run one by one.

comb_bilin (the unfused cross and the selected join alike) steps by the
product rule as two one-sided steps, f(dx, y) ⊕ f(x ⊕ dx, dy), over one
cache layout (x, y, index), and owns its cache: init stores its own
top-level copy of each container side (two copies when both sides are one
object, as after dup), so the caller's input never aliases the cache, and
step ⊕s each side's change into its copy in place with core.update_fn
before that side's term is made.  A join step then costs the kernel, not a
copy of the cached relation.  The in-place ⊕ compacts: it returns a fresh
copy when the update made CPython resize the dict, or when the dict has
fewer than half the entries it had at its last copy; both are amortized,
so at worst a step copies once, as every step did before.

fuse, distr and case own their cached containers in the same way, so a step
inside the live side ⊕s its change in place and costs the change.  fuse
and distr cache their own copy of the input's payload (distr also of x) at
init and of the new payload at a set step; distr's set step hands out a
copy of its cached x.  case caches its own copy of the branch output it
hands out, at init and at every branch switch, as that output may be the
change's own value (an id branch) or sit in the branch's cache (comb_triv2).
comb_triv and comb_triv2 keep ⊕ functional: their step reruns fn on the
whole input, so it is O(n) whatever its ⊕ costs, and owning their cache
would add a copy at init, and one per step wherever fn returns its input.

The index, the third cache part, makes each side's term and updates itself.
The unfused op's index keeps nothing (UNIT) and calls fn.  The selected
join's keeps, for each right tuple, the left tuples it matches (CMatches,
compared as a set per right tuple; it holds no scalars, so
cache_entry_count is the unfused one).

The laws every machine satisfies (checked by the oracle module, not assumed):

  Law-1   init(x).value  == f(x)
  Law-2   f(x ⊕ dx)      == f(x) ⊕ step(dx, init(x).cache).change
  Law-3   step(dx, init(x).cache).cache  ~  init(x ⊕ dx).cache
"""

from __future__ import annotations

from array import array
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, groupby, repeat
from operator import itemgetter
from struct import pack_into
from typing import Any, Callable, Optional

from . import calculus as ca
from .core import (
    REAL, SUM_NULL, Cl, Cr, Left, Right, Sl, Sr, TBase, TCont, TProd, TSum,
    UsageError, add_fn, apply_fn, default_value, diff_fn, is_nil_fn, nil_change,
    own_copy, plus_capable, update_fn, values_are_changes, values_equal,
    index_sort_key,
)
from .domains.containers import ARRAY
from .serialize import index_to_json, value_to_json


class _Unit:
    __slots__ = ()

    def __repr__(self):
        return "UNIT"

    def __reduce__(self):
        # copy, deepcopy and pickle hand back the one instance
        return "UNIT"


UNIT = _Unit()

# the derivatives of id, fst and snd: their batch functions, one object each
_SAME, _FST, _SND = (ca.PROJ_FNS[p] for p in [(), (0,), (1,)])


# ---------------------------------------------------------------------------
# Cache descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CUnit:
    pass


@dataclass(frozen=True)
class CTuple:
    """One sub-cache per part: the stages of a seq, the sides of a par."""
    parts: tuple


@dataclass(frozen=True)
class CValue:
    """Cache holding a plain value of the given object type."""
    ty: Any


@dataclass(frozen=True)
class CIndexed:
    """Per-index sub-caches with a lazily instantiable default entry.

    Indices absent from the runtime dict are logically make_default();
    equality and serialization treat them that way.  A Triv map's cache may
    instead be a packed array('d') (see _keeper), read through _entries.
    """
    shape: Any
    elem: Any
    make_default: Callable[[], Any]


@dataclass(frozen=True)
class CMatches:
    """A join's matches: for each right index j, the left indices paired with
    it, held in a few lists (buckets).  Compared as a set per j and printed
    sorted, so the buckets and the order within them do not matter."""


@dataclass(frozen=True)
class CCase:
    """Branch cache of case: (sub-cache, previous output) on the live side."""
    left: Any
    left_out: Any
    right: Any
    right_out: Any


def cache_equal(desc, c1, c2, rel_tol=0.0) -> bool:
    match desc:
        case CUnit():
            return True
        case CTuple(parts):
            return all(cache_equal(p, x1, x2, rel_tol) for p, x1, x2 in zip(parts, c1, c2))
        case CValue(ty):
            return values_equal(ty, c1, c2, rel_tol)
        case CIndexed(_, elem, make_default):
            dft = make_default()
            c1, c2 = _entries(c1, dft), _entries(c2, dft)
            keys = c1.keys() | c2.keys()
            for k in keys:
                e1 = c1[k] if k in c1 else dft
                e2 = c2[k] if k in c2 else dft
                if not cache_equal(elem, e1, e2, rel_tol):
                    return False
            return True
        case CMatches():
            return c1.keys() == c2.keys() and all(
                _matched(c1[j]) == _matched(c2[j]) for j in c1)
        case CCase(left, left_out, right, right_out):
            if type(c1) is not type(c2):
                return False
            sub, out_ty = (left, left_out) if type(c1) is Left else (right, right_out)
            return (cache_equal(sub, c1.value[0], c2.value[0], rel_tol)
                    and values_equal(out_ty, c1.value[1], c2.value[1], rel_tol))
        case _:
            raise UsageError(f"not a cache descriptor: {desc!r}")


def cache_to_json(desc, c):
    """Canonical debug serialization (sorted, default entries elided)."""
    match desc:
        case CUnit():
            return "unit"
        case CTuple(parts):
            return [cache_to_json(p, x) for p, x in zip(parts, c)]
        case CValue(ty):
            return {"value": value_to_json(ty, c)}
        case CIndexed(_, elem, make_default):
            dft = make_default()
            c = _entries(c, dft)
            entries = []
            for k in _sorted(c):
                if not cache_equal(elem, c[k], dft, 0.0):
                    entries.append([index_to_json(k), cache_to_json(elem, c[k])])
            return {"indexed": entries}
        case CMatches():
            return {"matches": [
                [index_to_json(j), [index_to_json(i) for i in _sorted(_matched(c[j]))]]
                for j in _sorted(c)]}
        case CCase(left, left_out, right, right_out):
            if type(c) is Left:
                return {"case_left": [cache_to_json(left, c.value[0]),
                                      value_to_json(left_out, c.value[1])]}
            return {"case_right": [cache_to_json(right, c.value[0]),
                                   value_to_json(right_out, c.value[1])]}
        case _:
            raise UsageError(f"not a cache descriptor: {desc!r}")


def _entries(c, dft=None):
    """An indexed cache as a dict: a packed array('d') reads as the dict of
    its non-zero slots, and a fused map2's (cl, cr) as the dict of pairs
    (cl[i], cr[i]) over the indices either side holds, a missing component
    read as its part of the default pair dft; so every layout compares,
    prints and counts alike."""
    if type(c) is tuple:
        (l, r), (el, er) = map(_entries, c), dft
        return {i: (l.get(i, el), r.get(i, er)) for i in l.keys() | r.keys()}
    return c if type(c) is dict else {i: v for i, v in enumerate(c) if v}


def _matched(buckets):
    return set(chain.from_iterable(buckets))


def _sorted(indices):
    return sorted(indices, key=index_sort_key)


def cache_entry_count(desc, c) -> int:
    """Number of scalar payload entries held by a cache."""
    return _counter(desc)[1](c)


@cache
def _counter(desc):
    """(k, count) for a cache descriptor or an object type: count(c) is the
    number of scalars c holds, and k is that number when it is the same for
    every c (else None).  A container whose entries each hold k scalars is
    counted as k · len(c), without visiting its entries."""
    match desc:
        case CUnit() | CMatches():
            return _fixed(0)
        case TBase():
            return _fixed(1)
        case CValue(ty):
            return _counter(ty)
        case CTuple(parts):
            return _parts([_counter(p) for p in parts])
        case TProd(a, b):
            return _parts([_counter(a), _counter(b)])
        case CIndexed(_, elem, _) | TCont(_, elem):
            k, count = _counter(elem)
            if k is not None:
                return None, lambda c: k * (
                    len(c) if type(c) is dict else len(c) - c.count(0.0)
                    if type(c) is array else len(_entries(c, (None, None))))
            return None, lambda c: sum(map(count, c.values()))
        case TSum(a, b):
            return _branches(_counter(a), _counter(b))
        case CCase(left, left_out, right, right_out):
            # the live side's cache is Left/Right((sub-cache, previous output))
            return _branches(_parts([_counter(left), _counter(left_out)]),
                             _parts([_counter(right), _counter(right_out)]))
        case _:
            raise UsageError(f"not a cache descriptor or a type: {desc!r}")


def _fixed(k):
    return k, lambda c: k


def _parts(counters):
    """The counter of a tuple whose i-th part counters[i] counts."""
    ks = [k for k, _ in counters]
    if None not in ks:
        return _fixed(sum(ks))
    counts = [count for _, count in counters]
    return None, lambda c: sum(count(x) for count, x in zip(counts, c))


def _branches(left, right):
    """The counter of Left(x) / Right(x), x counted by left / right."""
    if left[0] is not None and left[0] == right[0]:
        return left
    count_l, count_r = left[1], right[1]
    return None, lambda c: count_l(c.value) if type(c) is Left else count_r(c.value)


# ---------------------------------------------------------------------------
# Machines and combinators
# ---------------------------------------------------------------------------

@dataclass
class IncrMachine:
    in_ty: Any
    out_ty: Any
    cache: Any
    init: Callable[[Any], tuple]
    step: Callable[[Any, Any], tuple]
    # Set exactly on self-maintainable machines (cache CUnit()), whose step
    # is (deriv(d), UNIT); composite builders compose it instead of stepping.
    deriv: Optional[Callable[[Any], Any]] = None
    # Set only by comb_triv, to its fn: map runs such a body as an inline
    # kernel over its entries instead of calling init/step per entry.
    triv: Optional[Callable[[Any], Any]] = None


def comb_triv(fn, in_ty, out_ty) -> IncrMachine:
    """Trivial incrementalization: cache the input, reevaluate on change."""
    ap = apply_fn(in_ty)
    df = diff_fn(out_ty)

    def init(x):
        return fn(x), x

    def step(dx, x):
        x2 = ap(x, dx)
        return df(fn(x2), fn(x)), x2

    return IncrMachine(in_ty, out_ty, CValue(in_ty), init, step, triv=fn)


def comb_triv2(fn, in_ty, out_ty) -> IncrMachine:
    """Like Triv but caches the output too, so fn runs once per step."""
    ap = apply_fn(in_ty)
    df = diff_fn(out_ty)

    def init(x):
        y = fn(x)
        return y, (x, y)

    def step(dx, c):
        x, y1 = c
        x2 = ap(x, dx)
        y2 = fn(x2)
        return df(y2, y1), (x2, y2)

    return IncrMachine(in_ty, out_ty, CTuple((CValue(in_ty), CValue(out_ty))), init, step)


def comb_self(fn, dfn, in_ty, out_ty) -> IncrMachine:
    """Self-maintainable incrementalization: no cache, derivative dfn.

    Caller guarantees f(x ⊕ dx) = f(x) ⊕ dfn(dx); the oracle samples it.
    """
    def init(x):
        return fn(x), UNIT

    return IncrMachine(in_ty, out_ty, CUnit(), init, lambda d, _c: (dfn(d), UNIT), dfn)


def comb_lin(fn, in_ty, out_ty) -> IncrMachine:
    """A linear function is its own derivative; needs values = changes."""
    if not (values_are_changes(in_ty) and values_are_changes(out_ty)):
        raise ca.TermTypeError(
            f"Lin needs values=changes on {in_ty!r} and {out_ty!r}")
    return comb_self(fn, fn, in_ty, out_ty)


@dataclass(frozen=True)
class BilinIndex:
    """A third part of comb_bilin's cache, kept beside the two inputs.

    It makes f's terms itself, reading and updating the index as it goes:
    init(xy) is (f(xy), the index of xy); left(dx, y, x2, index) is f(dx, y)
    and updates the index for x2 = x ⊕ dx; right(x, dy, y2, index) is
    f(x, dy) and updates it for y2 = y ⊕ dy.  batch(xy) is f(xy) alone, with
    no index made.  cache describes the index.
    """
    cache: Any
    init: Callable[[Any], tuple]
    left: Callable[[Any, Any, Any, Any], Any]
    right: Callable[[Any, Any, Any, Any], Any]
    batch: Callable[[Any], Any]


def _plain_index(fn) -> BilinIndex:
    """The index that keeps nothing (UNIT) and makes each term with fn."""
    return BilinIndex(CUnit(), lambda xy: (fn(xy), UNIT),
                      lambda dx, y, _x2, _ix: fn((dx, y)),
                      lambda x, dy, _y2, _ix: fn((x, dy)), fn)


def comb_bilin(fn, in_ty, out_ty, index: Optional[BilinIndex] = None) -> IncrMachine:
    """Bilinear binary function; caches both inputs, owned, and an index.

    The cache is (x, y, index), and step is the product rule as two
    one-sided steps, f(dx, y) ⊕ f(x ⊕ dx, dy), whose terms the index makes:
    each side is ⊕ed into the machine's own copy, in place, before its own
    term is made.  A nil side makes no term, which is sound exactly because
    f is (bi)linear.  Given no index, the machine's index keeps nothing
    (UNIT) and makes the terms with fn; given one, fn is not used.
    """
    if not isinstance(in_ty, TProd):
        raise ca.TermTypeError("BiLin needs a product input type")
    a_ty, b_ty = in_ty.left, in_ty.right
    if not (values_are_changes(a_ty) and values_are_changes(b_ty)):
        raise ca.TermTypeError("BiLin needs values=changes argument types")
    if not plus_capable(out_ty):
        raise ca.TermTypeError("BiLin needs a commutative/associative ⊕ on the output")

    nil_a = is_nil_fn(a_ty)
    nil_b = is_nil_fn(b_ty)
    add_c = add_fn(out_ty)
    up_a = update_fn(a_ty)
    up_b = update_fn(b_ty)
    nil_out = nil_change(out_ty)
    index = index or _plain_index(fn)
    build, left, right = index.init, index.left, index.right

    def init(xy):
        out, ix = build(xy)
        # each side gets its own copy, also when both are one object (dup)
        return out, (own_copy(xy[0]), own_copy(xy[1]), ix)

    def step(d, c):
        dx, dy = d
        x, y, ix = c
        out = nil_out
        if not nil_a(dx):
            x = up_a(x, dx)
            out = left(dx, y, x, ix)
        if not nil_b(dy):
            y = up_b(y, dy)
            out = add_c(out, right(x, dy, y, ix))
        return out, (x, y, ix)

    desc = CTuple((CValue(a_ty), CValue(b_ty), index.cache))
    return IncrMachine(in_ty, out_ty, desc, init, step)


def comb_add(ty) -> IncrMachine:
    """⊕ as an operation; its own derivative when commutative/associative."""
    if not plus_capable(ty):
        raise ca.TermTypeError(f"Add needs a commutative/associative ⊕ on {ty!r}")
    in_ty = TProd(ty, ty)
    addf = add_fn(ty)
    nilf = is_nil_fn(ty)

    def deriv(d):
        dx, dy = d
        if nilf(dx):
            return dy
        if nilf(dy):
            return dx
        return addf(dx, dy)

    return comb_self(lambda xy: addf(xy[0], xy[1]), deriv, in_ty, ty)


# ---------------------------------------------------------------------------
# Incrementalization of terms
# ---------------------------------------------------------------------------

def _self_machine(tt, dfn):
    return comb_self(ca.compiled(tt), dfn, tt.in_ty, tt.out_ty)


def _incr_linear(tt):
    """A linear op steps by its batch kernel read at nil (dup, proj: its closure)."""
    if type(tt.term) in (ca.Dup, ca.Proj):
        return _self_machine(tt, ca.compiled(tt))
    return _self_machine(tt, ca.container_kernel(tt, nil_change))


def _incr_cst(tt):
    nil = nil_change(tt.out_ty)
    return _self_machine(tt, lambda _d: nil)


def _incr_plus(tt):
    return comb_add(tt.out_ty)


def _injection(tt, change):
    """inl or inr: a payload change wrapped as a change to that side, and a
    nil one as the canonical nil SUM_NULL."""
    nil = is_nil_fn(tt.in_ty)
    return _self_machine(tt, lambda d: SUM_NULL if nil(d) else change(d))


def _incr_inl(tt):
    return _injection(tt, Cl)


def _incr_inr(tt):
    return _injection(tt, Cr)


def _incr_seq(tt):
    # a fused run (calculus.fusion, built by _FUSED) fills its stages' slots
    stages, machines = tt.children, []
    while len(machines) < len(stages):
        k = len(machines)
        rule = ca.fusion(stages, k)
        run = rule and _once(_FUSED[rule[0]], *stages[k:k + rule[1]])
        machines += run or [incrementalize(stages[k])]
    return _seq_machine(tt, machines)


def _incr_join(op, _dup, _par, fil):
    """`op ; dup ; (cst ε × id) ; filter p` as one bilinear stage whose terms
    the op's join_index(p) makes, applying p as it computes; the three
    selection stages are cache-free, so the layout is that of the unfused seq."""
    index = op.info.join_index
    bilin = _COMBINATORS["bilin"]
    return index and [bilin(None, op.in_ty, fil.out_ty, index(fil.info.fn)), None, None, None]


def _seq_machine(tt, machines):
    """Compose the machines already built for the stages of a seq, in order.

    A None stage is done by a neighbouring fused machine (the zip of a map2,
    the selection after a join's op, the dup of a fanout); its slot stays
    UNIT and it gets no init or step of its own, nor does an identity stage.
    """
    live = [(k, m) for k, m in enumerate(machines) if m is not None and m.deriv is not _SAME]
    if all(m.deriv is not None for _, m in live):
        return _self_machine(tt, ca.chain([m.deriv for _, m in live]))
    plan = []  # (slot, step) per cached stage, (None, deriv) per cache-free run
    for free, run in groupby(live, lambda km: km[1].deriv is not None):
        if free:
            plan.append((None, ca.chain([m.deriv for _, m in run])))
        else:
            plan += [(k, m.step) for k, m in run]
    inits = [(k, m.init) for k, m in live]
    size = len(machines)

    def init(x):
        c = [UNIT] * size  # exact size: one slot per stage
        for k, f in inits:
            x, c[k] = f(x)
        return x, c

    if len(plan) == 2 and plan[0][0] is None:  # a cache-free run, then a cached stage
        (_, free), (k, f) = plan

        def step(d, c):
            d, c[k] = f(free(d), c[k])
            return d, c
    else:
        def step(d, c):
            for k, f in plan:
                if k is None:
                    d = f(d)
                else:
                    d, c[k] = f(d, c[k])
            return d, c

    desc = CTuple(tuple(CUnit() if m is None else m.cache for m in machines))
    return IncrMachine(tt.in_ty, tt.out_ty, desc, init, step)


def _par_machine(tt, fan=False):
    """f × g; or, with fan, the fanout ⟨f, g⟩ = dup ; (f × g), which hands
    its one input (or change) to both sides.  f × g runs as the fanout
    ⟨fst ; f, snd ; g⟩, whose step is picked by which sides hold a cache.
    A fanout of the fst and snd machines is the identity."""
    mf = incrementalize(tt.children[0])
    mg = incrementalize(tt.children[1])
    f, g = mf.deriv, mg.deriv
    in_ty = tt.in_ty.left if fan else tt.in_ty
    if fan and f is _FST and g is _SND:
        return comb_self(_SAME, _SAME, in_ty, tt.out_ty)
    if f and g:
        if fan:
            pair = ca.compiled(tt)
            return comb_self(lambda x: pair((x, x)), lambda d: (f(d), g(d)), in_ty, tt.out_ty)
        return _self_machine(tt, lambda d: (f(d[0]), g(d[1])))

    f_init, g_init, f_step, g_step = mf.init, mg.init, mf.step, mg.step
    if not fan:
        f, g = f and (lambda d: mf.deriv(d[0])), g and (lambda d: mg.deriv(d[1]))
        f_init, g_init = (lambda x: mf.init(x[0])), (lambda x: mg.init(x[1]))
        f_step, g_step = (lambda d, c: mf.step(d[0], c)), (lambda d, c: mg.step(d[1], c))

    def init(x):
        y1, c1 = f_init(x)
        y2, c2 = g_init(x)
        return (y1, y2), (c1, c2)

    if g:  # ⟨f, free g⟩, as every let lowers to
        def step(d, c):
            d1, c1 = f_step(d, c[0])
            return (d1, g(d)), (c1, UNIT)
    elif f:
        def step(d, c):
            d2, c2 = g_step(d, c[1])
            return (f(d), d2), (UNIT, c2)
    else:
        def step(d, c):
            (d1, c1), (d2, c2) = f_step(d, c[0]), g_step(d, c[1])
            return (d1, d2), (c1, c2)

    return IncrMachine(in_ty, tt.out_ty, CTuple((mf.cache, mg.cache)), init, step)


def _incr_map(tt):
    return _map_machine(tt, dict.items)


def _incr_map2(zip_tt, map_tt):
    """`zip ; map f` as one stage: step f on each changed key of (dx, dy).

    No zipped change is built; when one side's change is empty, only the
    other side's entries are walked.  A Triv f runs as _pair_kernel; any
    other f keeps the map's cache.
    """
    zf = ca.compiled(zip_tt)
    if fn := incrementalize(map_tt.children[0]).triv:
        return _pair_kernel(fn, zip_tt, map_tt, zf)
    na = nil_change(zip_tt.in_ty.left.elem)
    nb = nil_change(zip_tt.in_ty.right.elem)

    def entries(d):
        dx, dy = d
        if not dy:
            return zip(dx, zip(dx.values(), repeat(nb)))
        if not dx:
            return zip(dy, zip(repeat(na), dy.values()))
        return ((i, (dx.get(i, na), dy.get(i, nb))) for i in dx.keys() | dy.keys())

    m = _map_machine(map_tt, entries)
    map_init = m.init
    return replace(m, in_ty=zip_tt.in_ty, init=lambda xy: map_init(zf(xy)))


def _pair_kernel(fn, zip_tt, map_tt, zf):
    """The fused `zip ; map f` of a Triv f, run inline.  Its cache holds the
    two components of each cached pair apart, (cl, cr), each kept by
    _keeper for its side (or, when f(ε) ≠ ε, a dict of every index); a step
    ⊕s only the changed side(s) in place and calls fn twice per changed key,
    reading a missing entry (KeyError) as ε.  The descriptor is the map's,
    whose readers see (cl, cr) as the dict of its pairs (_entries)."""
    shape, a, b = zip_tt.in_ty.left.shape, zip_tt.in_ty.left.elem, zip_tt.in_ty.right.elem
    ea, eb = default_value(a), default_value(b)
    ap_l, ap_r = apply_fn(a), apply_fn(b)
    df, out_nil, dout = (f(map_tt.out_ty.elem) for f in (diff_fn, is_nil_fn, default_value))
    keep_l, keep_r = _keeper(shape, a), _keeper(shape, b)
    fe = fn((ea, eb))

    def init(xy):
        y = ca.compiled(map_tt)(zf(xy))
        if fe != dout:  # every index, as the per-entry machines keep it
            return y, tuple(dict(ca.map_inputs(x, fe, shape, e, dout))
                            for x, e in zip(xy, (ea, eb)))
        return y, (keep_l(xy[0]), keep_r(xy[1]))

    def step(d, c):
        dx, dy = d
        cl, cr = c
        out = {}
        for i in dx.keys() | dy.keys() if dx and dy else dx or dy:
            try:
                x = cl[i]
            except KeyError:
                x = ea
            try:
                y = cr[i]
            except KeyError:
                y = eb
            x2, y2 = x, y
            if i in dx:
                cl[i] = x2 = ap_l(x, dx[i])
            if i in dy:
                cr[i] = y2 = ap_r(y, dy[i])
            dz = df(fn((x2, y2)), fn((x, y)))
            if not out_nil(dz):
                out[i] = dz
        return out, c

    desc = CIndexed(shape, CValue(map_tt.in_ty.elem), lambda: (ea, eb))
    return IncrMachine(zip_tt.in_ty, map_tt.out_ty, desc, init, step)


def _map_machine(tt, entries):
    """map over the (index, element change) pairs that entries(d) yields."""
    body = tt.children[0]
    mf = incrementalize(body)
    shape = tt.in_ty.shape
    elem_in = tt.in_ty.elem
    elem_out = body.out_ty
    f_init, f_step = mf.init, mf.step
    din = default_value(elem_in)
    dout = default_value(elem_out)

    out_nil = is_nil_fn(body.out_ty)
    f = mf.deriv
    if f:
        def deriv(dx):
            out = {}
            for i, di in entries(dx):
                dy = f(di)
                if not out_nil(dy):
                    out[i] = dy
            return out

        return _self_machine(tt, deriv)

    def make_default():
        return f_init(default_value(elem_in))[1]

    fn = mf.triv
    if fn is None:
        def init(x):
            out = {}
            caches = {}
            for i, xi in ca.map_inputs(x, f_init(din)[0], shape, din, dout):
                y, caches[i] = f_init(xi)
                if y != dout:
                    out[i] = y
            return out, caches

        def step(dx, c):
            out = {}
            for i, di in entries(dx):
                try:
                    sub = c[i]
                except KeyError:
                    sub = make_default()
                dy, c[i] = f_step(di, sub)
                if not out_nil(dy):
                    out[i] = dy
            return out, c
    else:
        # Triv kernel: the sub-cache of an entry is its input element, so
        # fn runs inline on it, with the entries comb_triv's caches have.
        ap = apply_fn(elem_in)
        df = diff_fn(elem_out)
        keep = _keeper(shape, elem_in)
        batch = ca.compiled(tt)

        def init(x):
            fe = fn(din)
            if fe != dout:
                # every index, as the per-entry machines keep it
                return batch(x), dict(ca.map_inputs(x, fe, shape, din, dout))
            # the support, packed or in one C-level clone
            return batch(x), keep(x)

        def step(dx, c):
            out = {}
            for i, di in entries(dx):
                try:
                    x = c[i]
                except KeyError:
                    x = din
                x2 = ap(x, di)
                dy = df(fn(x2), fn(x))
                c[i] = x2
                if not out_nil(dy):
                    out[i] = dy
            return out, c

        if kernel := ca.map_kernel(tt):
            step = kernel.step

    desc = CIndexed(shape, mf.cache, make_default)
    return IncrMachine(tt.in_ty, tt.out_ty, desc, init, step)


def _keeper(shape, elem):
    """keep(x): a Triv map's cache for the input x, index -> element, or
    one side of a fused map2's (cl, cr), x being that side's input.

    Over an array of reals (indices 0..n-1) whose input holds at least n/8
    entries, it is one array('d') of n slots, 0.0 where x has no entry: a
    dict entry and its float take about 60 B, as much as 8 packed slots.
    Otherwise it is a copy of x.  Either way the cache is the machine's own,
    never x, which the caller may hand to other machines too (replicate).
    The layout is read from the shape and len(x), so a sparse input costs
    nothing that grows with n."""
    if shape.container is not ARRAY or elem != TBase(REAL):
        return dict.copy
    n = shape.payload

    def keep(x):
        if 8 * len(x) < n:
            return x.copy()
        # written by one struct pack into a buffer of exactly n slots:
        # array('d', floats) converts item by item, at about twice the
        # cost, and array('d', bytes) over-allocates by 1/16
        c = array("d", (0.0,)) * n
        pack_into(f"{n}d", c, 0, *(_gather(n)(x) if len(x) == n > 1
                                  else map(x.get, range(n), repeat(0.0))))
        return c
    return keep


@cache
def _gather(n):
    """x's values at 0..n-1 when x holds all n: twice as fast as map(x.get),
    and made only when such an x is packed, so it is smaller than that x."""
    return itemgetter(*range(n))


def _read_sum_change(d, s):
    """Read the sum change d at the live side of the cached sum value s.

    Returns (side, v) when d sets the sum to side(v), side being Left or
    Right, and (None, dc) when d changes the live side by dc; dc is None
    when d leaves that side as it is (SUM_NULL, or a change to the other
    side).
    """
    td = type(d)
    if td is Sl:
        return Left, d.value
    if td is Sr:
        return Right, d.value
    if td is Cl:
        return None, d.change if type(s) is Left else None
    if td is Cr:
        return None, d.change if type(s) is Right else None
    if d is SUM_NULL:
        return None, None
    raise UsageError(f"bad sum change {d!r}")


def _incr_fuse(tt):
    a_ty = tt.out_ty
    up = update_fn(a_ty)
    df = diff_fn(a_ty)
    nil = nil_change(a_ty)

    def init(s):
        return s.value, type(s)(own_copy(s.value))

    def step(d, c):
        side, v = _read_sum_change(d, c)
        if side is not None:
            return df(v, c.value), side(own_copy(v))
        if v is None:
            return nil, c
        return v, type(c)(up(c.value, v))

    return IncrMachine(tt.in_ty, tt.out_ty, CValue(TSum(a_ty, a_ty)), init, step)


def _incr_distr(tt):
    a_ty = tt.in_ty.left
    up_a = update_fn(a_ty)
    nil_a = is_nil_fn(a_ty)
    b_ty = tt.in_ty.right.left
    c_ty = tt.in_ty.right.right
    # per side of the sum: its set and change forms, its ⊕ and its nil
    sides = {Left: (Sl, Cl, update_fn(b_ty), nil_change(b_ty)),
             Right: (Sr, Cr, update_fn(c_ty), nil_change(c_ty))}

    def init(xs):
        x, s = xs
        return type(s)((x, s.value)), (own_copy(x), type(s)(own_copy(s.value)))

    def step(d, cache):
        dx, ds = d
        x, s = cache
        x2 = up_a(x, dx)
        side, v = _read_sum_change(ds, s)
        if side is not None:
            # x2 is the cache's own: the output gets a copy of it
            return sides[side][0]((own_copy(x2), v)), (x2, side(own_copy(v)))
        live = type(s)
        _, change, up, nil = sides[live]
        if v is None:
            return (SUM_NULL if nil_a(dx) else change((dx, nil))), (x2, s)
        return change((dx, v)), (x2, live(up(s.value, v)))

    return IncrMachine(tt.in_ty, tt.out_ty, CValue(tt.in_ty), init, step)


def _incr_case(tt):
    mf = incrementalize(tt.children[0])
    mg = incrementalize(tt.children[1])
    b1 = tt.children[0].out_ty
    b2 = tt.children[1].out_ty
    # per side of the sum: its branch machine, its output's set and change
    # forms, the output's in-place ⊕ and ⊖, and its nil test
    branches = {Left: (mf, Sl, Cl, update_fn(b1), diff_fn(b1), is_nil_fn(b1)),
                Right: (mg, Sr, Cr, update_fn(b2), diff_fn(b2), is_nil_fn(b2))}

    def init(s):
        side = type(s)
        y, c = branches[side][0].init(s.value)
        # y goes out, so the cache keeps its own copy
        return side(y), side((c, own_copy(y)))

    def step(d, cc):
        side, v = _read_sum_change(d, cc)
        if side is None:
            if v is None:
                return SUM_NULL, cc
            live = type(cc)
            m, _, change, up, _, nil = branches[live]
            c, y = cc.value
            dy, c2 = m.step(v, c)
            return (SUM_NULL if nil(dy) else change(dy)), live((c2, up(y, dy)))
        m, set_to, change, _, df, _ = branches[side]
        y, c2 = m.init(v)
        dy = change(df(y, cc.value[1])) if type(cc) is side else set_to(y)
        # y may be v itself or sit in the branch's cache: cache a copy
        return dy, side((c2, own_copy(y)))

    desc = CCase(mf.cache, b1, mg.cache, b2)
    return IncrMachine(tt.in_ty, tt.out_ty, desc, init, step)


def _incr_op(tt):
    return op_machine(tt.info, tt.in_ty, tt.out_ty)


def op_machine(op, in_ty, out_ty) -> IncrMachine:
    """The machine of op at in_ty -> out_ty: op.fn under the combinator that
    op.comb names, or, when op.comb is a derivative, the Self machine."""
    comb = op.comb
    if callable(comb):
        return comb_self(op.fn, comb, in_ty, out_ty)
    make = _COMBINATORS.get(comb) if isinstance(comb, str) else None
    if make is None:
        raise UsageError(f"op {op.name!r}: combinator {comb!r} is neither one of "
                         f"{', '.join(_COMBINATORS)} nor a derivative")
    return make(op.fn, in_ty, out_ty)


# The builds of the fused runs, by calculus.fusion's rule name: each returns
# the run's slot list, its machine in the slot whose cache layout it keeps
# and None in the slots it absorbs, or None to build the stages one by one.
_FUSED = {
    "map2": lambda zip_tt, map_tt: [None, _incr_map2(zip_tt, map_tt)],
    "add": lambda zip_tt, _map: [None, comb_add(zip_tt.in_ty.left)],
    "fanout": lambda _dup, par: [None, _par_machine(par, True)],
    "join": _incr_join,
}


# The combinators an op names (OpDef.comb), each built from (fn, in_ty,
# out_ty); a fault swaps an entry, as it swaps a _BUILDERS entry.
_COMBINATORS = {
    "triv": comb_triv,
    "triv2": comb_triv2,
    "lin": comb_lin,
    "bilin": comb_bilin,
}


_BUILDERS = {
    ca.Proj: _incr_linear,
    ca.Dup: _incr_linear,
    ca.Cst: _incr_cst,
    ca.Plus: _incr_plus,
    ca.Zip: _incr_linear,
    ca.Get: _incr_linear,
    ca.SetAt: _incr_linear,
    ca.Tp: _incr_linear,
    ca.Reshape: _incr_linear,
    ca.Replicate: _incr_linear,
    ca.Filter: _incr_linear,
    ca.Inl: _incr_inl,
    ca.Inr: _incr_inr,
    ca.Seq: _incr_seq,
    ca.Par: _par_machine,
    ca.Map: _incr_map,
    ca.Fuse: _incr_fuse,
    ca.Distr: _incr_distr,
    ca.CasePar: _incr_case,
    ca.OpCall: _incr_op,
}


# The machines of the build in progress, by TypedTerm (and by fused run of
# stages, see _once); None between builds.
_BUILT = ContextVar("deltic_incr_built", default=None)


def incrementalize(tt: ca.TypedTerm) -> IncrMachine:
    """Build the cached incrementalization of a typechecked term.

    A call is one build: the machine of each distinct TypedTerm is made
    once, and a call made while a build runs (a builder's, for a subterm)
    joins that build.  The table is dropped when the outermost call returns.
    """
    built = _BUILT.get()
    if built is None:
        token = _BUILT.set({})
        try:
            return incrementalize(tt)
        finally:
            _BUILT.reset(token)
    m = built.get(tt)
    if m is None:
        builder = _BUILDERS.get(type(tt.term))
        if builder is None:
            raise UsageError(f"no incrementalization for {tt.term!r}")
        m = built[tt] = builder(tt)
    return m


def _once(build, *stages):
    """build(*stages), made once per build: a fused run of seq stages is
    shared like a typed subterm, by the TypedTerms of its stages."""
    built = _BUILT.get()
    key = (build, *stages)
    if key not in built:
        built[key] = build(*stages)
    return built[key]

