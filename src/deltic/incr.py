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
sabotages the keyed index it is handed), as one that swaps a _BUILDERS entry
reaches every machine of that construct, and one that swaps an entry of
calculus._FUSED (join-batch-drops-pair) the batch of every run of its rule.

A machine with a unit cache is self-maintainable: its step is a pure function
of the change, kept as the machine's `deriv` (change -> change).  The builders
for seq, par and map compose their children's derivatives when the machine is
built, so a cache-free subterm steps as a single call instead of threading
(change, UNIT) pairs through every node (each generates its own, as
below); a cache-free composite has a CUnit cache and takes its init from the
compiled batch semantics.

dup, proj and the container ops (zip, get, set, tp, reshape, replicate,
filter) are linear, so each one's derivative is its batch kernel read at
nil: calculus.container_kernel with nil_change wherever the batch reads the
default ε.  dup and proj read neither, so each one's compiled batch closure
is its derivative.

A typed seq is n-ary (see calculus.typecheck).  A seq with a cached stage
keeps a list with one slot per stage (UNIT at the cache-free ones) that its
step updates in place, so neither init nor step recurses along a chain.

Seq, par and map steps are staged: each built machine has one step fragment
(_fragment), source text that reads the change d and the cache c and
leaves the output change and the new cache in them (a cache-free machine's
reads and writes d only), with the objects its other names stand for.
Path derivatives, dup, comb_add's derivative, cst's nil and the Triv
kernels give theirs (m.frag); every other machine's, and any machine's whose
step or derivative was swapped after it was built (a fault's), is the call
`d, c = f(d, c)` or `d = f(d)`.  The seq, par and map builders place their
children's fragments in a text of their own, each child's names tagged by
its position, and run the text by exec once per text (_maker, the one place
a step is generated, a Triv kernel's own included); the text is the
machine's own fragment.  A map that is not a Triv kernel is one loop over
its changed indices with its body's fragment as the loop body.
Each text runs under a file name of its own, `<step n>`, whose lines
linecache serves, so a traceback through a generated step shows the line
it stopped on.  A run of
consecutive seq stages that hold one machine (a let chain's stages) is one
`for` over their slots with that machine's fragment as its body.  A child
is inlined only while the text stays within _INLINE_LINES and the child
nests at most _INLINE_DEPTH blocks, and called beyond, so a generated step
stays within Python's limits on nested blocks and indentation, and
generation does not recurse.

Runs of seq stages that are built as one stage are matched by
calculus.fusion, which denote shares, and built by _FUSED, by rule name.
The map2 rule, `zip ; map f`, is one fused stage whose
generated loop walks the changed keys of (dx, dy) and steps f (or its
derivative) per key, with no zipped change in between.  The zip slot stays
UNIT and the map slot keeps its per-index cache, so the cache layout is that
of the unfused pair.  Its init zips with the compiled zip, as denote does
(two inputs that have one key set in one C-level pass).  A Triv body runs
as the Triv kernel at arity 2 (below), whose init output is the batch
generated from the op's expression over x and y (calculus._map_batch) when
the op declares one and maps (ε, ε) to ε, with no zipped dict and no call
per entry, else the zipped dict mapped; denote keeps zip and map apart.

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
inline as a kernel (_triv_kernel): init's output is the map's batch,
calculus.compiled (generated from the op's expression when it declares
one, calculus._map_batch), and its cache keeps each input
element as its entry's sub-cache; step computes fn(x ⊕ dx) ⊖ fn(x) per
changed key and stores x ⊕ dx, with no per-entry machine call.  init picks
the cache's layout from its input (_keeper): over a finite array of reals
whose support is at least n/8, one array('d') of n slots, else a dict (one
clone of the input when f(ε) = ε).  The descriptor stays CIndexed, whose
readers see a packed cache as the dict of its non-zero slots (_entries),
but cache_equal compares two packed caches (or sides) slot by slot.
The fused `zip ; map f` stage of a Triv f runs the same kernel at arity 2,
whose cache keeps the two components of each cached pair apart, (cl, cr),
each side kept by _keeper for its own element type (packed over an array
of reals) and owned, and read by _entries as the dict of the pairs;
cache_to_json writes two packed sides slot by slot (_printer).

Both steps come from one fragment template (_triv_source), at arity 1 (map)
and 2 (the fused map2), memoised per (op expression, element types,
arity); the kernel's own step is generated from it (_generated), as a
composite's is.  A step reads c[i], a missing key (KeyError) as ε, and
writes c[i] in place, so it serves both layouts and every mix of them; at
arity 2 it ⊕s only the changed side(s).  An op's body (OpDef.expr, read
off the map's typed body) and
its bases' ⊕, ⊖ and nil test (BaseType.exprs) are inlined as expressions,
so `map relu` and map2 mul make no call per changed key; each missing piece
is called instead (fn, apply_fn, diff_fn, is_nil_fn), so a Triv fold of
trees or any user op steps by the same template.

The join rule, `op ; dup ; (cst ε × id) ; filter p` (a selection σ_p
after an op, where ε is the element default, so σ_p is linear), is built as
one stage when the op registers join_index: comb_bilin with the index
join_index(p, ty), ty the op's input type, which for relalg's cross tests p
on each candidate pair before making it.  The fused machine takes the op's
slot and the three selection slots stay UNIT; they were cache-free anyway.
Batch evaluation runs the same stages as join_index(p, ty).batch
(calculus._FUSED), so the laws check both against calculus.unfused, the
stages run one by one.

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
The plain index (_plain_index) keeps nothing (UNIT) and makes each term
with one function: the unfused op's with fn, and relalg's join, for an
opaque p, with the join's batch, so its cache is the unfused cross's.
When p's code is an equi-join `ij[0][a] == ij[1][b]`, the join keeps one
group per key of the right relation, its right tuples and the left tuples
with that key (CGroups, compared as two sets per key), so a step visits
the changed tuples' groups only and p decides each candidate pair there.
The groups hold no scalars, so cache_entry_count is the unfused one.

The laws every machine satisfies (checked by the oracle module, not assumed):

  Law-1   init(x).value  == f(x)
  Law-2   f(x ⊕ dx)      == f(x) ⊕ step(dx, init(x).cache).change
  Law-3   step(dx, init(x).cache).cache  ~  init(x ⊕ dx).cache
"""

from __future__ import annotations

import builtins
import operator
from array import array
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import chain, groupby, repeat
from operator import itemgetter
from struct import pack_into
from textwrap import indent
from typing import Any, Callable, Optional

from . import calculus as ca
from .calculus import _inline, _rename
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
    """Per-index sub-caches and the one an absent index reads as.

    Indices absent from the runtime dict are logically default, a plain
    value made once at build (never mutated: a step makes each new index's
    sub-cache afresh); equality and serialization treat them that way.  It
    is compared by value and not hashed, so two builds of one program give
    equal descriptors.  A Triv map's cache may instead be a packed
    array('d') (see _keeper), read through _entries.
    """
    shape: Any
    elem: Any
    default: Any = field(hash=False)


@dataclass(frozen=True)
class CGroups:
    """A keyed join's groups: for each key, the right tuples with that key
    and the left tuples with it, these in a few lists (buckets).  Compared
    as two sets per key and printed sorted, so the buckets and the order
    within them do not matter."""


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
        case CIndexed(_, elem, dft):
            if type(c1) is tuple and type(c2) is tuple:  # two fused map2 (cl, cr): side by side
                sides = zip((CValue(elem.ty.left), CValue(elem.ty.right)), c1, c2, dft)
                return all(_indexed_equal(*side, rel_tol) for side in sides)
            return _indexed_equal(elem, c1, c2, dft, rel_tol)
        case CGroups():
            return c1.keys() == c2.keys() and all(_sets(c1[k]) == _sets(c2[k]) for k in c1)
        case CCase(left, left_out, right, right_out):
            if type(c1) is not type(c2):
                return False
            sub, out_ty = (left, left_out) if type(c1) is Left else (right, right_out)
            return (cache_equal(sub, c1.value[0], c2.value[0], rel_tol)
                    and values_equal(out_ty, c1.value[1], c2.value[1], rel_tol))
        case _:
            raise UsageError(f"not a cache descriptor: {desc!r}")


def _indexed_equal(elem, c1, c2, dft, rel_tol):
    """cache_equal of two indexed caches: two packed ones in one C-level ==,
    then, at a rel_tol, slot by slot; else entry by entry, as _entries
    reads them, an absent entry read as dft."""
    if type(c1) is array and type(c2) is array:
        return c1 == c2 or bool(rel_tol) and len(c1) == len(c2) and all(
            values_equal(elem.ty, e1, e2, rel_tol) for e1, e2 in zip(c1, c2))
    c1, c2 = _entries(c1, dft), _entries(c2, dft)
    for k in c1.keys() | c2.keys():
        e1 = c1[k] if k in c1 else dft
        e2 = c2[k] if k in c2 else dft
        if not cache_equal(elem, e1, e2, rel_tol):
            return False
    return True


def cache_to_json(desc, c):
    """Canonical debug serialization (sorted, default entries elided)."""
    return _printer(desc)(c)


@cache
def _printer(desc):
    """cache_to_json at desc, compiled once per descriptor as _counter is.
    An indexed cache writes a packed array's non-zero slots, and a fused
    map2's two packed sides slot by slot, as _entries reads them, with no
    dict in between."""
    match desc:
        case CUnit():
            return lambda c: "unit"
        case CTuple(parts):
            writers = tuple(map(_printer, parts))
            return lambda c: [write(x) for write, x in zip(writers, c)]
        case CValue(ty):
            return lambda c: {"value": value_to_json(ty, c)}
        case CIndexed(_, elem, dft):
            write = _printer(elem)

            def run(c):
                if type(c) is array:
                    return {"indexed": [[i, write(v)] for i, v in enumerate(c) if v]}
                if type(c) is tuple and type(c[0]) is type(c[1]) is array:
                    # a ±0.0 slot reads as absent, so as its side's ε, 0.0
                    return {"indexed": [[i, write((a or 0.0, b or 0.0))]
                                        for i, (a, b) in enumerate(zip(*c)) if a or b]}
                c = _entries(c, dft)
                return {"indexed": [[index_to_json(k), write(v)] for k in _sorted(c)
                                    if not cache_equal(elem, v := c[k], dft, 0.0)]}
            return run
        case CGroups():
            return lambda c: {"groups": [
                [index_to_json(k), *([index_to_json(i) for i in _sorted(part)]
                                     for part in _sets(c[k]))]
                for k in _sorted(c)]}
        case CCase(left, left_out, right, right_out):
            wl, wr = _printer(left), _printer(right)
            return lambda c: (
                {"case_left": [wl(c.value[0]), value_to_json(left_out, c.value[1])]}
                if type(c) is Left else
                {"case_right": [wr(c.value[0]), value_to_json(right_out, c.value[1])]})
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


def _sets(group):
    """A keyed join's group as the two sets it holds: the key's right tuples
    and, from its buckets, its left tuples."""
    return set(group[0]), set(chain.from_iterable(group[1]))


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
        case CUnit() | CGroups():
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
                    if type(c) is array else _pair_support(c))
            return None, lambda c: sum(map(count, c.values()))
        case TSum(a, b):
            return _branches(_counter(a), _counter(b))
        case CCase(left, left_out, right, right_out):
            # the live side's cache is Left/Right((sub-cache, previous output))
            return _branches(_parts([_counter(left), _counter(left_out)]),
                             _parts([_counter(right), _counter(right_out)]))
        case _:
            raise UsageError(f"not a cache descriptor or a type: {desc!r}")


# where the sign and high exponent bits sit in an array('d') slot's 8 bytes:
# that byte is 0x00 or 0x80 in a ±0.0 slot, and only below about 1e-303 else
_HIGH = array("d", [-0.0]).tobytes().index(0x80)


def _pair_support(c):
    """The number of indices either side of a fused map2's (cl, cr) holds,
    as _entries reads it: n when a packed side has no ±0.0 slot, as no
    slot's high byte is 0x00 or 0x80 (one C-level pass), else the union's
    size."""
    for side in c:
        if type(side) is array and 0 not in (h := side.tobytes()[_HIGH::8]) and 0x80 not in h:
            return len(side)
    l, r = (s.keys() if type(s) is dict else {i for i, v in enumerate(s) if v} for s in c)
    return len(l | r)


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
    # (stands_for, text, free): the step fragment (see _fragment), kept
    # while stands_for is still the machine's deriv (or, if None, its step)
    frag: Optional[tuple] = None


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
    f(x, dy) and updates it for y2 = y ⊕ dy.  batch(xy) is f(xy) alone, the
    index dropped (or not made).  cache describes the index.
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

    m = comb_self(lambda xy: addf(xy[0], xy[1]), deriv, in_ty, ty)
    nil = "not {}" if nilf is operator.not_ else "nil({})"  # real, int, nat, containers
    return _staged(m, f"x, y = d\nd = y if {nil.format('x')} else x if {nil.format('y')} "
                      "else add(x, y)", add=addf, nil=nilf)


# ---------------------------------------------------------------------------
# Incrementalization of terms
# ---------------------------------------------------------------------------

def _self_machine(tt, dfn):
    return comb_self(ca.compiled(tt), dfn, tt.in_ty, tt.out_ty)


def _incr_linear(tt):
    """A linear op steps by its batch kernel read at nil (dup, proj: its
    closure, whose fragment indexes the change or pairs it)."""
    if type(tt.term) is ca.Dup:
        return _staged(_self_machine(tt, ca.compiled(tt)), "d = d, d")
    if type(tt.term) is ca.Proj:
        path = "".join(f"[{i}]" for i in tt.term.path)
        return _staged(_self_machine(tt, ca.compiled(tt)), f"d = d{path}" if path else "pass")
    return _self_machine(tt, ca.container_kernel(tt, nil_change))


def _incr_cst(tt):
    nil = nil_change(tt.out_ty)
    return _staged(_self_machine(tt, lambda _d: nil), "d = nil", nil=nil)


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
    the op's join_index(p, ty) makes, applying p as it computes; the three
    selection stages are cache-free, so the layout is that of the unfused seq."""
    index, bilin = op.info.join_index, _COMBINATORS["bilin"]
    return index and [bilin(None, op.in_ty, fil.out_ty, index(fil.info.fn, op.in_ty)),
                      None, None, None]


def _seq_machine(tt, machines):
    """Compose the machines already built for the stages of a seq, in order.

    A None stage is done by a neighbouring fused machine (the zip of a map2,
    the selection after a join's op, the dup of a fanout); its slot stays
    UNIT and it gets no init or step of its own, nor does an identity stage.
    The step is generated from the stages' fragments (_place); a run of
    stages that hold one machine is one loop over their slots.
    """
    live = [(k, m) for k, m in enumerate(machines) if m is not None and m.deriv is not _SAME]
    if not live:
        return _self_machine(tt, _SAME)
    cached = any(m.deriv is None for _, m in live)
    lines, free = ["s = c"] if cached else [], {}
    for n, (_, run) in enumerate(groupby(live, lambda km: id(km[1]))):
        slots = [k for k, _ in run]
        m, k = machines[slots[0]], "k" if len(slots) > 1 else slots[0]
        body = _place(m, f"s{n}_", lines, free)
        if m.deriv is None:
            body = [f"c = s[{k}]", *body, f"s[{k}] = c"]
        if len(slots) > 1:
            free[f"k{n}"] = tuple(slots)
            body = [f"for k in k{n}:", *(f"    {line}" for line in body)]
        lines += body
    if not cached:
        return _generated(tt.in_ty, tt.out_ty, CUnit(), ca.compiled(tt), lines, free)
    inits = [(k, m.init) for k, m in live]
    size = len(machines)

    def init(x):
        c = [UNIT] * size  # exact size: one slot per stage
        for k, f in inits:
            x, c[k] = f(x)
        return x, c

    desc = CTuple(tuple(CUnit() if m is None else m.cache for m in machines))
    return _generated(tt.in_ty, tt.out_ty, desc, init, lines + ["c = s"], free)


def _par_machine(tt, fan=False):
    """f × g; or, with fan, the fanout ⟨f, g⟩ = dup ; (f × g), which hands
    its one input (or change) to both sides.  f × g runs as the fanout
    ⟨fst ; f, snd ; g⟩.  The step is generated from the sides' fragments,
    a cached side's first.  A fanout of the fst and snd machines is the
    identity."""
    mf = incrementalize(tt.children[0])
    mg = incrementalize(tt.children[1])
    in_ty = tt.in_ty.left if fan else tt.in_ty
    if fan and mf.deriv is _FST and mg.deriv is _SND:
        return comb_self(_SAME, _SAME, in_ty, tt.out_ty)
    held = [mf.deriv is None, mg.deriv is None]  # which sides hold a cache
    lines, free = ["p, q = d, c" if any(held) else "p = d"], {}
    for i in sorted((0, 1), key=lambda i: not held[i]):
        if not fan or len(lines) > 1:  # d is p for a fanout's first side
            lines.append("d = p" if fan else f"d = p[{i}]")
        if held[i]:
            lines.append(f"c = q[{i}]")
        lines += _place((mf, mg)[i], f"p{i}_", lines, free)
        lines.append(f"e{i}, u{i} = d, c" if held[i] else f"e{i} = d")
    lines.append("d = e0, e1")
    if not any(held):
        pair = ca.compiled(tt)
        batch = (lambda x: pair((x, x))) if fan else pair
        return _generated(in_ty, tt.out_ty, CUnit(), batch, lines, free)
    f_init, g_init = mf.init, mg.init
    if not fan:
        f_init, g_init = (lambda x: mf.init(x[0])), (lambda x: mg.init(x[1]))

    def init(x):
        y1, c1 = f_init(x)
        y2, c2 = g_init(x)
        return (y1, y2), (c1, c2)

    lines.append("c = " + ", ".join(f"u{i}" if h else "UNIT" for i, h in enumerate(held)))
    return _generated(in_ty, tt.out_ty, CTuple((mf.cache, mg.cache)), init, lines, free)


def _incr_map(tt):
    return _map_machine(tt, dict.items)


def _incr_map2(zip_tt, map_tt):
    """`zip ; map f` as one stage: step f on each changed key of (dx, dy).

    No zipped change is built; when one side's change is empty, only the
    other side's entries are walked.  A Triv f runs as _triv_kernel, whose
    init output is the batch generated from f's expression when f is an op
    that declares one and maps (ε, ε) to ε (calculus._map_batch), else the
    zip and the map run one after the other; any other f keeps the map's
    cache.
    """
    zf = ca.compiled(zip_tt)
    body, in_ty = map_tt.children[0], zip_tt.in_ty
    if fn := incrementalize(body).triv:
        elems, expr = (in_ty.left.elem, in_ty.right.elem), body.info.expr
        mapf = ca.compiled(map_tt)
        batch = (ca._map_batch(expr, body.out_ty, *elems)
                 if expr and fn(tuple(map(default_value, elems))) == default_value(body.out_ty)
                 else lambda xy: mapf(zf(xy)))
        return _triv_kernel(map_tt, fn, in_ty, batch, *elems)
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


def _map_machine(tt, entries):
    """map over the (index, element change) pairs that items(d) yields,
    items being entries: dict.items, or the fused map2's walk of (dx, dy).

    A Triv body runs as _triv_kernel.  Any other map's step (or derivative)
    is generated as one loop whose body is the body machine's fragment
    (_place): inlined per changed index, or its call.  A cached body reads
    s[i], an index absent from the cache a fresh sub-cache (dft, free), and
    the loop writes s[i] back; a change that is not nil goes out."""
    body = tt.children[0]
    mf = incrementalize(body)
    if mf.triv:  # entries is dict.items: _incr_map2 runs its own kernel
        return _triv_kernel(tt, mf.triv, tt.in_ty, ca.compiled(tt), tt.in_ty.elem)
    held = mf.deriv is None
    nil = is_nil_fn(body.out_ty)
    lines, free = ["s, out = c, {}" if held else "out = {}", "for i, d in items(d):"], {}
    rows = _place(mf, "b_", lines, free)
    if held:
        rows = ["try:", "    c = s[i]", "except KeyError:", "    c = dft()", *rows, "s[i] = c"]
    live = _live("not a" if nil is operator.not_ else "nil(a)", "d")
    lines += [f"    {row}" for row in [*rows, f"if {live}:", "    out[i] = d"]]
    free.update(items=entries, nil=nil)
    if not held:
        return _generated(tt.in_ty, tt.out_ty, CUnit(), ca.compiled(tt), [*lines, "d = out"], free)
    shape, elem, f_init = tt.in_ty.shape, tt.in_ty.elem, mf.init
    din, dout = default_value(elem), default_value(body.out_ty)
    free["dft"] = make_default = lambda: f_init(default_value(elem))[1]

    def init(x):
        out = {}
        caches = {}
        for i, xi in ca.map_inputs(x, f_init(din)[0], shape, din, dout):
            y, caches[i] = f_init(xi)
            if y != dout:
                out[i] = y
        return out, caches

    desc = CIndexed(shape, mf.cache, make_default())
    return _generated(tt.in_ty, tt.out_ty, desc, init, [*lines, "d, c = out, s"], free)


def _triv_kernel(map_tt, fn, in_ty, batch, *elems):
    """The Triv kernel of `map f` (one element type, arity 1) or of the fused
    `zip ; map f` (two, arity 2), fn being f, over the input type in_ty.

    init's output is batch's: the map's compiled batch (arity 1) or the one
    _incr_map2 picks (arity 2), at either arity generated from the op's
    expression where that applies (calculus._map_batch), with no call per
    entry.  Its cache holds the input elements (arity 1),
    or the two components of each pair apart, (cl, cr) (arity 2), each side
    kept by _keeper for its element type, or, when f(ε) ≠ ε, as a dict of
    every index, as the per-entry machines keep it.  The step is generated
    from _triv_source's fragment, with f inlined when the map's body (an op)
    declares it as an expression over its (non-pair, at arity 1) argument.
    The descriptor is the map's, whose readers see (cl, cr) as the dict of
    its pairs (_entries)."""
    shape, elem, out = map_tt.in_ty.shape, map_tt.in_ty.elem, map_tt.out_ty.elem
    fe, dout, dfts = fn(default_value(elem)), default_value(out), list(map(default_value, elems))
    if fe == dout:
        keeps = [_keeper(shape, e) for e in elems]
    else:
        keeps = [lambda x, d=d: dict(ca.map_inputs(x, fe, shape, d, dout)) for d in dfts]
    keep = keeps[0] if len(elems) == 1 else lambda xy: tuple(k(x) for k, x in zip(keeps, xy))

    def init(x):
        return batch(x), keep(x)

    expr = None if type(elems[0]) is TProd else map_tt.children[0].info.expr
    free = {"fn": fn, "df": diff_fn(out), "nil": is_nil_fn(out)}
    for s, e, dft in zip("xy", elems, dfts):
        free["a" + s], free["e" + s] = apply_fn(e), dft
    desc = CIndexed(shape, CValue(elem), default_value(elem))
    return _generated(in_ty, map_tt.out_ty, desc, init, [_triv_source(expr, out, *elems)], free)


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


@cache
def _triv_source(expr, out, *elems):
    """The Triv step's fragment, at arity len(elems): it reads the change d
    and the cache c (at arity 2, the pairs (dx, dy) and (cx, cy)) and ends
    with `d = out`, c being updated in place.

    For each changed key i it reads the cached element(s) c[i], a missing
    key (KeyError) as ε, ⊕s the changed side(s) in place and emits
    f(new) ⊖ f(old) when not nil, so it serves a dict and a packed cache.
    At arity 2 it walks dx.keys() | dy.keys() only when both sides changed.
    f is expr, and ⊕, ⊖ and the nil test are the element and output bases'
    exprs, inlined; each missing piece calls the free object fn, ax / ay
    (apply_fn), df (diff_fn) or nil (is_nil_fn), beside ex / ey, the
    elements' ε.  The text is made only from expressions that bundles
    register in Python code (OpDef.expr, BaseType.exprs), never from
    surface-program text: frontend cannot register an op."""
    one = len(elems) == 1
    sides, cells = ("x", ["c"]) if one else ("xy", ["cx", "cy"])
    old = _inline(expr or ("fn(x)" if one else "fn((x, y))"))
    _, minus, nil = _exprs(out, None)
    lines = ["out = {}"] if one else ["dx, dy = d", "cx, cy = c", "out = {}"]
    lines.append("for i, e in d.items():" if one else
                 "for i in (dx.keys() | dy.keys() if dx and dy else dx or dy):")
    for s, k in zip(sides, cells):
        lines += ["    try:", f"        {s} = {k}[i]", "    except KeyError:", f"        {s} = e{s}"]
    lines += [] if one else ["    x2, y2 = x, y"]
    for s, k, e in zip(sides, cells, elems):
        put = f"{k}[i] = {s}2 = " + _inline(_exprs(e, "a" + s)[0], a=s, b="e" if one else f"d{s}[i]")
        lines += [f"    {put}"] if one else [f"    if i in d{s}:", f"        {put}"]
    return "\n".join([*lines, f"    dz = {_inline(minus, a=_inline(old, x='x2', y='y2'), b=old)}",
                      f"    if {_live(nil, 'dz')}:", "        out[i] = dz", "d = out"])


def _live(nil, name):
    """The test that name is not nil, nil being a nil test over a: a plain
    `name` when that test is `not a`."""
    return name if nil == "not a" else f"not {_inline(nil, a=name)}"


def _exprs(ty, ap):
    """(⊕, ⊖, nil test) at ty as expressions over a and b: its base's exprs,
    else calls of ap, df and nil."""
    return type(ty) is TBase and ty.base.exprs or (f"{ap}(a, b)", "df(a, b)", "nil(a)")


# ---------------------------------------------------------------------------
# Staged steps
# ---------------------------------------------------------------------------

# A child's fragment is inlined while the composite's text stays within
# _INLINE_LINES lines and the fragment nests at most _INLINE_DEPTH blocks;
# past either the composite calls the child, so a generated step nests at
# most _INLINE_DEPTH + 1 blocks, well inside Python's limit of 20
_INLINE_LINES = 120
_INLINE_DEPTH = 6
# the names a fragment shares with the text it is placed in: the change,
# the cache, UNIT and the builtins; every other name is tagged
_SHARED = frozenset(["d", "c", "UNIT", *dir(builtins)])


def _staged(m, text, **free):
    """m, with text over the objects free as the fragment of its step."""
    m.frag = (m.deriv or m.step, text, free)
    return m


def _fragment(m):
    """(text, free) of m's step: statements that read the change d and the
    cache c and leave the output change and the new cache in them (a
    cache-free machine's read and write d only), and the objects its other
    free names stand for.  m.frag gives them while it stands for m's
    derivative or step; any other machine's fragment calls that."""
    f = m.deriv or m.step
    if m.frag and m.frag[0] is f:
        return m.frag[1:]
    return _call(m)


def _call(m):
    """The fragment that calls m's derivative or step."""
    return ("d = f(d)" if m.deriv else "d, c = f(d, c)"), {"f": m.deriv or m.step}


def _place(m, tag, lines, free):
    """m's fragment as lines, its names tagged (and its objects added to
    free under them): inlined when it fits after lines, else its call."""
    text, names = _fragment(m)
    rows, depth = _tagged(text, tag)
    if len(lines) + len(rows) > _INLINE_LINES or depth > _INLINE_DEPTH:
        text, names = _call(m)
        rows, _ = _tagged(text, tag)
    free.update((tag + n, v) for n, v in names.items())
    return rows


@cache
def _tagged(text, tag):
    """(rows, depth): text's lines, each name not in _SHARED prefixed by
    tag, and how many blocks they nest."""
    rows = tuple(_rename(text, lambda n: n if n in _SHARED else tag + n).split("\n"))
    return rows, max(len(row) - len(row.lstrip()) for row in rows) // 4


def _generated(in_ty, out_ty, desc, init, lines, free):
    """The composite machine whose step is run from the fragment lines over
    free: a cache-free one's (desc CUnit, init its batch) its derivative."""
    cached = type(desc) is not CUnit
    text, names = "\n".join(lines), sorted(free)
    f = _maker(text, cached, *names)(*map(free.get, names))
    m = IncrMachine(in_ty, out_ty, desc, init, f) if cached else comb_self(init, f, in_ty, out_ty)
    return _staged(m, text, **free)


@cache
def _maker(text, cached, *names):
    """make(*free objects) -> step, run from the fragment text by exec once
    per text, as dataclasses builds __init__.  The text is made here from
    fragments, op and base expressions (OpDef.expr, BaseType.exprs) and
    typechecked projection paths; every value, a cst's included, is a free
    object, so no surface-program text reaches exec."""
    params = "d, c" if cached else "d"
    src = "\n".join([f"def make({', '.join(names)}):", f"    def step({params}):",
                     indent(text, " " * 8), f"        return {params}", "    return step", ""])
    return ca._run_text(src, "step", {"UNIT": UNIT})


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

