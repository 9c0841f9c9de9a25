"""Universal value/change representations and the derived change-structure algebra.

Object types are built from registered base types, containers (finitely
supported index->element maps), products, and sums.  Every object type gets a
complete change structure: an apply operation, a difference operation, and a
canonical nil change.  Containers are kept in canonical sparse form (no stored
entry equals the elementwise default), which is what makes change maps cheap.
"""

from __future__ import annotations

import math
import operator
import sys
import weakref
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Optional


class DelticError(Exception):
    """Base class for engine errors."""


class ConformanceError(DelticError):
    """A value or change does not match the structure of its type."""


class UsageError(DelticError):
    """An operation was applied to the wrong kind of argument."""


class SupportError(DelticError):
    """A result would have infinite support (a finiteness precondition failed)."""


# ---------------------------------------------------------------------------
# Sum values and sum changes
# ---------------------------------------------------------------------------

def _sum_class(name, field, doc):
    """One payload slot; equal only to the same class with an equal payload.

    Unhashable, because payloads may be dicts.  Every sum value and sum change
    class below comes from here, so they differ only in name and slot.
    """
    get = operator.attrgetter(field)

    def __init__(self, payload):
        setattr(self, field, payload)

    def __eq__(self, other):
        return type(other) is cls and get(other) == get(self)

    def __repr__(self):
        return f"{name}({get(self)!r})"

    cls = type(name, (), {"__slots__": (field,), "__doc__": doc, "__hash__": None,
                          "__init__": __init__, "__eq__": __eq__, "__repr__": __repr__})
    return cls


Left = _sum_class("Left", "value", "Sum value in the left branch.")
Right = _sum_class("Right", "value", "Sum value in the right branch.")
Cl = _sum_class("Cl", "change", "Change inside the left branch of a sum.")
Cr = _sum_class("Cr", "change", "Change inside the right branch of a sum.")
Sl = _sum_class("Sl", "value", "Replace the whole sum value with a new left value.")
Sr = _sum_class("Sr", "value", "Replace the whole sum value with a new right value.")


class _SumNull:
    __slots__ = ()

    def __repr__(self):
        return "SUM_NULL"

    def __reduce__(self):
        # copy, deepcopy and pickle hand back the one instance: it is compared by identity
        return "SUM_NULL"


SUM_NULL = _SumNull()


# How each sum class is written, read and checked, for values (False) and
# changes (True): its text tag, the side of the sum its payload belongs to,
# and whether that payload is a change (read from the class's `change` slot)
# or a value (its `value` slot).  SUM_NULL, the nil sum change, has no entry.
SUM_FORMS = {
    False: {Left: ("inl", 0, False), Right: ("inr", 1, False)},
    True: {Cl: ("cl", 0, True), Cr: ("cr", 1, True),
           Sl: ("sl", 0, False), Sr: ("sr", 1, False)},
}


class _Keep:
    """Nil change of replacement-style base types (keep the current value)."""
    __slots__ = ()

    def __repr__(self):
        return "KEEP"

    def __reduce__(self):
        return "KEEP"


KEEP = _Keep()


# ---------------------------------------------------------------------------
# Instantiation interface: base change structures and containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseType:
    """A base type with its change structure.

    kind is one of "real", "int", "nat", "scalar" and drives value sampling,
    comparison tolerance and serialization.  The flags, when set, are relied
    on by typing rules (plus) and combinators (Lin/BiLin/Add); they are
    sampled-checked by the oracle, never assumed silently.
    """

    tag: str
    kind: str
    apply: Callable[[Any, Any], Any]   # x ⊕ d
    diff: Callable[[Any, Any], Any]    # new ⊖ old
    nil: Any
    default: Any                       # ε
    values_are_changes: bool = False
    add_commutative: bool = False
    add_associative: bool = False

    def __repr__(self):
        return f"BaseType({self.tag})"


def _num_ok(v, pytype):
    return isinstance(v, pytype) and not isinstance(v, bool)


REAL = BaseType(
    tag="real", kind="real",
    apply=operator.add,
    diff=operator.sub,
    nil=0.0, default=0.0,
    values_are_changes=True, add_commutative=True, add_associative=True,
)

INT = BaseType(
    tag="int", kind="int",
    apply=operator.add,
    diff=operator.sub,
    nil=0, default=0,
    values_are_changes=True, add_commutative=True, add_associative=True,
)

# ⊖ on naturals is truncated subtraction; complete only on monotone pairs,
# which is all the GCounter programs ever produce.
NAT = BaseType(
    tag="nat", kind="nat",
    apply=operator.add,
    diff=lambda new, old: new - old if new >= old else 0,
    nil=0, default=0,
    values_are_changes=True, add_commutative=True, add_associative=True,
)

# Scalar-with-null for path trees: values are str/int/float or null,
# changes either keep the value or replace it (possibly with null).
SCALAR = BaseType(
    tag="scalar", kind="scalar",
    apply=lambda x, d: x if d is KEEP else d,
    diff=lambda new, old: KEEP if new == old else new,
    nil=KEEP, default=None,
)

@dataclass(frozen=True)
class ContainerDef:
    """A container: shapes plus, per shape, a decidable set of indices.

    enum_indices is present iff the index set of every shape is finite; when
    present it enumerates exactly the valid indices, without duplicates.

    valid_indices, when present, is a bulk test over a whole key set, tried
    before the per-key valid_index when a container of scalars is checked.
    It may reject valid keys (the per-key check then decides), but it may
    accept a key set only when valid_index accepts every key in it.
    """

    id: str
    valid_shape: Callable[[Any], bool]
    valid_index: Callable[[Any, Any], bool]
    enum_indices: Optional[Callable[[Any], list]] = None
    valid_indices: Optional[Callable[[Any, Any], bool]] = None
    payload_to_text: Callable[[Any], str] = staticmethod(lambda p: "" if p is None else str(p))
    payload_from_text: Callable[[str], Any] = staticmethod(lambda t: None if t == "" else t)

    def __repr__(self):
        return f"ContainerDef({self.id})"


# Shapes and types are interned (hash-consed): a constructor returns the one
# live object with those fields, so == and hash are object's own, identity,
# and every type-keyed cache hits in O(1) however deep the type is.  The
# table holds them weakly and keys them by class and fields: a type's
# children by identity, since they are interned already, and a base type, a
# container or a shape's payload by its own ==.  Every holder shares the one
# object, so it is immutable; copy, deepcopy and pickle rebuild it through
# its constructor.

_INTERNED = weakref.WeakValueDictionary()


class _Interned:
    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(self, name, value)
            _INTERNED[key] = self
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is interned: its {name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Shape(_Interned):
    __slots__ = __match_args__ = ("container", "payload")

    def __new__(cls, container, payload):
        if not container.valid_shape(payload):
            raise ConformanceError(
                f"invalid shape payload {payload!r} for container {container.id}")
        return super().__new__(cls, container, payload)

    def indices(self):
        if self.container.enum_indices is None:
            return None
        return self.container.enum_indices(self.payload)

    def valid_index(self, i):
        return self.container.valid_index(self.payload, i)

    def __repr__(self):
        return f"{self.container.id}[{self.container.payload_to_text(self.payload)}]"


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------

class TBase(_Interned):
    __slots__ = __match_args__ = ("base",)

    def __repr__(self):
        return self.base.tag


class TCont(_Interned):
    __slots__ = __match_args__ = ("shape", "elem")

    def __repr__(self):
        return f"{self.shape!r} {self.elem!r}"


class TProd(_Interned):
    __slots__ = __match_args__ = ("left", "right")

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


class TSum(_Interned):
    __slots__ = __match_args__ = ("left", "right")

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


TypeExpr = Any  # union of TBase | TCont | TProd | TSum


def values_are_changes(ty) -> bool:
    """True when the value and change semantics of ty coincide (β = β')."""
    match ty:
        case TBase(base):
            return base.values_are_changes
        case TCont(_, elem):
            return values_are_changes(elem)
        case TProd(a, b):
            return values_are_changes(a) and values_are_changes(b)
        case _:
            return False  # sum changes are never structurally values


def plus_capable(ty) -> bool:
    """True when ⊕ can serve as a binary operation on ty (plus/Add/BiLin)."""
    match ty:
        case TBase(base):
            return base.values_are_changes and base.add_commutative and base.add_associative
        case TCont(_, elem):
            return plus_capable(elem)
        case TProd(a, b):
            return plus_capable(a) and plus_capable(b)
        case _:
            return False


# ---------------------------------------------------------------------------
# Defaults and nil changes
# ---------------------------------------------------------------------------

def default_value(ty):
    """ε for ty; fresh structure on every call (callers may not alias it)."""
    match ty:
        case TBase(base):
            return base.default
        case TCont():
            return {}
        case TProd(a, b):
            return (default_value(a), default_value(b))
        case TSum(a, _):
            return Left(default_value(a))
        case _:
            raise UsageError(f"not a type: {ty!r}")


def nil_change(ty):
    match ty:
        case TBase(base):
            return base.nil
        case TCont():
            return {}
        case TProd(a, b):
            return (nil_change(a), nil_change(b))
        case TSum():
            return SUM_NULL
        case _:
            raise UsageError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# ⊕ / ⊖ / nil test / ⊕-add on arbitrary object types
# ---------------------------------------------------------------------------

# The closures built here are the single implementation of ⊕, ⊖, the nil test
# and ⊕-add; the public functions at the end of this section delegate to them.
# Each builder is memoised per type by functools.cache, so machines and inner
# loops fetch their closure at build time and call it directly.  Container
# closures share one default substructure across calls, which is safe because
# values are immutable.
#
# update_fn is the one exception to immutability: a ⊕ for values that a
# machine owns (own_copy made them), which writes into the container's top
# level instead of copying it.  It runs the one container ⊕ loop
# (_merge_fn), and apply_fn's container ⊕ is update_fn on a clone: v.copy()
# clones v's table in C while at most a third of its slots are deleted, and
# compacts it past that, where dict(v) would insert entry by entry.  Under
# in-place churn CPython grows a dict to about 3 × its length, where a
# copy has about 1.5 ×, so the in-place ⊕ compacts: it returns a copy when
# the update resized the dict (its getsizeof changed), or when the dict's
# length fell below half of its length at its last copy.  A dict's
# allocation stays that of its last copy until it is resized, and a copy's
# allocation depends only on its length (and key kind), so _REBUILT_LEN
# records, per copy size, the length at the last copy of that size.  Both
# rules are amortized, so at worst a step makes one copy.  The table decides
# only when a copy is made, never a value.  The same rules keep a clone
# that apply_fn updates right-sized.  add_fn's container ⊕ runs the same
# loop on dict(x), which is fresh, so it skips them.  An index new to v
# takes d's element itself where that is canonical: under add_fn where
# values are changes, so x ⊕ y shares the entries only y holds, and under
# update_fn at such a scalar element; a nested one takes ε ⊕ dᵢ.

_REBUILT_LEN: dict = {}   # getsizeof of an own_copy result -> its length


@cache
def apply_fn(ty):
    match ty:
        case TBase(base):
            return base.apply
        case TCont():
            up = update_fn(ty)
            return lambda v, d: up(v.copy(), d) if d else v
        case TProd(a, b):
            fa, fb = apply_fn(a), apply_fn(b)
            return lambda v, d: (fa(v[0], d[0]), fb(v[1], d[1]))
        case TSum(a, b):
            fa, fb = apply_fn(a), apply_fn(b)

            def run_sum(v, d):
                if d is SUM_NULL:
                    return v
                td = type(d)
                if td is Cl:
                    return Left(fa(v.value, d.change)) if type(v) is Left else v
                if td is Cr:
                    return Right(fb(v.value, d.change)) if type(v) is Right else v
                if td is Sl:
                    return Left(d.value)
                if td is Sr:
                    return Right(d.value)
                raise ConformanceError(f"bad sum change {d!r}")
            return run_sum
        case _:
            raise UsageError(f"not a type: {ty!r}")


def _merge_fn(elem, share):
    """The container ⊕ loop: writes v ⊕ d into v at the top level, returns v.

    Elements are combined with the functional apply_fn(elem), so the shared
    default substructure dft is never written into.  An index new to v takes
    ε ⊕ dᵢ; with share it takes dᵢ itself, as it is.  A caller shares only
    where elem's values are its changes (ε ⊕ e = e) and dᵢ is canonical:
    add_fn, whose y is a value, and update_fn at a scalar element, as a
    nested element change may carry an explicit nil that ε ⊕ dᵢ drops.  A
    result equal to ε is not stored, so a change that carries an explicit
    nil entry leaves v canonical.
    """
    ea = apply_fn(elem)
    dft = default_value(elem)

    def merge(v, d):
        for i, di in d.items():
            nv = ea(v[i], di) if i in v else (di if share else ea(dft, di))
            if nv == dft:
                v.pop(i, None)
            else:
                v[i] = nv
        return v
    return merge


@cache
def update_fn(ty):
    """⊕ that may write into its first argument, which the caller must own.

    On a container it runs the ⊕ loop on v itself (top level only) and
    returns v, or a compacted copy of it (see _REBUILT_LEN); on any other
    type it is apply_fn(ty).
    """
    if not isinstance(ty, TCont):
        return apply_fn(ty)
    elem = ty.elem
    merge = _merge_fn(elem, isinstance(elem, TBase) and values_are_changes(elem))
    size = sys.getsizeof

    def run(v, d):
        if not d:
            return v
        before = size(v)
        merge(v, d)
        after = size(v)
        if after != before or 2 * len(v) < _REBUILT_LEN.get(after, 0):
            return own_copy(v)
        return v
    return run


def own_copy(v):
    """A value that update_fn may write into: a top-level copy of a container.

    Values of other types are returned as they are, as update_fn does not
    write into them.  The copy is dict(v), not v.copy(): it inserts entry by
    entry, so it also compacts a table that churn has left with deleted slots.
    """
    if type(v) is not dict:
        return v
    v = dict(v)
    _REBUILT_LEN[sys.getsizeof(v)] = len(v)
    return v


@cache
def diff_fn(ty):
    match ty:
        case TBase(base):
            return base.diff
        case TCont(_, elem):
            ed = diff_fn(elem)
            enil = is_nil_fn(elem)
            dft = default_value(elem)

            def run(new, old):
                out = {}
                for i in new.keys() | old.keys():
                    di = ed(new.get(i, dft), old.get(i, dft))
                    if not enil(di):
                        out[i] = di
                return out
            return run
        case TProd(a, b):
            fa, fb = diff_fn(a), diff_fn(b)
            return lambda new, old: (fa(new[0], old[0]), fb(new[1], old[1]))
        case TSum(a, b):
            fa, fb = diff_fn(a), diff_fn(b)

            def run_sum(new, old):
                if type(new) is Left:
                    if type(old) is Left:
                        return Cl(fa(new.value, old.value))
                    return Sl(new.value)
                if type(old) is Right:
                    return Cr(fb(new.value, old.value))
                return Sr(new.value)
            return run_sum
        case _:
            raise UsageError(f"not a type: {ty!r}")


@cache
def is_nil_fn(ty):
    match ty:
        case TBase(base):
            if base.nil is KEEP:
                return lambda d: d is KEEP
            if base is REAL or base is INT or base is NAT:
                return operator.not_  # on an int or a float, `not d` is `d == 0`
            nil = base.nil
            return lambda d: d == nil
        case TCont():
            return operator.not_  # a change map is nil exactly when it is empty
        case TProd(a, b):
            fa, fb = is_nil_fn(a), is_nil_fn(b)
            return lambda d: fa(d[0]) and fb(d[1])
        case TSum():
            return lambda d: d is SUM_NULL
        case _:
            raise UsageError(f"not a type: {ty!r}")


@cache
def add_fn(ty):
    match ty:
        case TBase(base):
            return base.apply
        case TCont(_, elem):
            merge = _merge_fn(elem, values_are_changes(elem))
            # an empty side is nil: the other side is returned as it is
            return lambda x, y: (merge(dict(x), y) if x else y) if y else x
        case TProd(a, b):
            fa, fb = add_fn(a), add_fn(b)
            return lambda x, y: (fa(x[0], y[0]), fb(x[1], y[1]))
        case _:
            raise UsageError(f"⊕ is not a binary operation at {ty!r}")


def is_nil(ty, d) -> bool:
    """Structural comparison against the canonical nil (cl(0) is not nil)."""
    return is_nil_fn(ty)(d)


def apply_change(ty, v, d):
    """v ⊕ d.  Result is canonical-sparse; inputs are never mutated."""
    return apply_fn(ty)(v, d)


def diff_values(ty, new, old):
    """new ⊖ old, the change with apply_change(ty, old, result) == new."""
    return diff_fn(ty)(new, old)


def support(v) -> set:
    """Stored (non-default) key set of a mapping value."""
    if not isinstance(v, dict):
        raise UsageError(f"support of a non-mapping value: {v!r}")
    return set(v.keys())


# ---------------------------------------------------------------------------
# Conformance and comparison
# ---------------------------------------------------------------------------

# check_value and check_change run one closure builder, compiled once per type
# and side (value or change) and memoised like the closures above, so checking
# a large literal or a change line does no type dispatch per entry and builds
# no path string.  The sides differ only at replacement scalars (a change may
# be KEEP), at canonical form (no stored default, or no stored nil) and at
# sums (SUM_FORMS).  A failing closure raises _Reject with the tail of the
# message; each enclosing container, pair or sum closure adds its path part as
# the exception unwinds, and _check joins them into the message.  Only the
# closure is memoised, never a checked value: every call checks every entry.

class _Reject(Exception):
    """A conformance failure on its way out to check_value or check_change."""

    def __init__(self, tail, part=None):
        self.tail = tail
        self.parts = [] if part is None else [part]  # innermost first


# Per base kind: the predicate a conforming value meets, and the exact types
# that always meet it (a per-entry shortcut that makes no call).  A change
# meets the same predicate, or is KEEP where KEEP is the nil.
_SCALAR_OK = {
    "real": (lambda v: _num_ok(v, (int, float)), frozenset((int, float))),
    "int": (lambda v: _num_ok(v, int), frozenset((int,))),
    "nat": (lambda v: _num_ok(v, int) and v >= 0, frozenset()),
    "scalar": (lambda v: v is None or isinstance(v, (str, int, float))
               and not isinstance(v, bool), frozenset((type(None), str, int, float))),
}

def _at(check, part):
    """check, with part added to the path of a failure."""
    def run(v):
        try:
            check(v)
        except _Reject as e:
            e.parts.append(part)
            raise
    return run


@cache
def _check_fn(ty, change):
    match ty:
        case TBase(base):
            ok, sure = _SCALAR_OK[base.kind]
            if change and base.nil is KEEP:
                sure |= {_Keep}
            what = f"{base.tag} {'change' if change else 'scalar'}"

            def run(v):
                if type(v) not in sure and not ok(v):
                    raise _Reject(f": {v!r} is not a {what}")
            return run
        case TCont(shape, elem):
            check = _check_fn(elem, change)
            valid, payload = shape.container.valid_index, shape.payload
            zero = nil_change(elem) if change else default_value(elem)
            mapping, stored = ("a change mapping", "nil") if change else ("a mapping", "default")
            # A container of scalars whose element types are all sure, with
            # no stored zero and keys that valid_indices accepts, conforms:
            # three C-level passes.  Anything else takes the per-entry loop,
            # the one place that says what is wrong.
            sure = _SCALAR_OK[elem.base.kind][1] if isinstance(elem, TBase) else None
            bulk = shape.container.valid_indices
            if not sure or change and elem.base.nil is KEEP:
                bulk = None

            def run_cont(v):
                if not isinstance(v, dict):
                    raise _Reject(f": expected {mapping}, got {v!r}")
                if (bulk and sure.issuperset(map(type, v.values()))
                        and zero not in v.values() and bulk(payload, v.keys())):
                    return
                for i, ev in v.items():
                    if not valid(payload, i):
                        raise _Reject(f": invalid index for {shape!r}", f"[{i!r}]")
                    try:
                        check(ev)
                    except _Reject as e:
                        e.parts.append(f"[{i!r}]")
                        raise
                    if ev == zero:
                        raise _Reject(f": stored {stored} breaks canonical form", f"[{i!r}]")
            return run_cont
        case TProd(a, b):
            fa, fb = _at(_check_fn(a, change), ".0"), _at(_check_fn(b, change), ".1")
            pair = "a pair change" if change else "a pair"

            def run_pair(v):
                if not (isinstance(v, tuple) and len(v) == 2):
                    raise _Reject(f": expected {pair}, got {v!r}")
                fa(v[0])
                fb(v[1])
            return run_pair
        case TSum(a, b):
            forms = {cls: (_at(_check_fn(b if side else a, sub), f".{tag}"),
                           operator.attrgetter("change" if sub else "value"))
                     for cls, (tag, side, sub) in SUM_FORMS[change].items()}
            bad = "bad sum change" if change else "expected an injection, got"

            def run_sum(v):
                form = forms.get(type(v))
                if form is not None:
                    check, payload = form
                    check(payload(v))
                elif not (change and v is SUM_NULL):
                    raise _Reject(f": {bad} {v!r}")
            return run_sum
        case _:
            raise UsageError(f"not a type: {ty!r}")


def _check(ty, x, path, change):
    try:
        _check_fn(ty, change)(x)
    except _Reject as e:
        raise ConformanceError(path + "".join(reversed(e.parts)) + e.tail) from None


def check_value(ty, v, path="value"):
    """Raise ConformanceError unless v conforms to ty and is canonical."""
    _check(ty, v, path, False)


def check_change(ty, d, path="change"):
    """Raise ConformanceError unless d is a canonical change of ty."""
    _check(ty, d, path, True)


def _scalar_close(kind, a, b, rel_tol):
    if kind == "real" and rel_tol:
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)
    return a == b


def values_equal(ty, a, b, rel_tol=0.0) -> bool:
    """Compare values; real scalars with relative tolerance, the rest exactly.

    Mappings compare modulo defaults (absent keys read as ε), so a tolerant
    comparison is insensitive to float residue left in one side's support.
    """
    match ty:
        case TBase(base):
            return _scalar_close(base.kind, a, b, rel_tol)
        case TCont(_, elem):
            dft = default_value(elem)
            for i in a.keys() | b.keys():
                if not values_equal(elem, a.get(i, dft), b.get(i, dft), rel_tol):
                    return False
            return True
        case TProd(l, r):
            return values_equal(l, a[0], b[0], rel_tol) and values_equal(r, a[1], b[1], rel_tol)
        case TSum(l, r):
            if type(a) is not type(b):
                return False
            side = l if type(a) is Left else r
            return values_equal(side, a.value, b.value, rel_tol)
        case _:
            raise UsageError(f"not a type: {ty!r}")


def index_sort_key(i):
    """Total order over mixed index kinds, for canonical serialization."""
    if isinstance(i, bool):
        raise UsageError("bool is not an index")
    if isinstance(i, int):
        return (0, i)
    if isinstance(i, (float,)):
        return (1, i)
    if isinstance(i, str):
        return (2, i)
    if isinstance(i, tuple):
        return (3, tuple(index_sort_key(x) for x in i))
    raise UsageError(f"unsupported index: {i!r}")
