"""deltic: a typed point-free combinator language interpreted both as batch
functions and as cached incremental transducers over change structures."""

from .core import (
    BaseType, ContainerDef, Shape, TBase, TCont, TProd, TSum,
    INT, NAT, REAL, SCALAR, Left, Right, Cl, Cr, Sl, Sr, SUM_NULL, KEEP,
    apply_change, diff_values, nil_change, is_nil, support,
)
from .calculus import Registry, Term, typecheck, denote
from .incr import IncrMachine, incrementalize

__version__ = "0.1.0"
