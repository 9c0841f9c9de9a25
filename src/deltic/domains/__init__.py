"""Domain instantiations bundled as registries plus derived-program catalogs."""

from __future__ import annotations

from dataclasses import dataclass

from ..calculus import Registry
from ..core import BaseType, DelticError, TProd


class BundleLawError(DelticError):
    """An op registered in a bundle failed its incrementalization laws."""


@dataclass
class InstanceBundle:
    """A frozen-after-setup registry with a default base for literals."""

    name: str
    registry: Registry
    literal_base: BaseType

    def validate(self, samples=40):
        """Run the law suite over every registered op; raise on a violation.

        Returns the list of reports.  The tests call it on every bundle.
        """
        from ..oracle import check_op_laws
        reports = []
        for opdef in self.registry.ops.values():
            for in_ty in opdef.sample_in_tys:
                rep = check_op_laws(opdef, in_ty, samples=samples, seed=7)
                reports.append(rep)
                if not rep.passed:
                    raise BundleLawError(
                        f"op {opdef.name!r} fails laws at {in_ty!r}: {rep.failures[0]}")
        return reports


def pair_program(kind, term_fn):
    """A ProgramDef build: term_fn() for a pair of two equal types that pass
    kind, else None (the frontend then rejects the input)."""
    def build(ty):
        if isinstance(ty, TProd) and kind(ty.left) and ty.left == ty.right:
            return term_fn()
        return None
    return build


def get_bundle(name: str) -> InstanceBundle:
    """Look up a bundle factory by name and build a frozen instance."""
    from . import gcounter, linalg, relalg, trees
    factories = {
        "linalg": linalg.register_linalg,
        "relalg": relalg.register_relalg,
        "trees": trees.register_trees,
        "gcounter": lambda: gcounter.register_gcounter(("r1", "r2", "r3")),
    }
    if name not in factories:
        raise DelticError(f"unknown bundle: {name!r} (have {sorted(factories)})")
    bundle = factories[name]()
    bundle.registry.freeze()
    return bundle
