"""Variable and signature environments."""
from __future__ import annotations

from .types import FunctionType, Type

# Variable environments are plain name -> Type dicts that the checker never
# mutates once shared: an expression reports the bindings it adds (usually
# none), and `merge` is the one place a scope is copied to hold them.


def merge(g1: dict[str, Type], g2: dict[str, Type]) -> dict[str, Type]:
    """Right-biased union: on a name collision the second environment wins."""
    return {**g1, **g2}


def sibling_bindings(env: dict[str, Type], earlier: dict[str, Type],
                     later: dict[str, Type]) -> dict[str, Type]:
    """What two siblings synthesized in `env` add to it, `earlier` then `later`:
    the bindings `merge(merge(env, earlier), merge(env, later))` adds. So an
    outer name that only `earlier` rebinds gets its `env` type back."""
    if not earlier:
        return later
    kept = {name: t for name, t in earlier.items() if name not in env}
    return {**kept, **later} if kept else later


def qualify(prefix: tuple[str, ...], name: str) -> str:
    """Dot-joined qualified name; the empty prefix qualifies as the bare name."""
    return ".".join((*prefix, name))


class SignatureEnv:
    """Maps (qualified function name, arity) to a declared function type.

    Mutable while signatures are being collected, then treated as read-only
    for the whole checking phase.
    """

    def __init__(self):
        self._table: dict[tuple[str, int], FunctionType] = {}

    def add(self, prefix: tuple[str, ...], name: str, fn_type: FunctionType) -> bool:
        """Record a signature; returns False on a duplicate (name, arity)."""
        key = (qualify(prefix, name), len(fn_type.params))
        if key in self._table:
            return False
        self._table[key] = fn_type
        return True

    def lookup(self, qualified_name: str, arity: int) -> FunctionType | None:
        return self._table.get((qualified_name, arity))

    def __len__(self) -> int:
        return len(self._table)

    def entries(self) -> list[tuple[str, int, FunctionType]]:
        """All signatures, sorted by name then arity."""
        return sorted((name, arity, ft) for (name, arity), ft in self._table.items())
