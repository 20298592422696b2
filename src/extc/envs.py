"""Variable and signature environments."""
from __future__ import annotations

from .types import FunctionType, Type

# Variable environments are plain name -> Type dicts that the checker never
# mutates once shared: an expression reports the bindings it adds (usually
# none), and `extend` is the one place a scope is copied to hold them.


def extend(env: dict[str, Type], added: dict[str, Type]) -> dict[str, Type]:
    """`env` with the bindings `added` holds, which win on a name collision:
    a new dict, or `env` itself when nothing is added."""
    return {**env, **added} if added else env


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
