"""The reference kernels every engine executes on.

One :class:`NumpyBackend` instance is shared by every plan in the
process — the kernels are stateless, so there is nothing to construct
per plan.  :func:`resolve_backend` returns that instance.
"""

from __future__ import annotations

from repro.backends.numpy_backend import (
    BACKEND_OP_KINDS,
    BACKEND_PRIMITIVES,
    NumpyBackend,
)

_REFERENCE = NumpyBackend()


def resolve_backend(backend: NumpyBackend | None = None) -> NumpyBackend:
    """*backend* when given, else the shared reference instance."""
    return _REFERENCE if backend is None else backend


__all__ = [
    "BACKEND_OP_KINDS",
    "BACKEND_PRIMITIVES",
    "NumpyBackend",
    "resolve_backend",
]
