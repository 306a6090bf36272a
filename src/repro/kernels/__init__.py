"""Shape-dispatched execution kernels for the solver hot loops.

``repro.kernels`` is the second execution path of the solvers: dense
engines for small-universe, low-dimension instances — the scalar engine
for dimension ≤ 3, the frontier engine for dimension 4–8, and the packed
:class:`~repro.kernels.bitstore.BitEdgeStore` layout for the KUW and
permutation scans.  The CSR path in ``repro.core`` remains the
general-case implementation; the dispatcher (:mod:`repro.kernels.dispatch`)
chooses per solve, and every engine is bit-identical per seed — the
backend is an execution detail, never an algorithmic one.

Backend selection
-----------------
The requested kernel comes from, in priority order:

1. an active :func:`use_kernel` context (tests, benchmarks);
2. the ``REPRO_KERNEL`` environment variable;
3. the default, ``auto``.

Values: ``auto`` (shape-based choice between ``csr`` and ``bitset``),
``csr`` (always the CSR path) and ``bitset`` (dense engine where capable).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = ["VALID_KERNELS", "DEFAULT_KERNEL", "current_kernel", "use_kernel"]

#: Recognised values of ``REPRO_KERNEL`` / :func:`use_kernel`.
VALID_KERNELS = ("auto", "csr", "bitset")

DEFAULT_KERNEL = "auto"

_override: list[str] = []


def _validate(name: str) -> str:
    norm = name.strip().lower()
    if norm not in VALID_KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}: expected one of {', '.join(VALID_KERNELS)}"
        )
    return norm


def current_kernel() -> str:
    """The kernel requested for this solve (see module docstring)."""
    if _override:
        return _override[-1]
    env = os.environ.get("REPRO_KERNEL")
    if env is None or not env.strip():
        return DEFAULT_KERNEL
    return _validate(env)


@contextmanager
def use_kernel(name: str) -> Iterator[str]:
    """Force a kernel within a ``with`` block (overrides ``REPRO_KERNEL``)."""
    norm = _validate(name)
    _override.append(norm)
    try:
        yield norm
    finally:
        _override.pop()
