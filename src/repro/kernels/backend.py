"""Kernel provenance: the name of the one production kernel path.

Every run executes the :mod:`repro.kernels` fast paths.  Their scalar
twins live in ``tests/equivalence/reference.py`` as test-only oracles
(DESIGN.md §11); run provenance records which path produced a result.
"""

from __future__ import annotations

__all__ = ["active_backend"]


def active_backend() -> str:
    """The kernel path in effect (always the vectorized kernels)."""
    return "vectorized"
