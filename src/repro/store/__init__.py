"""Persistent artifact store: disk-backed compile cache with warm start.

:class:`ArtifactStore` serializes frozen compiled artifacts (which carry no
communication plans: the process builds those on first use) under the session
cache key plus a schema fingerprint, with integrity-verified loads,
bounded LRU size and safe concurrent multi-process access.  Plug one into
:class:`~repro.compiler.session.CompilerSession` or
:class:`~repro.service.CompileService` via their ``store=`` parameter and
a restarted process warm-starts from disk (memory -> disk -> compile).
``python -m repro.store`` (:mod:`repro.store.cli`) manages a store from
the command line.
"""

from repro.store.store import (
    DEFAULT_MAX_BYTES,
    STORE_DIR_ENV,
    STORE_FORMAT,
    ArtifactStore,
    default_store_dir,
    schema_fingerprint,
    source_tree_digest,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "STORE_DIR_ENV",
    "STORE_FORMAT",
    "default_store_dir",
    "schema_fingerprint",
    "source_tree_digest",
]
