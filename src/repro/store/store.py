"""The disk-backed, content-addressed compiled-artifact store.

Compiled remapping code is expensive to derive (analysis passes,
cost-guarded motion) and cheap to replay.  The in-memory layers (session
LRU, single-flight) exploit that within one process;
:class:`ArtifactStore` extends it *across* processes: frozen
:class:`~repro.compiler.artifacts.CompiledProgram` artifacts -- generated
code and construction results -- are serialized to disk under the session
cache key, so a restarted service (or a fresh CI runner with a restored
cache directory) warm-starts instead of paying full cold-compile cost for
identical sources.  Communication plans are *not* stored, and no artifact
carries any: a plan is a pure function of its policy and mapping pair, so
a loaded artifact runs on the process's plans
(:data:`~repro.spmd.schedule.PLANS`), and a restarted process builds (and
re-proves) each plan on first use.

Design contract, enforced by construction and by ``tests/test_store.py``:

* **content-addressed + schema-fingerprinted** -- entries live under
  ``root/<schema_fingerprint>/<key-digest>.art`` where the fingerprint
  (:func:`schema_fingerprint`) mixes the repro version, a digest of the
  package's own source tree, the artifact schema version and the pickle
  protocol.  Any code change (a bug fix inside an existing pass or a new
  pass included), a reshaped artifact dataclass or a version bump makes
  *all* old entries invisible rather
  than serving compilations of code that no longer exists.  A generation
  directory holds ``*.art`` entries and their ``*.lock`` files, nothing
  else (a writer's ``*.tmp`` lives until its rename): a key is a pure
  function of the request, so no per-source side data is kept;
* **integrity-verified loads** -- every entry carries the SHA-256 of its
  payload in a JSON header; a load re-checks length and digest before
  unpickling.  Truncated, tampered or otherwise undecodable entries are
  evicted and reported as misses -- the load path degrades to a clean
  recompile, it never raises and never serves a wrong artifact;
* **safe concurrent access** -- writers serialize per entry via advisory
  file locks, write to a temp file and publish with one atomic
  ``os.replace``; readers need no lock (they either see a complete entry
  or none).  Two processes racing to write the same key both succeed;
  last rename wins and both files were verified-complete;
* **bounded size** -- ``max_bytes`` caps the store; eviction is
  least-recently-*used* (entry mtime, refreshed on every verified load).

Loaded artifacts are re-frozen before they are returned, so a disk hit
carries exactly the mutation protection of a memory hit
(:class:`~repro.errors.ArtifactFrozenError` on writes).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import re
import threading
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

from repro.errors import ArtifactStoreError
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER

# Registry mirrors of the per-store counters (stores keep their own ints;
# the process-wide repro.store.* aggregates fold every increment in).
_M_MISSES = _OBS.counter("repro.store.misses")
_M_WRITES = _OBS.counter("repro.store.writes")
_M_CORRUPT = _OBS.counter("repro.store.corrupt_evicted")
_M_SEMANTIC = _OBS.counter("repro.store.semantic_evicted")
_M_LRU = _OBS.counter("repro.store.lru_evicted")

if TYPE_CHECKING:
    from repro.compiler.artifacts import CompiledProgram
    from repro.compiler.template import SymbolicTemplate

try:  # POSIX advisory locks; degrade to lock-free on platforms without them
    import fcntl

    def _flock(fh: IO[bytes]) -> None:
        fcntl.flock(fh, fcntl.LOCK_EX)

    def _funlock(fh: IO[bytes]) -> None:
        fcntl.flock(fh, fcntl.LOCK_UN)

    HAVE_FLOCK = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    HAVE_FLOCK = False

    def _flock(fh: IO[bytes]) -> None:
        pass

    def _funlock(fh: IO[bytes]) -> None:
        pass


#: On-disk entry layout version (header line + payload).  Part of the
#: schema fingerprint: bumping it orphans every existing entry.
STORE_FORMAT = 1

#: Default size bound for a store (LRU-evicted beyond this).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Shape of a schema-fingerprint directory name.  ``gc`` refuses to
#: remove any root subdirectory that does not match: the root is a
#: user-supplied path and may contain things that are not ours.
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{16}")

#: Environment variable naming the default store root for the CLI and
#: for tools that want one shared store per checkout/CI workspace.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Fallback store root when neither an argument nor the env var names one.
DEFAULT_STORE_DIR = ".repro-store"


_source_tree_digest_cache: str | None = None


def source_tree_digest() -> str:
    """A digest of the installed ``repro`` package's own source code.

    Pass *names* alone cannot see a bug fix inside an existing pass;
    without this component a store would keep serving artifacts compiled
    by the pre-fix code (tier ``"disk"``) and the fix would appear
    ineffective.  Hashing every ``.py`` file of the package (relative
    path + bytes, sorted) makes any code change a new schema generation.
    Memoized for the process lifetime -- source does not change under a
    running interpreter -- and degrades to a constant for non-filesystem
    installs (zipapps), where the version component must carry the load.
    """
    global _source_tree_digest_cache
    if _source_tree_digest_cache is not None:
        return _source_tree_digest_cache
    import repro

    h = hashlib.sha256()
    try:
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    except (OSError, TypeError):  # pragma: no cover - zipapp/frozen install
        h.update(b"no-source-tree")
    _source_tree_digest_cache = h.hexdigest()[:12]
    return _source_tree_digest_cache


def schema_fingerprint() -> str:
    """The schema fingerprint current entries are stored under.

    Mixes everything that determines whether a pickled artifact written
    earlier is still meaningful now: the repro version, the package's own
    source code (:func:`source_tree_digest` -- a bug fix inside a pass
    must orphan artifacts the old code compiled), the serialized artifact
    schema (:data:`~repro.compiler.artifacts.ARTIFACT_SCHEMA_VERSION`),
    the on-disk entry format and the pickle protocol.  CI keys its
    cross-run store cache on this value, so a source change cold-starts CI
    (correct) while doc-only commits stay warm.
    """
    import repro
    from repro.compiler.artifacts import ARTIFACT_SCHEMA_VERSION

    material = "|".join(
        (
            f"repro={repro.__version__}",
            f"source={source_tree_digest()}",
            f"artifact-schema={ARTIFACT_SCHEMA_VERSION}",
            f"store-format={STORE_FORMAT}",
            f"pickle={pickle.HIGHEST_PROTOCOL}",
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def default_store_dir() -> str:
    """The CLI's store root: ``$REPRO_STORE_DIR`` or ``.repro-store``."""
    return os.environ.get(STORE_DIR_ENV) or DEFAULT_STORE_DIR


class ArtifactStore:
    """Disk-backed artifact cache keyed by session cache key (see module doc).

    ``root`` is shared by every schema generation; this store instance
    reads and writes only its own fingerprint subdirectory.  ``max_bytes``
    bounds that subdirectory (LRU eviction); ``None`` disables the bound.
    Instances are thread-safe and may be shared across sessions and
    services; cross-process safety comes from the atomic
    write/rename protocol, not from any shared in-memory state.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        fingerprint: str | None = None,
        create: bool = True,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.fingerprint = fingerprint or schema_fingerprint()
        self._dir = self.root / self.fingerprint
        if create:
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ArtifactStoreError(
                    f"cannot create artifact store directory {self._dir}: {exc}"
                ) from exc
        # with create=False (read-only inspection, e.g. the CLI) a
        # missing directory simply reads as an empty generation
        self._lock = threading.Lock()  # guards the counters and the estimate
        # running on-disk byte estimate; None until the first budget check
        # scans the directory (see _enforce_budget)
        self._size_estimate: int | None = None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # per-kind splits of hits/stores: concrete CompiledProgram entries
        # vs shape-erased SymbolicTemplate entries (PR 7) -- the CLI's
        # shape-reuse ratio is derived from these
        self.hits_by_kind = {"concrete": 0, "template": 0}
        self.stores_by_kind = {"concrete": 0, "template": 0}
        self.store_errors = 0
        self.corrupt_evicted = 0
        self.semantic_evicted = 0
        self.lru_evicted = 0

    # -- paths and keys ----------------------------------------------------

    def key_digest(self, key: object) -> str:
        """The content address of a session cache key.

        Session keys are tuples of strings, ints, nested tuples and
        (frozen-dataclass) cost models -- all with deterministic reprs --
        so ``repr`` is a stable serialization.  The schema fingerprint is
        *not* mixed in here: it scopes the directory instead, which keeps
        stale generations enumerable for :meth:`gc`.
        """
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def entry_path(self, key: object) -> Path:
        """Where this key's artifact lives (whether or not it exists)."""
        return self._dir / f"{self.key_digest(key)}.art"

    @contextlib.contextmanager
    def _entry_lock(self, path: Path) -> Iterator[None]:
        """Per-entry advisory write lock (``<entry>.lock`` beside it)."""
        lock_path = path.with_suffix(".lock")
        with open(lock_path, "a+b") as fh:
            _flock(fh)
            try:
                yield
            finally:
                _funlock(fh)

    # -- store / load ------------------------------------------------------

    @staticmethod
    def _artifact_kind(artifact: object) -> str:
        from repro.compiler.template import SymbolicTemplate

        return "template" if isinstance(artifact, SymbolicTemplate) else "concrete"

    def store(
        self, key: object, artifact: "CompiledProgram | SymbolicTemplate"
    ) -> bool:
        """Serialize one artifact under ``key``; returns success.

        The artifact may be a concrete
        :class:`~repro.compiler.artifacts.CompiledProgram` or a
        shape-erased :class:`~repro.compiler.template.SymbolicTemplate`;
        the entry header records which (``kind``).  The write is
        crash-safe and race-safe: payload and header go to a
        process-unique temp file (fsynced), then one atomic ``os.replace``
        publishes the entry.  Nothing else is written: a key is a pure
        function of the request, so a fresh process computes the same one.
        I/O failures are contained: a ``False`` return means the caller
        simply keeps its in-memory artifact.
        """
        path = self.entry_path(key)
        kind = self._artifact_kind(artifact)
        try:
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.store_errors += 1
            return False
        header = (
            json.dumps(
                {
                    "format": STORE_FORMAT,
                    "fingerprint": self.fingerprint,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "payload_bytes": len(payload),
                    "kind": kind,
                    "written_at": time.time(),
                },
                sort_keys=True,
            ).encode()
            + b"\n"
        )
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        try:
            with self._entry_lock(path):
                with open(tmp, "wb") as fh:
                    fh.write(header)
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.store_errors += 1
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        _M_WRITES.inc()
        with self._lock:
            self.stores += 1
            self.stores_by_kind[kind] += 1
        self._enforce_budget(len(header) + len(payload))
        return True

    def load(self, key: object) -> "CompiledProgram | SymbolicTemplate | None":
        """The verified artifact for ``key``, or ``None`` (never raises).

        The stored digest is re-checked against the payload before
        unpickling; any mismatch -- truncation, tampering, a header that
        is not valid JSON -- evicts the entry and reports a miss, so a
        corrupt store degrades to cold-compile behavior.  A decoded
        *concrete* artifact is then deeply verified -- the full static
        invariant checker (:func:`repro.analysis.verify.verify_artifact`)
        runs over its CFGs, remapping graphs, version annotations and
        statement-keyed maps -- so a hash-valid but semantically corrupt
        entry is also evicted (``semantic_evicted``) and recompiled, never
        executed.  That pass stays on every concrete load because it is
        the only check of the ``id(stmt)``-keyed maps after unpickling
        rebased them, and it costs well under a millisecond.  A decoded
        *template* gets its structural checks only
        (:func:`~repro.analysis.verify.verify_template_structure`) and is
        never instantiated here: the session verifies the first artifact
        it instantiates from the template for a request and hands a
        failure back through :meth:`reject`.  A verified load refreshes
        the entry's mtime (the LRU recency the size bound evicts by) and
        returns the artifact re-frozen.

        Each call opens a ``store.load`` span recording hit kind or miss.
        """
        with _TRACER.span("store.load") as span:
            artifact = self._load_verified(key)
            span.set_attr(
                "result",
                self._artifact_kind(artifact) if artifact is not None else "miss",
            )
        return artifact

    def _load_verified(
        self, key: object
    ) -> "CompiledProgram | SymbolicTemplate | None":
        path = self.entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            _M_MISSES.inc()
            with self._lock:
                self.misses += 1
            return None
        artifact = self._decode(blob)
        if artifact is None:
            self._evict_entry(path, corrupt=True)
            _M_MISSES.inc()
            with self._lock:
                self.misses += 1
            return None
        if self._invariant_issues(artifact, deep=False):
            self._evict_semantic(path)
            _M_MISSES.inc()
            with self._lock:
                self.misses += 1
            return None
        with contextlib.suppress(OSError):
            os.utime(path)
        kind = self._artifact_kind(artifact)
        _OBS.counter("repro.store.hits", {"kind": kind}).inc()
        with self._lock:
            self.hits += 1
            self.hits_by_kind[kind] += 1
        artifact.freeze()  # idempotent; pickling preserves frozen state
        return artifact

    @classmethod
    def _invariant_issues(
        cls, artifact: "CompiledProgram | SymbolicTemplate", deep: bool
    ) -> list:
        """Semantic verification; a non-empty list disqualifies.

        Concrete programs get the full static checker either way.  A
        symbolic template gets its structural checks, and under ``deep``
        (:meth:`verify`, where no request will ever instantiate it) also a
        verified probe instantiation (:func:`repro.analysis.verify.
        verify_template`); a load passes ``deep=False`` and instantiates
        nothing.  Never raises: a checker crash on a mangled object graph
        counts as one issue (the load path must degrade, not propagate)."""
        from repro.analysis.verify import (
            VerificationIssue,
            verify_artifact,
            verify_template,
            verify_template_structure,
        )

        try:
            if cls._artifact_kind(artifact) == "template":
                return (verify_template if deep else verify_template_structure)(artifact)
            return verify_artifact(artifact)
        except Exception as exc:  # pragma: no cover - defensive
            return [
                VerificationIssue(
                    check="crash", message=f"verifier crashed: {exc!r}"
                )
            ]

    def _decode(self, blob: bytes) -> "CompiledProgram | SymbolicTemplate | None":
        """Header-check, digest-check and unpickle; ``None`` on any defect."""
        from repro.compiler.artifacts import CompiledProgram
        from repro.compiler.template import SymbolicTemplate

        newline = blob.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(blob[:newline])
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("format") != STORE_FORMAT:
            return None
        if header.get("fingerprint") != self.fingerprint:
            return None
        payload = blob[newline + 1 :]
        if header.get("payload_bytes") != len(payload):
            return None  # truncated (or padded) entry
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            return None  # bit-rot / tampering
        try:
            artifact = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(artifact, (CompiledProgram, SymbolicTemplate)):
            return None
        return artifact

    def _evict_entry(self, path: Path, corrupt: bool = False) -> None:
        with contextlib.suppress(OSError):
            path.unlink()
        (_M_CORRUPT if corrupt else _M_LRU).inc()
        with self._lock:
            if corrupt:
                self.corrupt_evicted += 1
            else:
                self.lru_evicted += 1

    def _evict_semantic(self, path: Path) -> None:
        """Evict a hash-valid entry that failed semantic verification."""
        self._evict_entry(path, corrupt=True)
        _M_SEMANTIC.inc()
        with self._lock:
            self.semantic_evicted += 1

    def reject(self, key: object) -> None:
        """Evict ``key``'s entry on a reader's finding (``semantic_evicted``):
        a loaded template whose first served instantiation raised or failed
        :func:`~repro.analysis.verify.verify_artifact`."""
        self._evict_semantic(self.entry_path(key))

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> list[os.DirEntry]:
        try:
            with os.scandir(self._dir) as it:
                return [e for e in it if e.name.endswith(".art")]
        except OSError:
            return []

    def _scan_entries(self) -> tuple[list[tuple[float, int, Path]], int]:
        """(mtime, size, path) per entry plus the total size on disk."""
        entries = []
        total = 0
        for e in self._entries():
            try:
                st = e.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, Path(e.path)))
            total += st.st_size
        return entries, total

    def _enforce_budget(self, wrote_bytes: int = 0) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        The common case (store under budget) is O(1): a running
        in-process byte estimate -- initialized by one directory scan,
        advanced by each write -- decides whether a real scan is needed
        at all, so steady-state write-backs pay no directory walk and no
        cross-process serialization.  Only when the estimate crosses the
        budget is the store-wide advisory lock taken, the truth re-read
        under it (two concurrent writers don't double-delete; a
        concurrently vanishing entry is skipped) and the estimate
        resynced.  Other processes' writes are invisible to the estimate
        until the next resync, so the store may transiently overshoot
        ``max_bytes`` by roughly one process's write volume; evictions by
        other processes only make the estimate conservative.  :meth:`gc`
        always enforces against the true on-disk state.
        """
        if self.max_bytes is None:
            return
        with self._lock:
            if self._size_estimate is not None:
                self._size_estimate += wrote_bytes
                if self._size_estimate <= self.max_bytes:
                    return
        with self._entry_lock(self._dir / "gc"):
            entries, total = self._scan_entries()
            entries.sort()
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                self._evict_entry(path)
                total -= size
        with self._lock:
            self._size_estimate = total

    def gc(self, drop_stale: bool = True) -> dict[str, int]:
        """Enforce the size budget and sweep debris; returns what was done.

        Debris the load/store hot paths deliberately never pay to clean:
        sibling fingerprint directories (entries written under an older
        repro version / source tree / schema -- unreachable by
        construction), orphaned temp files from crashed writers and lock
        files whose entry is gone.  ``drop_stale=False`` limits the pass
        to the size budget.  Without gc the store would grow one tiny
        lock file per key ever written.
        """
        before = len(self._entries())
        self._enforce_budget()
        stale_dirs = 0
        tmp_swept = 0
        locks_swept = 0
        if drop_stale:
            try:
                with os.scandir(self.root) as it:
                    # ONLY directories shaped like a schema fingerprint are
                    # store generations; anything else under the (user-
                    # supplied) root is not ours to delete
                    siblings = [
                        Path(e.path)
                        for e in it
                        if e.is_dir()
                        and e.name != self.fingerprint
                        and _FINGERPRINT_RE.fullmatch(e.name)
                    ]
            except OSError:
                siblings = []
            import shutil

            for d in siblings:
                with contextlib.suppress(OSError):
                    shutil.rmtree(d)
                    stale_dirs += 1
            for tmp in self._dir.glob("*.tmp"):
                with contextlib.suppress(OSError):
                    tmp.unlink()
                    tmp_swept += 1
            # lock files are keyed like their entry ("<key-digest>.lock");
            # "gc.lock" guards eviction itself and always stays
            for lock in self._dir.glob("*.lock"):
                if lock.stem == "gc":
                    continue
                if not lock.with_suffix(".art").exists():
                    with contextlib.suppress(OSError):
                        lock.unlink()
                        locks_swept += 1
        return {
            "entries_before": before,
            "entries_after": len(self._entries()),
            "stale_fingerprints_removed": stale_dirs,
            "tmp_files_removed": tmp_swept,
            "lock_files_removed": locks_swept,
        }

    def verify(self, evict: bool = True, deep: bool = False) -> dict[str, int]:
        """Re-check every entry's integrity; returns a scan report.

        Each entry is decoded exactly as a load would decode it (header,
        length, digest, unpickle); with ``deep=True`` decoded artifacts
        additionally pass the full static invariant checker
        (:func:`repro.analysis.verify.verify_artifact`; a template is
        probe-instantiated first, :func:`~repro.analysis.verify.
        verify_template`), catching hash-valid but semantically corrupt
        entries.  Defective entries
        are evicted unless ``evict=False`` (dry run).  The entry mtimes
        are left untouched, so verification does not perturb LRU order.
        """
        ok = corrupt = invalid = 0
        for e in self._entries():
            path = Path(e.path)
            try:
                st = path.stat()
                blob = path.read_bytes()
            except OSError:
                continue  # vanished mid-scan: another process's eviction
            artifact = self._decode(blob)
            if artifact is None:
                corrupt += 1
                if evict:
                    self._evict_entry(path, corrupt=True)
            elif deep and self._invariant_issues(artifact, deep=True):
                invalid += 1
                if evict:
                    self._evict_semantic(path)
            else:
                ok += 1
                with contextlib.suppress(OSError):
                    os.utime(path, (st.st_atime, st.st_mtime))
        return {
            "entries": ok + corrupt + invalid,
            "ok": ok,
            "corrupt": corrupt,
            "invariant_violations": invalid,
        }

    def clear(self) -> None:
        """Remove every entry of this store's schema generation."""
        import shutil

        with contextlib.suppress(OSError):
            shutil.rmtree(self._dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._size_estimate = None

    # -- observability -----------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of artifact entries currently on disk."""
        return len(self._entries())

    @property
    def total_bytes(self) -> int:
        """Total size of the artifact entries currently on disk."""
        total = 0
        for e in self._entries():
            with contextlib.suppress(OSError):
                total += e.stat().st_size
        return total

    def entries_by_kind(self) -> dict[str, int]:
        """On-disk entry counts per artifact kind (header line only).

        Entries written before kind headers existed count as concrete --
        that is what every pre-PR 7 entry is.
        """
        counts = {"concrete": 0, "template": 0}
        for e in self._entries():
            kind = "concrete"
            try:
                with open(e.path, "rb") as fh:
                    header = json.loads(fh.readline())
                if isinstance(header, dict) and header.get("kind") == "template":
                    kind = "template"
            except (OSError, ValueError, UnicodeDecodeError):
                pass
            counts[kind] += 1
        return counts

    @property
    def stats(self) -> dict[str, object]:
        """In-process counters plus the current on-disk footprint.

        ``shape_reuse_ratio`` is the fraction of verified loads served by
        a shape-erased symbolic template rather than a concrete artifact:
        every template hit stands in for what would otherwise be one disk
        entry (and one cold compile) *per distinct shape*, so a high
        ratio means shape-diverse traffic is collapsing as intended.
        """
        with self._lock:
            hits_by_kind = dict(self.hits_by_kind)
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "hits_concrete": hits_by_kind["concrete"],
                "hits_template": hits_by_kind["template"],
                "stores_concrete": self.stores_by_kind["concrete"],
                "stores_template": self.stores_by_kind["template"],
                "store_errors": self.store_errors,
                "corrupt_evicted": self.corrupt_evicted,
                "semantic_evicted": self.semantic_evicted,
                "lru_evicted": self.lru_evicted,
            }
        kind_hits = hits_by_kind["concrete"] + hits_by_kind["template"]
        counters["shape_reuse_ratio"] = (
            hits_by_kind["template"] / kind_hits if kind_hits else 0.0
        )
        by_kind = self.entries_by_kind()
        counters.update(
            {
                "entries": self.entry_count,
                "entries_concrete": by_kind["concrete"],
                "entries_template": by_kind["template"],
                "total_bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "fingerprint": self.fingerprint,
                "root": str(self.root),
            }
        )
        return counters
