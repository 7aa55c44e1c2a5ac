"""The content-addressed sweep cache.

Every sweep cell in this repository is a **pure function of its
payload** — that is the determinism contract the executor's
serial-vs-parallel byte-identity gate enforces — so a cell whose
payload, callable, and *code* are byte-identical to a previously
recorded run must produce the byte-identical result.  The cache turns
that contract into wall clock: re-running an experiment sweep, a
fuzz campaign, or a chaos soak skips every cell the store already
holds.

**Key derivation.**  A cell's key is::

    sha256(code_digest() | fn_module:qualname | canonical_json(payload))

* ``canonical_json(payload)`` recursively canonicalises the payload —
  sorted keys, tagged tuples/dataclasses (class identity included, so
  a ``CpuAdd`` never collides with a ``CpuRemove`` of equal fields).
  A payload containing something canonicalisation refuses (callables,
  sets, non-string dict keys, unknown objects) is **uncacheable**: the
  cell simply runs, it is never mis-keyed.
* ``fn_module:qualname`` must name ``fn`` itself — the rule pickle
  uses to send a function by reference.  Closures, lambdas, partials
  and callable instances fail it (two closures from one factory share
  a qualname but not a result), so their cells run uncached too.
* ``code_digest()`` hashes **every** ``.py`` file of the installed
  ``repro`` package, plus every ``REPRO_*`` environment variable that
  can steer a run (SIMSAN on/off, plant backdoors, …) and the
  interpreter tag (implementation + feature version — entries are
  pickles, and pickle portability across interpreters is not part of
  the contract).  Any source edit or knob flip is therefore a
  whole-store miss: a stale hit silently corrupts the byte-identity
  the rest of the system is built on, so the key only ever errs
  towards *misses*.

**Store layout.**  Append-only and content-addressed:
``<root>/objects/<key[:2]>/<key>.bin``, one immutable entry per key,
written atomically (temp file + rename) so a crashed writer can never
publish a half-entry under the final name.  Entries are never mutated
or rewritten; a ``put`` for an existing key is a no-op.  Each entry is
``magic | sha256(blob) | pickled blob``; a read that fails the
checksum (torn by an unclean filesystem, truncated by hand) is treated
as a **miss with a warning** and the bad entry is removed so the next
write heals it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: Entry header magic; bump when the entry layout changes.
_MAGIC = b"RSC1"

#: Environment variables that configure the cache itself and therefore
#: must not participate in key derivation.
_KEY_IRRELEVANT_ENV = ("REPRO_CACHE_DIR",)

#: Interpreter identity folded into every key: entries are pickles, and
#: a blob written by one implementation/feature-version pair is not
#: guaranteed to load (or to mean the same thing) under another.
_INTERP_TAG = "{}-{}.{}".format(
    sys.implementation.name, sys.version_info[0], sys.version_info[1]
)

#: Default store location when neither the plan nor the CLI names one.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The store root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    # Host-side cache placement only: never read inside a simulation.
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)  # simlint: disable=SL103


# --- canonical payload form -------------------------------------------------


def _jsonable(obj: Any) -> Any:
    """Recursively canonicalise a payload; raises TypeError if unsafe.

    Tuples and dataclasses are tagged (a ``(1, 2)`` payload must not
    collide with ``[1, 2]``, nor two different dataclass types with
    equal fields); anything whose identity or ordering the JSON form
    cannot capture faithfully (sets, non-string dict keys, arbitrary
    objects) is refused, which makes the payload uncacheable rather
    than wrongly cacheable.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, list):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, tuple):
        return {"__tuple__": [_jsonable(x) for x in obj]}
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)
            },
        }
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("non-string dict keys are not cacheable")
        return {k: _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"payload of type {type(obj).__name__} is not cacheable")


def canonical_payload(payload: Any) -> Optional[bytes]:
    """Canonical bytes for a payload, or None when uncacheable."""
    try:
        return json.dumps(
            _jsonable(payload), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError):
        return None


# --- code digest ------------------------------------------------------------

#: Per-process memo of the source-tree hash (the expensive part).
_CODE_DIGEST: Optional[str] = None


def _digest_tree(root: str) -> "hashlib._Hash":
    """Content hash of every .py file under ``root`` (path-labelled)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest


def code_digest() -> str:
    """Digest of the whole ``repro`` source tree plus key context.

    The source-tree hash is computed once per process (hashing ~150
    files costs milliseconds; doing it per cell would not); the
    interpreter tag and ``REPRO_*`` environment overlay are folded in
    per call, so a knob flipped mid-process — a test harness toggling
    SIMSAN — changes the key immediately.  Any source edit or knob
    change forces a whole-store miss — the invalidation rule is "same
    bytes of code, same knobs, or no hit at all".
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        import repro

        _CODE_DIGEST = _digest_tree(
            os.path.dirname(os.path.abspath(repro.__file__))
        ).hexdigest()
    digest = hashlib.sha256(_CODE_DIGEST.encode("utf-8"))
    digest.update(_INTERP_TAG.encode("utf-8"))
    digest.update(b"\0")
    # Host-side key derivation, not simulation behaviour: the env is
    # hashed so a knob flip can never alias a cache entry.
    for key in sorted(os.environ):  # simlint: disable=SL103
        if key.startswith("REPRO_") and key not in _KEY_IRRELEVANT_ENV:
            value = os.environ[key]  # simlint: disable=SL103
            digest.update(f"{key}={value}".encode("utf-8"))
            digest.update(b"\0")
    return digest.hexdigest()


def _fn_ref(fn: Callable[[Any], Any]) -> Optional[str]:
    """``module:qualname`` when that names ``fn`` itself, else None.

    Walking the qualname from ``sys.modules`` is how pickle sends a
    function by reference; anything it does not lead back to (a closure,
    a lambda, a partial, a callable instance) has no stable name.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not isinstance(module, str) or not isinstance(qualname, str):
        return None
    obj: Any = sys.modules.get(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return f"{module}:{qualname}" if obj is fn else None


def _warn_stderr(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# --- the store --------------------------------------------------------------


class SweepCache:
    """Append-only on-disk store of sweep cell results.

    One instance's ``hits``/``misses``/``errors``/``puts`` counters
    cover its lifetime (an Executor surfaces per-run deltas through
    :class:`~repro.parallel.executor.SweepStats`).
    """

    def __init__(self, root: Optional[str] = None,
                 warn: Callable[[str], None] = _warn_stderr):
        self.root = root if root is not None else default_cache_dir()
        self._warn = warn
        self.hits = 0
        self.misses = 0
        #: Corrupt/torn entries read (each also counts a miss), plus
        #: entries the store could not write.
        self.errors = 0
        self.puts = 0

    def key_for(self, fn: Callable[[Any], Any], payload: Any) -> Optional[str]:
        """The cell's content address, or None when uncacheable."""
        ref = _fn_ref(fn)
        canonical = canonical_payload(payload)
        if ref is None or canonical is None:
            return None
        digest = hashlib.sha256()
        digest.update(code_digest().encode("utf-8"))
        digest.update(b"\0")
        digest.update(ref.encode("utf-8"))
        digest.update(b"\0")
        digest.update(canonical)
        return digest.hexdigest()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.bin")

    def get(self, key: str) -> Tuple[bool, Any]:
        """(hit, value).  Corruption is a miss with a warning, never
        an exception: the entry is dropped and the cell re-runs."""
        path = self._entry_path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            # No entry at this path; a root that cannot hold one (it
            # lies beneath a regular file) warns once, from put.
            self.misses += 1
            return False, None
        except OSError as exc:  # pragma: no cover - unreadable store
            self._warn(f"cache entry {path} unreadable ({exc}); treating as miss")
            self.errors += 1
            self.misses += 1
            return False, None
        try:
            if data[:4] != _MAGIC:
                raise ValueError("bad magic")
            checksum, blob = data[4:36], data[36:]
            if hashlib.sha256(blob).digest() != checksum:
                raise ValueError("checksum mismatch")
            value = pickle.loads(blob)
        except Exception as exc:
            self._warn(
                f"cache entry {path} is corrupt ({exc}); treating as a miss"
                " and removing it"
            )
            self.errors += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced another process
                pass
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Record one result; no-op if the key already exists.

        The entry is written to a temp file in the final directory and
        published with an atomic rename, so concurrent writers of the
        same key race benignly and readers never observe a torn entry
        under the final name.  An unpicklable value, or a store that
        cannot be written (``OSError``: a read-only or full disk, a root
        beneath a regular file), is skipped with a warning — the sweep
        already returned the value inline, only the reuse is lost.
        """
        path = self._entry_path(key)
        if os.path.exists(path):
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self._warn(f"cache: result not picklable ({exc!r}); not stored")
            return
        directory = os.path.dirname(path)
        tmp = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(hashlib.sha256(blob).digest())
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:  # pragma: no cover - already renamed
                    pass
            if not isinstance(exc, OSError):
                raise
            self._warn(f"cache entry {path} not written ({exc}); not stored")
            self.errors += 1
            return
        self.puts += 1

    def stats_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "puts": self.puts,
        }
