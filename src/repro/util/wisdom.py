"""FFTW-style "wisdom" persistence for tuned execution parameters.

Sec. 4.3.2: *"we take the strategy of FFTW and determine the values of
n_blk, C_blk and C'_blk as well as how many threads to use per core
empirically for each particular layer shape.  Determining optimal values
of the parameters takes a relatively small amount of time and allows for
saving the optimal parameters in a wisdom file."*

A wisdom file is a JSON mapping from a canonical layer-shape key to the
chosen :class:`WisdomEntry`.  Corrupt or partially-written files are
rejected loudly rather than silently ignored.

Format version 2 adds a per-machine section on top of the version-1
blocking entries (which load unchanged): **algorithm choices**
(:class:`AlgoWisdomEntry`) -- the winner of the engine's
algorithm-portfolio stage per layer signature, namespaced by
:meth:`~repro.machine.spec.MachineSpec.fingerprint` so a choice measured
on one machine is never replayed on another, and stamped with
:data:`ALGO_SCHEMA_VERSION` so entries written by an older scheme are
*dropped on load* (counted in :attr:`Wisdom.stale_dropped`) rather than
crashing or silently winning.  Files that still carry the retired
``calibration`` section load; the section is ignored.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Schema of the per-machine algorithm-choice entries.  Bump when the
#: decision semantics change (e.g. different probe protocol) so stale
#: recorded winners are re-derived instead of trusted.  Version 2 keys
#: decisions by the batch-free layer signature
#: (:func:`repro.core.portfolio.portfolio_key`), so version-1 entries,
#: keyed with the batch, are dropped.
ALGO_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class WisdomEntry:
    """Tuned parameters for one layer shape (paper Sec. 4.3.2).

    Attributes
    ----------
    n_blk:
        Row-block size of the tall-skinny GEMM; ``6 <= n_blk <= 30``.
    c_blk, cprime_blk:
        Cache-block sizes along the input/output channel dimensions.
        Multiples of the SIMD width with ``c_blk * cprime_blk <= 128**2``.
    threads_per_core:
        Hardware threads used per physical core (1, 2 or 4 on KNL).
    predicted_time:
        The model/benchmark time (seconds) that selected this entry.
    """

    n_blk: int
    c_blk: int
    cprime_blk: int
    threads_per_core: int
    predicted_time: float

    def __post_init__(self) -> None:
        if not 1 <= self.threads_per_core <= 4:
            raise ValueError(f"threads_per_core must be in [1,4], got {self.threads_per_core}")
        if self.n_blk < 1:
            raise ValueError(f"n_blk must be positive, got {self.n_blk}")
        if self.c_blk < 1 or self.cprime_blk < 1:
            raise ValueError("block sizes must be positive")


@dataclass(frozen=True)
class AlgoWisdomEntry:
    """The recorded winner of one probed algorithm-portfolio decision.

    Attributes
    ----------
    algorithm:
        Winning algorithm name (``winograd``/``fft``/``direct``/``im2col``).
    predicted:
        Model predictions, seconds on the modeled machine, per candidate
        considered -- shown beside the measurements, not scaled to them.
    measured:
        Probe measurements, host seconds, per candidate probed.
    schema:
        :data:`ALGO_SCHEMA_VERSION` at write time; mismatching entries
        are dropped on load.
    """

    algorithm: str
    predicted: dict[str, float] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)
    schema: int = ALGO_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise ValueError("algorithm must be a non-empty string")


class Wisdom:
    """A persistent store of tuned parameters keyed by layer shape.

    Safe for concurrent use: mutation and snapshotting are guarded by an
    internal lock, so serving threads can tune and record entries while
    another thread persists the store.
    """

    FORMAT_VERSION = 2
    #: Versions :meth:`load` accepts.  Version-1 files simply lack the
    #: per-machine algorithm section.
    READABLE_VERSIONS = (1, 2)

    def __init__(self) -> None:
        self._entries: dict[str, WisdomEntry] = {}
        #: machine fingerprint -> layer key -> algorithm choice.
        self._algos: dict[str, dict[str, AlgoWisdomEntry]] = {}
        #: Entries discarded on load because their schema version did not
        #: match :data:`ALGO_SCHEMA_VERSION` (stale-wisdom hazard).
        self.stale_dropped = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> WisdomEntry | None:
        """Return the stored entry for ``key``, or ``None``."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, entry: WisdomEntry) -> None:
        """Store (or replace) the entry for ``key``."""
        if not key:
            raise ValueError("wisdom key must be a non-empty string")
        with self._lock:
            self._entries[key] = entry

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    # -- per-machine algorithm choices ---------------------------------
    def algo_get(self, fingerprint: str, key: str) -> AlgoWisdomEntry | None:
        """Recorded portfolio winner for ``key`` on machine ``fingerprint``.

        Entries recorded under a *different* fingerprint are invisible by
        construction (the namespace is part of the lookup), and entries
        with a stale schema never survive :meth:`load`, so a hit is
        always safe to trust.
        """
        with self._lock:
            return self._algos.get(fingerprint, {}).get(key)

    def algo_put(self, fingerprint: str, key: str, entry: AlgoWisdomEntry) -> None:
        if not fingerprint or not key:
            raise ValueError("fingerprint and key must be non-empty strings")
        with self._lock:
            self._algos.setdefault(fingerprint, {})[key] = entry

    def algo_keys(self, fingerprint: str) -> list[str]:
        with self._lock:
            return sorted(self._algos.get(fingerprint, {}))

    def summary(self) -> dict:
        """Introspection snapshot for hygiene tooling (``repro wisdom``).

        Per-fingerprint algorithm-decision counts (with the algorithms'
        tallies), blocking-entry count and the dropped-stale counter --
        everything needed to debug a multi-profile wisdom file without
        reading its JSON by hand.
        """
        with self._lock:
            fingerprints = {}
            for fp, bucket in sorted(self._algos.items()):
                algos: dict[str, int] = {}
                for entry in bucket.values():
                    algos[entry.algorithm] = algos.get(entry.algorithm, 0) + 1
                fingerprints[fp] = {
                    "entries": len(bucket),
                    "algorithms": dict(sorted(algos.items())),
                }
            return {
                "blocking_entries": len(self._entries),
                "algo_entries": sum(len(d) for d in self._algos.values()),
                "stale_dropped": self.stale_dropped,
                "fingerprints": fingerprints,
            }

    @property
    def algo_count(self) -> int:
        with self._lock:
            return sum(len(d) for d in self._algos.values())

    def save(self, path: str | Path) -> None:
        """Write the wisdom store to ``path`` as JSON (atomic rename)."""
        path = Path(path)
        with self._lock:
            snapshot = {k: asdict(v) for k, v in self._entries.items()}
            algos = {
                fp: {k: asdict(v) for k, v in d.items()}
                for fp, d in self._algos.items()
                if d
            }
        payload: dict[str, object] = {
            "version": self.FORMAT_VERSION,
            "entries": snapshot,
        }
        if algos:
            payload["algos"] = algos
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(path)

    @classmethod
    def load(cls, path: str | Path) -> "Wisdom":
        """Load wisdom from ``path``; raises ``ValueError`` on corruption.

        Blocking entries are validated strictly (a corrupt entry fails
        the whole load: those feed executors directly).  Per-machine
        algorithm entries degrade instead: an entry whose ``schema`` does
        not match :data:`ALGO_SCHEMA_VERSION` -- or that does not parse
        at all -- is *dropped* and counted in :attr:`stale_dropped`,
        because a stale recorded winner must neither crash the engine nor
        silently beat a fresh decision.  Any other section (such as a
        retired ``calibration``) is ignored.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt wisdom file {path}: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("version") not in cls.READABLE_VERSIONS
        ):
            raise ValueError(f"unsupported wisdom file format in {path}")
        wisdom = cls()
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(f"corrupt wisdom file {path}: 'entries' is not a mapping")
        for key, raw in entries.items():
            try:
                wisdom.put(key, WisdomEntry(**raw))
            except TypeError as exc:
                raise ValueError(f"corrupt wisdom entry {key!r} in {path}: {exc}") from exc
        algos = payload.get("algos", {})
        if not isinstance(algos, dict):
            raise ValueError(f"corrupt wisdom file {path}: 'algos' is not a mapping")
        for fp, bucket in algos.items():
            if not isinstance(bucket, dict):
                wisdom.stale_dropped += 1
                continue
            for key, raw in bucket.items():
                try:
                    entry = AlgoWisdomEntry(**raw)
                except (TypeError, ValueError):
                    wisdom.stale_dropped += 1
                    continue
                if entry.schema != ALGO_SCHEMA_VERSION:
                    wisdom.stale_dropped += 1
                    continue
                wisdom.algo_put(fp, key, entry)
        return wisdom
