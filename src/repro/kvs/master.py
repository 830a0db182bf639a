"""The KVS master: authoritative store and commit engine.

One master lives at the root of the CMB tree ("all updates are applied
first on the master node at the root").  It owns the authoritative
object store, the current root SHA1 reference, and the monotonically
increasing root *version* that the consistency protocol hangs off.

Fence bookkeeping also lives here: a named fence of ``nprocs``
participants accumulates (key, SHA1) tuples and content objects until
all contributions arrive, then applies them as a single commit.

The multi-master extension reuses this same engine in two more roles:

- **delegate master** — an interior broker that was delegated a
  directory subtree instantiates its own :class:`KvsMaster` for that
  namespace (own root ref, own version sequence, own fences);
- **standby replica** — the root master streams each commit as a
  :class:`CommitRecord`; a standby applies records in version order
  via :meth:`apply_record` and can be promoted wholesale on failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hashtree import apply_updates, lookup_ref
from .store import EMPTY_DIR_SHA, ObjectStore, dir_entries, is_dir_obj

__all__ = ["CommitRecord", "CommitResult", "FenceState", "KvsMaster"]


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one master commit: the new root reference/version."""

    root_sha: str
    version: int


@dataclass(frozen=True)
class CommitRecord:
    """One entry of the replicated commit log.

    Carries everything a standby needs to reproduce the commit's
    outcome state: the resulting version/root and the objects the
    commit *newly introduced* (ingested values plus rebuilt
    directories).  ``fence`` names the fence this commit completed, if
    any, so a promoted standby can seed its completed-fence digest.
    """

    version: int
    root_sha: str
    objs: dict
    fence: Optional[str] = None

    def to_wire(self) -> dict:
        """Wire form streamed to replicas."""
        out = {"v": self.version, "root": self.root_sha, "objs": self.objs}
        if self.fence is not None:
            out["fence"] = self.fence
        return out

    @classmethod
    def from_wire(cls, p: dict) -> "CommitRecord":
        return cls(version=p["v"], root_sha=p["root"], objs=p["objs"],
                   fence=p.get("fence"))


@dataclass
class FenceState:
    """Accumulator for one named fence at the master.

    ``objs`` is only populated by :meth:`KvsMaster.fence_add_logged`
    (replicated masters): the completing commit's record must carry
    every object any contribution brought, and the store journal only
    captures objects that were new to the store.
    """

    name: str
    nprocs: int
    count: int = 0
    ops: list = field(default_factory=list)
    objs: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True once every participant's contribution has arrived."""
        return self.count >= self.nprocs


class KvsMaster:
    """Authoritative KVS state for one namespace (root or delegated).

    ``start_version`` seeds the version sequence: a delegate master
    adopted mid-session starts at the version its namespace last held,
    keeping per-namespace versions monotonic across ownership moves.
    """

    def __init__(self, start_version: int = 0):
        self.store = ObjectStore()
        self.root_sha: str = EMPTY_DIR_SHA
        self.version: int = start_version
        self._fences: dict[str, FenceState] = {}
        self.commits: int = 0

    # ------------------------------------------------------------------
    def ingest_objects(self, objs: dict[str, dict]) -> None:
        """Accept content objects flushed from below."""
        self.store.put_many(objs)

    def commit(self, ops: list[tuple[str, Optional[str]]]) -> CommitResult:
        """Apply ``(key, val_sha)`` bindings; returns new root + version.

        Every commit produces a fresh root SHA1 and bumps the version
        even when the resulting tree is unchanged, keeping version
        numbers a reliable happens-before token.
        """
        for _key, sha in ops:
            if sha is not None and sha not in self.store:
                raise KeyError(f"commit references unknown object {sha}")
        self.root_sha = apply_updates(self.store,
                                      self.root_sha,
                                      [(k, s) for k, s in ops])
        self.version += 1
        self.commits += 1
        return CommitResult(self.root_sha, self.version)

    # ------------------------------------------------------------------
    def fence_add(self, name: str, nprocs: int, count: int,
                  ops: list[tuple[str, Optional[str]]],
                  objs: dict[str, dict]) -> Optional[CommitResult]:
        """Fold one (possibly pre-aggregated) fence contribution in.

        Returns the commit result once the fence completes, else None.
        A completed fence name can be reused afterwards (KAP re-fences
        every iteration).
        """
        st = self._fences.get(name)
        if st is None:
            st = self._fences[name] = FenceState(name, nprocs)
        elif st.nprocs != nprocs:
            raise ValueError(
                f"fence {name!r}: inconsistent nprocs "
                f"({st.nprocs} vs {nprocs})")
        self.ingest_objects(objs)
        st.ops.extend(ops)
        st.count += count
        if not st.complete:
            return None
        del self._fences[name]
        return self.commit(st.ops)

    # ------------------------------------------------------------------
    # replicated commit log (multi-master extension)
    # ------------------------------------------------------------------
    def commit_logged(self, ops: list[tuple[str, Optional[str]]],
                      objs: dict[str, dict]
                      ) -> tuple[CommitResult, CommitRecord]:
        """Ingest ``objs`` and apply ``ops`` as one commit, capturing a
        :class:`CommitRecord` of exactly the objects the commit newly
        stored (for streaming to standby replicas)."""
        self.store.begin_journal()
        try:
            self.ingest_objects(objs)
            res = self.commit(ops)
        finally:
            captured = self.store.end_journal()
        return res, CommitRecord(res.version, res.root_sha, captured)

    def fence_add_logged(self, name: str, nprocs: int, count: int,
                         ops: list[tuple[str, Optional[str]]],
                         objs: dict[str, dict]
                         ) -> tuple[Optional[CommitResult],
                                    Optional[CommitRecord]]:
        """:meth:`fence_add` with commit-log capture: returns
        ``(result, record)`` once the fence completes, else
        ``(None, None)``.

        Accumulates every contribution's objects on the fence state so
        the completing record is self-contained (the journal alone
        would miss objects already stored by earlier contributions or
        pre-ingested by the hosting module)."""
        st = self._fences.get(name)
        acc = dict(st.objs) if st is not None else {}
        acc.update(objs)
        self.store.begin_journal()
        try:
            res = self.fence_add(name, nprocs, count, ops, objs)
        finally:
            captured = self.store.end_journal()
        if res is None:
            st = self._fences.get(name)
            if st is not None:
                st.objs = acc
            return None, None
        acc.update(captured)
        return res, CommitRecord(res.version, res.root_sha, acc,
                                 fence=name)

    def apply_record(self, rec: CommitRecord) -> None:
        """Standby side: reproduce a streamed commit's outcome state.

        Records must be applied in version order (the caller buffers
        out-of-order arrivals); a record at or below the current
        version is a duplicate and is ignored.
        """
        if rec.version <= self.version:
            return
        for sha, obj in rec.objs.items():
            self.store.put_with_sha(sha, obj)
        self.root_sha = rec.root_sha
        self.version = rec.version
        self.commits += 1

    def reachable_objects(self, root_sha: Optional[str] = None
                          ) -> dict[str, dict]:
        """Every object reachable from ``root_sha`` (default: the
        current root) — a full-state snapshot for replica resync and
        subtree transfer at delegation/recall time."""
        out: dict[str, dict] = {}
        stack = [root_sha if root_sha is not None else self.root_sha]
        while stack:
            sha = stack.pop()
            if sha in out:
                continue
            obj = self.store.get(sha)
            if obj is None:
                continue
            out[sha] = obj
            if is_dir_obj(obj):
                stack.extend(sorted(dir_entries(obj).values()))
        return out

    # ------------------------------------------------------------------
    # subtree extraction (ownership delegation)
    # ------------------------------------------------------------------
    def subtree_ref(self, prefix: str) -> Optional[str]:
        """SHA1 of the directory at dotted path ``prefix``, or ``None``
        when the path does not resolve to a directory."""
        try:
            sha = lookup_ref(self.store, self.root_sha, prefix)
        except KeyError:
            return None
        obj = self.store.get(sha)
        if obj is None or not is_dir_obj(obj):
            return None
        return sha

    def pending_fences(self) -> list[str]:
        """Names of fences still waiting for contributions."""
        return list(self._fences)

    def reset_incomplete_fences(self) -> None:
        """Forget partial fence contributions (chaos recovery).

        After an overlay failure every live rank re-contributes its
        *cumulative* local fence state under a new fence epoch, so the
        master must restart incomplete counts from zero or the
        re-contributions would double-count.  The fence entries stay
        (preserving the nprocs consistency check); ingested content
        objects stay too — re-ingest is idempotent by SHA1.
        """
        for st in self._fences.values():
            st.count = 0
            st.ops = []
            st.objs = {}
