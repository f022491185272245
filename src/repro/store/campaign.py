"""The content-addressed, immutable campaign store.

Every consumer of campaign results — the regression gate, fault triage,
the fuzz corpus, telemetry tooling — reads one on-disk layout:

.. code-block:: text

    <root>/
      objects/<config_hash>.json        # immutable cell results
      manifests/<campaign_id>.<seq>.json  # append-only snapshot manifests
      artifacts/<kind>/<hash>.json      # corpus artifacts (counterexamples, triage)

*Objects* are completed campaign cells named by their config hash
(:meth:`repro.sweep.grid.CellSpec.config_hash`) — a content address over
the cell's full configuration, so a cell computed by any worker, host or
backend lands at the same path with the same bytes and a second writer is
simply a no-op.  Objects are never rewritten.

*Manifests* are Iceberg-style snapshots: each commit is a new, atomically
written file carrying the campaign id, the grid, the schema version and
the full cell-hash list with its completed subset.  Commits only append
(sequence numbers grow; nothing is edited in place), so a reader always
sees either the previous snapshot or the next one, never a torn state —
and a campaign killed mid-run leaves a valid partial manifest plus its
completed objects, from which the engine resumes by recomputing only the
missing cells.

This is the only place a campaign result is written to or read from, and
the package is a leaf: it owns the cell-object schema stamp
(:data:`SWEEP_FORMAT_VERSION`) and the durable write primitive
(:func:`atomic_write_text`), and imports nothing from :mod:`repro.sweep`
at module level.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

#: The cell-object schema version.  Bump when the cell runner's semantics
#: change in a way that invalidates previously stored results: it is folded
#: into every config hash (a bump renames every object) and stamped into
#: every object (a stale one is rejected).  Version 2: cells run through
#: the unified workload harness (probe-based metrics, http/longlived
#: experiments).  Version 3: cells that join a subflow store their
#: SYN→MP_JOIN delays (``mp_join_samples``, ``join_delay_us_*``).
#: Version 4: cells on multi-path scenarios store ``paths_used``.
#: Version 5: a finished connection closes (a repeated DATA_FIN is acked
#: again, and every subflow closes once both DATA_FINs are settled).
#: Version 6: a chunk is never cut to fit a window (sender silly-window
#: avoidance), so bulk cells send whole segments.
SWEEP_FORMAT_VERSION = 6

#: Bump when the manifest schema changes incompatibly.
MANIFEST_FORMAT_VERSION = 1


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entry table to disk (POSIX; no-op elsewhere).

    After a rename or link the *file* contents are durable but the new
    name itself lives in the directory, which has its own write-back cache.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        # Windows (and some exotic filesystems) cannot open directories;
        # the rename is still atomic, just not crash-durable.
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _write_durable_temp(directory: str, text: str) -> str:
    """Write ``text`` to a fsynced temp file in ``directory``; returns its path."""
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        _unlink_quietly(tmp_path)
        raise
    return tmp_path


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    The temp file is fsynced before the rename and the directory after it,
    so an interrupted write never leaves a truncated file behind and a
    crash never surfaces an empty-but-renamed one.  Concurrent writers of
    the same path simply race to a complete file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = _write_durable_temp(directory, text)
    try:
        os.replace(tmp_path, path)
    except BaseException:
        _unlink_quietly(tmp_path)
        raise
    _fsync_directory(directory)


def _canonical(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Mapping) -> str:
    """The sha256 content address of a JSON-serialisable payload."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def campaign_id_for(name: str, campaign_seed: int, cell_hashes: Sequence[str]) -> str:
    """The stable identity of a planned campaign.

    Derived from the campaign name, seed, schema version and the full
    cell-hash list — so the same grid planned anywhere, by any backend,
    resumes the same manifest chain.
    """
    return content_hash(
        {
            "name": name,
            "campaign_seed": int(campaign_seed),
            "sweep_format_version": SWEEP_FORMAT_VERSION,
            "cells": list(cell_hashes),
        }
    )[:16]


@dataclass
class Manifest:
    """One snapshot of a campaign: its plan and what has completed.

    The serialised form is deterministic (key-sorted JSON, no timestamps,
    no completion-order information), so the final manifest of a campaign
    is byte-identical regardless of which backend ran it, at any worker
    count.  ``sequence`` lives in the filename only — it counts commits,
    which legitimately differ between runs.
    """

    campaign_id: str
    name: str
    campaign_seed: int
    cells: tuple[str, ...]
    completed: tuple[str, ...] = ()
    complete: bool = False
    grid: Optional[dict] = None
    sweep_format_version: int = SWEEP_FORMAT_VERSION
    sequence: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        self.cells = tuple(self.cells)
        self.completed = tuple(self.completed)
        unknown = set(self.completed) - set(self.cells)
        if unknown:
            raise ValueError(
                f"manifest marks {len(unknown)} cell(s) complete that are not in the plan"
            )

    @property
    def missing(self) -> tuple[str, ...]:
        """The planned cell hashes not yet completed, in plan order."""
        done = set(self.completed)
        return tuple(cell for cell in self.cells if cell not in done)

    def to_json(self) -> str:
        """The byte-stable committed form (CI's comparison surface)."""
        payload = {
            "manifest_format_version": MANIFEST_FORMAT_VERSION,
            "campaign_id": self.campaign_id,
            "name": self.name,
            "campaign_seed": self.campaign_seed,
            "sweep_format_version": self.sweep_format_version,
            "cells": list(self.cells),
            "completed": list(self.completed),
            "complete": self.complete,
            "grid": self.grid,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_payload(cls, payload: Mapping, sequence: int = -1) -> "Manifest":
        """Parse a committed manifest, checking the schema version."""
        version = payload.get("manifest_format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"unsupported manifest format version {version!r} "
                f"(expected {MANIFEST_FORMAT_VERSION})"
            )
        return cls(
            campaign_id=str(payload["campaign_id"]),
            name=str(payload["name"]),
            campaign_seed=int(payload["campaign_seed"]),
            cells=tuple(payload["cells"]),
            completed=tuple(payload.get("completed", ())),
            complete=bool(payload.get("complete", False)),
            grid=payload.get("grid"),
            sweep_format_version=int(
                payload.get("sweep_format_version", SWEEP_FORMAT_VERSION)
            ),
            sequence=sequence,
        )


class CampaignStore:
    """A directory of immutable campaign objects plus snapshot manifests.

    Opening a store creates nothing; directories appear lazily on first
    write, so opening one just to read it is side-effect free.
    """

    def __init__(self, root: str) -> None:
        #: The backing directory.
        self.root = os.path.abspath(root)

    # -- cell objects ---------------------------------------------------
    @property
    def objects_dir(self) -> str:
        """Where immutable cell objects live."""
        return os.path.join(self.root, "objects")

    def _object_path(self, config_hash: str) -> str:
        return os.path.join(self.objects_dir, f"{config_hash}.json")

    def has_cell(self, config_hash: str) -> bool:
        """Whether a valid object exists for this hash."""
        return self.get_cell(config_hash) is not None

    def get_cell(self, config_hash: str) -> Optional[dict]:
        """The stored entry for ``config_hash``, or ``None``.

        This is the one definition of a valid stored cell: the object
        parses as a JSON object, is stamped with the current
        ``sweep_format_version`` (objects are always written stamped, so a
        missing or mismatched stamp means foreign or stale either way) and
        carries a ``result``.  Anything else is a miss — the engine
        recomputes the cell rather than passing a damaged or stale-schema
        payload downstream, and :meth:`put_cell` lets the recomputed cell
        replace it.
        """
        entry = self._read_json(self._object_path(config_hash))
        if (
            entry is None
            or entry.get("sweep_format_version") != SWEEP_FORMAT_VERSION
            or "result" not in entry
        ):
            return None
        return entry

    @staticmethod
    def _read_json(path: str) -> Optional[dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return entry if isinstance(entry, dict) else None

    def put_cell(self, config_hash: str, entry: Mapping) -> bool:
        """Store a cell object; returns ``False`` if it already exists.

        Objects are immutable: the first complete write wins and every
        later writer of the same hash is a no-op, which is what lets any
        number of workers — in-process, subprocesses, other hosts — share
        one store without coordination.  The one exception is an object
        :meth:`get_cell` rejects (torn write, manual truncation, stale
        stamp, no result): it reads as a miss, so the recomputed cell must
        be allowed to heal it.
        """
        if self.get_cell(config_hash) is not None:
            return False
        path = self._object_path(config_hash)
        payload = dict(entry)
        payload.setdefault("sweep_format_version", SWEEP_FORMAT_VERSION)
        os.makedirs(self.objects_dir, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, sort_keys=True))
        return True

    def object_hashes(self) -> list[str]:
        """Every object hash in the store, sorted."""
        try:
            names = os.listdir(self.objects_dir)
        except OSError:
            return []
        return sorted(name[:-5] for name in names if name.endswith(".json"))

    def missing_cells(self, config_hashes: Iterable[str]) -> list[str]:
        """The subset of ``config_hashes`` with no readable entry."""
        return [config_hash for config_hash in config_hashes if not self.has_cell(config_hash)]

    def __len__(self) -> int:
        return len(self.object_hashes())

    # -- manifests ------------------------------------------------------
    @property
    def manifests_dir(self) -> str:
        """Where snapshot manifests live."""
        return os.path.join(self.root, "manifests")

    def _manifest_files(self, campaign_id: str) -> list[tuple[int, str]]:
        """``(sequence, path)`` pairs for a campaign, in commit order."""
        prefix = f"{campaign_id}."
        entries: list[tuple[int, str]] = []
        try:
            names = os.listdir(self.manifests_dir)
        except OSError:
            return []
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".json")):
                continue
            seq_text = name[len(prefix):-5]
            if seq_text.isdigit():
                entries.append((int(seq_text), os.path.join(self.manifests_dir, name)))
        return sorted(entries)

    def commit_manifest(self, manifest: Manifest) -> int:
        """Append one snapshot commit; returns its sequence number.

        Commits never overwrite: the fsynced temp file is published under
        the next sequence number with an exclusive hard link, so readers
        see either the previous snapshot or this one, and a concurrent
        writer that claimed the same number first just pushes this commit
        to the one after it.
        """
        existing = self._manifest_files(manifest.campaign_id)
        sequence = existing[-1][0] + 1 if existing else 0
        os.makedirs(self.manifests_dir, exist_ok=True)
        tmp_path = _write_durable_temp(self.manifests_dir, manifest.to_json())
        try:
            while True:
                path = os.path.join(
                    self.manifests_dir, f"{manifest.campaign_id}.{sequence:06d}.json"
                )
                try:
                    os.link(tmp_path, path)
                    break
                except FileExistsError:
                    sequence += 1
        finally:
            _unlink_quietly(tmp_path)
        _fsync_directory(self.manifests_dir)
        manifest.sequence = sequence
        return sequence

    def commit_manifest_if_changed(self, manifest: Manifest) -> Optional[int]:
        """Commit unless the latest snapshot already has these exact bytes."""
        latest = self.latest_manifest(manifest.campaign_id)
        if latest is not None and latest.to_json() == manifest.to_json():
            manifest.sequence = latest.sequence
            return None
        return self.commit_manifest(manifest)

    def manifests(self, campaign_id: str) -> list[Manifest]:
        """Every readable snapshot of a campaign, in commit order."""
        loaded = []
        for sequence, path in self._manifest_files(campaign_id):
            payload = self._read_json(path)
            if payload is not None:
                loaded.append(Manifest.from_payload(payload, sequence=sequence))
        return loaded

    def latest_manifest(self, campaign_id: str) -> Optional[Manifest]:
        """The most recent readable snapshot of a campaign, or ``None``."""
        for sequence, path in reversed(self._manifest_files(campaign_id)):
            payload = self._read_json(path)
            if payload is not None:
                return Manifest.from_payload(payload, sequence=sequence)
        return None

    def campaign_ids(self) -> list[str]:
        """Every campaign with at least one committed manifest, sorted."""
        try:
            names = os.listdir(self.manifests_dir)
        except OSError:
            return []
        ids = {name.split(".", 1)[0] for name in names if name.endswith(".json")}
        return sorted(ids)

    # -- artifact corpus ------------------------------------------------
    @property
    def artifacts_dir(self) -> str:
        """Where corpus artifacts live, one subdirectory per kind."""
        return os.path.join(self.root, "artifacts")

    def put_artifact(self, kind: str, payload: Mapping) -> str:
        """Store a content-addressed corpus artifact; returns its hash.

        Used for fuzz counterexamples and triage reports: identical
        payloads deduplicate to one object, so re-running a shrink that
        converges to the same minimal plan grows nothing.
        """
        artifact_hash = content_hash(payload)
        directory = os.path.join(self.artifacts_dir, kind)
        path = os.path.join(directory, f"{artifact_hash}.json")
        if not os.path.exists(path):
            os.makedirs(directory, exist_ok=True)
            atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return artifact_hash

    def get_artifact(self, kind: str, artifact_hash: str) -> Optional[dict]:
        """Load one corpus artifact, or ``None``."""
        return self._read_json(
            os.path.join(self.artifacts_dir, kind, f"{artifact_hash}.json")
        )

    def artifact_hashes(self, kind: str) -> list[str]:
        """Every artifact hash of a kind, sorted."""
        try:
            names = os.listdir(os.path.join(self.artifacts_dir, kind))
        except OSError:
            return []
        return sorted(name[:-5] for name in names if name.endswith(".json"))

    def artifact_kinds(self) -> list[str]:
        """Every artifact kind with at least one entry, sorted."""
        try:
            names = os.listdir(self.artifacts_dir)
        except OSError:
            return []
        return sorted(
            name for name in names if os.path.isdir(os.path.join(self.artifacts_dir, name))
        )

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        """Object/manifest/artifact counts and sizes (the ``store stats`` view)."""
        object_hashes = self.object_hashes()
        object_bytes = 0
        for config_hash in object_hashes:
            try:
                object_bytes += os.path.getsize(self._object_path(config_hash))
            except OSError:
                pass
        manifest_count = 0
        campaigns = self.campaign_ids()
        for campaign in campaigns:
            manifest_count += len(self._manifest_files(campaign))
        return {
            "root": self.root,
            "objects": len(object_hashes),
            "object_bytes": object_bytes,
            "campaigns": len(campaigns),
            "campaign_ids": campaigns,
            "manifests": manifest_count,
            "artifacts": {
                kind: len(self.artifact_hashes(kind)) for kind in self.artifact_kinds()
            },
        }

    def verify_objects(self) -> list[str]:
        """Check every object parses, is current-schema, and matches its name.

        Returns human-readable problem descriptions (empty when clean).
        The name check recomputes each object's config hash from its
        stored spec and campaign seed — a corrupted or misfiled object
        cannot masquerade as another cell.
        """
        from repro.sweep.grid import CellSpec

        problems: list[str] = []
        for config_hash in self.object_hashes():
            entry = self._read_json(self._object_path(config_hash))
            if entry is None:
                problems.append(f"{config_hash}: unreadable or not a JSON object")
                continue
            if entry.get("sweep_format_version") != SWEEP_FORMAT_VERSION:
                problems.append(
                    f"{config_hash}: sweep_format_version "
                    f"{entry.get('sweep_format_version')!r} != {SWEEP_FORMAT_VERSION}"
                )
                continue
            if "result" not in entry or "spec" not in entry or "campaign_seed" not in entry:
                problems.append(f"{config_hash}: missing spec/campaign_seed/result")
                continue
            try:
                recomputed = CellSpec.from_dict(entry["spec"]).config_hash(
                    int(entry["campaign_seed"])
                )
            except (KeyError, TypeError, ValueError) as error:
                problems.append(f"{config_hash}: spec does not parse ({error})")
                continue
            if recomputed != config_hash:
                problems.append(
                    f"{config_hash}: content address mismatch (spec hashes to {recomputed})"
                )
        return problems
