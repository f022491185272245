"""Tests for the content-addressed campaign store and execution backends.

The store is the durability and distribution layer of the sweep: cell
objects named by config hash, append-only snapshot manifests, resume from
a partial campaign, and the byte-identity contract across execution
backends — the aggregated campaign output must not depend on which
backend ran the cells or how many workers it used.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.grids import named_grid
from repro.store import (
    MANIFEST_FORMAT_VERSION,
    CampaignStore,
    Manifest,
    campaign_id_for,
    content_hash,
)
from repro.sweep import (
    SWEEP_FORMAT_VERSION,
    ProcessPoolBackend,
    SerialBackend,
    SubprocessShardBackend,
    plan_campaign,
    resolve_backend,
    run_campaign,
)
from repro.sweep.backends import run_worker_shard, shard_plan


def tiny_grid(**overrides):
    from repro.sweep import CampaignGrid

    defaults = dict(
        name="tiny",
        campaign_seed=11,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive", "fullmesh"],
        seeds=1,
        params={"transfer_bytes": 40_000, "horizon": 10.0},
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


class TestObjects:
    def test_put_get_roundtrip_stamps_version(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        entry = {"spec": {"a": 1}, "result": {"x": 2.0}}
        assert store.get_cell("h1") is None
        assert store.put_cell("h1", entry)
        loaded = store.get_cell("h1")
        assert loaded["result"] == {"x": 2.0}
        assert loaded["sweep_format_version"] == SWEEP_FORMAT_VERSION
        assert len(store) == 1

    def test_objects_are_immutable(self, tmp_path):
        """A second put of the same hash is a no-op, not an overwrite."""
        store = CampaignStore(str(tmp_path))
        assert store.put_cell("h1", {"result": {"x": 1}})
        assert not store.put_cell("h1", {"result": {"x": 999}})
        assert store.get_cell("h1")["result"] == {"x": 1}

    def test_corrupt_object_is_a_miss(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.put_cell("h1", {"result": {"x": 1}})
        path = os.path.join(store.objects_dir, "h1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert store.get_cell("h1") is None

    def test_truncated_object_is_a_miss(self, tmp_path):
        """A partially written object (e.g. torn by a crash before the
        atomic rename discipline existed) must read as absent."""
        store = CampaignStore(str(tmp_path))
        store.put_cell("h1", {"result": {"x": 1}})
        path = os.path.join(store.objects_dir, "h1.json")
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        assert store.get_cell("h1") is None
        assert store.verify_objects()

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        os.makedirs(store.objects_dir, exist_ok=True)
        with open(os.path.join(store.objects_dir, "h1.json"), "w") as handle:
            json.dump({"result": {"x": 1}, "sweep_format_version": 1}, handle)
        assert store.get_cell("h1") is None

    def test_missing_cells(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.put_cell("h1", {"result": {}})
        assert store.missing_cells(["h1", "h2", "h3"]) == ["h2", "h3"]

    def test_stray_file_at_the_store_root_is_not_a_cell(self, tmp_path):
        """Only ``objects/<hash>.json`` is a cell: there is no second,
        flat layout the store reads through to."""
        (tmp_path / "h1.json").write_text(
            json.dumps({"result": {"x": 1}, "sweep_format_version": SWEEP_FORMAT_VERSION})
        )
        store = CampaignStore(str(tmp_path))
        assert store.get_cell("h1") is None
        assert not store.has_cell("h1")
        assert store.missing_cells(["h1"]) == ["h1"]
        assert len(store) == 0

    @pytest.mark.parametrize(
        "damaged",
        [
            {"spec": {}, "sweep_format_version": SWEEP_FORMAT_VERSION},  # no result
            {"result": {"x": 0}, "sweep_format_version": SWEEP_FORMAT_VERSION - 1},
            {"result": {"x": 0}},  # unstamped
        ],
    )
    def test_every_rejected_object_is_a_miss_everywhere_and_heals(self, tmp_path, damaged):
        """One definition of a valid cell: what ``get_cell`` rejects,
        ``has_cell``/``missing_cells`` report absent and ``put_cell``
        overwrites; what it accepts stays first-write-wins."""
        store = CampaignStore(str(tmp_path))
        os.makedirs(store.objects_dir)
        with open(os.path.join(store.objects_dir, "h1.json"), "w") as handle:
            json.dump(damaged, handle)
        assert store.get_cell("h1") is None
        assert not store.has_cell("h1")
        assert store.missing_cells(["h1"]) == ["h1"]
        assert store.put_cell("h1", {"result": {"x": 1}})
        assert store.get_cell("h1")["result"] == {"x": 1}
        assert not store.put_cell("h1", {"result": {"x": 2}})


class TestLeafPackage:
    """``repro.store`` sits below ``repro.sweep``: either imports alone."""

    @staticmethod
    def run_python(code):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        return subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )

    def test_store_imports_alone_without_pulling_in_the_sweep(self):
        done = self.run_python(
            "import sys, repro.store; "
            "assert 'repro.sweep' not in sys.modules, 'store imported sweep'"
        )
        assert done.returncode == 0, done.stderr

    def test_sweep_imports_alone(self):
        done = self.run_python("import repro.sweep")
        assert done.returncode == 0, done.stderr


class TestManifests:
    def manifest(self, completed=(), complete=False):
        cells = ("h1", "h2")
        return Manifest(
            campaign_id=campaign_id_for("tiny", 11, cells),
            name="tiny",
            campaign_seed=11,
            cells=cells,
            completed=completed,
            complete=complete,
        )

    def test_commits_are_append_only(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        first = self.manifest()
        assert store.commit_manifest(first) == 0
        second = self.manifest(completed=("h1",))
        assert store.commit_manifest(second) == 1
        history = store.manifests(first.campaign_id)
        assert [m.sequence for m in history] == [0, 1]
        assert history[0].completed == ()
        assert store.latest_manifest(first.campaign_id).completed == ("h1",)

    def test_commit_if_changed_skips_identical_snapshots(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        manifest = self.manifest()
        assert store.commit_manifest_if_changed(manifest) == 0
        assert store.commit_manifest_if_changed(self.manifest()) is None
        assert store.commit_manifest_if_changed(self.manifest(completed=("h1",))) == 1

    def test_racing_commit_takes_the_next_sequence(self, tmp_path, monkeypatch):
        """Two writers that list the directory at the same moment pick the
        same sequence number; the loser must land one later, not replace
        the winner's commit."""
        store = CampaignStore(str(tmp_path))
        winner = self.manifest()
        assert store.commit_manifest(winner) == 0
        # The loser's listing is stale: it predates the winner's commit.
        real_listing = CampaignStore._manifest_files
        stale_listings = [[]]

        def listing(self, campaign_id):
            if stale_listings:
                return stale_listings.pop()
            return real_listing(self, campaign_id)

        monkeypatch.setattr(CampaignStore, "_manifest_files", listing)
        loser = self.manifest(completed=("h1",))
        assert store.commit_manifest(loser) == 1
        history = store.manifests(winner.campaign_id)
        assert [m.sequence for m in history] == [0, 1]
        assert [m.completed for m in history] == [(), ("h1",)]
        assert store.latest_manifest(winner.campaign_id).completed == ("h1",)
        assert not [name for name in os.listdir(store.manifests_dir) if name.endswith(".tmp")]

    def test_manifest_json_has_no_sequence(self):
        """The sequence lives in the filename only, so the final manifest
        *content* is byte-identical no matter how many partial commits
        preceded it."""
        manifest = self.manifest(completed=("h1", "h2"), complete=True)
        payload = json.loads(manifest.to_json())
        assert "sequence" not in payload
        assert payload["manifest_format_version"] == MANIFEST_FORMAT_VERSION

    def test_from_payload_rejects_unknown_version(self):
        payload = json.loads(self.manifest().to_json())
        payload["manifest_format_version"] = 99
        with pytest.raises(ValueError, match="manifest format version"):
            Manifest.from_payload(payload)

    def test_completed_must_be_subset_of_cells(self):
        with pytest.raises(ValueError):
            Manifest(
                campaign_id="c", name="n", campaign_seed=1,
                cells=("h1",), completed=("h2",),
            )

    def test_missing_preserves_cell_order(self):
        manifest = self.manifest(completed=("h2",))
        assert manifest.missing == ("h1",)

    def test_campaign_id_tracks_inputs(self):
        base = campaign_id_for("tiny", 11, ("h1", "h2"))
        assert base == campaign_id_for("tiny", 11, ("h1", "h2"))
        assert base != campaign_id_for("tiny", 12, ("h1", "h2"))
        assert base != campaign_id_for("tiny", 11, ("h2", "h1"))


class TestArtifacts:
    def test_artifacts_deduplicate_by_content(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        payload = {"plan": ["a", "b"], "verdict": "failed"}
        first = store.put_artifact("counterexample", payload)
        second = store.put_artifact("counterexample", dict(payload))
        assert first == second == content_hash(payload)
        assert store.artifact_hashes("counterexample") == [first]
        assert store.get_artifact("counterexample", first) == payload
        assert store.artifact_kinds() == ["counterexample"]


class TestBackendByteIdentity:
    """The hard invariant: one campaign, any backend, identical bytes."""

    def test_all_backends_match_serial(self, tmp_path):
        grid = tiny_grid()
        reference = run_campaign(grid, workers=1, backend="serial")
        canonical = reference.to_canonical_json()
        for backend in ("pool", "subprocess"):
            store_dir = str(tmp_path / backend)
            result = run_campaign(
                grid, workers=2, backend=backend, store_dir=store_dir
            )
            assert result.to_canonical_json() == canonical, backend

    def test_manifest_identical_across_backends_and_workers(self, tmp_path):
        grid = tiny_grid()
        manifests = []
        for label, backend, workers in (
            ("a", "serial", 1), ("b", "pool", 2), ("c", "subprocess", 3),
        ):
            store = CampaignStore(str(tmp_path / label))
            run_campaign(grid, workers=workers, backend=backend, store_dir=store.root)
            [campaign_id] = store.campaign_ids()
            manifests.append(store.latest_manifest(campaign_id).to_json())
        assert manifests[0] == manifests[1] == manifests[2]

    def test_resolve_backend(self):
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        assert isinstance(resolve_backend(None, 4), ProcessPoolBackend)
        assert isinstance(resolve_backend("auto", 4), ProcessPoolBackend)
        assert isinstance(resolve_backend("subprocess", 1), SubprocessShardBackend)
        backend = SerialBackend()
        assert resolve_backend(backend, 8) is backend
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("carrier-pigeon", 1)
        with pytest.raises(TypeError):
            resolve_backend(42, 1)


class TestResume:
    def test_killed_campaign_resumes_and_merges_byte_identically(self, tmp_path):
        """Kill a campaign after two cells; the reopened store recomputes
        only the missing cells and the merged report is byte-identical to
        an uninterrupted run."""
        grid = named_grid("quick")
        store_dir = str(tmp_path / "store")
        fresh = run_campaign(grid, workers=1)

        class Killed(RuntimeError):
            pass

        seen = []

        def die_after_two(spec, result, cached, telemetry):
            seen.append(spec.key)
            if len(seen) == 2:
                raise Killed("simulated crash")

        with pytest.raises(Killed):
            run_campaign(grid, workers=1, store_dir=store_dir, progress=die_after_two)

        store = CampaignStore(store_dir)
        assert len(store) == 2
        [campaign_id] = store.campaign_ids()
        partial = store.latest_manifest(campaign_id)
        assert not partial.complete
        assert len(partial.missing) == grid.cell_count  # committed pre-run

        resumed = run_campaign(grid, workers=1, store_dir=store_dir)
        assert (resumed.cache_hits, resumed.cache_misses) == (2, grid.cell_count - 2)
        assert resumed.to_canonical_json() == fresh.to_canonical_json()
        final = store.latest_manifest(campaign_id)
        assert final.complete and not final.missing

    def test_corrupt_object_is_recomputed_on_resume(self, tmp_path):
        grid = tiny_grid()
        store_dir = str(tmp_path / "store")
        first = run_campaign(grid, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        victim = store.object_hashes()[0]
        with open(os.path.join(store.objects_dir, f"{victim}.json"), "w") as handle:
            handle.write("{torn write")
        assert store.verify_objects()
        rerun = run_campaign(grid, workers=1, store_dir=store_dir)
        assert rerun.cache_misses == 1
        assert rerun.to_canonical_json() == first.to_canonical_json()
        assert not CampaignStore(store_dir).verify_objects()

    @pytest.mark.parametrize("damage", ["drop_result", "stale_stamp"])
    def test_damaged_object_heals_once_then_hits(self, tmp_path, damage):
        """An object that parses but is not a valid cell (no ``result``, or
        a stale stamp at a live hash) is recomputed and replaced by one
        rerun; the next rerun is all hits, on every backend."""
        grid = tiny_grid()
        store_dir = str(tmp_path / "store")
        first = run_campaign(grid, workers=1, store_dir=store_dir)
        store = CampaignStore(store_dir)
        victim = os.path.join(store.objects_dir, f"{store.object_hashes()[0]}.json")

        def damage_victim():
            with open(victim, encoding="utf-8") as handle:
                entry = json.load(handle)
            if damage == "drop_result":
                del entry["result"]
            else:
                entry["sweep_format_version"] = SWEEP_FORMAT_VERSION - 1
            with open(victim, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)

        damage_victim()
        healing = run_campaign(grid, workers=1, store_dir=store_dir)
        assert (healing.cache_hits, healing.cache_misses) == (1, 1)
        healed = run_campaign(grid, workers=1, store_dir=store_dir)
        assert (healed.cache_hits, healed.cache_misses) == (2, 0)
        assert not store.verify_objects()

        # The worker's "already stored?" check and the parent's read-back
        # are the same rule, so the subprocess backend heals it too.
        damage_victim()
        sharded = run_campaign(grid, workers=2, backend="subprocess", store_dir=store_dir)
        assert (sharded.cache_hits, sharded.cache_misses) == (1, 1)
        assert not store.verify_objects()
        for result in (healing, healed, sharded):
            assert result.to_canonical_json() == first.to_canonical_json()

    def test_store_instance_is_accepted_directly(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        run_campaign(tiny_grid(), workers=1, store_dir=store)
        assert len(store) == 2


class TestWorkerShard:
    def test_run_worker_shard_skips_stored_cells(self, tmp_path):
        grid = tiny_grid()
        plan = plan_campaign(grid)
        store = CampaignStore(str(tmp_path / "store"))
        plan_path = str(tmp_path / "shard.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(shard_plan(grid.campaign_seed, plan.specs), handle)

        first = run_worker_shard(plan_path, store.root)
        assert first == {"cells": 2, "ran": 2, "skipped": 0}
        second = run_worker_shard(plan_path, store.root)
        assert second == {"cells": 2, "ran": 0, "skipped": 2}
        assert store.missing_cells(plan.hashes) == []

    def test_worker_shard_rejects_unknown_plan_version(self, tmp_path):
        plan_path = str(tmp_path / "shard.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump({"worker_format_version": 99, "campaign_seed": 1, "cells": []}, handle)
        with pytest.raises(ValueError, match="worker plan format"):
            run_worker_shard(plan_path, str(tmp_path / "store"))


class TestStoreCli:
    def run_cli(self, capsys, *argv):
        from repro.experiments import runner

        code = runner.main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_manifest_verify(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        # Two campaigns share the store: a different seed gives distinct
        # hashes, so the objects add up and each keeps its own manifests.
        other = run_campaign(tiny_grid(campaign_seed=99), workers=1, store_dir=store_dir)
        run_campaign(tiny_grid(), workers=1, store_dir=store_dir)

        code, out = self.run_cli(capsys, "store", "stats", "--store", store_dir)
        assert code == 0 and "objects: 4" in out and "campaigns: 2" in out

        with pytest.raises(SystemExit, match="2 campaigns"):
            self.run_cli(capsys, "store", "manifest", "--store", store_dir)
        code, out = self.run_cli(
            capsys, "store", "manifest", "--store", store_dir,
            "--campaign", other.campaign_id,
        )
        assert code == 0 and '"complete": true' in out and '"campaign_seed": 99' in out

        code, out = self.run_cli(capsys, "store", "verify", "--store", store_dir)
        assert code == 0 and "ok" in out

        store = CampaignStore(store_dir)
        victim = store.object_hashes()[0]
        with open(os.path.join(store.objects_dir, f"{victim}.json"), "w") as handle:
            handle.write("{")
        code, out = self.run_cli(capsys, "store", "verify", "--store", store_dir)
        assert code == 1 and "problem" in out

    def test_store_actions_are_exactly_stats_manifest_verify(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(capsys, "store", "migrate", "--store", str(tmp_path))
        assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_list_reports_backends_and_store_stats(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        run_campaign(tiny_grid(), workers=1, store_dir=store_dir)
        code, out = self.run_cli(capsys, "list", "--store", store_dir)
        assert code == 0
        assert "execution backends (sweep --backend):" in out
        for name in ("serial", "pool", "subprocess", "auto"):
            assert name in out
        assert f"store {CampaignStore(store_dir).root}:" in out

    def test_diff_from_store_gates_without_running(self, tmp_path, capsys):
        grid = named_grid("quick")
        store_dir = str(tmp_path / "store")
        baseline_path = str(tmp_path / "quick.json")
        code, _ = self.run_cli(
            capsys, "baseline", "--grid", "quick", "--out", baseline_path,
            "--store", store_dir,
        )
        assert code == 0
        code, out = self.run_cli(
            capsys, "diff", "--baseline", baseline_path,
            "--store", store_dir, "--from-store",
        )
        assert code == 0 and "no out-of-tolerance drift" in out
        assert grid.cell_count == len(CampaignStore(store_dir).object_hashes())

        # An incomplete store is one line on stderr and exit 1, not a
        # ValueError traceback out of baseline_from_store.
        store = CampaignStore(store_dir)
        os.unlink(os.path.join(store.objects_dir, f"{store.object_hashes()[0]}.json"))
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(
                capsys, "diff", "--baseline", baseline_path,
                "--store", store_dir, "--from-store",
            )
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert f"missing 1 of {grid.cell_count} cells" in message
