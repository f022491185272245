"""Content-addressed campaign storage.

One immutable, resumable on-disk store for everything a campaign
produces: cell results as content-addressed objects, Iceberg-style
append-only snapshot manifests, and a corpus of fuzz/triage artifacts.
The sweep engine writes it, every execution backend shares it, and the
regression gate, fault triage and fuzz tooling read it — see
:mod:`repro.store.campaign` for the layout and guarantees.
"""

from repro.store.campaign import (
    MANIFEST_FORMAT_VERSION,
    SWEEP_FORMAT_VERSION,
    CampaignStore,
    Manifest,
    atomic_write_text,
    campaign_id_for,
    content_hash,
)

__all__ = [
    "CampaignStore",
    "Manifest",
    "MANIFEST_FORMAT_VERSION",
    "SWEEP_FORMAT_VERSION",
    "atomic_write_text",
    "campaign_id_for",
    "content_hash",
]
