"""Property-based round-trip tests for serialized state.

Random valley-free worlds (the generator strategy from the BGP property
tests) must survive ``internet_to_dict``/``internet_from_dict`` with
routing-equivalent results; quantile sketches and ingest snapshots must
survive their JSON forms byte-identically — including a trip through a
campaign checkpoint and resume, where a half-finished ingest campaign's
merged snapshot must match the uninterrupted run's bytes exactly.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bgp import propagate
from repro.topology import internet_from_dict, internet_to_dict
from repro.topology.generator import Internet, TopologyConfig
from repro.topology.wan import PointOfPresence, PrivateWan
from repro.geo import city_named

from test_properties_bgp import random_world


def _wrap_as_internet(graph, origin) -> Internet:
    """Wrap a bare graph in an Internet so serialization applies."""
    pops = [
        PointOfPresence("aaa", city_named("New York")),
        PointOfPresence("bbb", city_named("London")),
    ]
    wan = PrivateWan(pops, [("aaa", "bbb")])
    tier1s = tuple(a.asn for a in graph.ases() if 10 <= a.asn < 100)
    transits = tuple(a.asn for a in graph.ases() if 100 <= a.asn < 1000)
    eyeballs = tuple(a.asn for a in graph.ases() if a.asn >= 1000)
    return Internet(
        graph=graph,
        provider_asn=tier1s[0] if tier1s else origin,
        wan=wan,
        tier1_asns=tier1s,
        transit_asns=transits,
        eyeball_asns=eyeballs,
        ixp_cities=(),
        dc_pop_code="aaa",
        config=TopologyConfig(
            pop_cities=(("aaa", "New York"), ("bbb", "London")),
            wan_backbone=(("aaa", "bbb"),),
            dc_pop_code="aaa",
        ),
    )


@given(random_world())
@settings(max_examples=25, deadline=None)
def test_serialization_roundtrip_preserves_routing(world):
    graph, origin = world
    internet = _wrap_as_internet(graph, origin)
    loaded = internet_from_dict(internet_to_dict(internet))

    assert len(loaded.graph) == len(graph)
    assert {l.key() for l in loaded.graph.links()} == {
        l.key() for l in graph.links()
    }
    original = propagate(graph, origin)
    rebuilt = propagate(loaded.graph, origin)
    for asys in graph.ases():
        a = original.best(asys.asn)
        b = rebuilt.best(asys.asn)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.path == b.path
            assert a.pref is b.pref


# -- streaming sketches and snapshots ----------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False, width=32),
        min_size=0,
        max_size=300,
    ),
)
@settings(max_examples=100, deadline=None)
def test_sketch_json_roundtrip_byte_identical(values):
    from repro.stream import CentroidSketch, sketch_from_dict

    sketch = CentroidSketch()
    if values:
        sketch.update_batch(np.asarray(values))
    text = sketch.to_json()
    assert sketch_from_dict(json.loads(text)).to_json() == text


def _shard_studies():
    from repro.stream import IngestShardStudy

    return [
        IngestShardStudy(
            seed=5, n_prefixes=40, days=0.5, shard=shard, n_shards=3
        )
        for shard in range(3)
    ]


def _merged_bytes(results) -> str:
    from repro.stream import merge_snapshot_artifacts

    return merge_snapshot_artifacts(results).to_json()


def test_snapshot_survives_checkpoint_resume(tmp_path):
    """resume ∘ crash ≡ uninterrupted run, down to the snapshot bytes.

    A sharded ingest campaign is interrupted after one shard; the
    resumed campaign restores that shard's result — snapshot artifact
    included — from the checkpoint payload, and the cross-shard merge
    is byte-identical to the run that never crashed.
    """
    from repro.runner import CampaignRunner, JobSpec
    from repro.runner.campaign import result_to_payload
    from repro.runner.checkpoint import (
        CampaignCheckpoint,
        CheckpointEntry,
        campaign_fingerprint,
    )

    studies = _shard_studies()
    specs = [JobSpec.from_study(study) for study in studies]

    uninterrupted = CampaignRunner().run(specs)
    baseline = _merged_bytes(uninterrupted.results)

    # Simulate the crash: journal only shard 0, as the dead campaign
    # would have, then resume the remainder.
    checkpoint = CampaignCheckpoint(
        tmp_path, campaign_fingerprint(specs)
    )
    first = studies[0].run()
    checkpoint.record(
        CheckpointEntry(
            spec_hash=specs[0].content_hash,
            payload=result_to_payload(first),
            elapsed_s=1.0,
            metrics={
                "study": specs[0].describe(),
                "seed": specs[0].seed,
                "spec_hash": specs[0].content_hash,
                "status": "ran",
                "attempts": 1,
                "elapsed_s": 1.0,
            },
        )
    )
    checkpoint.write()

    resumed = CampaignRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
    assert _merged_bytes(resumed.results) == baseline


def test_snapshot_survives_result_cache(tmp_path):
    """The artifacts channel survives the content-addressed store: a
    cache-served campaign merges to the same bytes as the fresh one."""
    from repro.runner import CampaignRunner, JobSpec, ResultStore

    specs = [JobSpec.from_study(study) for study in _shard_studies()]
    fresh = CampaignRunner(store=ResultStore(tmp_path)).run(specs)
    cached = CampaignRunner(store=ResultStore(tmp_path)).run(specs)
    assert all(m.status == "hit" for m in cached.metrics)
    assert _merged_bytes(cached.results) == _merged_bytes(fresh.results)
