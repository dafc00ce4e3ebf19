"""`repro.engine`: the scale-out collection engine.

The measurement pipeline in :mod:`repro.testbed.collection` defines the
*semantics* of a run; this package makes large runs fast without
changing a single output bit:

* :class:`ShardedCollector` splits one ``collect()`` by source host into
  deterministic shards on a serial, thread or process pool
  (:mod:`repro.engine.sharding`).  Its one scheduler overlaps the
  probe, tables, collect and merge stages wherever the data flow
  allows: estimates fold as probe shards land, each collection shard
  starts the moment *its* routing-table block is selected, and the
  merge (plus streaming analysis) scatters finished shards while later
  ones still run.  The trace fingerprint is identical to the sequential
  :func:`repro.testbed.collect`, because every source block draws from
  its own named RNG substreams and canonical row order is by probe id.
* :class:`~repro.netsim.substrate.LazyTimelineBank` (via
  ``Network.build(..., substrate="lazy")``) generates per-segment
  substrate timelines on demand behind an LRU budget, so 100-host
  meshes don't pay for — or hold — state their probes never touch.
* **Out-of-core runs** — ``EngineConfig(spill_dir=...)`` streams each
  shard's partial trace through disk as it completes
  (:mod:`repro.engine.spill`) and merges into memory-mapped arrays, so
  a run larger than RAM finishes with residency bounded by
  ``max_resident_shards``.

Wire it into sweeps through ``repro.api.Runner(engine=EngineConfig())``.
"""

from .sharding import EngineConfig, ShardedCollector, always_shard, plan_shards

__all__ = ["EngineConfig", "ShardedCollector", "always_shard", "plan_shards"]
