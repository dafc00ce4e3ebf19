"""Lazy and shared-memory substrates — the engine's public face for
:class:`repro.netsim.substrate.LazyTimelineBank` and
:class:`repro.netsim.substrate.SharedTimelineBank`.

All substrates hold one layout: timelines generated in batches into
CSR arrays, stored as a per-segment busy flag plus the busy segments'
shifted boundaries, so a quiet segment costs one flag.  The lazy bank
generates a query's missing segments in one batch and, with
``max_cached``, keeps at most that many generated segments per cause
resident (least recently used evicted first); the shared bank keeps
the eager arrays in one shared-memory block for process pools.

The implementations live in :mod:`repro.netsim.substrate` (they depend
only on netsim types, and ``build_state(substrate=...)`` must not drag
the engine/testbed stack into a pure netsim operation); this module
re-exports them as part of the scale-out engine's API.
"""

from repro.netsim.substrate import LazyTimelineBank, SharedTimelineBank

__all__ = ["LazyTimelineBank", "SharedTimelineBank"]
