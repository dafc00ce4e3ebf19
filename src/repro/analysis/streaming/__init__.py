"""Streaming analysis: mergeable accumulators + the spill-shard analyzer.

The accumulators are the *only* implementation of the paper's analyses
— the eager functions in :mod:`repro.analysis` wrap them with a single
``update`` over the whole trace — so one-pass streaming over spill
shards and batch analysis of a merged trace agree exactly, by
construction.  See :mod:`.accumulators` for the update/merge/finalize
contract and the exactness argument, :mod:`.analyzer` for the engine
hook, and :mod:`repro.analysis.service` for the asyncio query front.
"""

from .accumulators import (
    Accumulator,
    HourlyLossAccumulator,
    MethodStatsAccumulator,
    PathClpAccumulator,
    PathLossAccumulator,
    WindowLossAccumulator,
    table_row,
    table_row_names,
)
from .analyzer import (
    DEFAULT_WINDOW_SIZES,
    AnalysisSnapshot,
    StreamingAnalyzer,
)

__all__ = [
    "Accumulator",
    "AnalysisSnapshot",
    "DEFAULT_WINDOW_SIZES",
    "HourlyLossAccumulator",
    "MethodStatsAccumulator",
    "PathClpAccumulator",
    "PathLossAccumulator",
    "StreamingAnalyzer",
    "WindowLossAccumulator",
    "table_row",
    "table_row_names",
]
