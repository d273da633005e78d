"""Event-camera stream processing and edge-platform mapping toolkit.

Subsystems:

- :mod:`dvskit.events` - AER text ingestion, synthetic scenes, windowing.
- :mod:`dvskit.frames` - canonical two-channel sparse frames and merges.
- :mod:`dvskit.binning` - window-to-frame conversion over temporal bins.
- :mod:`dvskit.aggregator` - runtime frame merging under time/density bounds.
- :mod:`dvskit.hardware` - device/link profiles, task graphs, candidate lowering.
- :mod:`dvskit.scheduling` - queue serialization, end times, energy estimates.
- :mod:`dvskit.synth` - seeded multi-network task graphs on a GPU/DLA/CPU platform.
"""

from .events import (
    EventWindow,
    SceneSegment,
    SceneSpec,
    dump_events,
    generate_events,
    parse_events,
    read_events,
    window_events,
    write_events,
)
from .frames import (
    BatchedFrames,
    SparseFrame,
    concat_frames,
    empty_frame,
    frame_mass,
    from_entries,
    merge_add,
    merge_average,
    spatial_density,
    to_dense,
)
from .binning import BinningSpec, bin_index, to_sparse_frames

__version__ = "0.1.0"
