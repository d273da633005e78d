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

__version__ = "0.1.0"
