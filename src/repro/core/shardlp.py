"""Compatibility re-exports of the frame-reading phase functions.

Every phase reads its graph through a frame (:mod:`repro.graph.frame`),
so the shard-native phases are the ordinary ones in
:mod:`repro.core.assign`, :mod:`repro.core.layering` and
:mod:`repro.core.refine`; the ``*_frame`` names are kept as aliases for
external code.  Library code imports the phase modules directly.
"""

from repro.core.assign import assign_new_vertices as assign_new_vertices_frame
from repro.core.layering import layer_partitions as layer_partitions_frame
from repro.core.refine import refine_partition as refine_partition_frame
from repro.lp.backends import solve_with_backend

__all__ = [
    "assign_new_vertices_frame",
    "layer_partitions_frame",
    "refine_partition_frame",
    "solve_with_backend",
]
