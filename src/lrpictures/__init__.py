"""Pictures between skew Young diagrams, Littlewood-Richardson crystals, and
the column-bumping RSK correspondence that ties them together.

The package exports the value types of the JSON formats, the operations
behind the command-line commands, and the partition generators; every other
name is imported from its own module.
"""

from .shapes import Cell, Partition, SkewShape, partitions_in_box, partitions_of, subpartitions
from .tableaux import SkewTableau
from .rsk import TwoRowedArray, rsk_forward, rsk_inverse
from .pictures import Picture, enumerate_pictures
from .correspondence import (
    CorrespondenceContext,
    CrystalPair,
    full_c,
    full_s,
    lr_coefficient,
    lr_routes,
)

__all__ = [
    # JSON value types
    "Cell",
    "CrystalPair",
    "Partition",
    "Picture",
    "SkewShape",
    "SkewTableau",
    "TwoRowedArray",
    # command-line operations
    "CorrespondenceContext",
    "enumerate_pictures",
    "full_c",
    "full_s",
    "lr_coefficient",
    "lr_routes",
    "rsk_forward",
    "rsk_inverse",
    # partition generators
    "partitions_in_box",
    "partitions_of",
    "subpartitions",
]
