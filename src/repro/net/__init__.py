"""Multi-receiver deployments: the feedback plane and the
multi-luminaire network (mobility, handover, interference) on the
discrete-event kernel, whose one-luminaire case is the desk room."""

from .feedback import Aggregation, AmbientReport, FeedbackCollector
from .interference import (
    Interferer,
    effective_slot_errors,
    interference_sigma,
    sinr,
)
from .mobility import (
    LinearTrace,
    MobilityModel,
    RandomWaypoint,
    StaticPosition,
)
from .multicell import (
    AmbientField,
    CellReport,
    Luminaire,
    MobileNode,
    MulticellResult,
    MulticellSimulation,
    NodeReport,
    default_network,
    desk_room,
    luminaire_grid,
    strongest_cell,
)
from .sharded import merge_journals
from .spatial import LuminaireIndex

__all__ = [
    "Aggregation",
    "AmbientField",
    "AmbientReport",
    "CellReport",
    "FeedbackCollector",
    "Interferer",
    "LinearTrace",
    "Luminaire",
    "LuminaireIndex",
    "MobileNode",
    "MobilityModel",
    "MulticellResult",
    "MulticellSimulation",
    "NodeReport",
    "RandomWaypoint",
    "StaticPosition",
    "default_network",
    "desk_room",
    "effective_slot_errors",
    "interference_sigma",
    "luminaire_grid",
    "merge_journals",
    "sinr",
    "strongest_cell",
]
