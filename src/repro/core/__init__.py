"""The DTT framework core (paper §4, Figure 2).

The pipeline has four stages: decompose a column-transformation problem
into per-row sub-tasks with small example contexts, serialize each
sub-task into a prompt, run a sequence model over the prompts, and
aggregate the per-trial predictions into one output per row.  A joiner
then matches predictions into the target column (Eq. 5).
"""

from repro.core.interface import IncrementalSequenceModel, SequenceModel
from repro.core.serializer import Decomposer, PromptSerializer, SubTask
from repro.core.aggregator import Aggregator
from repro.core.join_config import JOIN_MODES, JoinConfig
from repro.core.joiner import EditDistanceJoiner, invert_matches
from repro.core.pipeline import DTTPipeline

__all__ = [
    "SequenceModel",
    "IncrementalSequenceModel",
    "PromptSerializer",
    "Decomposer",
    "SubTask",
    "Aggregator",
    "EditDistanceJoiner",
    "DTTPipeline",
    "JOIN_MODES",
    "JoinConfig",
    "invert_matches",
]
