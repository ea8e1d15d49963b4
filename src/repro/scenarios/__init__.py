"""Composable fault-scenario pipeline (source -> transforms -> repair).

The layer between the analytical fault models (:mod:`repro.faultmodel`) and
the Monte-Carlo machinery (:mod:`repro.sim`): a :class:`FaultScenario`
decides *which* fault population every die of a sweep sees.

* :mod:`repro.scenarios.base` -- the pipeline protocols
  (:class:`FaultSource`, :class:`FaultTransform`), the assembled
  :class:`FaultScenario`, and the serialisable :class:`ScenarioSpec`;
* :mod:`repro.scenarios.sources` -- i.i.d. and aging-shifted base
  populations;
* :mod:`repro.scenarios.transforms` -- spatially correlated row/column burst
  clustering;
* :mod:`repro.scenarios.repair` -- spare-row/column redundancy applied
  before protection encoding;
* :mod:`repro.scenarios.transient` -- the access-sequence tier: per-read
  soft errors, read-disturb accumulation, and periodic scrubbing;
* :mod:`repro.scenarios.catalog` -- the named catalog (``iid-pcell``,
  ``aged``, ``clustered``, ``repaired``, ``transient``) behind ``--scenario``
  flags and the ``scenario`` section of an
  :class:`~repro.dse.spec.ExperimentSpec`, extensible with
  :func:`~repro.scenarios.catalog.register_scenario`.

The default ``iid-pcell`` scenario reproduces the historical sampling stream
bit-for-bit; every other scenario flows through the same per-die seeding,
process fan-out, and checkpoint keying of the sweep engine.
"""

from repro.scenarios.base import (
    FaultScenario,
    FaultSource,
    FaultTransform,
    ScenarioSpec,
)
from repro.scenarios.catalog import (
    SCENARIO_NAMES,
    build_scenario,
    default_scenario,
    register_scenario,
)
from repro.scenarios.repair import RepairStage
from repro.scenarios.sources import AgedPcellSource, IidPcellSource
from repro.scenarios.transforms import ClusterTransform
from repro.scenarios.transient import (
    ReadDisturbSource,
    ScrubbingRepair,
    SoftErrorSource,
    TransientFaultSource,
    TransientReadEffects,
    TransientTier,
)

__all__ = [
    "AgedPcellSource",
    "ClusterTransform",
    "FaultScenario",
    "FaultSource",
    "FaultTransform",
    "IidPcellSource",
    "ReadDisturbSource",
    "RepairStage",
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "ScrubbingRepair",
    "SoftErrorSource",
    "TransientFaultSource",
    "TransientReadEffects",
    "TransientTier",
    "build_scenario",
    "default_scenario",
    "register_scenario",
]
