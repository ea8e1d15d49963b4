"""repro -- reproduction of "Mitigating the Impact of Faults in Unreliable
Memories for Error-Resilient Applications" (Ganapathy et al., DAC 2015).

The package implements the paper's bit-shuffling fault-mitigation scheme,
its ECC baselines, the SRAM fault substrate they protect, the quality-aware
yield model, the 28 nm read-path overhead model, and the data-mining
application study -- everything required to regenerate the paper's figures
and tables.  See :mod:`repro.analysis` for one entry point per experiment and
the README for a guided tour.

Quick example::

    import numpy as np
    from repro import (
        BitShuffleScheme, FaultMap, MemoryOrganization, ProtectedMemory,
    )

    org = MemoryOrganization.paper_16kb()
    rng = np.random.default_rng(1)
    die = FaultMap.random_with_pcell(org, p_cell=1e-3, rng=rng)
    memory = ProtectedMemory(org, BitShuffleScheme(org.word_width, n_fm=2), die)
    memory.write_int(0, -123456)
    assert abs(memory.read_int(0) + 123456) <= 2 ** 16  # bounded low-order error
"""

from repro.core import (
    BitShuffleScheme,
    BitShuffler,
    FaultMapLut,
    NoProtection,
    PriorityEccScheme,
    ProtectionScheme,
    SecdedScheme,
)
from repro.ecc import SecdedCode
from repro.faultmodel import (
    AgingDie,
    AgingModel,
    FaultMapSampler,
    MseDistribution,
    PcellModel,
    VoltageScalableDie,
    classical_yield,
)
from repro.hardware import (
    OverheadModel,
    OverheadReport,
    Technology,
    VoltageScalingModel,
    WritePathOverhead,
)
from repro.memory import (
    FaultKind,
    RedundancyRepair,
    repair_yield,
    spares_for_yield_target,
    FaultMap,
    FaultSite,
    MemoryOrganization,
    ProtectedMemory,
    SramArray,
)
from repro.quality import WeightedEcdf, mse_of_fault_map
from repro.quantize import FixedPointFormat
from repro.sim import (
    BenchmarkDefinition,
    FaultyTensorStore,
    QualityDistribution,
    standard_benchmarks,
)
from repro.dse import (
    DesignSpaceExplorer,
    DseResult,
    ExperimentSpec,
)

__version__ = "1.0.0"

__all__ = [
    "AgingDie",
    "AgingModel",
    "BenchmarkDefinition",
    "BitShuffleScheme",
    "BitShuffler",
    "DesignSpaceExplorer",
    "DseResult",
    "ExperimentSpec",
    "FaultKind",
    "FaultMap",
    "FaultMapLut",
    "FaultMapSampler",
    "FaultSite",
    "FaultyTensorStore",
    "FixedPointFormat",
    "MemoryOrganization",
    "MseDistribution",
    "NoProtection",
    "OverheadModel",
    "OverheadReport",
    "PcellModel",
    "PriorityEccScheme",
    "ProtectedMemory",
    "ProtectionScheme",
    "QualityDistribution",
    "RedundancyRepair",
    "SecdedCode",
    "SecdedScheme",
    "SramArray",
    "Technology",
    "VoltageScalableDie",
    "VoltageScalingModel",
    "WritePathOverhead",
    "WeightedEcdf",
    "classical_yield",
    "mse_of_fault_map",
    "repair_yield",
    "spares_for_yield_target",
    "standard_benchmarks",
    "__version__",
]
