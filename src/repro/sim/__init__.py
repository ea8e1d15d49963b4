"""Application-level fault-injection simulation framework (Fig. 7).

This package reproduces the paper's software simulation flow: the training
dataset of each benchmark is quantised, stored in a functional model of a
faulty 16 kB memory operated behind a protection scheme, read back (with
whatever corruption survives the scheme), the model is trained on the
corrupted data, and the output quality is measured on clean test data.

* :mod:`repro.sim.faulty_storage` -- the functional faulty-memory model that
  round-trips numpy arrays through quantisation, the protection scheme, and
  the fault map.
* :mod:`repro.sim.experiment` -- benchmark definitions binding a dataset, a
  learning algorithm and a quality metric (the rows of Table 1).
* :mod:`repro.sim.config` -- the sweep description: the frozen
  :class:`ExperimentConfig`, the adaptive budget and the scheme registry.
* :mod:`repro.sim.results` -- the sweep's result types (per-scheme quality
  distributions, the adaptive-budget report, per-call run stats).
* :mod:`repro.sim.engine` -- the parallel sharded Monte-Carlo sweep engine:
  deterministic per-die seeding, pluggable shard executors, and shard-level
  checkpoint/resume.
* :mod:`repro.sim.executor` -- the shard executor tiers (inline, forked
  local workers, distributed TCP coordinator) and the work-stealing
  scheduler with heartbeat fault tolerance the two worker tiers share.
* :mod:`repro.sim.shardeval` -- the worker-side shard evaluation shared by
  every executor (the pure function that makes re-dispatch bit-identical).
* :mod:`repro.sim.worker` -- the worker side of the wire protocol, served
  by forked local workers and by remote ones
  (``python -m repro.sim.worker --connect HOST:PORT``).
* :mod:`repro.sim.wire` -- the framed socket protocol between coordinator
  and workers.
* :mod:`repro.sim.runner` -- legacy sampling: the die population pre-drawn
  from one shared generator, the stream the pinned golden curves of Figs. 5
  and 7 were produced with (fed to the engine as ``fault_maps``).
"""

from repro.sim.config import ExperimentConfig, build_scheme
from repro.sim.engine import SweepEngine
from repro.sim.results import QualityDistribution
from repro.sim.executor import ExecutorSpec, make_executor
from repro.sim.experiment import (
    BenchmarkDefinition,
    elasticnet_benchmark,
    knn_benchmark,
    pca_benchmark,
    standard_benchmarks,
)
from repro.sim.faulty_storage import FaultyTensorStore

__all__ = [
    "BenchmarkDefinition",
    "ExecutorSpec",
    "ExperimentConfig",
    "FaultyTensorStore",
    "QualityDistribution",
    "SweepEngine",
    "build_scheme",
    "elasticnet_benchmark",
    "knn_benchmark",
    "make_executor",
    "pca_benchmark",
    "standard_benchmarks",
]
