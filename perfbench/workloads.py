"""The three benchmark workloads: inputs, sweep call, result digest, layer map.

Each workload is one closed-loop sweep of the program on inputs the
benchmark builds from its seed:

* ``fig5-mse`` -- the Fig. 5 analytical-MSE sweep (16 kB memory, Pcell =
  5e-6, all seven schemes, legacy shared-generator sampling seeded from
  ``--seed``).  Dominated by ``quality.mse_of_fault_map``.
* ``fig7-elasticnet`` -- the Fig. 7 quality sweep for ElasticNet at
  ``scale=1.0`` (Pcell = 1e-3, legacy sampling seeded from ``--seed``).
  Dominated by coordinate-descent retraining.
* ``dse-optimize`` -- ``ParetoOptimizer.run`` on ``dse_spec.json`` (6 VDDs x
  5 schemes x {elasticnet, pca}).  The optimizer's die bill is itself a
  function of the spec's master seed (306 to 514 dies over seeds 0-6), so
  the spec keeps its pinned master seed and ``--seed`` does not change this
  workload's input: a per-seed input would make ``wall_s`` measure the seed
  rather than the code.

Nothing here imports ``repro`` at module level: the run process times that
import as part of its set-up (:func:`import_program`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

#: The seed whose result digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

HERE = Path(__file__).resolve().parent
DSE_SPEC = HERE / "dse_spec.json"
PINNED_DIGESTS = HERE / "digests.json"

FIG5_SAMPLES_PER_COUNT = 600
FIG7_SAMPLES_PER_COUNT = 10
FIG7_COUNT_POINTS = 12


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its inputs, run it, and check its result.

    ``active`` names the layers the traced run must see called; ``zero``
    the layers it must see never called (the "predicted zero" column of the
    layer map).  Layers in neither tuple are measured but not checked.
    """

    build: Callable[[int], dict]
    sweep: Callable[[dict], object]
    digest: Callable[[object], str]
    sanity: Callable[[object], Optional[str]]
    active: Tuple[str, ...]
    zero: Tuple[str, ...]


def import_program() -> str:
    """Import the program and select its kernel backend; return the backend name."""
    import repro  # noqa: F401
    import repro.analysis.figures  # noqa: F401
    import repro.dse  # noqa: F401
    from repro.kernels import active_backend

    return active_backend().name


# --------------------------------------------------------------------------- #
# Digests and sanity checks
# --------------------------------------------------------------------------- #
def _distribution_digest(result: Dict[str, object]) -> str:
    """sha256 over every scheme's ECDF arrays and sample count."""
    import numpy as np

    digest = hashlib.sha256()
    for name in sorted(result):
        dist = result[name]
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(dist.ecdf.values, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(dist.ecdf.weights, dtype=np.float64).tobytes())
        digest.update(str(dist.samples).encode())
    return digest.hexdigest()


def _distribution_sanity(result: Dict[str, object], schemes: Tuple[str, ...]) -> Optional[str]:
    if tuple(sorted(result)) != tuple(sorted(schemes)):
        return f"schemes {sorted(result)} != expected {sorted(schemes)}"
    for name, dist in result.items():
        values = [float(v) for v in dist.ecdf.values]
        if not values or not all(math.isfinite(v) for v in values):
            return f"{name}: empty or non-finite ECDF"
        if any(float(w) < 0.0 for w in dist.ecdf.weights):
            return f"{name}: negative ECDF weight"
    return None


def _optimize_digest(result) -> str:
    payload = {
        "rows": result.rows,
        "frontier": result.frontier(),
        "prune_log": [event.to_dict() for event in result.prune_log],
        "total_dies": result.total_dies,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _optimize_sanity(result) -> Optional[str]:
    spec = json.loads(DSE_SPEC.read_text())
    expected_rows = (
        len(spec["operating_grid"]["vdd_values"])
        * len(spec["scheme_grid"]["specs"])
        * len(spec["benchmarks"]["names"])
    )
    if len(result.rows) != expected_rows:
        return f"{len(result.rows)} rows, expected {expected_rows}"
    if not result.frontier():
        return "empty frontier"
    if result.total_dies <= 0 or result.evaluated_dies != result.total_dies:
        return f"die ledger {result.evaluated_dies}/{result.total_dies}"
    return None


# --------------------------------------------------------------------------- #
# fig5-mse
# --------------------------------------------------------------------------- #
FIG5_SCHEMES = ("no-protection", "p-ecc-H(22,16)") + tuple(
    f"bit-shuffle-nfm{n}" for n in range(1, 6)
)


def _fig5_build(seed: int) -> dict:
    import numpy as np
    from repro.memory.organization import MemoryOrganization

    return {
        "organization": MemoryOrganization.paper_16kb(),
        "rng": np.random.default_rng(seed),
    }


def _fig5_sweep(inputs: dict):
    from repro.analysis import figures

    return figures.figure5_mse_cdf(
        organization=inputs["organization"],
        p_cell=5e-6,
        samples_per_count=FIG5_SAMPLES_PER_COUNT,
        rng=inputs["rng"],
        workers=1,
        sampling="legacy",
        executor="inline",
    )


# --------------------------------------------------------------------------- #
# fig7-elasticnet
# --------------------------------------------------------------------------- #
FIG7_SCHEMES = ("no-protection", "p-ecc-H(22,16)", "bit-shuffle-nfm1", "bit-shuffle-nfm2")


def _fig7_build(seed: int) -> dict:
    import numpy as np
    from repro.sim.experiment import benchmark_by_name

    return {
        "benchmark": benchmark_by_name("elasticnet", scale=1.0),
        "rng": np.random.default_rng(seed),
    }


def _fig7_sweep(inputs: dict):
    from repro.analysis import figures

    return figures.figure7_quality(
        inputs["benchmark"],
        p_cell=1e-3,
        samples_per_count=FIG7_SAMPLES_PER_COUNT,
        n_count_points=FIG7_COUNT_POINTS,
        rng=inputs["rng"],
        workers=1,
        executor="inline",
    )


# --------------------------------------------------------------------------- #
# dse-optimize
# --------------------------------------------------------------------------- #
def _dse_build(seed: int) -> dict:
    del seed  # the optimizer's die bill depends on the master seed; see above
    from repro.dse import ExperimentSpec

    return {"spec": ExperimentSpec.from_dict(json.loads(DSE_SPEC.read_text()))}


def _dse_sweep(inputs: dict):
    from repro.dse import optimize

    return optimize.ParetoOptimizer(inputs["spec"], workers=1, executor="inline").run()


WORKLOADS: Dict[str, Workload] = {
    "fig5-mse": Workload(
        build=_fig5_build,
        sweep=_fig5_sweep,
        digest=_distribution_digest,
        sanity=lambda result: _distribution_sanity(result, FIG5_SCHEMES),
        active=("faultmodel", "quality", "sim.shard", "sim.engine", "analysis.figure"),
        zero=(
            "scenarios", "sim.store_build", "sim.load", "apps",
            "sim.checkpoint_write", "dse.optimize",
        ),
    ),
    "fig7-elasticnet": Workload(
        build=_fig7_build,
        sweep=_fig7_sweep,
        digest=_distribution_digest,
        sanity=lambda result: _distribution_sanity(result, FIG7_SCHEMES),
        active=(
            "faultmodel", "sim.store_build", "sim.load", "kernels", "apps",
            "sim.shard", "sim.engine", "analysis.figure",
        ),
        zero=("scenarios", "quality", "sim.checkpoint_write", "dse.optimize"),
    ),
    "dse-optimize": Workload(
        build=_dse_build,
        sweep=_dse_sweep,
        digest=_optimize_digest,
        sanity=_optimize_sanity,
        active=(
            "scenarios", "sim.store_build", "sim.load", "kernels", "apps",
            "sim.shard", "sim.engine", "sim.checkpoint_write", "stats",
            "dse.optimize",
        ),
        zero=("faultmodel", "quality", "analysis.figure"),
    ),
}


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    """The pinned digest for ``seed``, or ``None`` when none is pinned."""
    if seed != DEFAULT_SEED and workload != "dse-optimize":
        return None
    return json.loads(PINNED_DIGESTS.read_text())[workload]
