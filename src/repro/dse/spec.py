"""Layered, serialisable description of a design-space sweep.

:class:`~repro.sim.engine.ExperimentConfig` freezes *one* Monte-Carlo sweep:
a single memory geometry at a single operating point against one scheme set.
The paper's closing trade-off -- energy versus quality versus overhead at
scaled voltages -- is a *grid* of such sweeps, and :class:`ExperimentSpec`
describes that grid declaratively, one layer per axis:

* :class:`GeometrySpec` -- the memory under study (rows, word width, stored
  fixed-point format);
* :class:`OperatingGridSpec` -- the supply-voltage / ``Pcell`` grid and the
  energy model constants (which Pcell model by registry name, nominal VDD,
  leakage);
* :class:`SchemeGridSpec` -- the protection schemes by registry spec,
  including nFM / coverage variants, plus the FM-LUT realisation the
  overhead join uses;
* :class:`McBudgetSpec` -- the Monte-Carlo budget and the master seed of the
  deterministic per-die seeding scheme;
* :class:`BenchmarkGridSpec` -- the Table 1 benchmarks by registry name.

A spec round-trips through plain JSON (:meth:`ExperimentSpec.to_json` /
:meth:`ExperimentSpec.from_file`), expands into the cross product of
per-grid-point :class:`ExperimentConfig` objects, and is what ``repro dse
run --spec grid.json`` consumes.  Unknown keys fail loudly -- a typo in a
spec file must not silently run a default sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dse.registry import REGISTRY
from repro.faultmodel.pcell import PcellModel
from repro.hardware.energy import OperatingPoint, VoltageScalingModel
from repro.memory.organization import MemoryOrganization
from repro.scenarios.base import FaultScenario, ScenarioSpec
from repro.sim.engine import AdaptiveBudget, ExperimentConfig

__all__ = [
    "BenchmarkGridSpec",
    "ExperimentSpec",
    "GeometrySpec",
    "McBudgetSpec",
    "OperatingGridSpec",
    "OptimizerSpec",
    "SchemeGridSpec",
]


def _from_checked_dict(cls, data: Mapping[str, object], context: str):
    """Build a spec dataclass from a mapping, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {context} keys {unknown}; expected a subset of "
            f"{sorted(known)}"
        )
    return cls(**data)


@dataclass(frozen=True)
class GeometrySpec:
    """Memory geometry layer: what the sweep stores its data in."""

    rows: int
    word_width: int = 32
    frac_bits: int = 16

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be positive")
        if self.word_width < 1:
            raise ValueError("word_width must be positive")
        if not 0 <= self.frac_bits <= self.word_width:
            raise ValueError("frac_bits must be in [0, word_width]")

    @property
    def organization(self) -> MemoryOrganization:
        """The memory organization under study."""
        return MemoryOrganization(rows=self.rows, word_width=self.word_width)


@dataclass(frozen=True)
class OperatingGridSpec:
    """Operating-point layer: the VDD / Pcell grid and energy constants.

    Grid points are given either as supply voltages (``vdd_values``, mapped
    to ``Pcell`` through the named Pcell model) or as failure probabilities
    (``p_cell_values``, mapped back to a voltage through the model's
    inverse) -- or both; the grid is the concatenation in the given order.
    ``pcell_params`` parameterises the model factory (e.g. the ``gaussian``
    model's ``v_crit_mean`` / ``v_crit_sigma``) as a tuple of ``(name,
    value)`` pairs so the spec stays hashable.
    """

    vdd_values: Tuple[float, ...] = ()
    p_cell_values: Tuple[float, ...] = ()
    pcell_model: str = "calibrated-28nm"
    pcell_params: Tuple[Tuple[str, float], ...] = ()
    nominal_vdd: float = 1.0
    leakage_per_cell_nw: float = 0.015

    def __post_init__(self) -> None:
        object.__setattr__(self, "vdd_values", tuple(self.vdd_values))
        object.__setattr__(self, "p_cell_values", tuple(self.p_cell_values))
        object.__setattr__(
            self,
            "pcell_params",
            tuple((str(k), float(v)) for k, v in self.pcell_params),
        )
        if not self.vdd_values and not self.p_cell_values:
            raise ValueError(
                "the operating grid needs at least one vdd or p_cell value"
            )
        if any(v <= 0 for v in self.vdd_values):
            raise ValueError("vdd_values must be positive")
        if any(not 0.0 < p < 1.0 for p in self.p_cell_values):
            raise ValueError("p_cell_values must be in (0, 1)")

    def model(self) -> PcellModel:
        """The named ``Pcell(VDD)`` model of this grid."""
        return REGISTRY.build(
            "pcell-model", self.pcell_model, **dict(self.pcell_params)
        )

    def scaling_model(self, organization: MemoryOrganization) -> VoltageScalingModel:
        """The energy model joining voltages to access energy and leakage."""
        return VoltageScalingModel(
            organization,
            pcell_model=self.model(),
            nominal_vdd=self.nominal_vdd,
            leakage_per_cell_nw=self.leakage_per_cell_nw,
        )

    def operating_points(
        self, organization: MemoryOrganization
    ) -> List[OperatingPoint]:
        """Expand the grid into fully characterised operating points.

        Voltage entries take the model's ``Pcell`` at that voltage; ``Pcell``
        entries keep the *requested* probability exactly (the sweep must run
        at the spec's operating point, not at the round-tripped inverse) and
        carry the voltage the model maps it back to.
        """
        scaling = self.scaling_model(organization)
        model = scaling.pcell_model
        points = [scaling.operating_point(float(v)) for v in self.vdd_values]
        for p_cell in self.p_cell_values:
            vdd = model.vdd_for_p_cell(float(p_cell))
            point = scaling.operating_point(vdd)
            points.append(
                replace(
                    point,
                    p_cell=float(p_cell),
                    expected_failures=float(p_cell) * organization.total_cells,
                )
            )
        return points


@dataclass(frozen=True)
class SchemeGridSpec:
    """Protection-scheme layer: which mitigation options compete."""

    specs: Tuple[str, ...]
    lut_realisation: str = "column"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("at least one scheme spec is required")
        if self.lut_realisation not in ("column", "register"):
            raise ValueError("lut_realisation must be 'column' or 'register'")


@dataclass(frozen=True)
class McBudgetSpec:
    """Monte-Carlo layer: sampling budget and the deterministic master seed.

    ``mode="fixed"`` (the default) evaluates exactly ``samples_per_count``
    dies per failure count -- bit-identical to every historical sweep.
    ``mode="adaptive"`` switches every grid point to the engine's
    confidence-driven budget: rounds of Neyman-allocated batches that stop
    once the yield-at-threshold confidence half-width reaches ``target_ci``
    or ``max_samples`` dies have been spent (``None`` caps at the equivalent
    fixed budget, so adaptive never costs more than fixed).  The remaining
    adaptive knobs (``confidence``, ``threshold``, ``initial_samples_per_
    count``, ``round_dies``) mirror
    :class:`~repro.sim.engine.AdaptiveBudget` and are ignored -- rejected,
    for ``target_ci`` -- in fixed mode, so a spec cannot silently carry a
    half-configured budget.
    """

    samples_per_count: int = 10
    n_count_points: Optional[int] = None
    coverage: float = 0.99
    master_seed: int = 2015
    discard_multi_fault_words: bool = True
    mode: str = "fixed"
    target_ci: Optional[float] = None
    confidence: float = 0.95
    threshold: Optional[float] = None
    initial_samples_per_count: int = 8
    round_dies: int = 64
    max_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples_per_count < 1:
            raise ValueError("samples_per_count must be positive")
        if not 0.0 < self.coverage < 1.0:
            raise ValueError("coverage must be in (0, 1)")
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"budget mode must be 'fixed' or 'adaptive', got {self.mode!r}"
            )
        if self.mode == "fixed" and self.target_ci is not None:
            raise ValueError(
                "target_ci requires mode='adaptive' (a fixed budget has no "
                "stopping rule to apply it to)"
            )
        # Adaptive parameter validation is delegated to AdaptiveBudget so
        # spec files and engine configs can never disagree about validity.
        self.adaptive_budget()

    def adaptive_budget(self) -> Optional["AdaptiveBudget"]:
        """The engine-level adaptive budget (``None`` in fixed mode)."""
        if self.mode != "adaptive":
            return None
        kwargs = {
            "confidence": self.confidence,
            "threshold": self.threshold,
            "initial_samples_per_count": self.initial_samples_per_count,
            "round_dies": self.round_dies,
            "max_total_samples": self.max_samples,
        }
        if self.target_ci is not None:
            kwargs["target_ci"] = self.target_ci
        return AdaptiveBudget(**kwargs)


@dataclass(frozen=True)
class OptimizerSpec:
    """Budgeted-optimizer layer: the successive-halving schedule and the
    pruning rule of ``repro.dse.optimize``.

    Each surviving grid cell gets an adaptive-budget probe capped at
    ``rung0_dies`` dies in rung 0; survivors of each pruning pass carry their
    round state into the next rung, whose cap grows by ``eta``.  Rows are
    pruned only on *strict* CI-band separation plus ``frontier_slack`` --
    ties (including the sketch-quantisation ties of near-saturated
    qualities) never prune, which is what preserves frontier recall.  The
    adaptive knobs (``target_ci`` .. ``sketch_bins``) parameterise the inner
    :class:`~repro.sim.engine.AdaptiveBudget` probes and are validated by
    constructing one, so a spec file and the engine can never disagree.
    """

    rungs: int = 3
    eta: float = 2.0
    rung0_dies: Optional[int] = None
    frontier_slack: float = 0.0
    target_ci: float = 0.02
    confidence: float = 0.95
    threshold: Optional[float] = None
    initial_samples_per_count: int = 2
    round_dies: int = 32
    sketch_bins: int = 512

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ValueError("rungs must be at least 1")
        if not self.eta > 1.0:
            raise ValueError("eta must be greater than 1")
        if self.rung0_dies is not None and self.rung0_dies < 2:
            raise ValueError("rung0_dies must be at least 2")
        if not self.frontier_slack >= 0.0:
            raise ValueError("frontier_slack must be non-negative")
        # Delegate the adaptive-knob validation to AdaptiveBudget (with a
        # placeholder cap) so optimizer specs can never carry parameters the
        # engine would reject mid-run.
        self.adaptive_budget(max_total_samples=2)

    def adaptive_budget(self, max_total_samples: int) -> "AdaptiveBudget":
        """The inner adaptive probe budget, capped at ``max_total_samples``."""
        return AdaptiveBudget(
            target_ci=self.target_ci,
            confidence=self.confidence,
            threshold=self.threshold,
            initial_samples_per_count=self.initial_samples_per_count,
            round_dies=self.round_dies,
            max_total_samples=max_total_samples,
            sketch_bins=self.sketch_bins,
        )

    def rung_caps(self, base_dies: int) -> List[int]:
        """Per-cell cumulative die caps of every rung (geometric in ``eta``)."""
        return [
            int(math.ceil(base_dies * self.eta**rung))
            for rung in range(self.rungs)
        ]


@dataclass(frozen=True)
class BenchmarkGridSpec:
    """Application layer: which Table 1 benchmarks feel the corruption."""

    names: Tuple[str, ...] = ("knn",)
    scale: float = 0.5
    seed: int = 17

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("at least one benchmark is required")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative cross-layer design-space sweep (the DSE input).

    The ``scenario`` layer names the fault-generation pipeline (see
    :mod:`repro.scenarios`) every grid point's dies are drawn through; a spec
    without a ``scenario`` section runs the default ``iid-pcell`` pipeline,
    which is bit-identical to the pre-scenario sweeps.  ``access_trace``
    sets the read passes replayed per load for scenarios with a transient
    tier; the default single pass leaves non-transient specs -- and their
    grid points' hashes -- untouched.
    """

    geometry: GeometrySpec
    operating_grid: OperatingGridSpec
    scheme_grid: SchemeGridSpec
    budget: McBudgetSpec = McBudgetSpec()
    benchmarks: BenchmarkGridSpec = BenchmarkGridSpec()
    quality_yield_target: float = 0.99
    scenario: ScenarioSpec = ScenarioSpec()
    access_trace: int = 1
    optimizer: Optional[OptimizerSpec] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.quality_yield_target < 1.0:
            raise ValueError("quality_yield_target must be in (0, 1)")
        if self.optimizer is not None:
            if not isinstance(self.optimizer, OptimizerSpec):
                raise ValueError(
                    f"optimizer must be an OptimizerSpec, got "
                    f"{type(self.optimizer).__name__}"
                )
            if self.budget.mode != "fixed":
                raise ValueError(
                    "an optimizer section requires budget mode 'fixed': the "
                    "rung schedule supplies the adaptive probes, and the "
                    "fixed budget defines the exhaustive baseline the "
                    "optimizer is measured against"
                )
        if self.scenario is None:
            object.__setattr__(self, "scenario", ScenarioSpec())
        if not isinstance(self.scenario, ScenarioSpec):
            raise ValueError(
                f"scenario must be a ScenarioSpec, got "
                f"{type(self.scenario).__name__}"
            )
        if not isinstance(self.access_trace, int) or isinstance(
            self.access_trace, bool
        ):
            raise ValueError(
                f"access_trace must be an integer, got {self.access_trace!r}"
            )
        if self.access_trace < 1:
            raise ValueError(
                f"access_trace must be >= 1, got {self.access_trace}"
            )
        if self.access_trace != 1 and self.scenario.build().transient is None:
            # Same load-time rule the engine enforces per grid point: fail
            # when the spec is assembled, not halfway through a sweep.
            raise ValueError(
                "access_trace > 1 requires a scenario with a transient tier "
                "(e.g. 'transient'); static faults do not change between "
                "read passes"
            )

    def build_scenario(self) -> FaultScenario:
        """Resolve the scenario layer into a live pipeline.

        Delegates to :meth:`ScenarioSpec.build`, which resolves through
        :data:`repro.dse.registry.REGISTRY` (kind ``"scenario"``) -- the same
        lookup the sweep engine performs, so custom scenarios registered
        there are reachable from spec files by name end-to-end.
        """
        return self.scenario.build()

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    @property
    def organization(self) -> MemoryOrganization:
        """The memory organization under study."""
        return self.geometry.organization

    def operating_points(self) -> List[OperatingPoint]:
        """The operating-point axis, fully characterised."""
        return self.operating_grid.operating_points(self.organization)

    def grid_size(self) -> int:
        """Number of (operating point, benchmark, scheme) grid cells."""
        n_points = len(self.operating_grid.vdd_values) + len(
            self.operating_grid.p_cell_values
        )
        return n_points * len(self.benchmarks.names) * len(self.scheme_grid.specs)

    def experiment_config(
        self, point: OperatingPoint, benchmark_name: str
    ) -> ExperimentConfig:
        """The engine configuration of one (operating point, benchmark) cell."""
        return ExperimentConfig(
            rows=self.geometry.rows,
            word_width=self.geometry.word_width,
            p_cell=point.p_cell,
            coverage=self.budget.coverage,
            samples_per_count=self.budget.samples_per_count,
            n_count_points=self.budget.n_count_points,
            master_seed=self.budget.master_seed,
            scheme_specs=self.scheme_grid.specs,
            discard_multi_fault_words=self.budget.discard_multi_fault_words,
            frac_bits=self.geometry.frac_bits,
            benchmark=benchmark_name,
            # ExperimentConfig normalises the default scenario to None, so
            # default-spec grid points hash exactly as before the scenario
            # layer existed.
            scenario=self.scenario,
            # None in fixed mode, so fixed-budget grid points keep their
            # historical checkpoint hashes; an adaptive budget keys them.
            adaptive=self.budget.adaptive_budget(),
            access_trace=self.access_trace,
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (lists instead of tuples)."""
        data = asdict(self)
        data["operating_grid"]["vdd_values"] = list(
            self.operating_grid.vdd_values
        )
        data["operating_grid"]["p_cell_values"] = list(
            self.operating_grid.p_cell_values
        )
        data["operating_grid"]["pcell_params"] = {
            k: v for k, v in self.operating_grid.pcell_params
        }
        data["scheme_grid"]["specs"] = list(self.scheme_grid.specs)
        data["benchmarks"]["names"] = list(self.benchmarks.names)
        data["scenario"] = self.scenario.to_dict()
        if self.access_trace == 1:
            # Keep default-spec JSON byte-identical to the pre-transient
            # format (and round-trippable by older readers).
            del data["access_trace"]
        if self.optimizer is None:
            # Same only-when-present rule: specs without a budgeted-optimizer
            # section keep their historical JSON byte-for-byte.
            del data["optimizer"]
        return data

    def to_json(self, indent: int = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        """Write the spec as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        """Build a spec from a plain mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ExperimentSpec keys {unknown}; expected a subset "
                f"of {sorted(known)}"
            )
        if "geometry" not in data:
            raise ValueError("ExperimentSpec requires a 'geometry' section")
        if "operating_grid" not in data:
            raise ValueError("ExperimentSpec requires an 'operating_grid' section")
        if "scheme_grid" not in data:
            raise ValueError("ExperimentSpec requires a 'scheme_grid' section")
        operating = dict(data["operating_grid"])
        if isinstance(operating.get("pcell_params"), Mapping):
            operating["pcell_params"] = tuple(
                sorted(operating["pcell_params"].items())
            )
        kwargs: Dict[str, object] = {
            "geometry": _from_checked_dict(
                GeometrySpec, data["geometry"], "geometry"
            ),
            "operating_grid": _from_checked_dict(
                OperatingGridSpec, operating, "operating_grid"
            ),
            "scheme_grid": _from_checked_dict(
                SchemeGridSpec, data["scheme_grid"], "scheme_grid"
            ),
        }
        if "budget" in data:
            kwargs["budget"] = _from_checked_dict(
                McBudgetSpec, data["budget"], "budget"
            )
        if "benchmarks" in data:
            kwargs["benchmarks"] = _from_checked_dict(
                BenchmarkGridSpec, data["benchmarks"], "benchmarks"
            )
        if "quality_yield_target" in data:
            kwargs["quality_yield_target"] = data["quality_yield_target"]
        if "access_trace" in data:
            kwargs["access_trace"] = data["access_trace"]
        if "optimizer" in data and data["optimizer"] is not None:
            # Older files carry a no-op flag of the removed rung-0 ordering.
            optimizer = dict(data["optimizer"])
            optimizer.pop("warm_start", None)
            kwargs["optimizer"] = _from_checked_dict(
                OptimizerSpec, optimizer, "optimizer"
            )
        if "scenario" in data:
            scenario = ScenarioSpec.from_dict(data["scenario"])
            # Resolve through the registry now: an unknown scenario name or
            # invalid parameter set must fail at load time, not halfway
            # through a sweep.
            try:
                REGISTRY.build(
                    "scenario", scenario.name, **dict(scenario.params)
                )
            except (TypeError, ValueError) as error:
                # TypeError covers custom-registered factories called with a
                # bad parameter set; both must surface as the documented
                # load-time failure.
                raise ValueError(f"invalid scenario section: {error}") from error
            kwargs["scenario"] = scenario
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
