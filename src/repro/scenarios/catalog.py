"""Named scenario catalog: the name grammar behind ``--scenario``.

Every scenario an :class:`~repro.dse.spec.ExperimentSpec` or a CLI flag can
name is assembled here from the pipeline stages of this package:

==============  ==============================================================
name            pipeline
==============  ==============================================================
``iid-pcell``   plain i.i.d. source (aliases ``iid``, ``default``) -- the
                historical sampling, bit-identical to the pre-scenario code
``aged``        i.i.d. source at an :class:`AgingModel`-shifted ``Pcell``
                (``years``, ``temperature_c``, drift-law parameters)
``clustered``   i.i.d. source + :class:`ClusterTransform` row/column bursts
                (``cluster_size``, ``row_fraction``)
``repaired``    i.i.d. source + spare-row/column :class:`RepairStage`
                (``spare_rows``, ``spare_columns``)
``transient``   i.i.d. source + per-read :class:`TransientTier` (``ser``
                bit-flip probability, ``ser_distribution`` bernoulli/poisson,
                ``disturb`` read-disturb probability, ``scrub_interval``
                passes between :class:`ScrubbingRepair` rewrites)
==============  ==============================================================

Unknown names and unknown/invalid parameters raise :class:`ValueError` with
the accepted grammar -- a typo in a spec file must never silently run the
default scenario.  :func:`register_scenario` adds a custom scenario under a
new name; spec files, ``--scenario`` flags and the sweep engine then resolve
it like any catalog entry.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.faultmodel.aging import AgingModel
from repro.scenarios.base import FaultScenario
from repro.scenarios.repair import RepairStage
from repro.scenarios.sources import AgedPcellSource, IidPcellSource
from repro.scenarios.transforms import ClusterTransform
from repro.scenarios.transient import (
    ReadDisturbSource,
    ScrubbingRepair,
    SoftErrorSource,
    TransientTier,
)

__all__ = [
    "SCENARIO_NAMES",
    "build_scenario",
    "default_scenario",
    "register_scenario",
]

#: Canonical catalog names (aliases excluded).
SCENARIO_NAMES: Tuple[str, ...] = (
    "iid-pcell", "aged", "clustered", "repaired", "transient",
)

_ALIASES = {"iid": "iid-pcell", "default": "iid-pcell"}


def default_scenario() -> FaultScenario:
    """The plain i.i.d. pipeline every unconfigured sweep runs."""
    return FaultScenario(name="iid-pcell", source=IidPcellSource())


def _int_param(name: str, value: object) -> int:
    """Strict integer coercion: a fractional value is a config error.

    Silently truncating ``cluster_size=2.9`` to 2 would run a different
    scenario than the one the checkpoint hash (which records the raw
    parameter) describes -- so it must fail loudly instead.
    """
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(
            f"parameter {name!r} must be an integer, got {value!r}"
        )
    try:
        return int(value)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"parameter {name!r} must be an integer, got {value!r}"
        ) from error


def _build_iid() -> FaultScenario:
    return default_scenario()


def _build_aged(
    years: float = 10.0,
    temperature_c: Optional[float] = None,
    drift_at_reference_v: float = 0.040,
    reference_years: float = 10.0,
    time_exponent: float = 0.2,
    activation_energy_ev: float = 0.1,
) -> FaultScenario:
    # Note: AgingModel's per-cell `variability` is deliberately not exposed;
    # the aged scenario acts only through the mean drift, so the parameter
    # could not change any result and would only fragment checkpoint caches.
    aging_model = AgingModel(
        drift_at_reference_v=float(drift_at_reference_v),
        reference_years=float(reference_years),
        time_exponent=float(time_exponent),
        activation_energy_ev=float(activation_energy_ev),
    )
    return FaultScenario(
        name="aged",
        source=AgedPcellSource(
            aging_model=aging_model,
            years=float(years),
            temperature_c=None if temperature_c is None else float(temperature_c),
        ),
    )


def _build_clustered(
    cluster_size: int = 4, row_fraction: float = 0.5
) -> FaultScenario:
    return FaultScenario(
        name="clustered",
        source=IidPcellSource(),
        transforms=(
            ClusterTransform(
                cluster_size=_int_param("cluster_size", cluster_size),
                row_fraction=float(row_fraction),
            ),
        ),
    )


def _build_repaired(spare_rows: int = 4, spare_columns: int = 2) -> FaultScenario:
    return FaultScenario(
        name="repaired",
        source=IidPcellSource(),
        repair=RepairStage(
            spare_rows=_int_param("spare_rows", spare_rows),
            spare_columns=_int_param("spare_columns", spare_columns),
        ),
    )


def _build_transient(
    ser: float = 1e-5,
    disturb: float = 0.0,
    scrub_interval: Optional[int] = None,
    ser_distribution: str = "bernoulli",
) -> FaultScenario:
    # The static i.i.d. base stays: p_cell still governs manufacturing
    # defects; the transient tier adds per-read effects on top of them.
    sources = []
    if float(ser) > 0.0:
        sources.append(
            SoftErrorSource(
                flip_probability=float(ser),
                distribution=str(ser_distribution),
            )
        )
    if float(disturb) > 0.0:
        sources.append(ReadDisturbSource(disturb_probability=float(disturb)))
    if not sources:
        raise ValueError(
            "the transient scenario needs ser > 0 or disturb > 0; with both "
            "zero it would silently run the plain i.i.d. scenario"
        )
    scrubbing = None
    if scrub_interval is not None:
        if float(disturb) <= 0.0:
            raise ValueError(
                "scrub_interval requires disturb > 0: scrubbing repairs "
                "accumulated read-disturb state, and soft errors are not "
                "persistent"
            )
        scrubbing = ScrubbingRepair(
            period=_int_param("scrub_interval", scrub_interval)
        )
    return FaultScenario(
        name="transient",
        source=IidPcellSource(),
        transient=TransientTier(sources=tuple(sources), scrubbing=scrubbing),
    )


_FACTORIES: Dict[str, Callable[..., FaultScenario]] = {
    "iid-pcell": _build_iid,
    "aged": _build_aged,
    "clustered": _build_clustered,
    "repaired": _build_repaired,
    "transient": _build_transient,
}


def register_scenario(name: str, factory: Callable[..., FaultScenario]) -> None:
    """Add ``factory`` to the catalog under ``name`` (case-insensitive).

    ``factory`` takes the scenario's parameters as keyword arguments.  A name
    that is already taken -- a catalog scenario, an alias or an earlier
    registration -- is rejected: a silently shadowed entry would change what
    a saved spec builds.
    """
    key = str(name).strip().lower()
    if key in _FACTORIES or key in _ALIASES:
        raise ValueError(f"scenario {name!r} is already registered")
    _FACTORIES[key] = factory


def build_scenario(name: str, **params) -> FaultScenario:
    """Assemble the catalog scenario named ``name`` with keyword parameters.

    Names are case-insensitive and ``iid`` / ``default`` alias ``iid-pcell``.
    Unknown names and unknown or ill-typed parameters raise
    :class:`ValueError` describing the accepted grammar.
    """
    normalized = str(name).strip().lower()
    normalized = _ALIASES.get(normalized, normalized)
    factory = _FACTORIES.get(normalized)
    if factory is None:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of "
            f"{', '.join(_FACTORIES)}"
        )
    try:
        return factory(**params)
    except TypeError as error:
        raise ValueError(
            f"invalid parameters for scenario {normalized!r}: {error}"
        ) from error
