"""Read-path overhead comparison of protection schemes (Fig. 6).

For every scheme the model assembles the read path that sits between the SRAM
macro and the consuming logic, plus the storage columns the scheme adds, and
reports three overhead numbers relative to an unprotected memory:

* **read power** -- energy drawn per read access by the extra columns and the
  scheme's read-side logic,
* **read delay** -- logic delay added to the read access path,
* **area** -- extra storage columns plus all scheme logic (read and write
  side), since silicon area is paid regardless of which path uses it.

Fig. 6 normalises every scheme to the H(39,32) SECDED baseline;
:class:`OverheadReport` performs that normalisation and also reports the
savings percentages quoted in the paper's abstract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.core.segments import max_lut_bits
from repro.ecc.hamming import secded_code_for_data_bits
from repro.hardware.ecc_logic import hamming_decoder_cost, hamming_encoder_cost
from repro.hardware.gates import GateCost
from repro.hardware.shifter import (
    barrel_rotator_cost,
    fm_lut_register_cost,
    rotation_control_cost,
)
from repro.hardware.sram_macro import SramMacroModel
from repro.hardware.technology import Technology
from repro.memory.organization import MemoryOrganization

__all__ = [
    "ReadPathOverhead",
    "WritePathOverhead",
    "OverheadReport",
    "OverheadModel",
]


@dataclass(frozen=True)
class ReadPathOverhead:
    """Absolute overhead of one scheme relative to an unprotected memory."""

    scheme: str
    read_power_fj: float
    read_delay_ps: float
    area_um2: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view of the three overhead metrics."""
        return {
            "read_power_fj": self.read_power_fj,
            "read_delay_ps": self.read_delay_ps,
            "area_um2": self.area_um2,
        }


@dataclass(frozen=True)
class WritePathOverhead:
    """Absolute write-path overhead of one scheme relative to an unprotected memory.

    The paper's Fig. 6 considers only the readout path (writes are off the
    critical path for the studied applications) but explicitly notes the
    write-latency penalty of the in-array FM-LUT realisation: the LUT entry
    must be read before the shifted data can be written.  This record captures
    that side of the trade-off.
    """

    scheme: str
    write_power_fj: float
    write_delay_ps: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view of the two write-overhead metrics."""
        return {
            "write_power_fj": self.write_power_fj,
            "write_delay_ps": self.write_delay_ps,
        }


@dataclass
class OverheadReport:
    """Collection of per-scheme overheads with Fig. 6 style normalisation."""

    baseline: str
    overheads: Dict[str, ReadPathOverhead]

    def relative_to_baseline(self) -> Dict[str, Dict[str, float]]:
        """Overhead of every scheme as a fraction of the baseline's (Fig. 6 bars)."""
        base = self.overheads[self.baseline]
        result: Dict[str, Dict[str, float]] = {}
        for name, ov in self.overheads.items():
            result[name] = {
                "read_power": _ratio(ov.read_power_fj, base.read_power_fj),
                "read_delay": _ratio(ov.read_delay_ps, base.read_delay_ps),
                "area": _ratio(ov.area_um2, base.area_um2),
            }
        return result

    def savings_vs_baseline(self) -> Dict[str, Dict[str, float]]:
        """Percentage savings of every scheme versus the baseline (abstract numbers)."""
        return {
            name: {metric: 100.0 * (1.0 - value) for metric, value in rel.items()}
            for name, rel in self.relative_to_baseline().items()
        }

    def savings_between(self, scheme: str, reference: str) -> Dict[str, float]:
        """Percentage savings of ``scheme`` relative to ``reference`` (e.g. vs P-ECC)."""
        target = self.overheads[scheme]
        ref = self.overheads[reference]
        return {
            "read_power": 100.0 * (1.0 - _ratio(target.read_power_fj, ref.read_power_fj)),
            "read_delay": 100.0 * (1.0 - _ratio(target.read_delay_ps, ref.read_delay_ps)),
            "area": 100.0 * (1.0 - _ratio(target.area_um2, ref.area_um2)),
        }

    def scheme_names(self) -> List[str]:
        """Schemes included in the report, baseline first."""
        names = [self.baseline]
        names.extend(name for name in self.overheads if name != self.baseline)
        return names


def _ratio(value: float, base: float) -> float:
    if base <= 0:
        raise ValueError("baseline overhead must be positive to normalise")
    return value / base


class OverheadModel:
    """Structural read-path overhead estimator for all schemes of the paper.

    Parameters
    ----------
    organization:
        Memory geometry; the number of rows sets the storage cost of extra
        columns.
    technology:
        Process constants (defaults to the 28 nm FD-SOI calibration).
    """

    def __init__(
        self,
        organization: MemoryOrganization,
        technology: Optional[Technology] = None,
    ) -> None:
        self._organization = organization
        self._technology = technology if technology is not None else Technology.fdsoi_28nm()
        self._macro = SramMacroModel(self._technology)

    # ------------------------------------------------------------------ #
    # Unit conversion
    # ------------------------------------------------------------------ #
    def _to_power_fj(self, cost: GateCost) -> float:
        return cost.energy * self._technology.gate_energy_fj

    def _to_delay_ps(self, cost: GateCost) -> float:
        return cost.delay * self._technology.gate_delay_ps

    def _to_area_um2(self, cost: GateCost) -> float:
        return cost.area * self._technology.nand2_area_um2

    # ------------------------------------------------------------------ #
    # Per-scheme overheads
    # ------------------------------------------------------------------ #
    def secded_overhead(self) -> ReadPathOverhead:
        """H(39,32)-class SECDED: parity columns + decoder on the read path."""
        code = secded_code_for_data_bits(self._organization.word_width)
        decoder = hamming_decoder_cost(code)
        encoder = hamming_encoder_cost(code)
        columns = code.parity_bits
        return ReadPathOverhead(
            scheme=SecdedScheme(self._organization.word_width).name,
            read_power_fj=self._to_power_fj(decoder)
            + self._macro.read_energy_fj(columns),
            read_delay_ps=self._to_delay_ps(decoder),
            area_um2=self._to_area_um2(decoder)
            + self._to_area_um2(encoder)
            + self._macro.column_area_um2(self._organization.rows, columns),
        )

    def priority_ecc_overhead(self) -> ReadPathOverhead:
        """H(22,16)-class P-ECC: smaller code on the MSB half of each word."""
        scheme = PriorityEccScheme(self._organization.word_width)
        code = scheme.code
        decoder = hamming_decoder_cost(code)
        encoder = hamming_encoder_cost(code)
        columns = code.parity_bits
        return ReadPathOverhead(
            scheme=scheme.name,
            read_power_fj=self._to_power_fj(decoder)
            + self._macro.read_energy_fj(columns),
            read_delay_ps=self._to_delay_ps(decoder),
            area_um2=self._to_area_um2(decoder)
            + self._to_area_um2(encoder)
            + self._macro.column_area_um2(self._organization.rows, columns),
        )

    def bit_shuffle_overhead(
        self, n_fm: int, lut_realisation: str = "column"
    ) -> ReadPathOverhead:
        """Bit-shuffling with ``nFM`` LUT bits: rotator + FM-LUT storage.

        ``lut_realisation`` selects between the paper's straightforward
        in-array column LUT (``"column"``) and a register-file LUT
        (``"register"``), the ablation mentioned in Section 5.1.
        """
        if lut_realisation not in ("column", "register"):
            raise ValueError("lut_realisation must be 'column' or 'register'")
        width = self._organization.word_width
        scheme = BitShuffleScheme(width, n_fm)
        read_rotator = barrel_rotator_cost(width, n_fm).series(
            rotation_control_cost(n_fm)
        )
        write_rotator = barrel_rotator_cost(width, n_fm)

        if lut_realisation == "column":
            lut_area = self._macro.column_area_um2(self._organization.rows, n_fm)
            lut_read_power = self._macro.read_energy_fj(n_fm)
            lut_logic = GateCost()
        else:
            lut_logic = fm_lut_register_cost(self._organization.rows, n_fm)
            lut_area = self._to_area_um2(lut_logic)
            lut_read_power = self._to_power_fj(lut_logic)

        return ReadPathOverhead(
            scheme=scheme.name,
            read_power_fj=self._to_power_fj(read_rotator) + lut_read_power,
            read_delay_ps=self._to_delay_ps(read_rotator),
            area_um2=self._to_area_um2(read_rotator)
            + self._to_area_um2(write_rotator)
            + lut_area,
        )

    # ------------------------------------------------------------------ #
    # Write-path overheads (the paper's noted LUT read-before-write penalty)
    # ------------------------------------------------------------------ #
    def secded_write_overhead(self) -> WritePathOverhead:
        """SECDED write path: encode the word and write the parity columns."""
        code = secded_code_for_data_bits(self._organization.word_width)
        encoder = hamming_encoder_cost(code)
        return WritePathOverhead(
            scheme=SecdedScheme(self._organization.word_width).name,
            write_power_fj=self._to_power_fj(encoder)
            + self._macro.read_energy_fj(code.parity_bits),
            write_delay_ps=self._to_delay_ps(encoder),
        )

    def priority_ecc_write_overhead(self) -> WritePathOverhead:
        """P-ECC write path: encode the MSB half and write its parity columns."""
        scheme = PriorityEccScheme(self._organization.word_width)
        encoder = hamming_encoder_cost(scheme.code)
        return WritePathOverhead(
            scheme=scheme.name,
            write_power_fj=self._to_power_fj(encoder)
            + self._macro.read_energy_fj(scheme.code.parity_bits),
            write_delay_ps=self._to_delay_ps(encoder),
        )

    def bit_shuffle_write_overhead(
        self, n_fm: int, lut_realisation: str = "column"
    ) -> WritePathOverhead:
        """Bit-shuffling write path: fetch the LUT entry, rotate, then write.

        With the in-array column LUT the entry is only available after a full
        macro read, so every write pays a read-before-write latency penalty on
        top of the rotator -- the drawback the paper acknowledges for its
        straightforward realisation.  The register-file LUT removes the macro
        access from the critical path at the cost of the area modelled in
        :meth:`bit_shuffle_overhead`.
        """
        if lut_realisation not in ("column", "register"):
            raise ValueError("lut_realisation must be 'column' or 'register'")
        width = self._organization.word_width
        scheme = BitShuffleScheme(width, n_fm)
        rotator = barrel_rotator_cost(width, n_fm).series(rotation_control_cost(n_fm))
        if lut_realisation == "column":
            lut_delay = self._macro.read_latency_ps()
            lut_power = self._macro.read_energy_fj(n_fm)
        else:
            lut_logic = fm_lut_register_cost(self._organization.rows, n_fm)
            lut_delay = self._to_delay_ps(lut_logic)
            lut_power = self._to_power_fj(lut_logic)
        return WritePathOverhead(
            scheme=scheme.name,
            write_power_fj=self._to_power_fj(rotator) + lut_power,
            write_delay_ps=self._to_delay_ps(rotator) + lut_delay,
        )

    def compare_write_paths(
        self,
        n_fm_values: Optional[Sequence[int]] = None,
        lut_realisation: str = "column",
    ) -> Dict[str, WritePathOverhead]:
        """Write-path overheads of every scheme (ordered: SECDED, P-ECC, nFM...)."""
        if n_fm_values is None:
            n_fm_values = range(1, max_lut_bits(self._organization.word_width) + 1)
        result: Dict[str, WritePathOverhead] = {}
        secded = self.secded_write_overhead()
        result[secded.scheme] = secded
        pecc = self.priority_ecc_write_overhead()
        result[pecc.scheme] = pecc
        for n_fm in n_fm_values:
            entry = self.bit_shuffle_write_overhead(n_fm, lut_realisation)
            result[entry.scheme] = entry
        return result

    # ------------------------------------------------------------------ #
    # Full comparison
    # ------------------------------------------------------------------ #
    def compare(
        self,
        n_fm_values: Optional[Sequence[int]] = None,
        lut_realisation: str = "column",
    ) -> OverheadReport:
        """Assemble the Fig. 6 comparison: SECDED baseline, P-ECC, and all nFM options."""
        if n_fm_values is None:
            n_fm_values = range(1, max_lut_bits(self._organization.word_width) + 1)
        secded = self.secded_overhead()
        overheads: Dict[str, ReadPathOverhead] = {secded.scheme: secded}
        pecc = self.priority_ecc_overhead()
        overheads[pecc.scheme] = pecc
        for n_fm in n_fm_values:
            entry = self.bit_shuffle_overhead(n_fm, lut_realisation)
            overheads[entry.scheme] = entry
        return OverheadReport(baseline=secded.scheme, overheads=overheads)
