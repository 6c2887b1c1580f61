"""The benchmark's seeded, signal-bearing corpus.

Every workload draws from one corpus built here from ``--seed``:

* **drives** come from :func:`repro.vehicle.traffic.generate_drive_columns`
  over a fixed ladder of lengths (about 1 to 10 minutes, right-skewed
  like real trip lengths).  The seed moves the traffic, never the
  lengths, scenarios or attack rows, so run-to-run variation in cost
  comes from the system and not from a reshuffled workload size;
* **payloads** are filled, vectorised, with the rules of
  :func:`repro.vehicle.signals.default_payload_for` (rolling counters,
  quantised sensor channels with an XOR checksum, sparse status flags),
  instead of the generator's all-zero default;
* **attacks** from the six rows of the paper's Table I
  (:data:`repro.experiments.scenarios.TABLE1_SCENARIOS`), one row per
  attacked drive, are merged into every other drive, with ground-truth
  labels.

The reference for every operation is the report of the serial in-RAM
:meth:`IDSPipeline.analyze` over the same columns.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import IDSConfig
from repro.core.pipeline import IDSPipeline
from repro.core.template import GoldenTemplate, TemplateBuilder
from repro.experiments.scenarios import TABLE1_SCENARIOS
from repro.io.columnar import ColumnTrace
from repro.vehicle.driving import STANDARD_SCENARIOS
from repro.vehicle.ecu_profiles import assignments_for
from repro.vehicle.ids_catalog import VehicleCatalog, ford_fusion_catalog
from repro.vehicle.traffic import generate_drive_columns

#: Drive lengths in seconds.  Nine drives fit in one fabric result line
#: (under 135 s at the default 2 s window) and three do not; the ladder
#: is fixed so that every seed has the same cost profile.
DRIVE_LENGTHS_S = (60, 66, 72, 79, 87, 96, 105, 116, 128, 180, 330, 600)

#: Clean drives that make up a fleet vehicle's history before the
#: timed loop starts (one per vehicle).
HISTORY_LENGTHS_S = (60, 72, 87, 105)

#: Clean training drives for the golden template, one per scenario.
TRAINING_LENGTH_S = 20

#: The line limit the coordinator reads results with (asyncio's default
#: ``StreamReader`` limit); recorded per workload, never used to pick data.
LINE_LIMIT_BYTES = 64 * 1024

#: A payload column that deflates better than this is rejected: the
#: all-zero default deflates about 1000:1, signal-bearing payloads 2-4:1.
MAX_PAYLOAD_DEFLATE_RATIO = 20.0


@dataclass
class Drive:
    """One generated drive and its serial in-RAM reference."""

    name: str
    length_s: int
    columns: ColumnTrace
    attack: Optional[str] = None
    reference: str = ""  # canonical JSON of the reference report
    reference_dr: float = 0.0
    reference_fpr: float = 0.0
    attack_messages: int = 0

    @property
    def frames(self) -> int:
        return len(self.columns)


@dataclass
class Corpus:
    seed: int
    catalog: VehicleCatalog
    config: IDSConfig
    training: List[ColumnTrace]
    drives: List[Drive]
    history: List[Drive]
    template: Optional[GoldenTemplate] = None

    @property
    def id_pool(self):
        return self.catalog.ids

    def pipeline(self) -> IDSPipeline:
        return IDSPipeline(self.template, self.config, self.id_pool)


def canonical(report) -> str:
    """Bit-exact rendering of a report: key order, types and ``-0.0``."""
    return json.dumps(report.to_dict(), allow_nan=True)


def fill_payloads(ct: ColumnTrace, catalog: VehicleCatalog) -> None:
    """Overwrite ``ct``'s payload bytes in place, per catalog rules.

    Vectorised per identifier: ``seq`` is each frame's occurrence index
    of its identifier in the drive, as the ECU's message counter would
    be.  Unknown identifiers (attack frames) keep their bytes.
    """
    ids = ct.can_id
    offsets = ct.payload_offsets
    payload = ct.payload
    for entry in catalog:
        rows = np.flatnonzero(ids == entry.can_id)
        if rows.size == 0:
            continue
        dlc = int(offsets[rows[0] + 1] - offsets[rows[0]])
        if dlc == 0:
            continue
        seq = np.arange(rows.size, dtype=np.int64)
        data = _payload_rows(entry.cluster, dlc, entry.can_id, seq)
        index = offsets[rows][:, None] + np.arange(dlc)[None, :]
        payload[index] = data


def _payload_rows(cluster: str, dlc: int, can_id: int, seq: np.ndarray) -> np.ndarray:
    n = seq.size
    out = np.zeros((n, dlc), dtype=np.uint8)
    if cluster in ("powertrain", "chassis"):
        # with_checksum(sensor_channel(dlc, seed=can_id))
        rng = np.random.default_rng(can_id)
        noise = rng.normal(0.0, 2.0, n)
        wave = 0x6000 * np.sin(2 * np.pi * seq / 200.0) + noise * 256
        sample = 0x7FFF + np.trunc(wave).astype(np.int64)
        np.clip(sample, 0, 0xFFFF, out=sample)
        out[:, 0] = ((seq % 16) << 4 | (seq // 64) % 16).astype(np.uint8)
        if dlc >= 3:
            out[:, 1] = (sample >> 8) & 0xFF
            out[:, 2] = sample & 0xFF
        for i in range(3, dlc):
            lagged = np.maximum(0, sample - (i - 2) * 17)
            out[:, i] = (lagged >> 4) & 0xFF
        if dlc > 1:
            out[:, -1] = np.bitwise_xor.reduce(out[:, :-1], axis=1)
        else:
            out[:, -1] = 0
    elif cluster in ("body", "comfort"):
        # status_flags(dlc, toggle_every=50, seed=can_id)
        rng = np.random.default_rng(can_id)
        mask = 0
        for _ in range(dlc):
            mask = (mask << 8) | int(rng.integers(0, 256))
        epoch = (seq // 50 + 1).astype(np.uint64)
        with np.errstate(over="ignore"):
            value = np.uint64(mask) ^ (np.uint64(0x9E3779B97F4A7C15) * epoch)
        for i in range(dlc):
            out[:, i] = (value >> np.uint64(8 * (dlc - 1 - i))) & np.uint64(0xFF)
    else:
        # rolling_counter(dlc): big-endian message counter
        value = seq.astype(np.uint64)
        for i in range(dlc):
            shift = 8 * (dlc - 1 - i)
            out[:, i] = (value >> np.uint64(shift)) & np.uint64(0xFF) if shift < 64 else 0
    return out


def _attack_columns(spec, catalog, frequency_hz, seed, start_s, duration_s) -> ColumnTrace:
    """A Table I attacker's injection attempts, as labelled columns.

    The drive generator has no arbitration, so every attempt lands at
    its scheduled slot; the attacker object chooses identifiers and
    payloads exactly as it would on the simulated bus.
    """
    attacker = spec.build_attacker(
        catalog, assignments_for(catalog), frequency_hz, seed, start_s, duration_s
    )
    stamps = np.arange(attacker.start_us, attacker.end_us, attacker.period_us, dtype=np.int64)
    ids = np.array([attacker.select_id() for _ in stamps], dtype=np.int64)
    payload = np.frombuffer(
        b"".join(attacker.build_payload() for _ in stamps), dtype=np.uint8
    ).copy()
    offsets = np.arange(stamps.size + 1, dtype=np.int64) * 8
    return ColumnTrace(
        stamps,
        ids,
        payload=payload,
        payload_offsets=offsets,
        source_code=np.zeros(stamps.size, dtype=np.int32),
        source_table=(attacker.name,),
        is_attack=np.ones(stamps.size, dtype=bool),
    )


def _drive(catalog, name, length_s, seed, scenario, attack_row=None) -> Drive:
    ct = generate_drive_columns(length_s, scenario=scenario, seed=seed, catalog=catalog)
    fill_payloads(ct, catalog)
    attack = None
    if attack_row is not None:
        spec = TABLE1_SCENARIOS[attack_row]
        frequency = spec.frequencies_hz[1]
        start_s = round(length_s * 0.3, 3)
        duration_s = max(10.0, round(length_s * 0.2, 3))
        injected = _attack_columns(spec, catalog, frequency, seed, start_s, duration_s)
        ct = ColumnTrace.merge(ct, injected)
        attack = f"{spec.name}@{frequency:g}Hz"
    return Drive(name=name, length_s=length_s, columns=ct, attack=attack)


def build(seed: int) -> Corpus:
    """Synthesise the corpus for ``seed`` (not timed by any metric).

    Each drive's length, driving scenario and attack row are fixed by
    its position; the seed moves release jitter, event arrivals, the
    attacker's identifiers and payloads.  Frame counts, and so the cost
    of every operation, are nearly the same for every seed.
    """
    catalog = ford_fusion_catalog(seed=0)
    config = IDSConfig()
    base = int(seed) * 1000
    scenarios = [s.name for s in STANDARD_SCENARIOS]
    training = []
    for i, scenario in enumerate(scenarios):
        ct = generate_drive_columns(
            TRAINING_LENGTH_S, scenario=scenario, seed=base + 900 + i, catalog=catalog
        )
        fill_payloads(ct, catalog)
        training.append(ct)
    drives = []
    for k, length in enumerate(DRIVE_LENGTHS_S):
        attack_row = (k // 2) % len(TABLE1_SCENARIOS) if k % 2 else None
        drives.append(
            _drive(catalog, f"drive{k:02d}", length, base + k,
                   scenarios[k % len(scenarios)], attack_row)
        )
    history = [
        _drive(catalog, f"history{k:02d}", length, base + 500 + k,
               scenarios[k % len(scenarios)])
        for k, length in enumerate(HISTORY_LENGTHS_S)
    ]
    corpus = Corpus(seed, catalog, config, training, drives, history)
    corpus.template = train_template(corpus)
    pipeline = corpus.pipeline()
    for drive in drives + history:
        report = pipeline.analyze(drive.columns)
        drive.reference = canonical(report)
        drive.reference_dr = report.detection_rate
        drive.reference_fpr = report.false_positive_rate
        drive.attack_messages = int(drive.columns.is_attack.sum())
    return corpus


def train_template(corpus: Corpus) -> GoldenTemplate:
    """The program's own set-up step: golden-template training."""
    builder = TemplateBuilder(corpus.config)
    for ct in corpus.training:
        builder.add_trace_windows(ct)
    return builder.build()


def payload_deflate_ratio(drives: List[Drive]) -> float:
    raw = b"".join(d.columns.payload.tobytes() for d in drives)
    return len(raw) / max(1, len(zlib.compress(raw, 6)))


def check(corpus: Corpus, drives: List[Drive]) -> Dict[str, object]:
    """Corpus checks made at set-up, recorded in the detail record.

    Refuses payloads that deflate like all-zero bytes, and records what
    a later corpus change must not quietly hide: the share of captures
    whose serial result JSON exceeds the coordinator's line limit, the
    attack share and the reference detection rate and FPR.
    """
    ratio = payload_deflate_ratio(drives)
    if ratio > MAX_PAYLOAD_DEFLATE_RATIO:
        raise SystemExit(
            f"corpus payloads deflate {ratio:.0f}:1, like all-zero bytes; "
            f"the benchmark needs signal-bearing payloads"
        )
    over = 0
    for drive in drives:
        windows = json.loads(drive.reference)["windows"]
        if len(json.dumps(windows)) > LINE_LIMIT_BYTES:
            over += 1
    attacked = [d for d in drives if d.attack]
    detected = sum(
        round(d.reference_dr * d.attack_messages) for d in attacked
    )
    injected = sum(d.attack_messages for d in attacked)
    lengths = [d.length_s for d in drives]
    return {
        "captures": len(drives),
        "frames": sum(d.frames for d in drives),
        "length_s": {"min": min(lengths), "max": max(lengths),
                     "median": float(np.median(lengths))},
        "payload_deflate_ratio": round(ratio, 4),
        "result_over_line_limit_share": over / len(drives),
        "attack_share": len(attacked) / len(drives),
        "attacks": [d.attack for d in attacked],
        "reference_dr": detected / injected if injected else 0.0,
        "reference_fpr_max": max(d.reference_fpr for d in drives),
    }
