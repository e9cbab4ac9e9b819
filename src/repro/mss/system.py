"""Wiring: a complete simulated MSS and trace replay.

``MSSSystem.replay_columns(batches, path_of)`` pushes a batch stream
through the full simulator -- MSCP, bitfile movers, disk array, tape
silo, shelf station, operators -- and returns the same batches with
*simulated* startup latencies and transfer times, plus a
:class:`MetricsCollector` holding the Section 5.1.1 decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.mss.disk import DiskArray, DiskConfig
from repro.mss.kernel import Simulator
from repro.mss.metrics import MetricsCollector
from repro.mss.mscp import MSCP, MSCPConfig
from repro.mss.operators import OperatorConfig, OperatorPool
from repro.mss.request import MSSRequest
from repro.mss.tape import ShelfStation, TapeConfig, TapeSilo
from repro.trace.record import Device
from repro.util.rng import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass(frozen=True)
class MSSConfig:
    """Hardware shape of the simulated MSS (defaults = Section 3.1)."""

    seed: int = 0
    disk: DiskConfig = field(default_factory=DiskConfig)
    silo: TapeConfig = field(default_factory=TapeConfig)
    shelf: TapeConfig = field(default_factory=lambda: TapeConfig(n_drives=3))
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    mscp: MSCPConfig = field(default_factory=MSCPConfig)
    n_robots: int = 2


class MSSSystem:
    """A live simulated MSS."""

    def __init__(self, config: Optional[MSSConfig] = None) -> None:
        self.config = config or MSSConfig()
        seeds = SeedSequenceFactory(self.config.seed)
        self.sim = Simulator()
        self.operators = OperatorPool(
            self.sim, seeds.named("operators"), self.config.operators
        )
        self.disk = DiskArray(self.sim, seeds.named("disk"), self.config.disk)
        self.silo = TapeSilo(
            self.sim, seeds.named("silo"), self.config.silo, self.config.n_robots
        )
        self.shelf = ShelfStation(
            self.sim, seeds.named("shelf"), self.operators, self.config.shelf
        )
        self.devices: Dict[Device, object] = {
            Device.MSS_DISK: self.disk,
            Device.TAPE_SILO: self.silo,
            Device.TAPE_SHELF: self.shelf,
        }
        self.mscp = MSCP(self.sim, seeds.named("mscp"), self.devices, self.config.mscp)
        self.metrics = MetricsCollector()
        self._next_id = 0

    # ------------------------------------------------------------------
    # Single-request interface (used by the HSM and by tests)

    def submit(
        self,
        path: str,
        size: int,
        is_write: bool,
        device: Device,
        when: Optional[float] = None,
    ) -> MSSRequest:
        """Schedule one request; returns the request object (latencies are
        filled once the simulator runs past its completion)."""
        arrival = self.sim.now if when is None else when
        request = MSSRequest(
            request_id=self._next_id,
            path=path,
            size=size,
            is_write=is_write,
            device=device,
            arrival_time=arrival,
            directory=path.rsplit("/", 1)[0] or "/",
        )
        self._next_id += 1

        def submit_now() -> None:
            self.mscp.submit(request, self.metrics.record)

        self.sim.schedule_at(arrival, submit_now)
        return request

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until)

    # ------------------------------------------------------------------
    # Trace replay

    def replay_columns(
        self, batches: Iterable["EventBatch"], path_of: Callable[[int], str]
    ) -> Tuple[List["EventBatch"], MetricsCollector]:
        """Replay a time-ordered batch stream and return it *as batches*.

        Requests are submitted straight from the columns, in stream
        order, with ``path_of(file_id)`` naming each file (a namespace's
        :meth:`~repro.namespace.model.Namespace.path_of`, or the path
        list :func:`repro.trace.store.batches_from_records` fills in).
        The simulated startup latencies and transfer times come back as
        fresh ``latency`` / ``transfer`` columns.  Failed references are
        not submitted and keep their original timings.
        """
        from repro.engine.batch import DEVICE_ORDER, EventBatch
        from repro.verify.invariants import check_mss_replay, invariants_enabled

        batches = list(batches)
        pending: List[Tuple[int, int, MSSRequest]] = []
        for batch_no, batch in enumerate(batches):
            rows = zip(
                batch.file_id.tolist(),
                batch.size.tolist(),
                batch.time.tolist(),
                batch.is_write.tolist(),
                batch.device.tolist(),
                batch.error.tolist(),
            )
            for row_no, (fid, size, time, is_write, device, error) in enumerate(rows):
                if error:
                    continue
                request = self.submit(
                    path=path_of(fid),
                    size=size,
                    is_write=is_write,
                    device=DEVICE_ORDER[device],
                    when=time,
                )
                pending.append((batch_no, row_no, request))
        self.run()
        if invariants_enabled():
            check_mss_replay(self, batches, [request for _, _, request in pending])
        n_rows = [len(batch) for batch in batches]
        latencies = [
            batch.latency.copy() if batch.latency is not None else np.zeros(n)
            for batch, n in zip(batches, n_rows)
        ]
        transfers = [
            batch.transfer.copy() if batch.transfer is not None else np.zeros(n)
            for batch, n in zip(batches, n_rows)
        ]
        for batch_no, row_no, request in pending:
            latencies[batch_no][row_no] = request.startup_latency
            transfers[batch_no][row_no] = request.transfer_time
        out = [
            EventBatch(
                file_id=batch.file_id,
                size=batch.size,
                time=batch.time,
                is_write=batch.is_write,
                device=batch.device,
                error=batch.error,
                user=batch.user,
                latency=latencies[batch_no],
                transfer=transfers[batch_no],
            )
            for batch_no, batch in enumerate(batches)
        ]
        return out, self.metrics

