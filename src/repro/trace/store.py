"""Trace-file <-> columnar-store bridge.

An ASCII trace file (the Table 2 record format) is the interchange
artifact; the columnar :class:`~repro.engine.store.TraceStore` is the
analysis artifact.  This module converts record streams into batch
streams -- interning MSS paths into dense file ids the way the columnar
analyses expect -- and imports whole trace files into stores, so a
captured (or externally produced) trace can be analyzed many times
without re-parsing text.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.engine.batch import DEFAULT_CHUNK_SIZE, EventBatch, device_index
from repro.engine.store import TraceStore
from repro.trace.errors import ErrorKind
from repro.trace.reader import TraceReader
from repro.trace.record import TraceRecord

__all__ = ["TraceStore", "batches_from_records", "import_trace_file"]


def batches_from_records(
    records: Iterable[TraceRecord],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    paths: Optional[List[str]] = None,
) -> Iterator[EventBatch]:
    """A record stream as columnar batches, interning paths to file ids.

    File ids are assigned densely in order of first appearance of each
    ``mss_path`` -- the grouping the columnar analyses (reference counts,
    per-file gaps) need.  NO_SUCH_FILE errors get negative ids, matching
    the generator's convention for references to never-existed files.
    When ``paths`` is given (an empty list), each newly interned path is
    appended to it, so ``paths[file_id]`` names every non-negative id
    yielded so far.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    ids: Dict[str, int] = {}
    n_missing = 0
    rows: List[tuple] = []

    def flush(rows: List[tuple]) -> EventBatch:
        columns = list(zip(*rows))
        return EventBatch.from_columns(
            file_id=np.asarray(columns[0], dtype=np.int64),
            size=columns[1],
            time=columns[2],
            is_write=columns[3],
            device=columns[4],
            error=columns[5],
            user=columns[6],
            latency=columns[7],
            transfer=columns[8],
        )

    for record in records:
        if record.error is ErrorKind.NO_SUCH_FILE:
            n_missing += 1
            file_id = -n_missing
        else:
            file_id = ids.get(record.mss_path)
            if file_id is None:
                file_id = ids[record.mss_path] = len(ids)
                if paths is not None:
                    paths.append(record.mss_path)
        rows.append(
            (
                file_id,
                record.file_size,
                record.start_time,
                record.is_write,
                device_index(record.storage_device),
                int(record.error),
                record.user_id,
                record.startup_latency,
                record.transfer_time,
            )
        )
        if len(rows) >= chunk_size:
            yield flush(rows)
            rows = []
    if rows:
        yield flush(rows)


def import_trace_file(
    trace_path: Union[str, Path],
    store_path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overwrite: bool = False,
) -> TraceStore:
    """Convert an ASCII trace file into a columnar store directory.

    The store carries no config hash (the stream did not come from the
    generator), so it never matches a content-addressed cache slot; open
    it explicitly by path (``repro analyze <dir>``, ``repro trace info``).
    """
    trace_path = Path(trace_path)
    with TraceReader(trace_path) as reader:
        return TraceStore.write(
            store_path,
            batches_from_records(iter(reader), chunk_size=chunk_size),
            variant="imported",
            meta={"source": str(trace_path)},
            overwrite=overwrite,
        )
