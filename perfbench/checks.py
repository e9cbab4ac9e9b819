"""Output checks: digests of simulated results and shipped references.

References are stored for :data:`DEFAULT_SEED` only, keyed by workload;
other seeds are checked by cross-engine agreement and pass-to-pass
determinism (see each workload module).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(document: Any) -> str:
    """Stable JSON text (floats keep every digit, NaN spelled out)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def digest_json(document: Any) -> str:
    return digest_text(canonical(document))


def metrics_dict(metrics: Any) -> Dict[str, Any]:
    """An HSMMetrics (slotted dataclass) as a plain dict."""
    return dataclasses.asdict(metrics)


def load_references(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Shipped digests for ``workload``, or None off the default seed."""
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(workload)


def mismatched(
    digests: Mapping[str, str], references: Optional[Mapping[str, str]]
) -> list:
    """Keys whose digest differs from (or is missing in) the references."""
    if references is None:
        return []
    keys = set(digests) | set(references)
    return sorted(k for k in keys if digests.get(k) != references.get(k))
