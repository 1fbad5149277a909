"""Snapshot serialization for the distance service.

A snapshot is one compressed ``.npz`` holding the dense vector
matrices plus a JSON header (identifiers and landmark set), so a
service can be fitted once offline and shipped to any number of
query frontends — the deployment split the IDES architecture implies.

Identifiers must be JSON-representable scalars (``str`` or ``int``) to
survive the round trip; richer keys are an in-memory-only convenience.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ValidationError

__all__ = ["ServiceSnapshot", "save_snapshot", "load_snapshot"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ServiceSnapshot:
    """Everything needed to rebuild a :class:`DistanceService`.

    Attributes:
        ids: identifiers of every stored host (landmarks included).
        outgoing / incoming: ``(n, d)`` vector matrices, row i for
            ``ids[i]``.
        landmark_ids: the subset of ``ids`` acting as landmarks.
    """

    ids: list
    outgoing: np.ndarray
    incoming: np.ndarray
    landmark_ids: list

    def __post_init__(self) -> None:
        if len(self.ids) != self.outgoing.shape[0]:
            raise ValidationError(
                f"snapshot has {len(self.ids)} ids for "
                f"{self.outgoing.shape[0]} vector rows"
            )
        if self.outgoing.shape != self.incoming.shape:
            raise ValidationError(
                f"snapshot matrices disagree: {self.outgoing.shape} vs "
                f"{self.incoming.shape}"
            )
        known = set(self.ids)
        unknown = [i for i in self.landmark_ids if i not in known]
        if unknown:
            raise ValidationError(f"landmark ids not in snapshot: {unknown!r}")

    @property
    def dimension(self) -> int:
        """Model dimension ``d``."""
        return self.outgoing.shape[1]

    @property
    def n_hosts(self) -> int:
        """Stored hosts, landmarks included."""
        return len(self.ids)


def _check_serializable(ids: list, name: str) -> None:
    for identifier in ids:
        if not isinstance(identifier, (str, int)):
            raise ValidationError(
                f"{name} contains {identifier!r}; snapshots support only "
                "str or int host identifiers"
            )


def save_snapshot(snapshot: ServiceSnapshot, path: str | Path) -> Path:
    """Write the snapshot to ``path`` as a compressed ``.npz``."""
    _check_serializable(snapshot.ids, "ids")
    _check_serializable(snapshot.landmark_ids, "landmark_ids")
    destination = Path(path)
    header = json.dumps(
        {
            "format_version": _FORMAT_VERSION,
            "ids": snapshot.ids,
            "landmark_ids": snapshot.landmark_ids,
        }
    )
    np.savez_compressed(
        destination,
        header=np.array(header),
        outgoing=snapshot.outgoing,
        incoming=snapshot.incoming,
    )
    # np.savez appends .npz when the name lacks it; report the real path.
    if destination.suffix != ".npz":
        destination = destination.with_suffix(destination.suffix + ".npz")
    return destination


def load_snapshot(path: str | Path) -> ServiceSnapshot:
    """Read a snapshot previously written by :func:`save_snapshot`.

    Header keys other than the ones :func:`save_snapshot` writes are
    ignored, such as the ``n_shards`` layout key that older writers
    added.
    """
    source = Path(path)
    if not source.exists():
        raise ValidationError(f"snapshot file not found: {source}")
    try:
        archive = np.load(source, allow_pickle=False)
    except (ValueError, OSError) as broken:
        raise ValidationError(
            f"{source} is not a service snapshot: {broken}"
        ) from None
    with archive:
        try:
            header = json.loads(str(archive["header"]))
            outgoing = archive["outgoing"]
            incoming = archive["incoming"]
        except KeyError as missing:
            raise ValidationError(
                f"{source} is not a service snapshot ({missing.args[0]})"
            ) from None
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValidationError(
            f"unsupported snapshot format version {version!r} in {source}"
        )
    return ServiceSnapshot(
        ids=list(header["ids"]),
        outgoing=np.asarray(outgoing, dtype=float),
        incoming=np.asarray(incoming, dtype=float),
        landmark_ids=list(header["landmark_ids"]),
    )
