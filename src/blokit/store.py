"""On-disk enrollment store modeling several devices holding templates.

Layout: one directory per device under the store root, one '.blo' file
per user inside it, and a line-oriented manifest at the root:

    manifest.tsv: deviceId <TAB> userId <TAB> filename <TAB> blockSize
                  <TAB> originalLength <TAB> enrolledAt

Re-enrolling a (device, user) pair replaces the template and updates the
manifest line in place, so listing order is stable.  Single writer,
multiple readers; concurrent writers are out of contract.  Templates are
stored in the clear on purpose: the point of the exercise is that the
templates themselves are the vulnerability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .bits import FeatureVector
from .errors import (
    InvalidArgumentError,
    ManifestError,
    RecordNotFoundError,
    StorageError,
)
from .matcher import MatchDecision, match_templates
from .transform import (
    ProtectedTemplate,
    TransformParams,
    read_template_file,
    transform,
    write_template_file,
)

MANIFEST_NAME = "manifest.tsv"

_FORBIDDEN_ID_CHARS = set('/\\\t\n\r\x00')


@dataclass(frozen=True)
class EnrollmentRecord:
    device_id: str
    user_id: str
    template: ProtectedTemplate
    enrolled_at: int


@dataclass(frozen=True)
class ManifestEntry:
    device_id: str
    user_id: str
    filename: str
    block_size: int
    original_length: int
    enrolled_at: int

    def to_line(self) -> str:
        """The manifest line for this entry, without its newline."""
        return _manifest_line(self)

    @classmethod
    def from_line(cls, line: str, line_no: int) -> "ManifestEntry":
        """Decode one manifest line; a malformed one raises ManifestError at ``line_no``."""
        parts = line.split("\t")
        if len(parts) != 6:
            raise ManifestError(line_no, f"expected 6 tab-separated fields, got {len(parts)}")
        try:
            return cls(parts[0], parts[1], parts[2], int(parts[3]), int(parts[4]), int(parts[5]))
        except ValueError as exc:
            raise ManifestError(line_no, str(exc)) from exc


def _manifest_line(e: ManifestEntry) -> str:
    return (
        f"{e.device_id}\t{e.user_id}\t{e.filename}\t{e.block_size}"
        f"\t{e.original_length}\t{e.enrolled_at}"
    )


def _check_id(kind: str, value: str) -> None:
    if not value or value in (".", "..") or any(c in _FORBIDDEN_ID_CHARS for c in value):
        raise InvalidArgumentError(f"malformed {kind} id: {value!r}")


class TemplateStore:
    """Enrollment store rooted at an existing writable directory."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    def _require_root(self) -> None:
        if not self.root.is_dir():
            raise StorageError(f"store root {self.root} does not exist")

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def enroll(self, record: EnrollmentRecord) -> None:
        """Persist the template and add or replace its manifest entry."""
        _check_id("device", record.device_id)
        _check_id("user", record.user_id)
        self._require_root()
        filename = f"{record.device_id}/{record.user_id}.blo"
        entry = ManifestEntry(
            device_id=record.device_id,
            user_id=record.user_id,
            filename=filename,
            block_size=record.template.params.block_size,
            original_length=record.template.original_length,
            enrolled_at=record.enrolled_at,
        )
        try:
            (self.root / record.device_id).mkdir(exist_ok=True)
            write_template_file(self.root / Path(filename), record.template)
            entries = self.list_records() if self.manifest_path.exists() else []
            for i, existing in enumerate(entries):
                if (existing.device_id, existing.user_id) == (record.device_id, record.user_id):
                    entries[i] = entry
                    break
            else:
                entries.append(entry)
            # Not e.to_line(): perfbench's tracer wraps every public method,
            # and a span per re-encoded entry would swamp the store's own spans.
            text = "".join(_manifest_line(e) + "\n" for e in entries)
            self.manifest_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise StorageError(f"cannot write to store at {self.root}: {exc}") from exc

    def enroll_feature(
        self,
        device_id: str,
        user_id: str,
        fv: FeatureVector,
        params: TransformParams,
        enrolled_at: "int | None" = None,
    ) -> EnrollmentRecord:
        """Transform and enroll in one step; returns the stored record."""
        record = EnrollmentRecord(
            device_id=device_id,
            user_id=user_id,
            template=transform(fv, params),
            enrolled_at=int(time.time()) if enrolled_at is None else enrolled_at,
        )
        self.enroll(record)
        return record

    def load_template(self, device_id: str, user_id: str) -> ProtectedTemplate:
        _check_id("device", device_id)
        _check_id("user", user_id)
        self._require_root()
        path = self.root / device_id / f"{user_id}.blo"
        if not path.is_file():
            raise RecordNotFoundError(f"no enrollment for device={device_id} user={user_id}")
        return read_template_file(path)

    def authenticate(
        self, device_id: str, user_id: str, probe: FeatureVector, threshold: float = 1.0
    ) -> MatchDecision:
        """Transform the probe with the stored parameters and match it."""
        stored = self.load_template(device_id, user_id)
        candidate = transform(probe, stored.params)
        return match_templates(candidate, stored, threshold)

    def list_records(self) -> "list[ManifestEntry]":
        """Manifest entries in manifest order; empty store gives an empty list."""
        self._require_root()
        if not self.manifest_path.exists():
            return []
        text = self.manifest_path.read_text(encoding="utf-8")
        return [
            ManifestEntry.from_line(line, line_no)
            for line_no, line in enumerate(text.splitlines(), start=1)
            if line
        ]
