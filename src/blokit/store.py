"""On-disk enrollment store modeling several devices holding templates.

Layout: one directory per device under the store root, one '.blo' file
per user inside it, and a line-oriented manifest at the root:

    manifest.tsv: deviceId <TAB> userId <TAB> filename <TAB> blockSize
                  <TAB> originalLength <TAB> enrolledAt

Re-enrolling a (device, user) pair replaces the template and updates its
manifest line in place, so listing order is stable; every other line is
written back as read.  An enroll makes every refusal before its first
write, a '.blo' or manifest that is not a regular file (a link, FIFO,
socket or directory) included, then rewrites the '.blo' and the manifest
in place through ``bits.write_fd``, each opened with O_NOFOLLOW so that
neither is written through a link.  Every open is O_NONBLOCK, so a FIFO
never blocks a store call: a read opens its own O_NONBLOCK descriptor,
refuses a file that is not regular, then reads through ``bits.read_fd``.
Neither write is atomic.  Single writer, multiple readers; concurrent
writers are out of contract.  Templates are stored in the clear on
purpose: the point of the exercise is that the templates themselves are
the vulnerability.
"""

from __future__ import annotations

import errno
import os
import stat
import time
from dataclasses import dataclass
from pathlib import Path

from .bits import FeatureVector, path_name, read_fd, write_fd
from .errors import (
    InvalidArgumentError,
    ManifestError,
    RecordNotFoundError,
    StorageError,
)
from .matcher import MatchDecision, match_probe
from .transform import (
    ProtectedTemplate,
    TransformParams,
    decode_template,
    encode_template,
    transform,
)

MANIFEST_NAME = "manifest.tsv"

# Path separators, the field separator, NUL and every line break str.splitlines splits on.
_FORBIDDEN_ID_CHARS = set('/\\\t\x00\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029')

# The errnos that Path.exists and Path.is_file read as "no file there" (Python 3.10-3.13).
_ABSENT_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


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
        return (
            f"{self.device_id}\t{self.user_id}\t{self.filename}\t{self.block_size}"
            f"\t{self.original_length}\t{self.enrolled_at}"
        )

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


def _check_id(kind: str, value: str) -> None:
    if not value or value in (".", "..") or not _FORBIDDEN_ID_CHARS.isdisjoint(value):
        raise InvalidArgumentError(f"malformed {kind} id: {value!r}")


def _not_enrolled(device_id: str, user_id: str) -> RecordNotFoundError:
    return RecordNotFoundError(f"no enrollment for device={device_id} user={user_id}")


def _read_regular(path: "str | Path") -> "bytes | None":
    """The content of the regular file at ``path``; None if it is some other kind of file."""
    try:
        # O_NONBLOCK: a FIFO opens at once, then fails the regular-file check.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno == errno.ENXIO:  # a socket, or a device with no driver
            return None
        raise
    regular = False
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
    finally:
        if not regular:
            os.close(fd)
    return read_fd(fd, st) if regular else None


class TemplateStore:
    """Enrollment store rooted at an existing writable directory."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        # Ids hold no '/', so prefix + device/user.blo is os.path.join(root, device, user.blo).
        self._prefix = os.path.join(self.root, "")

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
        for kind, value in (("device", record.device_id), ("user", record.user_id)):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate: a non-UTF-8 byte in argv
                raise InvalidArgumentError(f"malformed {kind} id: {value!r}") from None
        filename = f"{record.device_id}/{record.user_id}.blo"
        line = ManifestEntry(
            device_id=record.device_id,
            user_id=record.user_id,
            filename=filename,
            block_size=record.template.params.block_size,
            original_length=record.template.original_length,
            enrolled_at=record.enrolled_at,
        ).to_line()
        blo = encode_template(record.template)  # a template the header cannot hold is refused first
        path = self.root / Path(filename)
        try:
            entries, lines = self._read_manifest()
            pair = (record.device_id, record.user_id)
            at = next((i for i, e in enumerate(entries) if (e.device_id, e.user_id) == pair), len(lines))
            lines[at : at + 1] = [line]  # the pair's line replaced, or appended
            manifest = ("\n".join(lines) + "\n").encode("utf-8")
            writes = ((path, blo), (self.manifest_path, manifest))
            for target, _ in writes:
                try:
                    mode = os.lstat(target).st_mode
                except FileNotFoundError:
                    continue
                if not stat.S_ISREG(mode):
                    raise StorageError(
                        f"cannot write to store at {self.root}: {target} is not a regular file"
                    )
            path.parent.mkdir(exist_ok=True)
            # O_NOFOLLOW: a link made since the check above fails rather than
            # write outside the root; O_NONBLOCK: a FIFO fails rather than block.
            flags = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK
            for target, data in writes:
                write_fd(os.open(target, flags, 0o666), data)
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
        path = f"{self._prefix}{device_id}/{user_id}.blo"
        try:
            raw = _read_regular(path)
        except (OSError, ValueError) as exc:
            # Only now tell a missing root from a missing pair.  A NUL or an
            # unencodable character (ValueError) names no file either.
            self._require_root()
            if isinstance(exc, OSError) and exc.errno not in _ABSENT_ERRNOS:
                exc.filename = path_name(path)
                raise
            raise _not_enrolled(device_id, user_id) from None
        if raw is None:
            raise _not_enrolled(device_id, user_id)
        return decode_template(raw, path)

    def authenticate(
        self, device_id: str, user_id: str, probe: FeatureVector, threshold: float = 1.0
    ) -> MatchDecision:
        """Decide the probe against the stored template, by ``matcher.match_probe``."""
        return match_probe(probe, self.load_template(device_id, user_id), threshold)

    def list_records(self) -> "list[ManifestEntry]":
        """Manifest entries in manifest order; empty store gives an empty list."""
        return self._read_manifest()[0]

    def _read_manifest(self) -> "tuple[list[ManifestEntry], list[str]]":
        """The manifest's entries and, index for index, their lines as read.

        Two lists, not a tuple per line: such tuples double the objects the
        garbage collector's young-generation passes scan during an enroll.
        """
        self._require_root()
        try:
            raw = _read_regular(self.manifest_path)
        except OSError as exc:
            if exc.errno in _ABSENT_ERRNOS:  # no manifest yet: an empty store
                return [], []
            raise
        if raw is None:
            raise StorageError(f"{self.manifest_path} is not a regular file")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines counted as splitlines() below counts them, so the number
            # agrees with from_line's; "?" stands in for the bad byte.
            line_no = len((raw[: exc.start].decode("utf-8") + "?").splitlines())
            raise ManifestError(line_no, f"not UTF-8 text (byte {exc.start})") from exc
        lines = text.splitlines()
        entries = [ManifestEntry.from_line(line, n) for n, line in enumerate(lines, start=1) if line]
        return entries, [line for line in lines if line]
