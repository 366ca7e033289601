import errno
import os
import shutil
import signal
import socket
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
import hypothesis.strategies as st
import pytest

from blokit import (
    EnrollmentRecord,
    FeatureVector,
    IncomparableTemplatesError,
    InvalidArgumentError,
    MalformedInputError,
    ManifestEntry,
    ManifestError,
    PaddingPolicy,
    ProtectedTemplate,
    RecordNotFoundError,
    StorageError,
    TemplateStore,
    TransformParams,
    forge,
    match_templates,
    random_bits,
    read_template_file,
    transform,
)
from blokit.transform import write_template_file
from conftest import DATA_DIR, lookup_cases, padding_policies, store_state

ZP = TransformParams(5)


@pytest.fixture
def store(tmp_path):
    return TemplateStore(tmp_path)


def record(device, user, fv, when=1000):
    return EnrollmentRecord(device, user, transform(fv, ZP), when)


class TestEnroll:
    def test_template_round_trips_bit_identically(self, store):
        fv = FeatureVector(random_bits(1795, 1))
        store.enroll(record("d1", "alice", fv))
        assert store.load_template("d1", "alice") == transform(fv, ZP)

    def test_reenroll_replaces_in_place(self, store):
        store.enroll(record("d1", "alice", FeatureVector(random_bits(100, 1)), when=1))
        store.enroll(record("d1", "bob", FeatureVector(random_bits(100, 2)), when=2))
        new_fv = FeatureVector(random_bits(100, 3))
        store.enroll(record("d1", "alice", new_fv, when=3))
        entries = store.list_records()
        assert [(e.device_id, e.user_id) for e in entries] == [("d1", "alice"), ("d1", "bob")]
        assert entries[0].enrolled_at == 3
        assert store.load_template("d1", "alice") == transform(new_fv, ZP)

    def test_same_user_same_feature_on_two_devices_yields_identical_payloads(
        self, store, tmp_path
    ):
        fv = FeatureVector(random_bits(1795, 4))
        store.enroll(record("d1", "alice", fv))
        store.enroll(record("d2", "alice", fv))
        f1 = (tmp_path / "d1" / "alice.blo").read_bytes()
        f2 = (tmp_path / "d2" / "alice.blo").read_bytes()
        assert f1 == f2

    @pytest.mark.parametrize(
        "bad",
        ["", "a/b", "a\\b", "..", ".", "a\tb", "a\nb", "a\rb", "a\vb", "a\fb", "a\x1cb",
         "a\x1db", "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b"],
    )
    def test_malformed_ids_rejected(self, store, bad):
        fv = FeatureVector(random_bits(10, 1))
        store.enroll(record("d1", "alice", fv))
        with pytest.raises(InvalidArgumentError):
            store.enroll(record(bad, "alice", fv))
        with pytest.raises(InvalidArgumentError):
            store.enroll(record("d1", bad, fv))
        # Nothing was written: the manifest still parses and takes new pairs.
        store.enroll(record("d1", "bob", fv))
        assert [(e.device_id, e.user_id) for e in store.list_records()] == [
            ("d1", "alice"), ("d1", "bob")]

    def test_missing_root_is_storage_error(self, tmp_path):
        store = TemplateStore(tmp_path / "nope")
        with pytest.raises(StorageError):
            store.enroll(record("d1", "alice", FeatureVector(random_bits(10, 1))))


class TestAuthenticate:
    def test_genuine_probe_accepted(self, store):
        fv = FeatureVector(random_bits(1795, 5))
        store.enroll(record("d1", "alice", fv))
        decision = store.authenticate("d1", "alice", fv, threshold=1.0)
        assert decision.accepted
        assert decision.similarity == 1.0

    def test_forged_probe_accepted(self, store):
        fv = FeatureVector(random_bits(1795, 6))
        tpl = transform(fv, ZP)
        store.enroll(EnrollmentRecord("d1", "alice", tpl, 1))
        forged = forge(tpl, random_bits(tpl.block_count, 99))
        assert forged.data != fv.data
        assert store.authenticate("d1", "alice", forged, threshold=1.0).accepted

    def test_random_unrelated_probe_rejected(self, store):
        store.enroll(record("d1", "alice", FeatureVector(random_bits(1795, 7))))
        for seed in range(20):
            probe = FeatureVector(random_bits(1795, 1000 + seed))
            assert not store.authenticate("d1", "alice", probe, threshold=1.0).accepted

    def test_unknown_pair_not_found(self, store):
        store.enroll(record("d1", "alice", FeatureVector(random_bits(10, 1))))
        with pytest.raises(RecordNotFoundError):
            store.authenticate("d1", "bob", FeatureVector(random_bits(10, 1)))
        with pytest.raises(RecordNotFoundError):
            store.authenticate("d2", "alice", FeatureVector(random_bits(10, 1)))


def outcome(call):
    """What ``call()`` returns, or the class and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestAuthenticateOracle:
    """authenticate decides as match_templates(transform(probe, stored.params), stored) does."""

    @pytest.fixture(scope="class")
    def oracle_store(self, tmp_path_factory):
        return TemplateStore(tmp_path_factory.mktemp("oracle"))

    @settings(max_examples=300, deadline=None)
    @given(case=lookup_cases())
    def test_same_decision_or_same_error(self, oracle_store, case):
        fv, params, probe, threshold = case
        oracle_store.enroll(EnrollmentRecord("d1", "u", transform(fv, params), 1))
        stored = oracle_store.load_template("d1", "u")
        expected = outcome(lambda: match_templates(transform(probe, stored.params), stored,
                                                   threshold))
        assert outcome(lambda: oracle_store.authenticate("d1", "u", probe, threshold)) == expected

    @pytest.mark.parametrize(
        "probe_bits, threshold, error, text",
        [
            (1795, 1.5, InvalidArgumentError, "threshold must lie in [0, 1], got 1.5"),
            (1800, 1.0, IncomparableTemplatesError, "length mismatch: 1440 vs 1436 bits"),
            (1800, 1.5, InvalidArgumentError, "threshold must lie in [0, 1], got 1.5"),
            (4, 1.5, InvalidArgumentError, "4-bit input is shorter than one 5-bit block"),
        ],
    )
    def test_error_order(self, store, probe_bits, threshold, error, text):
        params = TransformParams(5, PaddingPolicy.TRUNCATE)
        store.enroll(EnrollmentRecord(
            "d1", "u", transform(FeatureVector(random_bits(1795, 1)), params), 1))
        probe = FeatureVector(random_bits(probe_bits, 2))
        with pytest.raises(error) as raised:
            store.authenticate("d1", "u", probe, threshold)
        assert type(raised.value) is error and str(raised.value) == text


class TestListRecords:
    def test_empty_store(self, store):
        assert store.list_records() == []

    def test_entries_in_enrollment_order(self, store):
        for i, (device, user) in enumerate([("d1", "u1"), ("d2", "u1"), ("d1", "u2")]):
            store.enroll(record(device, user, FeatureVector(random_bits(20, i)), when=i))
        entries = store.list_records()
        assert [(e.device_id, e.user_id) for e in entries] == [
            ("d1", "u1"),
            ("d2", "u1"),
            ("d1", "u2"),
        ]
        assert all(e.block_size == 5 for e in entries)
        assert [e.original_length for e in entries] == [20, 20, 20]

    def test_replace_keeps_entry_count(self, store):
        for i in range(3):
            store.enroll(record("d1", f"u{i}", FeatureVector(random_bits(20, i))))
        store.enroll(record("d1", "u1", FeatureVector(random_bits(20, 9))))
        assert len(store.list_records()) == 3

    def test_corrupt_manifest_names_line(self, store):
        store.enroll(record("d1", "u1", FeatureVector(random_bits(20, 1))))
        manifest = store.manifest_path
        manifest.write_text(manifest.read_text() + "broken line\n")
        with pytest.raises(ManifestError, match="line 2"):
            store.list_records()

    def test_non_integer_field_names_line(self, store):
        store.manifest_path.write_text("d1\tu1\td1/u1.blo\tfive\t20\t1\n")
        with pytest.raises(ManifestError, match="line 1"):
            store.list_records()

    def test_manifest_symlink_loop_reads_as_absent(self, store):
        os.symlink("manifest.tsv", store.manifest_path)
        assert store.list_records() == []

    def test_enroll_through_a_manifest_symlink_loop_fails(self, store):
        os.symlink("manifest.tsv", store.manifest_path)
        with pytest.raises(StorageError, match="^cannot write to store at "):
            store.enroll(record("d1", "u1", FeatureVector(random_bits(20, 1))))
        assert os.path.islink(store.manifest_path)

    @pytest.mark.parametrize("outside", [None, b"d0\tu0\td0/u0.blo\t5\t20\t1\n"])
    def test_enroll_through_a_manifest_symlink_writes_nothing_outside(self, tmp_path, outside):
        root, target = tmp_path / "root", tmp_path / "outside.tsv"
        root.mkdir()
        if outside is not None:
            target.write_bytes(outside)
        store = TemplateStore(root)
        os.symlink("../outside.tsv", store.manifest_path)
        with pytest.raises(StorageError, match="^cannot write to store at "):
            store.enroll(record("d1", "u1", FeatureVector(random_bits(20, 1))))
        assert os.path.islink(store.manifest_path)
        assert (target.read_bytes() if target.exists() else None) == outside

    def test_unencodable_id_leaves_the_manifest_as_it_was(self, store):
        # A non-UTF-8 byte in argv reaches an id as a lone surrogate.
        fv = FeatureVector(random_bits(20, 1))
        store.enroll(record("d1", "alice", fv))
        before = store.manifest_path.read_bytes()
        for device, user, error in [
            ("\udcff", "alice", r"^malformed device id: '\\udcff'$"),
            ("d2", "\udcff", r"^malformed user id: '\\udcff'$"),
            ("\udcff", "\ud800", r"^malformed device id: '\\udcff'$"),
            ("\udcff", "a/b", r"^malformed user id: 'a/b'$"),
        ]:
            with pytest.raises(InvalidArgumentError, match=error):
                store.enroll(record(device, user, fv))
        assert store.manifest_path.read_bytes() == before
        assert sorted(os.listdir(store.root)) == ["d1", "manifest.tsv"]
        assert os.listdir(store.root / "d1") == ["alice.blo"]

    @pytest.mark.parametrize(
        "tail, line_no",
        [
            (b"\xff\n", 3),
            (b"d3\tu3\td3/u3.blo\t5\t20\t1\n\n  \xfe\n", 5),
            (b"\r\nd3\x1cx\xc3", 5),
        ],
    )
    def test_non_utf8_manifest_names_line(self, store, tail, line_no):
        for i in range(2):
            store.enroll(record("d1", f"u{i}", FeatureVector(random_bits(20, i))))
        manifest = store.manifest_path
        head = manifest.read_bytes()
        manifest.write_bytes(head + tail)
        bad_byte = len(head) + next(i for i, c in enumerate(tail) if c >= 0x80)
        with pytest.raises(
            ManifestError, match=rf"^manifest line {line_no}: not UTF-8 text \(byte {bad_byte}\)$"
        ):
            store.list_records()
        with pytest.raises(ManifestError, match=f"manifest line {line_no}: "):
            store.enroll(record("d1", "u9", FeatureVector(random_bits(20, 9))))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_lists_or_raises_manifest_error(self, tmp_path_factory, data):
        store = TemplateStore(tmp_path_factory.mktemp("manifest"))
        good = b"d1\tu1\td1/u1.blo\t5\t20\t1\nd2\tu2\td2/u2.blo\t7\t40\t2\n"
        raw = bytearray(good)
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(raw)))
            raw[i:i + data.draw(st.integers(0, 2))] = data.draw(st.binary(max_size=3))
        store.manifest_path.write_bytes(bytes(raw))
        try:
            entries = store.list_records()
        except ManifestError:
            return
        assert all(isinstance(e.block_size, int) for e in entries)


# (device, user, feature bits, block size, enrolled_at); the last four re-enroll earlier pairs.
GOLDEN_ENROLLS = [
    *((f"d{i % 3 + 1}", f"u{i}", 20 + 7 * i, (3, 5, 7)[i % 3], 1_700_000_000 + i) for i in range(12)),
    ("d2", "u1", 33, 9, 1_700_000_100),
    ("d1", "u0", 64, 5, 1_700_000_101),
    ("d3", "u11", 15, 3, 1_700_000_102),
    ("d1", "u6", 40, 11, 1_700_000_103),
]


class TestManifestWrites:
    """enroll encodes its own line and writes every other line back as read."""

    def test_manifest_bytes_match_the_golden_file(self, store):
        for device, user, bits, b, when in GOLDEN_ENROLLS:
            tpl = transform(FeatureVector(random_bits(bits, when)), TransformParams(b))
            store.enroll(EnrollmentRecord(device, user, tpl, when))
        golden = (DATA_DIR / "store_manifest_golden.tsv").read_bytes()
        assert store.manifest_path.read_bytes() == golden

    def test_enroll_encodes_at_most_one_line(self, store, monkeypatch):
        fv = FeatureVector(random_bits(20, 1))
        for i in range(50):
            store.enroll(record(f"d{i % 5}", f"u{i}", fv))
        encoded = []
        to_line = ManifestEntry.to_line
        monkeypatch.setattr(ManifestEntry, "to_line", lambda e: encoded.append(e) or to_line(e))
        for device, user in [("d2", "u7"), ("d9", "new")]:  # a re-enroll, then a new pair
            encoded.clear()
            store.enroll(record(device, user, fv, when=2))
            assert len(encoded) <= 1, (device, user)
        assert len(store.list_records()) == 51

    @pytest.mark.parametrize("user", ["u1", "u2", "u3"])
    def test_non_integer_field_stops_enroll_naming_the_line(self, store, user):
        fv = FeatureVector(random_bits(20, 1))
        store.enroll(record("d1", "u1", fv))
        manifest = store.manifest_path
        manifest.write_bytes(manifest.read_bytes() + b"d1\tu2\td1/u2.blo\tfive\t20\t1\n")
        before = manifest.read_bytes()
        with pytest.raises(ManifestError, match="^manifest line 2: invalid literal for int"):
            store.enroll(record("d1", user, fv))
        assert manifest.read_bytes() == before

    def test_hand_edited_line_survives_an_unrelated_enroll_verbatim(self, store):
        hand = "d0\tu0\td0/u0.blo\t05\t 20\t+7"
        store.manifest_path.write_text(hand + "\n")
        fv = FeatureVector(random_bits(20, 1))
        store.enroll(record("d1", "u1", fv, when=3))
        store.enroll(record("d1", "u1", fv, when=4))
        assert store.manifest_path.read_text() == f"{hand}\nd1\tu1\td1/u1.blo\t5\t20\t4\n"
        assert store.list_records()[0] == ManifestEntry("d0", "u0", "d0/u0.blo", 5, 20, 7)


class TestEnrollRefusesBeforeWriting:
    """enroll reads and checks the manifest before it writes either file."""

    @pytest.mark.parametrize(
        "tail", [b"broken line\n", b"d1\tu2\td1/u2.blo\tfive\t20\t1\n", b"\xff\n"],
        ids=["fields", "integer", "utf8"],
    )
    @pytest.mark.parametrize(
        "device, user", [("d9", "u9"), ("d1", "u9"), ("d1", "u1")],
        ids=["new-device", "new-user", "re-enroll"],
    )
    def test_bad_manifest_leaves_the_store_as_it_was(self, store, tail, device, user):
        store.enroll(record("d1", "u1", FeatureVector(random_bits(20, 1))))
        store.manifest_path.write_bytes(store.manifest_path.read_bytes() + tail)
        before = store_state(store.root)
        new = record(device, user, FeatureVector(random_bits(20, 2)), when=2)
        assert new.template != store.load_template("d1", "u1")
        with pytest.raises(ManifestError, match="^manifest line 2: "):
            store.enroll(new)
        assert store_state(store.root) == before

    @pytest.mark.parametrize("link", ["existing", "dangling", "loop"])
    def test_symlinked_blo_is_storage_error(self, tmp_path, link):
        root, outside = tmp_path / "root", tmp_path / "outside.blo"
        root.mkdir()
        store = TemplateStore(root)
        fv = FeatureVector(random_bits(20, 1))
        store.enroll(record("d1", "u0", fv))
        if link == "existing":
            outside.write_bytes(b"outside")
        os.symlink("u1.blo" if link == "loop" else "../../outside.blo", root / "d1" / "u1.blo")
        before = store_state(root)
        with pytest.raises(StorageError, match="^cannot write to store at "):
            store.enroll(record("d1", "u1", fv))
        assert store_state(root) == before
        assert (outside.read_bytes() if outside.exists() else None) == (
            b"outside" if link == "existing" else None
        )

    @pytest.mark.parametrize("link", ["existing", "dangling", "loop"])
    def test_symlinked_manifest_is_storage_error(self, tmp_path, link):
        root, outside = tmp_path / "root", tmp_path / "outside.tsv"
        root.mkdir()
        store = TemplateStore(root)
        store.enroll(record("d1", "u0", FeatureVector(random_bits(20, 1))))
        if link == "existing":
            outside.write_bytes(store.manifest_path.read_bytes())
        store.manifest_path.unlink()
        os.symlink("manifest.tsv" if link == "loop" else "../outside.tsv", store.manifest_path)
        before = store_state(root)
        for device in ("d1", "d2"):
            with pytest.raises(StorageError, match="^cannot write to store at .* is not a regular file$"):
                store.enroll(record(device, "u1", FeatureVector(random_bits(20, 2))))
        assert store_state(root) == before


def fd_count():
    return len(os.listdir("/proc/self/fd"))


class TestLookupContract:
    """Each way a lookup can fail has one fixed result."""

    @pytest.fixture
    def enrolled(self, store):
        fv = FeatureVector(random_bits(1795, 11))
        store.enroll(record("d1", "alice", fv))
        return store, fv

    def test_missing_root_is_storage_error(self, tmp_path):
        store = TemplateStore(tmp_path / "nope")
        with pytest.raises(StorageError, match="does not exist"):
            store.load_template("d1", "alice")
        with pytest.raises(StorageError):
            store.authenticate("d1", "alice", FeatureVector(random_bits(10, 1)))

    def test_root_that_is_a_file_is_storage_error(self, tmp_path):
        (tmp_path / "f").write_text("x")
        with pytest.raises(StorageError):
            TemplateStore(tmp_path / "f").load_template("d1", "alice")

    def test_missing_pair_is_not_found(self, enrolled):
        store, _ = enrolled
        with pytest.raises(RecordNotFoundError, match="^no enrollment for device=d1 user=bob$"):
            store.load_template("d1", "bob")
        with pytest.raises(RecordNotFoundError):
            store.load_template("d2", "alice")

    def test_device_that_is_a_file_is_not_found(self, enrolled, tmp_path):
        store, _ = enrolled
        (tmp_path / "d2").write_text("not a directory")
        with pytest.raises(RecordNotFoundError):
            store.load_template("d2", "alice")

    def test_blo_that_is_a_directory_is_not_found(self, enrolled, tmp_path):
        store, _ = enrolled
        (tmp_path / "d1" / "bob.blo").mkdir()
        with pytest.raises(RecordNotFoundError):
            store.load_template("d1", "bob")

    def test_blo_that_is_a_fifo_is_not_found_without_blocking(self, enrolled, tmp_path):
        store, _ = enrolled
        os.mkfifo(tmp_path / "d1" / "bob.blo")

        def hung(signum, frame):
            raise AssertionError("load_template blocked on a FIFO")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(RecordNotFoundError):
                store.load_template("d1", "bob")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_blo_that_is_a_socket_is_not_found(self, enrolled, tmp_path, monkeypatch):
        store, _ = enrolled
        monkeypatch.chdir(tmp_path / "d1")  # a relative name keeps within the socket path limit
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind("bob.blo")
            with pytest.raises(RecordNotFoundError):
                store.load_template("d1", "bob")

    def test_unencodable_names_read_as_absent(self, enrolled, tmp_path):
        store, _ = enrolled
        with pytest.raises(RecordNotFoundError):
            store.load_template("d1", "\ud800")
        with pytest.raises(StorageError):
            TemplateStore(f"{tmp_path}\x00x").load_template("d1", "alice")

    def test_symlink_loop_is_not_found(self, enrolled, tmp_path):
        store, _ = enrolled
        os.symlink("bob.blo", tmp_path / "d1" / "bob.blo")
        with pytest.raises(RecordNotFoundError):
            store.load_template("d1", "bob")

    def test_symlink_to_a_template_is_followed(self, enrolled, tmp_path):
        store, fv = enrolled
        os.symlink("alice.blo", tmp_path / "d1" / "bob.blo")
        assert store.load_template("d1", "bob") == transform(fv, ZP)

    @pytest.mark.parametrize("cut", [0, 3, 15, 16, -1])
    def test_truncated_blo_gives_the_file_reader_error(self, enrolled, tmp_path, cut):
        store, _ = enrolled
        path = tmp_path / "d1" / "alice.blo"
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(MalformedInputError) as from_store:
            store.load_template("d1", "alice")
        with pytest.raises(MalformedInputError) as from_file:
            read_template_file(path)
        assert str(from_store.value) == str(from_file.value)

    def test_bad_magic_names_the_path(self, enrolled, tmp_path):
        store, _ = enrolled
        path = tmp_path / "d1" / "alice.blo"
        path.write_bytes(b"BLO2" + path.read_bytes()[4:])
        with pytest.raises(MalformedInputError) as from_store:
            store.load_template("d1", "alice")
        assert str(from_store.value) == f"{path}: not a template file (bad magic)"
        with pytest.raises(MalformedInputError) as from_file:
            read_template_file(path)
        assert str(from_store.value) == str(from_file.value)

    def test_dot_root_names_the_path_without_a_prefix(self, enrolled, tmp_path, monkeypatch):
        (tmp_path / "d1" / "alice.blo").write_bytes(b"junk")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(MalformedInputError, match="^d1/alice.blo: "):
            TemplateStore(".").load_template("d1", "alice")

    def test_dot_root_names_a_reraised_os_error_without_a_prefix(self, enrolled, tmp_path,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as raised:
            TemplateStore(".").load_template("d1", "u" * 300)
        assert raised.value.errno == errno.ENAMETOOLONG
        assert str(raised.value) == (
            f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: 'd1/{'u' * 300}.blo'"
        )

    def test_authenticate_makes_no_stat_call(self, enrolled, monkeypatch):
        store, fv = enrolled

        def no_stat(*args, **kwargs):
            raise AssertionError("os.stat called on the lookup path")

        with monkeypatch.context() as patched:
            patched.setattr(os, "stat", no_stat)
            decision = store.authenticate("d1", "alice", fv)
        assert decision.accepted

    def test_short_reads_are_read_to_the_end(self, enrolled, monkeypatch):
        store, fv = enrolled
        real_read = os.read
        with monkeypatch.context() as patched:
            patched.setattr(os, "read", lambda fd, n: real_read(fd, min(n, 7)))
            loaded = store.load_template("d1", "alice")
        assert loaded == transform(fv, ZP)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_leaks(self, enrolled, tmp_path):
        store, fv = enrolled
        (tmp_path / "d1" / "dir.blo").mkdir()
        (tmp_path / "d1" / "junk.blo").write_bytes(b"junk")
        before = fd_count()
        for _ in range(3):
            store.authenticate("d1", "alice", fv)
            for user, error in [
                ("bob", RecordNotFoundError),
                ("dir", RecordNotFoundError),
                ("junk", MalformedInputError),
            ]:
                with pytest.raises(error):
                    store.load_template("d1", user)
        assert fd_count() == before


# Ids as the store takes them: no separator, line break or NUL, and neither "." nor "..";
# dots, spaces and non-ASCII letters are all allowed.  At most 60 UTF-8 bytes each.
valid_ids = st.one_of(
    st.sampled_from([" ", "a b", ".hidden", "..x", "x.", "...", "é", "用户", "d.1", " lead"]),
    st.text(
        st.characters(exclude_categories=("Cs",),
                      exclude_characters="/\\\t\x00\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
        min_size=1, max_size=15,
    ).filter(lambda s: s not in (".", "..")),
)

# Each root form, relative to a fresh working directory; "ABS" stands for an absolute path.
ROOT_FORMS = ["tmp/s", "tmp/s/", "./s", ".", "ABS", "ABS/"]
LONG_IDS = [("d1", "u" * 300), ("d" * 300, "u")]


def make_root(tmp_path, monkeypatch, form):
    """Chdir to a fresh directory under ``tmp_path``; make the store root ``form`` names and a
    device directory d1 in it; return the root as the store is given it."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    root = str(tmp_path / "abs") + form[3:] if form.startswith("ABS") else form
    os.makedirs(os.path.join(root, "d1"))
    return root


def joined_name(root, device, user):
    """The text that names os.path.join(root, device, user + ".blo")."""
    return str(Path(os.path.join(root, device, user + ".blo")))


class TestPathText:
    """Every error names the file that os.path.join(root, device, user + ".blo") names."""

    @pytest.mark.parametrize("form", ROOT_FORMS)
    def test_bad_magic_names_the_joined_path(self, tmp_path, monkeypatch, form):
        root = make_root(tmp_path, monkeypatch, form)
        Path(root, "d1", "alice.blo").write_bytes(b"junk")
        with pytest.raises(MalformedInputError) as raised:
            TemplateStore(root).load_template("d1", "alice")
        name = joined_name(root, "d1", "alice")
        assert str(raised.value) == f"{name}: not a template file (bad magic)"

    @pytest.mark.parametrize(
        "form, device, user",
        [(form, *ids) for form in ROOT_FORMS for ids in LONG_IDS] + [("/", *LONG_IDS[1])],
    )
    def test_name_too_long_names_the_joined_path(self, tmp_path, monkeypatch, form, device, user):
        root = form if form == "/" else make_root(tmp_path, monkeypatch, form)
        with pytest.raises(OSError) as raised:
            TemplateStore(root).load_template(device, user)
        name = joined_name(root, device, user)
        assert raised.value.errno == errno.ENAMETOOLONG
        assert raised.value.filename == name
        assert str(raised.value) == (
            f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {name!r}"
        )

    @settings(max_examples=100, deadline=None)
    @given(form=st.sampled_from(ROOT_FORMS), device=valid_ids, user=valid_ids)
    def test_valid_ids_name_the_joined_path(self, tmp_path_factory, form, device, user):
        with pytest.MonkeyPatch.context() as monkeypatch:
            root = make_root(tmp_path_factory.mktemp("ids"), monkeypatch, form)
            os.makedirs(os.path.join(root, device), exist_ok=True)
            Path(root, device, user + ".blo").write_bytes(b"BLO2")
            with pytest.raises(MalformedInputError) as raised:
                TemplateStore(root).load_template(device, user)
        name = joined_name(root, device, user)
        assert str(raised.value) == f"{name}: not a template file (bad magic)"


def blo_bytes(tpl):
    """The header fields and payload of a template's '.blo' encoding."""
    header = [b"BLO1", 1, 0 if tpl.params.padding is PaddingPolicy.ZERO_PAD else 1,
              tpl.params.block_size, tpl.original_length, tpl.data.length]
    return header, tpl.data.pack()


U16_EDGES = [0, 1, 2, 3, 4, 5, 17, 65534, 65535]
U32_EDGES = [0, 1, 2, 3, 4, 7, 8, 2**31, 2**32 - 2, 2**32 - 1]


@st.composite
def mutated_blo(draw):
    length = draw(st.integers(3, 80))
    b = draw(st.sampled_from([3, 5, 7]))
    policy = draw(st.sampled_from(list(PaddingPolicy))) if length >= b else PaddingPolicy.ZERO_PAD
    bits = random_bits(length, draw(st.integers(0, 2**16)))
    tpl = transform(FeatureVector(bits), TransformParams(b, policy))
    header, payload = blo_bytes(tpl)
    field = draw(st.sampled_from(["none", "version", "policy", "block", "original", "data"]))
    if field in ("version", "policy"):
        header[1 if field == "version" else 2] = draw(st.sampled_from([0, 1, 2, 0x7F, 0xFF]))
    elif field == "block":
        header[3] = draw(st.sampled_from(U16_EDGES))
    elif field in ("original", "data"):
        actual = header[4 if field == "original" else 5]
        near = [max(actual + d, 0) for d in (-8, -1, 1, 8)]
        header[4 if field == "original" else 5] = draw(st.sampled_from(U32_EDGES + near))
    raw = bytearray(struct.pack(">4sBBHII", *header) + payload)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["flip", "truncate", "extend"]))
        if op == "flip" and raw:
            i = draw(st.integers(0, len(raw) - 1))
            raw[i] ^= 1 << draw(st.integers(0, 7))
        elif op == "truncate":
            del raw[draw(st.integers(0, len(raw))):]
        elif op == "extend":
            raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


class TestBloFuzz:
    @pytest.fixture(scope="class")
    def fuzz_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "d1").mkdir()
        return TemplateStore(root)

    def test_valid_encoding_decodes(self, fuzz_store):
        tpl = transform(FeatureVector(random_bits(40, 2)), ZP)
        header, payload = blo_bytes(tpl)
        path = fuzz_store.root / "d1" / "u.blo"
        path.write_bytes(struct.pack(">4sBBHII", *header) + payload)
        write_template_file(fuzz_store.root / "d1" / "v.blo", tpl)
        assert path.read_bytes() == (fuzz_store.root / "d1" / "v.blo").read_bytes()
        assert fuzz_store.load_template("d1", "u") == tpl

    @settings(max_examples=300, deadline=None)
    @given(raw=mutated_blo())
    def test_mutations_decode_or_raise_malformed(self, fuzz_store, raw):
        path = fuzz_store.root / "d1" / "u.blo"
        path.write_bytes(raw)
        outcomes = []
        for read in (lambda: read_template_file(path), lambda: fuzz_store.load_template("d1", "u")):
            try:
                tpl = read()
            except MalformedInputError as exc:
                outcomes.append(str(exc))
            else:
                assert isinstance(tpl, ProtectedTemplate)
                outcomes.append(tpl)
        assert outcomes[0] == outcomes[1]


# The machine's ids: 12 pairs it may enroll, one pair it never does, and malformed ids,
# among them a lone surrogate (a non-UTF-8 byte in argv).
MACHINE_PAIRS = [(device, user) for device in ("d1", "d2", "d3")
                 for user in ("u1", "u2", "u3", "u4")]
ABSENT_PAIR = ("d1", "absent")
BAD_IDS = ["", ".", "..", "a/b", "a\\b", "a\tb", "a\nb", "a\x00b", "a\u2028b", "\udcff"]


class StoreMachine(RuleBasedStateMachine):
    """The store against a model that holds each pair's manifest entry, template and feature."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-machine-")
        self.store = TemplateStore(self.root)
        self.previous = None  # the store that reopen replaced
        self.model = {}  # (device, user) -> (entry, template, feature), in manifest order
        self.clock = 0

    def teardown(self):
        shutil.rmtree(self.root)

    def enroll_pair(self, pair, data):
        params = TransformParams(data.draw(st.sampled_from([3, 5, 7])), data.draw(padding_policies))
        length = data.draw(st.integers(params.block_size, 60))
        fv = FeatureVector(random_bits(length, data.draw(st.integers(0, 2**16))))
        self.clock += 1
        tpl = transform(fv, params)
        self.store.enroll(EnrollmentRecord(*pair, tpl, self.clock))
        filename = f"{pair[0]}/{pair[1]}.blo"
        entry = ManifestEntry(*pair, filename, params.block_size, length, self.clock)
        self.model[pair] = (entry, tpl, fv)  # a pair already present keeps its place

    @precondition(lambda self: len(self.model) < len(MACHINE_PAIRS))
    @rule(data=st.data())
    def enroll_new_pair(self, data):
        new = [pair for pair in MACHINE_PAIRS if pair not in self.model]
        self.enroll_pair(data.draw(st.sampled_from(new)), data)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def re_enroll(self, data):
        self.enroll_pair(data.draw(st.sampled_from(list(self.model))), data)

    @rule(bad=st.sampled_from(BAD_IDS), as_device=st.booleans(), known_pair=st.booleans())
    def enroll_malformed_id(self, bad, as_device, known_pair):
        device, user = MACHINE_PAIRS[0] if known_pair else ("d9", "u9")
        pair = (bad, user) if as_device else (device, bad)
        record = EnrollmentRecord(*pair, transform(FeatureVector(random_bits(20, 1)), ZP), 0)
        before = store_state(self.root)
        with pytest.raises(InvalidArgumentError, match="^malformed (device|user) id: "):
            self.store.enroll(record)
        assert store_state(self.root) == before

    @rule()
    def reopen(self):
        self.previous, self.store = self.store, TemplateStore(self.root)

    @invariant()
    def manifest_matches_the_model(self):
        entries = [entry for entry, _, _ in self.model.values()]
        assert self.store.list_records() == entries
        manifest = Path(self.root, "manifest.tsv")
        if not entries:
            assert not manifest.exists()
            return
        lines = [f"{e.device_id}\t{e.user_id}\t{e.filename}\t{e.block_size}\t{e.original_length}"
                 f"\t{e.enrolled_at}\n" for e in entries]
        assert manifest.read_bytes() == "".join(lines).encode("utf-8")

    @invariant()
    def lookups_match_the_model(self):
        for pair, (_, tpl, fv) in self.model.items():
            assert self.store.load_template(*pair) == tpl
            forged = forge(tpl, random_bits(tpl.block_count, self.clock))
            for probe in (fv, forged):
                assert self.store.authenticate(*pair, probe).accepted
        with pytest.raises(RecordNotFoundError):
            self.store.load_template(*ABSENT_PAIR)

    @invariant()
    def a_reopened_store_agrees(self):
        if self.previous is not None:
            assert self.previous.list_records() == self.store.list_records()
            for pair in self.model:
                assert self.previous.load_template(*pair) == self.store.load_template(*pair)


StoreMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
TestStoreMachine = StoreMachine.TestCase
