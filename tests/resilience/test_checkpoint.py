"""CheckpointStore durability, verification and outcome codecs."""

from __future__ import annotations

import json

import pytest

from repro.core.design import DesignPoint
from repro.core.errors import CheckpointError, DomainError
from repro.resilience import (
    CheckpointStore,
    corrupt_checkpoint,
    decode_outcomes,
    describe_factory,
    encode_outcomes,
    sweep_fingerprint,
    truncate_checkpoint,
)
from repro.resilience.checkpoint import canonical_json, sha256_hex

FP = {"sampler": "test", "seed": 1}


@pytest.fixture
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "run.ckpt")


class TestSaveLoad:
    def test_roundtrip(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [[1, 2]]})
        assert store.load(kind="sweep", fingerprint=FP) == {"chunks": [[1, 2]]}

    def test_save_is_atomic_replacement(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"n": 1})
        store.save(kind="sweep", fingerprint=FP, state={"n": 2})
        assert store.load(kind="sweep", fingerprint=FP) == {"n": 2}
        leftovers = list(store.path.parent.glob("*.tmp.*"))
        assert leftovers == []

    def test_missing_file_raises_on_load(self, store):
        with pytest.raises(CheckpointError, match="does not exist"):
            store.load(kind="sweep", fingerprint=FP)

    def test_missing_file_is_cold_start_on_resume(self, store):
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_kind_mismatch_raises(self, store):
        store.save(kind="sweep", fingerprint=FP, state={})
        with pytest.raises(CheckpointError, match="expected 'montecarlo'"):
            store.load(kind="montecarlo", fingerprint=FP)

    def test_fingerprint_mismatch_raises(self, store):
        store.save(kind="sweep", fingerprint=FP, state={})
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            store.load(kind="sweep", fingerprint={"sampler": "test", "seed": 2})

    def test_fingerprint_mismatch_still_raises_on_resume(self, store):
        """A mismatch is a configuration error, never a silent restart."""
        store.save(kind="sweep", fingerprint=FP, state={})
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            store.load_or_restart(
                kind="sweep", fingerprint={"sampler": "test", "seed": 2}
            )

    def test_coerce(self, tmp_path):
        assert CheckpointStore.coerce(None) is None
        store = CheckpointStore(tmp_path / "a")
        assert CheckpointStore.coerce(store) is store
        assert CheckpointStore.coerce(tmp_path / "b").path == tmp_path / "b"

    def test_remove(self, store):
        store.save(kind="sweep", fingerprint=FP, state={})
        store.remove()
        assert not store.exists()
        store.remove()  # idempotent


class TestDamageDetection:
    def test_truncated_file_restarts_cold(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [[0] * 64]})
        truncate_checkpoint(store.path)
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_corrupted_byte_restarts_cold(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [[0] * 64]})
        corrupt_checkpoint(store.path)
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_corrupted_byte_fails_checksum_on_strict_load(self, store):
        store.save(kind="sweep", fingerprint=FP, state={"chunks": [[0] * 64]})
        corrupt_checkpoint(store.path)
        with pytest.raises(CheckpointError):
            store.load(kind="sweep", fingerprint=FP)

    def test_wrong_format_tag_restarts_cold(self, store):
        store.save(kind="sweep", fingerprint=FP, state={})
        # Re-frame the journal header with a valid checksum, so the
        # format tag itself is what load_or_restart rejects.
        header, rest = store.path.read_bytes().split(b"\n", 1)
        document = json.loads(header.partition(b" ")[2])
        document["format"] = "focal-checkpoint/999"
        body = canonical_json(document)
        store.path.write_bytes(f"{sha256_hex(body)} {body}\n".encode() + rest)
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None

    def test_non_json_restarts_cold(self, store):
        store.path.write_text("definitely not json{")
        assert store.load_or_restart(kind="sweep", fingerprint=FP) is None


class TestOutcomeCodec:
    def test_designs_roundtrip_bit_exact(self):
        outcomes = [
            DesignPoint("a", area=1.0 / 3.0, perf=2.0 / 7.0, power=0.1),
            DomainError("invalid corner"),
            DesignPoint("b", area=5.5, perf=1e-300, power=3.14159),
        ]
        decoded = decode_outcomes(encode_outcomes(outcomes))
        assert decoded[0] == outcomes[0]
        assert isinstance(decoded[1], DomainError)
        assert str(decoded[1]) == "invalid corner"
        assert decoded[2] == outcomes[2]

    def test_undecodable_row_raises(self):
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_outcomes([["x", "mystery"]])
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_outcomes([["d", "name", "not-hex", "0x1p0", "0x1p0"]])


class TestFingerprints:
    def test_function_factories_named_without_address(self):
        def local_factory(params):
            return None

        described = describe_factory(local_factory)
        assert "0x" not in described
        assert "local_factory" in described

    def test_instance_factories_use_value_repr(self):
        from repro.dse.factories import SymmetricMulticoreFactory

        assert describe_factory(SymmetricMulticoreFactory()) == repr(
            SymmetricMulticoreFactory()
        )

    def test_sweep_fingerprint_changes_with_configuration(self):
        baseline = DesignPoint.baseline("b")

        def fingerprint(**overrides):
            kwargs = dict(
                axes={"cores": [1, 2], "f": [0.5]},
                chunk_size=16,
                baseline=baseline,
                alpha=0.5,
                factory=SweepFactory(),
            )
            kwargs.update(overrides)
            return sweep_fingerprint(**kwargs)

        base = fingerprint()
        assert fingerprint() == base
        assert fingerprint(chunk_size=8) != base
        assert fingerprint(alpha=0.25) != base
        assert fingerprint(axes={"cores": [1, 2, 3], "f": [0.5]}) != base


class SweepFactory:
    def __repr__(self) -> str:
        return "SweepFactory()"
