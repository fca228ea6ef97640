"""Tests of the fuzzy extractor, key generator, and authenticator."""

import numpy as np
import pytest

from repro.core.pairing import RingAllocation
from repro.core.puf import BoardROPUF
from repro.crypto.authentication import Authenticator, HammingAcceptRule
from repro.crypto.ecc import BCHCode, RepetitionCode
from repro.crypto.fuzzy_extractor import FuzzyExtractor, HelperData
from repro.crypto.keygen import KeyGenerator
from repro.variation.environment import NOMINAL_OPERATING_POINT, OperatingPoint


class TestFuzzyExtractor:
    def make(self):
        return FuzzyExtractor(code=BCHCode(m=5, t=3), key_bytes=16)

    def test_generate_reproduce_round_trip(self, rng):
        extractor = self.make()
        response = rng.integers(0, 2, extractor.response_bits).astype(bool)
        key, helper = extractor.generate(response, rng)
        assert extractor.reproduce(response, helper) == key
        assert len(key) == 16

    def test_tolerates_up_to_t_flips(self, rng):
        extractor = self.make()
        response = rng.integers(0, 2, extractor.response_bits).astype(bool)
        key, helper = extractor.generate(response, rng)
        noisy = response.copy()
        noisy[rng.choice(len(noisy), size=3, replace=False)] ^= True
        assert extractor.reproduce(noisy, helper) == key

    def test_fails_beyond_capability(self, rng):
        extractor = self.make()
        response = rng.integers(0, 2, extractor.response_bits).astype(bool)
        key, helper = extractor.generate(response, rng)
        hostile = ~response  # all bits flipped
        try:
            recovered = extractor.reproduce(hostile, helper)
            assert recovered != key
        except ValueError:
            pass  # decoder detected overload: also acceptable

    def test_different_enrollments_different_keys(self, rng):
        extractor = self.make()
        response = rng.integers(0, 2, extractor.response_bits).astype(bool)
        key1, _ = extractor.generate(response, rng)
        key2, _ = extractor.generate(response, rng)
        assert key1 != key2  # fresh code randomness and salt

    def test_helper_length_validation(self, rng):
        extractor = self.make()
        response = rng.integers(0, 2, extractor.response_bits).astype(bool)
        _, helper = extractor.generate(response, rng)
        bad = HelperData(offset=helper.offset[:-1], salt=helper.salt)
        with pytest.raises(ValueError):
            extractor.reproduce(response, bad)

    def test_response_length_validation(self, rng):
        extractor = self.make()
        with pytest.raises(ValueError):
            extractor.generate(np.zeros(7, dtype=bool), rng)

    def test_key_bytes_extension(self, rng):
        extractor = FuzzyExtractor(code=RepetitionCode(5), key_bytes=64)
        response = rng.integers(0, 2, 5).astype(bool)
        key, helper = extractor.generate(response, rng)
        assert len(key) == 64
        assert extractor.reproduce(response, helper) == key

    def test_key_bytes_validation(self):
        with pytest.raises(ValueError):
            FuzzyExtractor(key_bytes=0)


def make_puf(seed, n_units=400, stage_count=3, method="case1"):
    data_rng = np.random.default_rng(seed)
    base = data_rng.normal(1.0, 0.02, n_units)
    sensitivity = data_rng.normal(0.05, 0.005, n_units)

    def provider(op):
        return base * (1.0 + sensitivity * (1.20 - op.voltage))

    ring_count = n_units // stage_count // 2 * 2
    allocation = RingAllocation(stage_count=stage_count, ring_count=ring_count)
    return BoardROPUF(
        delay_provider=provider, allocation=allocation, method=method
    )


class TestKeyGenerator:
    def test_enroll_and_regenerate_same_corner(self, rng):
        puf = make_puf(0)
        generator = KeyGenerator(puf=puf, rng=rng)
        material = generator.enroll()
        assert generator.regenerate(material, NOMINAL_OPERATING_POINT) == material.key

    def test_regenerate_across_voltage(self, rng):
        puf = make_puf(1)
        generator = KeyGenerator(puf=puf, rng=rng)
        material = generator.enroll()
        key = generator.regenerate(material, OperatingPoint(1.00, 25.0))
        assert key == material.key

    def test_uses_highest_margin_bits(self, rng):
        puf = make_puf(2)
        generator = KeyGenerator(puf=puf, rng=rng)
        material = generator.enroll()
        margins = np.abs(material.enrollment.margins)
        used = set(material.used_bits.tolist())
        unused = [i for i in range(len(margins)) if i not in used]
        if unused:
            assert margins[material.used_bits].min() >= margins[unused].max() - 1e-12

    def test_rejects_undersized_puf(self, rng):
        puf = make_puf(3, n_units=12, stage_count=3)  # 2 bits only
        with pytest.raises(ValueError, match="response bits"):
            KeyGenerator(puf=puf, extractor=FuzzyExtractor(code=BCHCode(m=5, t=3)))


class TestAuthenticator:
    def test_enroll_and_authenticate_genuine(self, rng):
        verifier = Authenticator()
        reference = rng.integers(0, 2, 64).astype(bool)
        verifier.enroll("device-a", reference)
        result = verifier.authenticate("device-a", reference)
        assert result.accepted and result.distance == 0

    def test_tolerates_noise_within_threshold(self, rng):
        verifier = Authenticator(threshold_fraction=0.2)
        reference = rng.integers(0, 2, 100).astype(bool)
        verifier.enroll("device-a", reference)
        noisy = reference.copy()
        noisy[:10] ^= True
        assert verifier.authenticate("device-a", noisy).accepted

    def test_rejects_impostor(self, rng):
        verifier = Authenticator()
        verifier.enroll("device-a", rng.integers(0, 2, 128).astype(bool))
        impostor = rng.integers(0, 2, 128).astype(bool)
        assert not verifier.authenticate("device-a", impostor).accepted

    def test_duplicate_enrollment_rejected(self, rng):
        verifier = Authenticator()
        verifier.enroll("device-a", rng.integers(0, 2, 16).astype(bool))
        with pytest.raises(ValueError, match="already"):
            verifier.enroll("device-a", rng.integers(0, 2, 16).astype(bool))

    def test_unknown_device_rejected(self, rng):
        verifier = Authenticator()
        with pytest.raises(KeyError):
            verifier.authenticate("ghost", rng.integers(0, 2, 16).astype(bool))

    def test_threshold_fraction_validated(self):
        with pytest.raises(ValueError):
            Authenticator(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            Authenticator(threshold_fraction=0.6)

    def test_accept_rule_floors_the_threshold(self):
        rule = HammingAcceptRule(0.15)
        reference = np.zeros(20, dtype=bool)  # floor(0.15 * 20) == 3
        at_limit = reference.copy()
        at_limit[:3] = True
        over = reference.copy()
        over[:4] = True
        verdict = rule.verdict("d", reference, at_limit)
        assert (verdict.accepted, verdict.distance, verdict.threshold) == (
            True,
            3,
            3,
        )
        assert not rule.verdict("d", reference, over).accepted
        with pytest.raises(ValueError, match="length mismatch"):
            rule.verdict("d", reference, reference[:19])

    def test_reference_validated(self):
        verifier = Authenticator()
        with pytest.raises(ValueError):
            verifier.enroll("x", np.zeros((2, 2), dtype=bool))

    def test_enrolled_devices_sorted(self, rng):
        verifier = Authenticator()
        for name in ("zeta", "alpha"):
            verifier.enroll(name, rng.integers(0, 2, 8).astype(bool))
        assert verifier.enrolled_devices == ["alpha", "zeta"]
