"""Challenge-response device authentication on top of the PUF.

The verifier enrolls devices at test time, storing per-device reference
responses (the CRP database).  In the field a device proves its identity by
regenerating its response; the verifier accepts when the Hamming distance
to the stored reference stays under a threshold chosen between the
intra-chip noise floor and the inter-chip distance distribution (Fig. 3's
bell around 50% guarantees the two are separable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics.hamming import hamming_distance

__all__ = ["AuthenticationResult", "Authenticator", "HammingAcceptRule"]


@dataclass(frozen=True)
class AuthenticationResult:
    """Verdict of one authentication attempt.

    Attributes:
        device_id: claimed identity.
        accepted: verifier decision.
        distance: HD between the presented and stored responses.
        threshold: acceptance threshold in bits.
    """

    device_id: str
    accepted: bool
    distance: int
    threshold: int


@dataclass(frozen=True)
class HammingAcceptRule:
    """Accept a response within ``floor(fraction * bits)`` of its reference.

    The one copy of the verifier's accept rule, shared by
    :class:`Authenticator` and the serving layer's ``auth``/``attest``
    verbs.

    Attributes:
        fraction: maximum accepted HD as a fraction of the response
            length, in ``(0, 0.5)``.
    """

    fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 0.5:
            raise ValueError(
                f"threshold_fraction must be in (0, 0.5), got {self.fraction}"
            )

    def verdict(
        self, device_id: str, reference: np.ndarray, response: np.ndarray
    ) -> AuthenticationResult:
        """Judge ``response`` against ``reference`` (equal-length bits).

        Raises:
            ValueError: when the lengths differ.
        """
        distance = hamming_distance(reference, response)
        threshold = int(np.floor(self.fraction * len(reference)))
        return AuthenticationResult(
            device_id=device_id,
            accepted=distance <= threshold,
            distance=distance,
            threshold=threshold,
        )


@dataclass
class Authenticator:
    """A verifier holding reference responses of enrolled devices.

    Attributes:
        threshold_fraction: maximum accepted HD as a fraction of the
            response length (default 15%, far above the configurable PUF's
            intra-chip noise and far below the ~50% inter-chip distance).
    """

    threshold_fraction: float = 0.15
    _references: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rule = HammingAcceptRule(self.threshold_fraction)

    @property
    def enrolled_devices(self) -> list[str]:
        return sorted(self._references)

    def enroll(self, device_id: str, reference: np.ndarray) -> None:
        """Store a device's reference response.

        Raises:
            ValueError: when the device is already enrolled.
        """
        if device_id in self._references:
            raise ValueError(f"device {device_id!r} already enrolled")
        reference = np.asarray(reference).astype(bool)
        if reference.ndim != 1 or len(reference) == 0:
            raise ValueError("reference response must be a non-empty bit vector")
        self._references[device_id] = reference.copy()

    def authenticate(
        self, device_id: str, response: np.ndarray
    ) -> AuthenticationResult:
        """Check a presented response against the stored reference.

        Raises:
            KeyError: when the claimed device was never enrolled.
        """
        if device_id not in self._references:
            raise KeyError(f"unknown device {device_id!r}")
        return self._rule.verdict(
            device_id, self._references[device_id], response
        )
