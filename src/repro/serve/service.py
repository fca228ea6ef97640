"""The authentication service: verb handlers over farm + store + coalescer.

:class:`AuthService` is transport-free — it maps one request dict to one
response dict — so the socket server, the tests, and any future transport
(HTTP, in-process) share the exact same semantics.  Verbs:

``ping``
    Liveness and protocol version.
``devices``
    Enrolled device ids (from the store, not the farm — an evicted device
    stays physically attached but can no longer authenticate).
``challenge``
    Draw a one-time challenge over a device's stored reference response
    (:class:`repro.crypto.crp.Challenge` shape: bit indices + fold).
``auth``
    Verify a challenge answer against the stored reference within a
    Hamming-distance threshold.  Challenges are single-use: replaying a
    (challenge, answer) pair is rejected, as is answering a challenge
    issued for a different device.
``attest``
    Measure the *attached* device at a requested operating point (through
    the coalescer) and compare the fresh response against the stored
    reference — the counterfeit-detection shape: has the silicon behind
    this identity changed?
``regen``
    Measure the device and regenerate its fuzzy-extractor key from the
    stored helper data; the key is checked against the enrolled key
    digest before being released.
``evict``
    Durably remove a device's enrollment (tombstone in the CRP store).
    The only enrollment-*mutating* verb on the wire: in degraded
    read-only mode it returns a typed ``DegradedReadOnly`` error.
``health``
    Liveness plus the degradation flag: a server that lost its store's
    append path keeps authenticating enrolled devices but reports
    ``status: "degraded"`` here until the append path heals (probed
    lazily, at most once per ``degraded_probe_interval_s``).
``ready``
    Readiness: whether the service can usefully serve — devices are
    enrolled and the coalescer is alive.  Load balancers should gate on
    this, not ``health``.
``stats``
    Service, coalescer, store, and (when fronted by an
    :class:`~repro.serve.server.AuthServer`) overload-protection
    counters.
``metrics``
    Live telemetry exposition from the process
    :class:`~repro.obs.exporter.MetricsExporter`: the JSON document
    (counter rates over rolling windows, sketch quantiles per latency
    histogram) by default, the Prometheus text format with
    ``{"format": "prometheus"}``.  ``ropuf top`` polls this verb.

Every handler failure becomes an ``{"ok": false, "error": ...,
"retriable": ...}`` response; nothing a client sends can take the service
down (pinned by the protocol robustness tests).  Requests carrying a
``deadline_ms`` budget propagate it into the coalescer, which drops the
job instead of evaluating it once the budget runs out (see
:mod:`~repro.serve.admission` and
``docs/serving.md#failure-modes--operations``).
"""

from __future__ import annotations

import hashlib
import secrets
import threading
import time
from typing import Callable

import numpy as np

from .. import obs
from ..crypto.authentication import HammingAcceptRule
from ..crypto.crp import Challenge
from ..crypto.ecc import BCHCode
from ..crypto.fuzzy_extractor import FuzzyExtractor
from ..variation.environment import OperatingPoint
from .admission import Deadline, DeadlineExceeded, parse_deadline
from .coalescer import RequestCoalescer
from .fleet import DeviceFarm
from .protocol import (
    PROTOCOL_VERSION,
    decode_bits,
    encode_bits,
    error_frame,
)
from .store import CRPStore, DeviceRecord

__all__ = ["AuthService", "ServiceError"]


class ServiceError(Exception):
    """A request-level failure reported to the client as ``ok: false``.

    ``retriable`` rides into the error frame: ``True`` promises the
    request was refused before any state changed, so the client may
    safely retry after backoff (see
    :data:`repro.serve.protocol.RETRIABLE_ERROR_TYPES`).
    """

    def __init__(
        self,
        message: str,
        error_type: str = "ServiceError",
        retriable: bool = False,
    ):
        super().__init__(message)
        self.error_type = error_type
        self.retriable = retriable


class AuthService:
    """Enrollment/authentication logic shared by every transport.

    Args:
        farm: the device twins the service can measure.
        store: persistent CRP/helper-data store (the verifier's state).
        coalescer: batches concurrent evaluations; a private one is
            created when omitted.
        threshold_fraction: accepted Hamming distance as a fraction of the
            compared width (defaults to the authenticator's 15%).
        extractor: fuzzy extractor for key enrollment/regeneration; its
            code length must fit the fleet's response width.
        challenge_width: response bits per challenge.
        seed: drives challenge drawing and helper-data generation.
        challenge_ttl_s: how long an issued challenge stays answerable.
            Expired challenges are rejected exactly like unknown ones and
            evicted, so clients that request challenges and never answer
            cannot grow the pending table without bound.
        max_pending_challenges: hard cap on simultaneously pending
            challenges; issuing past the cap evicts the oldest.
        exporter: metrics exposition source for the ``metrics`` verb; a
            private :class:`~repro.obs.exporter.MetricsExporter` over the
            process registry is created when omitted.
        degraded_probe_interval_s: while in degraded read-only mode, how
            often (at most) a mutating request re-probes the store's
            append path before failing fast with ``DegradedReadOnly``.
    """

    def __init__(
        self,
        farm: DeviceFarm,
        store: CRPStore,
        coalescer: RequestCoalescer | None = None,
        threshold_fraction: float = 0.15,
        extractor: FuzzyExtractor | None = None,
        challenge_width: int = 16,
        seed: int = 20140601,
        challenge_ttl_s: float = 120.0,
        max_pending_challenges: int = 4096,
        exporter=None,
        degraded_probe_interval_s: float = 1.0,
    ):
        self.accept_rule = HammingAcceptRule(threshold_fraction)
        if challenge_ttl_s <= 0.0:
            raise ValueError(
                f"challenge_ttl_s must be > 0, got {challenge_ttl_s}"
            )
        if max_pending_challenges < 1:
            raise ValueError(
                f"max_pending_challenges must be >= 1, got "
                f"{max_pending_challenges}"
            )
        self.farm = farm
        self.store = store
        self.coalescer = coalescer or RequestCoalescer()
        self._owns_coalescer = coalescer is None
        self.extractor = extractor or FuzzyExtractor(
            code=BCHCode(m=5, t=3), key_bytes=16
        )
        self.challenge_width = challenge_width
        self.challenge_ttl_s = challenge_ttl_s
        self.max_pending_challenges = max_pending_challenges
        self.exporter = exporter if exporter is not None else (
            obs.MetricsExporter()
        )
        if degraded_probe_interval_s < 0.0:
            raise ValueError(
                f"degraded_probe_interval_s must be >= 0, got "
                f"{degraded_probe_interval_s}"
            )
        self.degraded_probe_interval_s = degraded_probe_interval_s
        # Degraded read-only mode: set when the store's append path
        # fails; reads (auth against enrolled records) keep working,
        # mutating verbs fail fast with a typed error until a lazy
        # re-probe sees the append path heal.
        self._degraded_lock = threading.Lock()
        self._degraded_reason: str | None = None
        self._degraded_last_probe = 0.0
        # Set by the fronting AuthServer so the stats verb can expose
        # admission/rate-limit/connection counters in one scrape.
        self.overload_stats: Callable[[], dict] | None = None
        self._rng = np.random.default_rng(seed)
        # challenge_id -> (device_id, challenge, issued_at monotonic).
        # Insertion-ordered, so the first key is always the oldest —
        # both TTL sweeping and overflow eviction walk from the front.
        self._challenges: dict[str, tuple[str, Challenge, float]] = {}
        self._challenge_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._verbs: dict[str, Callable[[dict], dict]] = {
            "ping": self._op_ping,
            "devices": self._op_devices,
            "challenge": self._op_challenge,
            "auth": self._op_auth,
            "attest": self._op_attest,
            "regen": self._op_regen,
            "evict": self._op_evict,
            "health": self._op_health,
            "ready": self._op_ready,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
        }

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------

    def enroll_fleet(self) -> dict:
        """Enroll every farm device that the store does not already hold.

        A persisted store from an earlier run is *reused*: the fleet is
        rebuilt deterministically from its seed, so existing records stay
        valid across restarts — the crash-recovery story of the store
        tests.  Returns ``{"enrolled": [...], "reused": [...]}``.
        """
        enrolled, reused = [], []
        for device in self.farm:
            if device.device_id in self.store:
                reused.append(device.device_id)
                continue
            bits = device.enrollment.bits
            needed = self.extractor.response_bits
            if len(bits) < needed:
                raise ValueError(
                    f"device {device.device_id!r} yields {len(bits)} bits "
                    f"but the extractor's code needs {needed}"
                )
            order = np.argsort(
                -np.abs(device.enrollment.margins), kind="stable"
            )
            used = np.sort(order[:needed])
            key, helper = self.extractor.generate(bits[used], self._rng)
            self.store.enroll(
                DeviceRecord(
                    device_id=device.device_id,
                    reference_bits=bits,
                    helper_offset=helper.offset,
                    helper_salt=helper.salt,
                    used_bits=tuple(int(i) for i in used),
                    key_digest=hashlib.sha256(key).hexdigest(),
                    enrolled_at=self.farm.enroll_op.label(),
                )
            )
            enrolled.append(device.device_id)
        return {"enrolled": enrolled, "reused": reused}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out — never raises."""
        verb = request.get("op")
        handler = self._verbs.get(verb)
        if handler is None:
            self._count("errors")
            return self._error(
                f"unknown op {verb!r} (known: {sorted(self._verbs)})",
                "UnknownOp",
            )
        self._count(f"requests.{verb}")
        obs.counter_add(f"serve.requests.{verb}")
        try:
            with obs.timed(f"serve.latency_ms.{verb}"):
                return handler(request)
        except ServiceError as exc:
            self._count("errors")
            obs.counter_add("serve.errors")
            return self._error(str(exc), exc.error_type, exc.retriable)
        except Exception as exc:  # noqa: BLE001 - the server must survive
            self._count("errors")
            obs.counter_add("serve.errors")
            return self._error(str(exc), type(exc).__name__)

    @property
    def degraded(self) -> bool:
        """Whether the service is in degraded read-only mode."""
        with self._degraded_lock:
            return self._degraded_reason is not None

    def note_protocol_error(self, error_type: str) -> None:
        """Fold a transport-level frame failure into the counters."""
        self._count(f"protocol_errors.{error_type}")
        obs.counter_add("serve.protocol_errors")

    def note_overload(self, rejection_type: str) -> None:
        """Fold a front-end overload rejection into the counters.

        The :class:`~repro.serve.server.AuthServer` sheds these before
        ``handle`` ever runs, so they would otherwise be invisible in
        the service's own request totals.
        """
        self._count(f"overload.{rejection_type}")
        obs.counter_add("serve.overload.rejected")

    def close(self) -> None:
        """Release the coalescer if this service created it."""
        if self._owns_coalescer:
            self.coalescer.close()

    # ------------------------------------------------------------------
    # Verb handlers
    # ------------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "version": PROTOCOL_VERSION}

    def _op_devices(self, request: dict) -> dict:
        return {"ok": True, "devices": self.store.device_ids}

    def _op_challenge(self, request: dict) -> dict:
        record = self._record(request)
        width = min(self.challenge_width, record.bit_count)
        now = time.monotonic()
        with self._challenge_lock:
            self._sweep_expired(now)
            # Oldest-first overflow eviction: the dict is insertion
            # ordered, so the front entry is the longest-pending one.
            while len(self._challenges) >= self.max_pending_challenges:
                oldest = next(iter(self._challenges))
                del self._challenges[oldest]
                self._count("challenges.evicted")
                obs.counter_add("serve.challenges.evicted")
            indices = self._rng.choice(
                record.bit_count, size=width, replace=False
            )
            challenge = Challenge(
                indices=tuple(int(i) for i in np.sort(indices)), fold=1
            )
            challenge_id = secrets.token_hex(16)
            self._challenges[challenge_id] = (
                record.device_id,
                challenge,
                now,
            )
        return {
            "ok": True,
            "challenge_id": challenge_id,
            "indices": list(challenge.indices),
            "fold": challenge.fold,
        }

    def _op_auth(self, request: dict) -> dict:
        record = self._record(request)
        challenge_id = request.get("challenge_id")
        answer_text = request.get("answer")
        if not isinstance(challenge_id, str) or answer_text is None:
            raise ServiceError(
                "auth needs 'challenge_id' and 'answer'", "BadRequest"
            )
        now = time.monotonic()
        with self._challenge_lock:
            pending = self._challenges.pop(challenge_id, None)
        if pending is not None and now - pending[2] > self.challenge_ttl_s:
            # Expired: counted separately, but rejected with the exact
            # same response as an unknown id — the client cannot tell
            # whether an id was ever issued.
            self._count("challenges.expired")
            obs.counter_add("serve.challenges.expired")
            pending = None
        if pending is None:
            self._count("auth.replayed")
            obs.counter_add("serve.auth.replayed")
            return {
                "ok": True,
                "accepted": False,
                "reason": "unknown or already-used challenge",
            }
        issued_for, challenge, _issued_at = pending
        if issued_for != record.device_id:
            return {
                "ok": True,
                "accepted": False,
                "reason": "challenge was issued for a different device",
            }
        answer = self._decode(answer_text, "answer")
        expected = record.reference_bits[np.array(challenge.indices)]
        if len(answer) != len(expected):
            raise ServiceError(
                f"answer has {len(answer)} bits, challenge expects "
                f"{len(expected)}",
                "BadRequest",
            )
        verdict = self.accept_rule.verdict(record.device_id, expected, answer)
        accepted = verdict.accepted
        self._count("auth.accepted" if accepted else "auth.rejected")
        obs.counter_add(
            "serve.auth.accepted" if accepted else "serve.auth.rejected"
        )
        return {
            "ok": True,
            "accepted": accepted,
            "distance": verdict.distance,
            "threshold": verdict.threshold,
        }

    def _op_attest(self, request: dict) -> dict:
        record = self._record(request)
        bits = self._measure(
            record.device_id,
            self._operating_point(request),
            deadline=self._deadline(request),
        )
        if len(bits) != record.bit_count:
            raise ServiceError(
                f"device yields {len(bits)} bits but the stored reference "
                f"has {record.bit_count}",
                "FleetMismatch",
            )
        verdict = self.accept_rule.verdict(
            record.device_id, record.reference_bits, bits
        )
        accepted = verdict.accepted
        self._count("attest.accepted" if accepted else "attest.rejected")
        obs.counter_add(
            "serve.attest.accepted" if accepted else "serve.attest.rejected"
        )
        return {
            "ok": True,
            "accepted": accepted,
            "distance": verdict.distance,
            "threshold": verdict.threshold,
            "response": encode_bits(bits),
        }

    def _op_evict(self, request: dict) -> dict:
        record = self._record(request)
        self._mutate_store(lambda: self.store.evict(record.device_id))
        self._count("evicted")
        obs.counter_add("serve.evicted")
        return {"ok": True, "evicted": record.device_id}

    def _op_health(self, request: dict) -> dict:
        degraded = self._check_degraded()
        return {
            "ok": True,
            "status": "degraded" if degraded else "ok",
            "degraded": degraded is not None,
            "reason": degraded,
            "version": PROTOCOL_VERSION,
        }

    def _op_ready(self, request: dict) -> dict:
        devices = len(self.store)
        coalescing = not self.coalescer.closed
        ready = devices > 0 and coalescing
        return {
            "ok": True,
            "ready": ready,
            "devices": devices,
            "coalescer_alive": coalescing,
        }

    def _op_regen(self, request: dict) -> dict:
        record = self._record(request)
        bits = self._measure(
            record.device_id,
            self._operating_point(request),
            deadline=self._deadline(request),
        )
        try:
            key = self.extractor.reproduce(
                bits[np.array(record.used_bits)], record.helper()
            )
        except ValueError as exc:
            raise ServiceError(
                f"key regeneration failed: {exc}", "KeyRegenError"
            ) from exc
        verified = record.matches_key(key)
        self._count("regen.verified" if verified else "regen.mismatched")
        return {"ok": True, "key": key.hex(), "verified": verified}

    def _op_stats(self, request: dict) -> dict:
        with self._count_lock:
            counts = dict(sorted(self._counts.items()))
        with self._challenge_lock:
            pending = len(self._challenges)
        stats = {
            "service": counts,
            "challenges": {
                "pending": pending,
                "ttl_s": self.challenge_ttl_s,
                "max_pending": self.max_pending_challenges,
            },
            "coalescer": self.coalescer.stats(),
            "store": self.store.stats(),
            "degraded": self.degraded,
        }
        if self.overload_stats is not None:
            stats["overload"] = self.overload_stats()
        return {"ok": True, "stats": stats}

    def _op_metrics(self, request: dict) -> dict:
        fmt = request.get("format", "json")
        if fmt == "json":
            return {"ok": True, "metrics": self.exporter.collect()}
        if fmt == "prometheus":
            return {"ok": True, "text": self.exporter.prometheus()}
        raise ServiceError(
            f"unknown metrics format {fmt!r} (known: json, prometheus)",
            "BadRequest",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _record(self, request: dict) -> DeviceRecord:
        device_id = request.get("device")
        if not isinstance(device_id, str):
            raise ServiceError("request needs a 'device' field", "BadRequest")
        record = self.store.get(device_id)
        if record is None:
            raise ServiceError(
                f"device {device_id!r} is not enrolled", "UnknownDevice"
            )
        return record

    def _operating_point(self, request: dict) -> OperatingPoint:
        try:
            return OperatingPoint(
                voltage=float(request["voltage"]),
                temperature=float(request["temperature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"request needs numeric 'voltage' and 'temperature': {exc}",
                "BadRequest",
            ) from exc

    def _deadline(self, request: dict) -> Deadline | None:
        try:
            return parse_deadline(request)
        except ValueError as exc:
            raise ServiceError(str(exc), "BadRequest") from exc

    def _measure(
        self,
        device_id: str,
        op: OperatingPoint,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        try:
            device = self.farm.device(device_id)
        except KeyError as exc:
            raise ServiceError(str(exc), "DeviceDetached") from exc
        try:
            return self.coalescer.submit(
                device.evaluator, op, deadline=deadline
            )
        except KeyError as exc:
            raise ServiceError(
                f"device {device_id!r} cannot be measured at that corner: "
                f"{exc}",
                "UnmeasuredCorner",
            ) from exc
        except DeadlineExceeded as exc:
            raise ServiceError(
                str(exc), "DeadlineExceeded", retriable=True
            ) from exc
        except RuntimeError as exc:
            # Coalescer closed (shutdown or dispatcher crash) or a
            # dispatch stall: retriable — another replica (or this one,
            # shortly) can serve the request; no state changed.
            raise ServiceError(
                f"evaluation unavailable: {exc}", "Unavailable", retriable=True
            ) from exc

    def _mutate_store(self, mutation: Callable[[], object]) -> object:
        """Run an enrollment-mutating store call with degraded-mode rails.

        In degraded mode the mutation fails fast with a typed
        ``DegradedReadOnly`` error unless a (rate-limited) re-probe of
        the store's append path says it healed.  An ``OSError`` escaping
        the mutation *enters* degraded mode: the memory index was not
        changed (the store appends before mutating it), so reads keep
        serving the last durable state.
        """
        reason = self._check_degraded()
        if reason is not None:
            raise ServiceError(
                f"store is in degraded read-only mode ({reason}); "
                f"enrollment-mutating verbs are disabled",
                "DegradedReadOnly",
            )
        try:
            return mutation()
        except OSError as exc:
            self._enter_degraded(str(exc))
            raise ServiceError(
                f"store append failed ({exc}); entering degraded "
                f"read-only mode",
                "DegradedReadOnly",
            ) from exc

    def _enter_degraded(self, reason: str) -> None:
        with self._degraded_lock:
            entered = self._degraded_reason is None
            self._degraded_reason = reason
            self._degraded_last_probe = time.monotonic()
        if entered:
            self._count("degraded.entered")
            obs.counter_add("serve.degraded.entered")

    def _check_degraded(self) -> str | None:
        """Current degraded reason, re-probing the append path lazily.

        Returns ``None`` when healthy.  While degraded, at most one
        probe per ``degraded_probe_interval_s`` touches the filesystem;
        every other caller fails fast on the cached reason.
        """
        with self._degraded_lock:
            reason = self._degraded_reason
            if reason is None:
                return None
            now = time.monotonic()
            if now - self._degraded_last_probe < self.degraded_probe_interval_s:
                return reason
            self._degraded_last_probe = now
        if self.store.probe_writable():
            with self._degraded_lock:
                self._degraded_reason = None
            self._count("degraded.recovered")
            obs.counter_add("serve.degraded.recovered")
            return None
        return reason

    def _decode(self, text, field: str) -> np.ndarray:
        try:
            return decode_bits(text)
        except ValueError as exc:
            raise ServiceError(f"bad {field}: {exc}", "BadRequest") from exc

    def _error(
        self, message: str, error_type: str, retriable: bool | None = None
    ) -> dict:
        return error_frame(message, error_type, retriable)

    def _sweep_expired(self, now: float) -> None:
        """Drop every expired pending challenge (caller holds the lock).

        Insertion order is issue order, so expiry is monotone from the
        front: stop at the first still-live entry.
        """
        expired = 0
        for challenge_id, (_, _, issued_at) in list(self._challenges.items()):
            if now - issued_at <= self.challenge_ttl_s:
                break
            del self._challenges[challenge_id]
            expired += 1
        if expired:
            with self._count_lock:
                self._counts["challenges.expired"] = (
                    self._counts.get("challenges.expired", 0) + expired
                )
            obs.counter_add("serve.challenges.expired", expired)

    def _count(self, name: str) -> None:
        with self._count_lock:
            self._counts[name] = self._counts.get(name, 0) + 1
