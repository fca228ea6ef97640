"""Security applications on top of the PUF: keys, sketches, authentication.

The paper motivates PUFs by secret-key storage and chip authentication;
this package provides those applications, plus the conventional
ECC/fuzzy-extractor stack the paper's related work surveys ([10-12]) so the
benches can quantify the "no ECC needed" claim.
"""

from .authentication import (
    AuthenticationResult,
    Authenticator,
    HammingAcceptRule,
)
from .crp import Challenge, ChallengeResponseInterface
from .ecc import BCHCode, BlockCode, RepetitionCode
from .fuzzy_extractor import FuzzyExtractor, HelperData
from .gf2m import GF2m, PRIMITIVE_POLYNOMIALS
from .keygen import KeyGenerator, KeyMaterial

__all__ = [
    "AuthenticationResult",
    "Authenticator",
    "HammingAcceptRule",
    "Challenge",
    "ChallengeResponseInterface",
    "BCHCode",
    "BlockCode",
    "RepetitionCode",
    "FuzzyExtractor",
    "HelperData",
    "GF2m",
    "PRIMITIVE_POLYNOMIALS",
    "KeyGenerator",
    "KeyMaterial",
]
