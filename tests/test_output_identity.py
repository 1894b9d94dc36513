"""Byte-identity guard: the JSON report and the sampling summary of fixed
seeded pools must not change.

Each pool is rendered with ``to_json(analyze(rd, seed))`` (one instance per
line) or ``json.dumps(sample_types(...).as_dict(), sort_keys=True)`` and
hashed with SHA-256.  The pinned digests were computed before the
classification and the symmetric functions moved to closed forms, so a
change to any byte of the output (a coefficient, a resultant value, a point
order, a certificate) fails here.  Regenerate them only for an intended
output change, by printing ``pool_digests()``.
"""

import hashlib
import json
import random

import pytest

from howe import analyze, prime_field, rational_field, to_json
from howe.reference import REFERENCE_EXAMPLES, reference_data
from howe.sampling import sample_types

from conftest import planted_branch_data, random_branch_data, s1_equal_branch_data

PLANTED_LABELS = ("I-2", "I-3", "II-2", "II-3", "II-4")


def _pools():
    F31, F10007, QQ = prime_field(31), prime_field(10007), rational_field()
    pools = {
        "F31": [random_branch_data(F31, random.Random(71)) for _ in range(40)],
        "F10007": [random_branch_data(F10007, random.Random(72)) for _ in range(40)],
        "Q_H50": [random_branch_data(QQ, random.Random(73), 50) for _ in range(20)],
        "Q_H1000": [random_branch_data(QQ, random.Random(74), 1000) for _ in range(20)],
        "Q_H1e30": [random_branch_data(QQ, random.Random(75), 10**30) for _ in range(8)],
        "s1=t1": [s1_equal_branch_data(F10007, random.Random(76)) for _ in range(20)],
        "s1=t1 over Q": [s1_equal_branch_data(QQ, random.Random(77), 100) for _ in range(10)],
        "reference": [reference_data(ex) for ex in REFERENCE_EXAMPLES],
    }
    for label in PLANTED_LABELS:
        rng = random.Random(f"planted {label}")
        pools[f"planted {label}"] = (
            [planted_branch_data(F31, rng, label) for _ in range(3)]
            + [planted_branch_data(F10007, rng, label) for _ in range(3)]
        )
    return pools


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pool_digests() -> dict:
    out = {}
    for name, pool in _pools().items():
        out[name] = _digest(to_json(analyze(rd, seed)) for seed, rd in enumerate(pool))
    for p in (11, 31, 10007):
        summary = sample_types(prime_field(p), 150, seed=p)
        out[f"sample p={p}"] = _digest([json.dumps(summary.as_dict(), sort_keys=True)])
    return out


PINNED = {
    "F10007": "5dce374a088349db05dbf4d40a2921020ac40da17f8a4c5400089ba020d47770",
    "F31": "94f5f24a9d9943c2cda318db26c8d86502d47d641404f72421453fcc4c1e8e38",
    "Q_H1000": "86d08a8332b501757772d8d859cd76ad440c2f370176d35e7a7383ff23d1b610",
    "Q_H1e30": "495bb7ac74e3824b3d996fca2b87854bea99dd38d68cc240ccf3758feb03583e",
    "Q_H50": "6db14f815e857deda15a536b810f540babd273352eb4b1d0b3874f49da18c76e",
    "planted I-2": "1c1012c3c18cbf4453fcca73c60bfa08ea30634639502dcccc96267d5801d72d",
    "planted I-3": "e460b7424fd33fa531157a683b0d9a669eec595772b343dfc0b52377a57fda09",
    "planted II-2": "0cfc09e2517f8beb29f279c5cce7434ec15eae62d36579fdf6497edd26a9f014",
    "planted II-3": "4949edd5b191377b15d34f4545c03985db98d1bfa7752aa08bb98eb11321378c",
    "planted II-4": "c8ac26b834c064016d846b3e9818dadb30740748b4dfb5d5deb8331244820ab0",
    "reference": "a3e6953c23e59314c1576e764739bafcbde925efd443d0452e7200c778ea0011",
    "s1=t1": "8e67d572ef96971c2352d1fa6b4ce00b4016df853b236e2ae6c445a9498f8af8",
    "s1=t1 over Q": "9622d351f03030155634bfd760be54585280ba3f72ff9d06accacfc2ee45e09e",
    "sample p=10007": "6526d696b904295b774c15e96e3095d62c5fc966ca6a41eb1b86fc30aba67fcc",
    "sample p=11": "6d3e909a5f5064b4870ed71ff736a0c22662df896dd8b6bd432dfe464eb59d93",
    "sample p=31": "8da5854882c1460f5dcc09a9ba62560b5d893f5879eb7f296fd4be35db57cc7e",
}


@pytest.fixture(scope="module")
def digests():
    return pool_digests()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == PINNED[name]


def test_every_pool_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)
