"""Golden digests of the machine payload for every fan file in ``fans/``.

The digests were recorded before the cohomology core was rewritten to
eliminate each differential once; the rewrite must not change a byte of
the ``cohomology --ring`` or ``verify`` payload.  A digest is the SHA-256
of ``json.dumps(payload, sort_keys=True)``.

The ``verify --cover`` digests use covers with non-maximal cones, so the
constant-coefficient restrictions onto extra cones are pinned too; they
were recorded before the Cech layer was reduced to two coefficient
systems.
"""

import hashlib
import json

import pytest

from conftest import FAN_DIR
from toriclg.cli import main

RING_DIGESTS = {
    "blowup_c2": "f8f2ee3eee90f3e6d6ed90cb2ed9a7955def47c7d518f58f16d9454e5b620d30",
    "c2": "d0e168260779eb47559f66f5b06182a883112519bfea81575c8053835bd55f25",
    "c3": "3c1d2e240126becd806f4025be0d64efa50854f75a02276e744f1da3630f5197",
    "c_x_p1": "9802f0d18ef032ad95bb092aa7e7129ad8a63087a6e9bc5a1e4a0ad2357917ad",
    "hirzebruch1": "1ef956ef7ba1ab7ddeabdc82283fec274847fb06458744e639548fd98bae95c8",
    "p1": "fc10079d77ee3bfcb78b7f6d85d7da1ac76788e0a4288e5b594036210d488797",
    "p1xp1": "70c54c199d56b9fe55ac0ef104184d68d4655bc96ffd5a8f41d77542a5ab22c6",
    "p2": "8fbbc345cbb097446ef737d7104956d8f9183e84c91522af74c2aab5c83ef998",
    "zero2": "ea63359365a7aca44d73f7323645416da51feb9f0e211f4d8342a3a5a8af9212",
}

VERIFY_DIGESTS = {
    "blowup_c2": "ff7e9bdeee116b45e30ff1a6735d0627a2601571fa29517787c8d76982054bda",
    "c2": "19eb05e924498875ffebd4c2d73b66dca26c400336d78ab88fff353cb8ac5635",
    "c3": "2b58010e418b55cb7c3d570a3cadf81c29436e894f681629247c445377a8fd50",
    "c_x_p1": "6f58ef5d143ffc181bb9e0f9fd5492370783c39256a375e5560bb394c2bd8943",
    "hirzebruch1": "7d8d5a06b39ef2abcd6f12228819c9ad87c65e3b75572711af100d80b1dd4dfc",
    "p1": "7eb07268ab8d6c2f0b4676e88922fdd347500f5a9cda8c0deef81c208b5b55f0",
    "p1xp1": "7d8d5a06b39ef2abcd6f12228819c9ad87c65e3b75572711af100d80b1dd4dfc",
    "p2": "aa68e4db114ea9af6d1f55eda6c8259f4bc4236c3c980c85a8bcf642285bca10",
    "zero2": "62f517360e00d37515a46cc1b7b2b36e27228359195aac3facff7be950797f74",
}

COVER_DIGESTS = {
    ("p2", "1,2,3,4,5,6"): "0480cf7591a604668a72e53c4b8dc9708146e7e5f6bd15324d01e17b2baea614",
    ("hirzebruch1", "3,4,6,8,1,2,9"): "390ad100b22f49050826a1f262cbdeb45b1b7119cc46a6486494be0d80a89952",
}


def payload_digest(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_every_fan_file_has_digests():
    names = sorted(p.stem for p in FAN_DIR.glob("*.json"))
    assert names == sorted(RING_DIGESTS) == sorted(VERIFY_DIGESTS)


@pytest.mark.parametrize("name", sorted(RING_DIGESTS))
def test_ring_payload_unchanged(capsys, name):
    path = str(FAN_DIR / f"{name}.json")
    assert payload_digest(capsys, "cohomology", path, "--ring", "--json") == RING_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_payload_unchanged(capsys, name):
    path = str(FAN_DIR / f"{name}.json")
    assert payload_digest(capsys, "verify", path, "--json") == VERIFY_DIGESTS[name]


@pytest.mark.parametrize("name,cover", sorted(COVER_DIGESTS))
def test_verify_cover_payload_unchanged(capsys, name, cover):
    path = str(FAN_DIR / f"{name}.json")
    digest = payload_digest(capsys, "verify", path, "--cover", cover, "--json")
    assert digest == COVER_DIGESTS[(name, cover)]
