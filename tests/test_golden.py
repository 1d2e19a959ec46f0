"""Golden digests of the machine payload for every fan file in ``fans/``.

The digests were recorded before the cohomology core was rewritten to
eliminate each differential once; the rewrite must not change a byte of
the ``cohomology --ring`` or ``verify`` payload.  A digest is the SHA-256
of ``json.dumps(payload, sort_keys=True)``.

The ``verify --cover`` digests use covers with non-maximal cones, so the
constant-coefficient restrictions onto extra cones are pinned too; they
were recorded before the Cech layer was reduced to two coefficient
systems.

The ``validate`` and ``degenerate`` digests were recorded before the
fan-condition and certificate searches moved onto one LP entry point and
the lattice solves onto one column reduction.  ``degenerate`` refuses the
non-complete ``zero2`` (exit 2), so that entry pins its error message.

The fans in ``fans/`` have at most 5 rays, so the ``LARGER_*`` digests run
fans of ``helpers.INLINE_FANS``: Fourier-Motzkin rows with coefficients
other than +-1 (the 18-ray surface), coefficient forms with several rays in
``log_derivations``, and the Cech local blocks of a 7-cone cover.  They
were recorded before the monomial bases, Koszul index maps and integer
Fourier-Motzkin rows were computed once per fan.  The rank-3 and rank-4
``verify`` digests and the ``LARGER_RING_DIGESTS`` were recorded before
elimination moved to a column index with tracked pivot rows and the Cech
matrices to planned, validate-once assembly: the forms total complexes and
the slots of ``--ring`` above the window run the new elimination order on
matrices of a few hundred rows.

The ``TMAX_RING_DIGESTS`` were recorded before the products above the
window were certified zero from generation in degree 2, and they still
pass now that a regular sequence of coefficient forms (P^2) reads every
slot from the quotient R/(forms), with no twisted slot at any t_max,
while zero2 reduces every degree in its twisted slot.  The
``NON_REGULAR_RING_DIGESTS`` pin that twisted path on two fans of
``helpers.INLINE_FANS`` whose face rings are not Cohen-Macaulay; they were
recorded while the twisted path still certified products above the window.
"""

import hashlib
import json

import pytest

from conftest import FAN_DIR
from helpers import inline_fan_file
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

VALIDATE_DIGESTS = {
    "blowup_c2": "3fe07649b8e5ed85b378809668fce7552a709260e1aeb0fae4973fc418332425",
    "c2": "18dad4ddd66f609e068ea70957001b8f9f9659b8e513200ec35bf758e075f21d",
    "c3": "c05a2eb618a1fc26c55325fa1fc28e1fd554c688239590541a732bb632844436",
    "c_x_p1": "dbb39849463eb007dd370420ad420afd83f0c4df4c1866bdb6404ae392152731",
    "hirzebruch1": "be44aa7e282b90711caf1d0ba95278111025c97c9564d95b268c776e102d612f",
    "p1": "0ca591fe08005cb50e44bf91965ce22c0e63a8575db6f150b14d82fef4dbf24b",
    "p1xp1": "48d585e2fb24b0d47f1b5775f92edb8b5d9e80f339c8d44ed22d862482779856",
    "p2": "6f0cbfc92d921ec91bee688bdd681e999d8e95b8c97e4ada3bba533a01ed7647",
    "zero2": "22475b3ad66df71f753171f98188fcb8b2f45d881bf1ab792647cfe626077e82",
}

# a digest, or the error line of a fan that degenerate refuses
DEGENERATE_DIGESTS = {
    "blowup_c2": "8d9727db0128054472839ed7ed58d6cd73f0fe6a70d967395aa188abf9dbe708",
    "c2": "1306a6b452a07e7bbf28e094dce5d37f7bc33a18180ffa69c0afb2d8951c1f24",
    "c3": "367422b03f8e6133f6d5dd534bfead3f80918943df3ae093745f27cb3b9470fb",
    "c_x_p1": "c0735c5742e376f0643f6b039d5b6163a4dd35686ac1ba0f76dcb5cd3b89c958",
    "hirzebruch1": "201b6c9b33a779d53817f4f6aecfa6c383eaff65a7cbd4241360f30fa9803469",
    "p1": "fdf314af95980e8e96a55938cd3e7dcfe3111d17b204fbbad113b994c862e443",
    "p1xp1": "24cf4aa22f9a4a915f9354e61317a04502d6b7d2766a347ef56790f4a6f817f5",
    "p2": "006fee9262b3e516e81fd54193ef63922da051b93517071f4bc9d9f12e01a527",
    "zero2": "error: fan is not semi-projective: not-full-dimensional",
}

COVER_DIGESTS = {
    ("p2", "1,2,3,4,5,6"): "0480cf7591a604668a72e53c4b8dc9708146e7e5f6bd15324d01e17b2baea614",
    ("hirzebruch1", "3,4,6,8,1,2,9"): "390ad100b22f49050826a1f262cbdeb45b1b7119cc46a6486494be0d80a89952",
}

LARGER_VALIDATE_DIGESTS = {
    "S18": "21c3c7242e5e5444d200b2646813cf006b1c25881bea92fcee0898c1b1129a78",
    "Bl_pt P3": "21044df70f043530d98c348fa4cfb73f9cf6e11c1fab9c625b09617b6aeb494f",
    "C2xP2": "47a45e46c1be9ea77a67bf51e85a84b2dabf09f33ff431b9fef8821909a276fa",
    "P1^3": "f2bab94b251630c369914e6273a3bdd497aa38ef2b1f0f235581818e18e283d9",
}

LARGER_DEGENERATE_DIGESTS = {
    "S18": "e59fa59f51ef4ec8a1b6459989fab9c9fc99eb0f39a1715797f8270dd94eb608",
    "Bl_pt P3": "9b72f85ac836630d95ee159c760614dccf81a463f9b32a8ac310ac7434c7f6fd",
    "C2xP2": "5e412f5125a4684de62a219266b16084b34dbc47ba24a7863593bd220c1bc6bd",
    "P1^3": "46131b30c7457c29255c112df8c244c343631754b14517f2356c1b6f394f988b",
}

LARGER_VERIFY_DIGESTS = {
    "S7": "40ac1719b2ec1ffda6e3d718b7832b2dd6bae99dc6a0413ad5bc28f9bdae3a63",
    "P3": "b7bf35fc6cda710d3dca5aa452c8a393876734ebf7c09a68ce8833eda9f3821d",
    "Bl_pt P3": "e2d7410f2e0d8345120c64de90d77da4c5a0014170e5a266796323baf8cf739e",
    "C2xP2": "fe2e3204dbae36efd333f745cb9870ee412fa0d283c7c1d34df98dc3feec643f",
}

LARGER_RING_DIGESTS = {
    "P3": "359b3f09ba69b5ca826fdf9e8cfd3e65afdc8bbc6e37e0d5588dd018a8ae5dc1",
    "Bl_pt P3": "666ab348f6e84f119c68dc1a41b673c592fac3a6af9ad48b9a22ef0b4f95e769",
    "P1^3": "b8b5711413b8945aabdf72ba993565f6174b672388494a46558a89f85de72aac",
}

TMAX_RING_DIGESTS = {
    ("p2", 3): "1add5eeb951a0bdf206251449161cf449aa4b551e07d76572f0db86352057773",
    ("p2", 5): "1e574a25a21656c81a9816487ebe89844e33d67650afd8ce398101c7ee849c16",
    ("p2", 12): "c53b7bc1fba46d281be7ab2c8ed4ace0610bf5c06d9039447122ab8fd90c6d21",
    ("zero2", 3): "f5a7093df7f83e017ae8fbc895599ea3376bfa3556d1282ca6c6398444f3a888",
}

# (fan, t_max or None for the default)
NON_REGULAR_RING_DIGESTS = {
    ("2 quadrants", None): "a100ec70436cd9cce3798b2db2e4eb3e8de7da392a605ecb7a5490b006e5f4e1",
    ("2 quadrants", 3): "837f0821c71beaf614ad9e9c573201221320ac4cc458b6ebb859d1d0a409473e",
    ("2 octants", None): "b19a9ed75c4ffc47cfc91702f1bf69c83503fc58d83bcf4ab193cadbee11c9b3",
    ("2 octants", 3): "2e80dabb66927ea5f2e303b4c2b8f334d5dd2fb927404850cc05433be62ab1ce",
}


def payload_digest(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_every_fan_file_has_digests():
    names = sorted(p.stem for p in FAN_DIR.glob("*.json"))
    assert names == sorted(RING_DIGESTS) == sorted(VERIFY_DIGESTS)
    assert names == sorted(VALIDATE_DIGESTS) == sorted(DEGENERATE_DIGESTS)


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


@pytest.mark.parametrize("name", sorted(VALIDATE_DIGESTS))
def test_validate_payload_unchanged(capsys, name):
    path = str(FAN_DIR / f"{name}.json")
    assert payload_digest(capsys, "validate", path, "--json") == VALIDATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DEGENERATE_DIGESTS))
def test_degenerate_payload_unchanged(capsys, name):
    path = str(FAN_DIR / f"{name}.json")
    want = DEGENERATE_DIGESTS[name]
    if want.startswith("error: "):
        assert main(["degenerate", path, "--json"]) == 2
        assert capsys.readouterr().err.strip() == want
    else:
        assert payload_digest(capsys, "degenerate", path, "--json") == want


@pytest.mark.parametrize("name", sorted(LARGER_VALIDATE_DIGESTS))
def test_larger_validate_payload_unchanged(capsys, tmp_path, name):
    path = inline_fan_file(tmp_path, name)
    assert payload_digest(capsys, "validate", path, "--json") == LARGER_VALIDATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LARGER_DEGENERATE_DIGESTS))
def test_larger_degenerate_payload_unchanged(capsys, tmp_path, name):
    path = inline_fan_file(tmp_path, name)
    assert payload_digest(capsys, "degenerate", path, "--json") == LARGER_DEGENERATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LARGER_VERIFY_DIGESTS))
def test_larger_verify_payload_unchanged(capsys, tmp_path, name):
    path = inline_fan_file(tmp_path, name)
    assert payload_digest(capsys, "verify", path, "--json") == LARGER_VERIFY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LARGER_RING_DIGESTS))
def test_larger_ring_payload_unchanged(capsys, tmp_path, name):
    path = inline_fan_file(tmp_path, name)
    assert payload_digest(capsys, "cohomology", path, "--ring", "--json") == LARGER_RING_DIGESTS[name]


@pytest.mark.parametrize("name,t_max", sorted(TMAX_RING_DIGESTS))
def test_ring_payload_with_tmax_unchanged(capsys, name, t_max):
    path = str(FAN_DIR / f"{name}.json")
    digest = payload_digest(capsys, "cohomology", path, "--ring", "--tmax", str(t_max), "--json")
    assert digest == TMAX_RING_DIGESTS[(name, t_max)]


@pytest.mark.parametrize("name,t_max", sorted(NON_REGULAR_RING_DIGESTS, key=str))
def test_non_regular_ring_payload_unchanged(capsys, tmp_path, name, t_max):
    tmax = [] if t_max is None else ["--tmax", str(t_max)]
    digest = payload_digest(capsys, "cohomology", inline_fan_file(tmp_path, name), "--ring", *tmax, "--json")
    assert digest == NON_REGULAR_RING_DIGESTS[(name, t_max)]
