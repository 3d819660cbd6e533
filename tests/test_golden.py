"""Golden outputs: the byte-exact reports of the scenario corpus.

The README promises reports that are byte-stable for a fixed input, so
each text and json report of scenarios 01-11 is pinned by its SHA-256.
A refactor that changes any byte of a report fails here.  The reports of
12-suite.sb and of ``suite --seed 42`` are pinned in
test_acceptance.test_13, which already runs them.
"""

import hashlib
import pathlib

import pytest

from structbundle import cli

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"

GOLDEN = {
    "text": {
        "01-line-chern.sb":
            "bcbcdf1edfa2adcf91609fa131aa35e71fb4b8d41f48643190cffbea99814d95",
        "02-winding-fail.sb":
            "72b74affed485fee3d3ade6f0527b8e867f6b6050ab5fdaf9dfc7803dfde790d",
        "03-gauge-winding-fail.sb":
            "ec55ee2d1b74212bb25a96c6b57fb0a97776a6ebdad485c1bd51424fdba60774",
        "04-unipotent-equiv.sb":
            "22245919c4e26d263c4a2ea9daadb08381b44f11858af6dcb29e8a3e6b9bac65",
        "05-grassmann.sb":
            "ab9c992c56845a5f9c300c8d30cbb317c726abe7720aa144c926be3897999dd8",
        "06-realize.sb":
            "aceb356286b0807eefb90c46c49d094f424230b8c8b0d7f59dec7698d40b12d4",
        "07-holonomy.sb":
            "d944f8c08a6ac7ffdc7ed9f6d1fababb586f475e5a41c76d17a1ca784c44dfb4",
        "08-sum-tensor.sb":
            "31676e1b6b3527a4cd9bf7a34eb63038c9c288a19f701c33ed3fd8a0c3c20c9e",
        "09-fourier-mix.sb":
            "01a8504f06e2f9e68cddf0aed2379a76271074140b318e304bdefd1ee2322f8f",
        "10-unipotent-torus.sb":
            "c7ef91092934eb454d50d3f3125bf1c415dbf11595afa1573d8029e98b10774b",
        "11-torus-line.sb":
            "11fc11f118b60808df03fe20bf28a7b2e3abe39665208603000f2698e2647140",
    },
    "json": {
        "01-line-chern.sb":
            "02a15b3b7f2dafc3475e28902c06d8db9976a29f4c058708d7b97a310aeb3174",
        "02-winding-fail.sb":
            "c9e2fed4cb4afcf2875e9e89208f9ca98f8733c927c501cc9d2e33a8cb684ff0",
        "03-gauge-winding-fail.sb":
            "6fe976543a04cee072b181e40defba00d54e6e3912d8f572f27695db0030c11f",
        "04-unipotent-equiv.sb":
            "c3173b624d4bc577326256ec21fa6b162fa2096ec9bc14aedec1c9f1ecfb4370",
        "05-grassmann.sb":
            "a8f577509401207114708aa0082e6f8d3390e227bb6b1ac2381fc6dbf43cc19a",
        "06-realize.sb":
            "b887a2286b810a5b2a662de3e62b317f22c1b0965bc193b211c818b27c2c19a1",
        "07-holonomy.sb":
            "73a5e02eef52301d5056701e36681e1b3b8791cbf8a52254b1d001611f518e1d",
        "08-sum-tensor.sb":
            "6f524d5f67e0984ef07a1dd6cce3d4e1d4e8b94cf09080cae30f6ae0cf3d0be7",
        "09-fourier-mix.sb":
            "8425e09eb0a02d701aedea3ce993aca55ea361d5f2113bc55ef96973c457ac46",
        "10-unipotent-torus.sb":
            "c615cea6b338afff7b8fec452b7711960831d02a0cc63a0e6d947b35b2322410",
        "11-torus-line.sb":
            "e8a9b3bf8339fe82308676be8aa4db848f8ea52e7da2c4274ed9bd4aa8816e8d",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt,name", [(fmt, name) for fmt in GOLDEN
                                      for name in GOLDEN[fmt]])
def test_corpus_report_is_golden(fmt, name, capsys):
    code = cli.main(["--format", fmt, "run", str(SCENARIOS / name)])
    assert code == (1 if "fail" in name else 0)
    assert sha256(capsys.readouterr().out) == GOLDEN[fmt][name]
