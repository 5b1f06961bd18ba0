"""Golden report fingerprints: the sha256 of every report line, with the
``elapsed_ms`` timing field stripped, for a fixed set of small invocations.

Together the cases cover every check x attacker x target combination,
loss with and without an attack on photon b among decoys, both
indeterminate checks, and sweeps over attacker policy and loss.  A
refactor that keeps exact replay leaves every digest unchanged.  A change
that alters report bytes on purpose re-pins the table (print it with
``PYTHONPATH=src python tests/test_golden.py``) and says why in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from depqkd.cli import main

_EVES = "none,ir-z,ir-x,ir-random"

CASES = {
    f"eve-sweep/{check}/{targets}": (
        "sweep", "--param", "eve", "--values", _EVES, "--check", check,
        "--eve-targets", targets, "--pairs", "300", "--decoy-fraction", "0.2",
        "--seed", "5",
    )
    for check in ("decoy", "wc", "both")
    for targets in ("b", "a", "both")
}
CASES.update({
    "loss": (
        "run", "--pairs", "300", "--loss", "0.15", "--check", "both",
        "--eve", "ir-random", "--eve-targets", "a", "--trials", "2", "--seed", "6",
    ),
    "no-decoys": ("run", "--pairs", "50", "--decoy-fraction", "0", "--check", "decoy"),
    "all-lost": ("run", "--pairs", "50", "--loss", "1", "--check", "wc"),
    "loss-sweep": (
        "sweep", "--param", "loss", "--values", "0,0.1", "--trials", "2",
        "--check", "wc", "--eve", "ir-z", "--eve-targets", "a", "--pairs", "200",
    ),
    # loss together with an attack on photon b among interleaved decoys: the
    # attacker draws for the delivered photons only, pairs and decoys alike
    "loss-attack-b-decoys": (
        "run", "--pairs", "300", "--loss", "0.2", "--check", "both",
        "--eve", "ir-random", "--eve-targets", "both", "--decoy-fraction", "0.5",
        "--trials", "2",
    ),
    # the same with a threshold the attack passes, so the converter check,
    # the second transmission and the joint measurement see attacked pairs
    "loss-attack-b-decoys-kept": (
        "sweep", "--param", "eve", "--values", "ir-z,ir-random", "--pairs", "300",
        "--loss", "0.3", "--check", "both", "--eve-targets", "both",
        "--decoy-fraction", "0.4", "--threshold", "0.6", "--sample-fraction", "0.3",
        "--seed", "8",
    ),
    # eight trials of one cell that end in every way a session can: a decoy
    # abort, an indeterminate decoy check, a converter abort, an
    # indeterminate converter check and two kept keys
    "batch-endings": (
        "run", "--pairs", "40", "--trials", "8", "--check", "both",
        "--eve", "ir-random", "--eve-targets", "both", "--loss", "0.2",
        "--decoy-fraction", "0.15", "--threshold", "0.3",
        "--sample-fraction", "0.3", "--seed", "6",
    ),
})

GOLDEN = {
    "all-lost": [
        "d96ef2833e46cc57c3651219d246329296e7d8c73ad23e6b86477f94c323cdc5",
    ],
    "batch-endings": [
        "810468458201a27731754171661106edabacc938f0cf3a0cc231903939098794",
        "2ccb0bd3830070e5fc7e871ae441b63d7b24c4a5449f57c61d40a714580bebc0",
        "371abdcb47b18767477139dc53d112d92f9f9c6069531331db9c392bf8da9b07",
        "0077311653b825d2e641ad7dd0ae3887aa4839d336dba0c7cfb3931e469ad5eb",
        "b7a8f28a7ed483855ceb248134c01e270d2e3cbfb81c16ffebf5aea113331a91",
        "f8d2988e52d434b43063e674f409a714599a2f7d26dd0ed2bca6557efde2f954",
        "caf58c4fb950d14e891ca13b21c4ecff98992afb18130179263eb2aef003723c",
        "f522110ad7e9f79ac370f965d3881351b9efa3cfa209d5d0a52b64613f232b53",
    ],
    "eve-sweep/both/a": [
        "00cbf0f2d8da7ca812f240ee2100df92383a39acbb2f5ac202abc005aeb1d34f",
        "35f04d53f1776ef1533ba37f3137d2da9a6d9c6e359c593af421ae3798666621",
        "5273b9231e2f62cf0d77045964ea00458600cbdfabb24122917d13c1814c7530",
        "2f014a91c5c4eb64ba1e0fd56ad8524cde6b46f4be9f72f98f17f07732c139fd",
    ],
    "eve-sweep/both/b": [
        "00cbf0f2d8da7ca812f240ee2100df92383a39acbb2f5ac202abc005aeb1d34f",
        "a9e10e369cc4a3269be337836143970392beb26e33f9d666b5a74a770a605a01",
        "4736f9978688ff5b981871deb73e0ef459abfb34403f0b5df58a166eb24a2e80",
        "42855634fabe1505d6f7cf1de72bff1f8f57916dd7affdbf6d7c9dcedb69dea6",
    ],
    "eve-sweep/both/both": [
        "00cbf0f2d8da7ca812f240ee2100df92383a39acbb2f5ac202abc005aeb1d34f",
        "b12c927ef2a44cc7e11952cc0c6de0f5685ae53722178de9d6190d438eeccc80",
        "17115e0dd6c14531dab6e2e95f256a5066e36f644e420565fea41dd2e43c0989",
        "627d9a75cdbb6e8c0998b66f6c63197c21530e43e8716ebb83e97be3f0d7b7f3",
    ],
    "eve-sweep/decoy/a": [
        "100e326fa86c8aebece6396f0899f2e89268c6b6c8e80f31c77dcb5d5bbf2647",
        "c564583078adf98b4fb362ecdbb4224e08810dafa79f7ee07e497f6943d1bae4",
        "ed46a4a9b83566455157eb4aeed967ea0fbe1bf2e8fb53b5ce1dc175ce5dd391",
        "b0aafda3a12cc245547ec139411a1426b2ca18c47328cdd211ed34595912b6b6",
    ],
    "eve-sweep/decoy/b": [
        "100e326fa86c8aebece6396f0899f2e89268c6b6c8e80f31c77dcb5d5bbf2647",
        "c2a64bc8b241ee776d907c311aa0864ed1135898a66cb239aeeb2dcea9eb04c7",
        "dc845e6a517fac69eb4940fa13f05c9f934e4d3a1874175ffad45fc68d3de482",
        "a142c864cf5aaa852e6a553eafef83275a78825542758ce1c96dcd9d60a88fc7",
    ],
    "eve-sweep/decoy/both": [
        "100e326fa86c8aebece6396f0899f2e89268c6b6c8e80f31c77dcb5d5bbf2647",
        "46ebf2975aa08351202414a7f1c56c405ec2157bf609c7742fd019ff2b2ebfa8",
        "045a34e7f22c6f89004b4b7b690724ccf265832549cab411bd01e27f8b5f13e1",
        "359e6efad7f3362f094053d53fc25ea4635717f1633adc8c900d8c7211156e15",
    ],
    "eve-sweep/wc/a": [
        "08bcacef4f64aeeba06d3eed2df0b17dda8842e50931b18d7502ad7f2a8d7a18",
        "f1e0a646b1c1170adbebeeaf556f9b95375b7cecece044a4b40b1313c95a5770",
        "4832e0d696cb21bedfaa34ba4f51d70b3016074482abf5aa76ad6f7812c2830d",
        "5074a1aae9dfe7a8b7d80702ff7df1a7791af251981914e9dc228ddd096a53c6",
    ],
    "eve-sweep/wc/b": [
        "08bcacef4f64aeeba06d3eed2df0b17dda8842e50931b18d7502ad7f2a8d7a18",
        "3cd227199b7fe9d65aafad0204a2da8f931889aacb7544f8c82518aa3b0cef05",
        "bd6b00e22793b33160d118e21ad36bc8e61242509673899e2ce6346b42755bf0",
        "882c613718bc994d240b2b80a779c3102045cc6bcb1330cf8853eae99df2adca",
    ],
    "eve-sweep/wc/both": [
        "08bcacef4f64aeeba06d3eed2df0b17dda8842e50931b18d7502ad7f2a8d7a18",
        "4771ebd388a428aac108d25300fad1c09a927187adcb8d2e361089000e181e94",
        "9e820f648c38ec356fcbf36bdad938b5fd0e04ad2f3a9ae465aa05f80b70ea9f",
        "6676facdeec901cee1b52591b4dc76e25b40fec8eab81ac3a8187078b7e5541d",
    ],
    "loss": [
        "33f6fa12edbc2b627c9bdd1d8c321d4cb4de207e8d0a103332cf38706bbef6ee",
        "7ae6ac4d8a71eaaca29310770f05d37dd83b785cbc5ecda00875eaaa1b06b910",
    ],
    "loss-attack-b-decoys": [
        "2ffcaa6582a9cfb8871649cddd9c7fd2288ec9b6e99287ba0cf1e18e73a35804",
        "75c6c0e240cfafde749e7fffa5c4803ff16471c5c4a67c8e7499d2c9220abad5",
    ],
    "loss-attack-b-decoys-kept": [
        "34a824b8a729e3ad8258102c5b0873681450ae60c302366a764b75d4c3c45fca",
        "7ba3f1bc839bd894a8e46ec5340aa3594bdbc423e67ea0548af78aae31585809",
    ],
    "loss-sweep": [
        "00ddeef8a2edce91e154c5a7d654ff86f079c2312a69a5752b978bd2319d59d8",
        "2fde6e1404a50fd21d94ab5d19e3c6e99f69c0c7d56883cb1660ec393d953932",
        "b5996cb71564dc746aaf9ebe8c93afd091e7e7acf98839fea1c96068b97dc1a3",
        "b83b4b52715ecdccc0fe290152eec02a91dcad1b5d9eef204c5ef03bcbf61de6",
    ],
    "no-decoys": [
        "369a4a555295432681e456798eb1521d501fdbdbd30219a03a074961329cac44",
    ],
}


def fingerprints(argv) -> list[str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return [
        hashlib.sha256(line.partition(', "elapsed_ms"')[0].encode()).hexdigest()
        for line in buf.getvalue().splitlines()
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_fingerprints_are_pinned(name):
    assert fingerprints(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - prints the table to re-pin
    for name in sorted(CASES):
        print(f'    "{name}": [')
        for digest in fingerprints(CASES[name]):
            print(f'        "{digest}",')
        print("    ],")
