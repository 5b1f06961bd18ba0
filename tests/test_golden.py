"""Golden report fingerprints: the sha256 of every report line projected
onto the fields and ``config`` keys these digests were pinned with, written
as the line's text before the ``elapsed_ms`` timing field, for a fixed set
of small invocations.  Today the projection is the whole line, which a test
asserts: a field or key added later leaves these digests in place and is
pinned in a table of its own.

Together the cases cover every check x attacker x target combination,
loss with and without an attack on photon b among decoys, both
indeterminate checks, and sweeps over attacker policy, loss, threshold,
both fractions and the pair count.  A refactor that keeps exact replay
leaves every digest unchanged.  A change that alters report bytes on
purpose re-pins the table (print it with ``PYTHONPATH=src python
tests/test_golden.py``) and says why in CHANGES.md.
"""

import hashlib
import io
import json
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
    # loss 0 and 1 and a sample fraction of 1 decide every loss and sampling
    # coin, under an attack on both photons: the attack rows and the
    # converter draws follow the decided coins on the same streams, at block
    # sizes that are not multiples of four
    "decided-coins": (
        "sweep", "--param", "loss", "--values", "0,1", "--check", "both",
        "--sample-fraction", "1", "--decoy-fraction", "0.3", "--threshold", "0.6",
        "--eve", "ir-random", "--eve-targets", "both", "--pairs", "97",
        "--trials", "3", "--seed", "9",
    ),
    # sweeps over the settings a batch may hold per session: some sessions
    # abort and some keep keys, beside a decided value (decoy fraction 0,
    # sample fraction 1, loss 0 and 1) among drawn ones
    "threshold-sweep": (
        "sweep", "--param", "threshold", "--values", "0.05,0.2,0.35,0.6",
        "--trials", "3", "--check", "both", "--eve", "ir-random",
        "--eve-targets", "both", "--pairs", "60", "--decoy-fraction", "0.3",
        "--sample-fraction", "0.3", "--loss", "0.1", "--seed", "12",
    ),
    "decoy-fraction-sweep": (
        "sweep", "--param", "decoy-fraction", "--values", "0,0.15,0.4",
        "--trials", "3", "--check", "both", "--eve", "ir-x", "--eve-targets", "both",
        "--pairs", "50", "--threshold", "0.4", "--sample-fraction", "0.25",
        "--loss", "0.1", "--seed", "13",
    ),
    "sample-fraction-sweep": (
        "sweep", "--param", "sample-fraction", "--values", "0.1,0.3,1",
        "--trials", "3", "--check", "both", "--eve", "ir-z", "--eve-targets", "both",
        "--pairs", "45", "--threshold", "0.45", "--decoy-fraction", "0.2",
        "--loss", "0.1", "--seed", "14",
    ),
    # equal losses in neighbouring cells, and decided ones between them
    "loss-runs": (
        "sweep", "--param", "loss", "--values", "0.2,0,1,0.2,0.2", "--trials", "3",
        "--check", "both", "--eve", "ir-random", "--eve-targets", "a",
        "--pairs", "40", "--decoy-fraction", "0.2", "--sample-fraction", "0.3",
        "--threshold", "0.3", "--seed", "16",
    ),
    # cells of different pair counts, whose nine sessions run as one batch
    "pairs-sweep": (
        "sweep", "--param", "pairs", "--values", "20,35,20", "--trials", "3",
        "--check", "both", "--eve", "ir-random", "--eve-targets", "a",
        "--decoy-fraction", "0.2", "--sample-fraction", "0.3", "--loss", "0.1",
        "--threshold", "0.3", "--seed", "15",
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
    "decided-coins": [
        "e90c806a0c8ab12396484935ff57602018e7bf3f71b0036579581a49c58f7d39",
        "cc190de4879e298802e3658927e8deadaa26e06148fdd239cd5ad6cbd0da7d5d",
        "fd7a34e113439bcdd298d99b1561eecc7212ca38a4a04d07fd5a3ec371719a0b",
        "594bc96a3e23a3354c48b808f8bf38468a6efa23b97c2b0c36f5d4738863470b",
        "499a1311f7ca519a3c95dc253018e076ec8ba4716b1f694db355b116c0203e1d",
        "cdd7729510c3c88ec4bbfda27d34e6e83c2d6d3eb8d0133511c8060b29c451ac",
    ],
    "decoy-fraction-sweep": [
        "e88266cd8712bfc023382441488a4517ae61e316701f6c8ca5e0bcc600be6c67",
        "0deb3d32b6a841ff7dee23b2adc535fead2794786a24ea9b51431a28a7f0034f",
        "9a9b67e71853959a1509d46d3873195db6f87e1e2bc5f5a7149b565a427105ba",
        "6765a805fbd30f46e2445dbfa4b40231e0903cd8b806fbe3568f9b738de1074d",
        "ad7dce1f24c072c9e064f6d06f35cf2c65f62eb287cf120e6d9afbd65b7903e7",
        "45edcee7ab4cebc2afa9b099361dbb40d190474499784eb411380d2755a643b7",
        "b8348167138702e454df57217b67cf224232859d83738125d79c1157d881c650",
        "226cae348442ea720c3a3294ffe6ff8454732dd8abf4b56753f39fe35550165d",
        "eb594b6d09abb73f35c21938b7ce343d64174ab4db1f2a83bd10a8eca7cc2055",
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
    "loss-runs": [
        "62495be7d5777f05ca9bc6ede373aa26d8309153d1e8e80f682e3144717d0487",
        "5b4155f45954dd039d84ba14f169196befb34f789e0eaeebb483afbf3a64e04c",
        "c5e2a87fcc6511280c700dd94085df7440a069f879e7bfa97055f6ea2fcf7639",
        "0927019b401bd444e7cadddacaf9473ced987ffd83f0a197c5ebd55fae6dd6f8",
        "6b04920a856e4c4dc24771b7b3918940374df36fb0b28553b6bdd07c2321f4b8",
        "44301c8b7f75ac5faa6acaab90e9f6c3e1621de678b4d04574a1c4e66f0f3fff",
        "eb9a504b56a0640fdcf43d0410ca2ef33aa123dd3a110d2154c023be005ee102",
        "b0ce1fc17be1ed31f224fc06250a46683c6a714881b13d1b47abebbc57171f01",
        "0da264ddb81b065f432572165b6f46662c31716308db0898d54c1731982f390d",
        "bc3df4938c93c6e5f32d4713452723b65deeb0b8ea95e224032acc7a8c35d2c3",
        "7cc2ed4b8c488688b6763c7798e592928b93fa5e0073967e6a356587a394324e",
        "8fb56cd391db80c652d75f99237f323acc74be3bad4ca28f6f02173763851049",
        "547fa0c28361d7a1bb8bcfb96d1d18e0e8e48cbbe2e09761c855302a02d372fb",
        "ad84942e2702ac443807ce8f0e1cd9e7f6216ebbbeeaefac820d3ad45fac0022",
        "df223777a74b40bb4d94ef05fa8966f7be506c2d8aa1735888588b027617030b",
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
    "pairs-sweep": [
        "49417145328d1493b826458997040d0c11b9b238f4c5d85142b18a675d461b71",
        "2e8abf3ebce378ff6c41340ef1e94a5afdabc4bf3746dc1390fb82a897b50910",
        "21c9ed1c020fb2d760e77f94aa9d2eb3242207ddf3c5758a11a24d73bb2755a7",
        "e7e633c63fb44cea21b8650346391e64e97328f32fa140bd5eb68f3fbdb71440",
        "d51c2a5a1c3bbb2242f79ce241ad3b46330123a7734294237cec8d2271016d08",
        "7ecf10ec67aa86ed5dd8c9d0b5f16ae9e0b327fe249aee866c2f5a5c91654da4",
        "8dce046c53e2b63578df49bae84f431fcb41be3c46ba7dcee7902a69f08bf580",
        "425f0e3ad8ab4b9cd2552683ed9f33af26d2606ab54fde29aa0636b9d4ca9b51",
        "f1575dff3c4c4c4276a558a3f7929c8702a90207ead7b23fa514d1def00963db",
    ],
    "sample-fraction-sweep": [
        "c4d5963c6591ab3712b975443156fadae3b235a8961a37d01ddbd830769496df",
        "385f23d9886d117396e6803a9cd1334f0a99f7e948f56a6c6a818de243f1ef5a",
        "6a69282c84e32ec1e7f282053ef018234ddc91614872eb015e9dd721b306f247",
        "367f2e1f7d202f9abaa91cffdf4b3345ec9943fac0816ad4e12c7d7d31f99c4b",
        "c2b5c7c12a02629439d62862eae93f4410895791535ef24edb3bd7f1b1ca54ad",
        "ef4fe0ae09d3d69d20947f983f22dcecd69cce6a1b295cb9c9ef20b71c2a0a9b",
        "599fded83557a859fa1023c8efd7318de39cb0ec76c693abd31abbcacd25f785",
        "20f3c8e6d1708e627d11376414cf98931d7f68ae95e346a7ac3547c57bf7f813",
        "659dbfd411412390bb28d1dd0be3edc4b995f28a8b3af24bb7b1f70bc3674edb",
    ],
    "threshold-sweep": [
        "e0f24161f13a18f95545566b09db1f22c9385c704a2953d8a4e203b9e9fef50b",
        "bf392a3c36305185641f54abe063a5b468f4b72202f27d00b1acce8946e8a572",
        "ade3d35819705f2777fc4692d91bbf29870708403ae1adf7d70675d4d1100f12",
        "6937ab9f25f99316d367e1d5a31f54cd88de6ff77bb2d47ac05ebead54bdf4fe",
        "798ed71be96a1356561c686a5555829534fd173de08d930346e393d0aee839b0",
        "ea464d4129e2a6b8fdf05a7dff524a8bcb972a2fe087a71293ea7dee78437a2b",
        "1d0e876edb4499e42ca078379a6097c5bcd7cbcaa066c5d89084719b7a26d3fc",
        "69198df6acfcf4c9c83438049e3e8fb8e144ed6efce52678e752b07c5d046038",
        "5e43ebb91f23dca048bb3bb5facb506e8e907288c5cf7fa481d51b4b39db718d",
        "cfc594ece0bfa2d4d5862d745f78cb7686ea6634b434f480103aa87b6f7f752c",
        "ee3f17554856b50d384560f082afb04c956e51a53d2b83e9a39d3dcf49b3fe71",
        "03c2ad5915564ccb2c34d3c830e97e805d8b230487cb4874d10532b322a76234",
    ],
}


# The report fields before ``elapsed_ms`` and the ``config`` keys, each in
# order, of the lines GOLDEN pins.
FIELDS = (
    "subcommand", "trial_index", "seed", "config", "decoy_qber", "wc_qber",
    "final_qber", "aborted", "key_len", "alice_key_hex", "bob_key_hex",
)
CONFIG_KEYS = (
    "pairs", "seed", "decoy_fraction", "check", "sample_fraction", "threshold",
    "loss", "eve", "eve_targets",
)


def report_lines(argv) -> list[str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().splitlines()


def projected(line: str) -> str:
    """``line`` cut down to FIELDS and CONFIG_KEYS, written as a line's text
    before ``, "elapsed_ms"``: ``json.dumps`` without its closing brace."""
    report = json.loads(line)
    report["config"] = {key: report["config"][key] for key in CONFIG_KEYS}
    return json.dumps({key: report[key] for key in FIELDS})[:-1]


def fingerprint(line: str) -> str:
    return hashlib.sha256(projected(line).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_fingerprints_are_pinned(name):
    lines = report_lines(CASES[name])
    assert [fingerprint(line) for line in lines] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_projection_is_the_whole_line(name):
    # every line holds exactly the pinned fields and config keys, in order,
    # and then elapsed_ms alone
    for line in report_lines(CASES[name]):
        head, sep, tail = line.partition(', "elapsed_ms": ')
        assert projected(line) == head
        assert sep and tail.endswith("}") and "," not in tail


if __name__ == "__main__":  # pragma: no cover - prints the table to re-pin
    for name in sorted(CASES):
        print(f'    "{name}": [')
        for line in report_lines(CASES[name]):
            print(f'        "{fingerprint(line)}",')
        print("    ],")
