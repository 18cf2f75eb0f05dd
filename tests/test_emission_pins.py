"""Byte pins of every file `olfl run` emits.

Each case runs the CLI into a fresh prefix and hashes every written file by
its suffix. `aggregate.json` is hashed without its `timing` block, which
holds wall times, and a replay's without the trace path it echoes. The
digests were recorded before the trial loop became columnar, and the
uneven-range iid and replay cases before the scenario sources built their
sequences as whole arrays, and the shared-scenario hedge-exact and
ftl-greedy cases while those learners ran one scalar learner per seed; the
files must stay byte for byte the same.
"""
import hashlib
import json

import pytest

from olfl.cli import main

CASES = {
    # the README's fl example
    "readme-fl": "--algo fl --n 100 --t 1000 --c-max 1 --d-max 1 --scenario iid --scenario-seed 7 --seeds 1,2,3",
    # the README's drift example
    "readme-drift": "--algo fl-bounded --k 3 --n 50 --t 500 --c-max 1 --d-max 2 --scenario drift --drift-step 0.1 --seeds 1,2,3,4,5",
    # three fl seeds on the killer that restart on different trials
    "fl-killer": "--algo fl --n 2 --t 3000 --c-max 1 --d-max 1 --scenario killer --seeds 3,5,8",
    "fl-bounded-iid": "--algo fl-bounded --k 2 --n 6 --t 500 --c-max 1 --d-max 1 --scenario iid --scenario-seed 97 --seeds 1,2,3,4,5",
    "hedge-exact-killer": "--algo hedge-exact --n 6 --t 200 --c-max 1 --d-max 1 --scenario killer --seeds 3,5",
    "ftl-greedy-killer": "--algo ftl-greedy --n 6 --t 200 --c-max 1 --d-max 1 --scenario killer --seeds 3,5",
    # three seeds, so the mean of their equal comparators is not exact
    "ftl-greedy-killer-3": "--algo ftl-greedy --n 10 --t 300 --c-max 1 --d-max 1 --scenario killer --seeds 1,2,3",
    # hedge-exact and ftl-greedy on shared scenarios, several seeds each
    "hedge-exact-iid": "--algo hedge-exact --n 6 --t 200 --c-max 0.5 --d-max 2 --scenario iid --scenario-seed 13 --seeds 1,2,3,4",
    "hedge-exact-replay": "--algo hedge-exact --n 5 --t 300 --c-max 0.5 --d-max 2 --scenario replay:{trace} --seeds 4,6,9",
    "ftl-greedy-drift": "--algo ftl-greedy --n 6 --t 200 --c-max 1 --d-max 1 --scenario drift --scenario-seed 5 --drift-step 0.1 --seeds 1,2,3",
    # opening and connection ranges differ, so each trial's two draws do
    "iid-uneven": "--algo fl-fixed --k 2 --n 8 --t 400 --c-max 0.5 --d-max 2 --scenario iid --scenario-seed 11 --seeds 1,2,3",
    # replays the scenario trace that REPLAY_SOURCE writes
    "replay": "--algo fl-bounded --k 2 --n 5 --t 300 --c-max 0.5 --d-max 2 --scenario replay:{trace} --seeds 4,6",
}
REPLAY_SOURCE = "--algo fl --n 5 --t 300 --c-max 0.5 --d-max 2 --scenario drift --scenario-seed 3 --drift-step 0.2 --seeds 1"


def emitted_digests(args: str, prefix: str, capsys) -> dict[str, str]:
    """sha256 of every file `olfl run <args> --out prefix` writes, by suffix."""
    assert main(["run", *args.split(), "--out", prefix]) == 0
    paths = [line[len("wrote ") :] for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".aggregate.json"):
            aggregate = json.loads(data)
            del aggregate["timing"]
            if aggregate["config"]["scenario"]["kind"] == "replay":
                del aggregate["config"]["scenario"]["path"]
            data = json.dumps(aggregate, indent=2).encode()
        digests[path[len(prefix) :]] = hashlib.sha256(data).hexdigest()
    return digests


# recorded before the trial loop became columnar; iid-uneven and replay
# before the sources built whole arrays; hedge-exact-iid, hedge-exact-replay
# and ftl-greedy-drift while hedge-exact and ftl-greedy still ran one scalar
# learner per seed; ftl-greedy-killer-3 while ftl-greedy held one row per
# seed on the killer
PINS = {
    "fl-bounded-iid": {
        ".aggregate.json": "85e5aa9f6df8238ae766ba90e17fc884893b85236ed597209bdd1096352d1c22",
        ".regret_curve.csv": "df93e656cbd09c95fa2a03ee53d22025202ccaad259fd2008234756225e7b419",
        ".scenario.csv": "6b3d1192bddbcfe597b437d4bafaa40a9211fd38b203e72749c693a9c03de42c",
        ".trials.seed1.csv": "29dc29ab6045dbc73890ef9071d74ca26ed0758ff3ce32c1b4b78bbf8b86c056",
        ".trials.seed2.csv": "0823fb56e99304de1f6065061c2cdab22d8d136c393320f6ffcafc9c184f307a",
        ".trials.seed3.csv": "a97801d5002b0e08b154e21cd6790587cbdc2cfb545af36d82203840c6be7e3a",
        ".trials.seed4.csv": "f155045f3df47aa8572c562dcf3f631a7b7df09c7ef13de78ac8b307a5ad45fe",
        ".trials.seed5.csv": "119c7cdb66b58e12a3dbbd2a89dd13c6c0759d2a62f78ad150e393d1e72d650c",
    },
    "fl-killer": {
        ".aggregate.json": "2eecdec8f2db71827eb0742e361577538cf35ae17d284ae303bdc826e21a435b",
        ".regret_curve.csv": "afdeb05c6fb17100fe8afe411b04d65534215f8a2f9ef91946f1bb2e40cf5911",
        ".trials.seed3.csv": "140d4b6c5baf0b94e5b4f3c3fbe7f2724356b771b22605dd91f6d6b73cb3734c",
        ".trials.seed5.csv": "b4379c44175ad2b718eeccefcf3ecec8f3d1fc8dab814f7e4aef521838a7a5f6",
        ".trials.seed8.csv": "da6f1e476f608dda7e797739570b2887ac18f849f9e3b6f59d4ff445c7b99119",
    },
    "ftl-greedy-drift": {
        ".aggregate.json": "aa771f235e15fda0f7dff71d8f68ec667c9da4a685733d0ee6bdcb03ac103e6a",
        ".regret_curve.csv": "76e425a8150e54560a8e2e015ede73416922e224bae6109923b252dab45edad4",
        ".scenario.csv": "da60fb3749b8f744d404f90a56cf9229350022e09b11c0688bd4e592da949507",
        ".trials.seed1.csv": "33cb53c139ab61db8b94924bf0d2ffb08106141cf14cc088d2e59ba295beb1f8",
        ".trials.seed2.csv": "472fe37acf949aaf0b37f6ced473441e23f7cb2ba8c3b5d82fdff9b48daa827c",
        ".trials.seed3.csv": "eab1e1bb20409b6ae666ee323cccac6a4638bc478e809f6db38f853c75e0d226",
    },
    "ftl-greedy-killer": {
        ".aggregate.json": "a8572fef1ab74f6aed9e409c2ae680e327d5a21128027d7b2724b95c67aaedcc",
        ".regret_curve.csv": "f333509cb158992bb20170f5f05ed0f64dcef4b2f03d79fa02ee6366ee736890",
        ".trials.seed3.csv": "cb254088d4e7cc5f929c56e4400b041aa5f63045165098ce8a2dff92e3f04e4c",
        ".trials.seed5.csv": "a5c73b740a05db0f20123e8b1dcdc0e345648610b10f7810bbeb2e5f4c87d090",
    },
    "ftl-greedy-killer-3": {
        ".aggregate.json": "842977de5def3956df2c35a443165b2a870fbbec6414a716ddebf1c7642d5b4f",
        ".regret_curve.csv": "a3727ba0c2ccfa897fb351428072b01e80ed491a353fa6a754aa5fd26523a79c",
        ".trials.seed1.csv": "3ec025f52213c424c6826d78ee35f8732f1d790aef3757e5ff193b2436bc249b",
        ".trials.seed2.csv": "9fe3e073f77cf2f51133f996de833d69acb5acde4fb15e3d07f1ddb017093cbf",
        ".trials.seed3.csv": "d71fd104cb7786be999a4f1d86856b18fe974e5a04b705f28a0f98ee44a49fb5",
    },
    "hedge-exact-iid": {
        ".aggregate.json": "b202532d9401b2064eb2af3fc146309ffca77f03ff64d8c9c42372e0ecb822b8",
        ".regret_curve.csv": "19febc21c489191683249833c398da1948533ef5a4a1ddfd8abfdf3b62c4aad3",
        ".scenario.csv": "3252eeb4720461c41b3fa84bd14590e641f852034be6cbe695ad71c1ef58950e",
        ".trials.seed1.csv": "7bb2edef2991bbdca753c10f3b0c28954d417e74837c07c6ceed03a9c92122d1",
        ".trials.seed2.csv": "d3e9a52e9efb079751a4b21910ae96f310e2785cba2d34eb8f8a255e511ffd89",
        ".trials.seed3.csv": "b9cb1ed9fa49a985e61e12d32091e90b42706518e4a6d3a926df49f076edac5a",
        ".trials.seed4.csv": "dc2ec9521a8f81df8e5eeb64e55416c363ed7d9b2534924b952c6c47cc2746a0",
    },
    "hedge-exact-killer": {
        ".aggregate.json": "2c2ab63352cd5e698bf714f206c73d7036f7d20a3a6a71023e1620a9f7d8aeeb",
        ".regret_curve.csv": "765e0e09abbb5170c133a5e8716f247508ea1520407d48b02b3db080f6032fc5",
        ".trials.seed3.csv": "3d77e2770b0658ace7d40d0c44e079bb5e79f3faa0afb379d888ca7d8ae479cc",
        ".trials.seed5.csv": "9645ab6daa5a4198a4114fffef8f22a9f8bc9386975a00ffdbc1ffcf1ede5b5d",
    },
    "hedge-exact-replay": {
        ".aggregate.json": "e864803404e0bac2822b3b46966439bdc8ef522e4a09956430ec77d86de6febf",
        ".regret_curve.csv": "61207a9d404e4dc6f392e1975009be2e964a4282838e60e60ee60b39bfa97381",
        ".scenario.csv": "bd3cab8d51adb38e56442954287a0553580982539548fc98cf24344c622ebf4b",
        ".trials.seed4.csv": "50bc6ef5f3bd9fd82f2835df83e20d0762951ef90ca60db349182547e77cf696",
        ".trials.seed6.csv": "2fc4c49e6e4a49c85d2c9fcce37d2955594b4a707440f973532286aa0efcf673",
        ".trials.seed9.csv": "d4a6a6be14f5c042eee4a4f40ed836b2cccd90eb53ca34165fa11bba0a864d2c",
    },
    "iid-uneven": {
        ".aggregate.json": "47129f6b4e99882106296b011eaf56d578599082765576a0fa9e43105be58674",
        ".regret_curve.csv": "d01eedb5a465bce2319ada787b85352d747968cf101d1c12f40a3ab1278bdd8e",
        ".scenario.csv": "fe376bb1b160e443f4f100a11fba170df5a1e41bfaf661e0cfd9a5ad87c316be",
        ".trials.seed1.csv": "448bee03751227bc55bfbeaf4956497e3571a662468884d98694a38f56db764f",
        ".trials.seed2.csv": "6f5f962af8cb5bdae0f87dab18572c480218c1167c4b3c17772d521146596c4d",
        ".trials.seed3.csv": "9fc3f9bad1bc0c04c9d7bf110579b6a27adbec14b2dd9f8e0a1f36937b22c40f",
    },
    "readme-drift": {
        ".aggregate.json": "b2e666150563e7ca4a641289b3068744c36a8486203e6c71f42c556ac0d1e4eb",
        ".regret_curve.csv": "e9c6c3b95553613bdabeb8f42356a0c89816427475761c2d73efb622dc40b6a8",
        ".scenario.csv": "5f546bb01b0a906e1ffbca34bfbfe621b8d4b05c1be190346c72431c62a3b3b5",
        ".trials.seed1.csv": "959858ee8e98de2acbd998c13a1f6cd9315ccca473ed0601c2541a7e3cf9a7ef",
        ".trials.seed2.csv": "eca16b9c1efeefc8c1af96d5cff3100079e9a0a161af1d0f09aaa1c0961d9e2a",
        ".trials.seed3.csv": "9cf4277a1a6dac016e4cdff334a1c1ed0b64bf4d8b795552e7f85f5fc97cda08",
        ".trials.seed4.csv": "d680a2c3a0787ec6331aad66f925548010de19d5f2f89a3cd5f44199b2d2afdf",
        ".trials.seed5.csv": "476a8878e1b5574d5624159d73168af568c59a3da5318d801eb3b29f59483183",
    },
    "readme-fl": {
        ".aggregate.json": "63828b13bcac96c4c644e9244b92b61605dc3e246e388a893dc9cbb9d7320b97",
        ".regret_curve.csv": "712965781aec93f682703a9315cae05cffe425b897cb818cea5d964032fbf2e6",
        ".scenario.csv": "462b37eed0253e70eba15469945bd39aa311538b5f67e0ea8441b8af716a04b4",
        ".trials.seed1.csv": "c2e21d897ac49816ba38be4e3483be43c94b029fc4910ae1a609abb8b9b2e1dd",
        ".trials.seed2.csv": "105ddad8d45e304860b25b6bcfffc5928dd3af77d25f5862a3e80d46f581de27",
        ".trials.seed3.csv": "e77846fe4e3aa72f5c8d8b1730a6e77eefa53b60a2aa95374dfce83ebf57cfe6",
    },
    "replay": {
        ".aggregate.json": "a52ddd3585576ae8d3f4ff7a665dacb1bcbdec60e84085efcee78fb14d792ed6",
        ".regret_curve.csv": "2e6fc723a2105b9d79c53457d88edd2b6ac7d48d980d1b8b6ed10650e9eee96e",
        ".scenario.csv": "bd3cab8d51adb38e56442954287a0553580982539548fc98cf24344c622ebf4b",
        ".trials.seed4.csv": "29333b755b93d4508057290f0ce9ec0a2c9f3e62715928d8c938aa486fb2c27b",
        ".trials.seed6.csv": "e784e15b765b1d5114e46cff8d643cfa40ff3fada75d839771bdc4a4eabb7adc",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_files_match_their_pins(name, tmp_path, capsys):
    args = CASES[name]
    if "{trace}" in args:
        assert main(["run", *REPLAY_SOURCE.split(), "--out", str(tmp_path / "source")]) == 0
        capsys.readouterr()  # only the replay's files are pinned
        args = args.format(trace=tmp_path / "source.scenario.csv")
    assert emitted_digests(args, str(tmp_path / name), capsys) == PINS[name]
